"""The package layering the README claims, read from the import statements
of `src/netnaf/*.py`: the loop and trainer take a duck-typed config, and
the model layers import nothing from the loop or the config. The package
also stays inside the ROADMAP's size budget."""

import ast
from pathlib import Path

import pytest

import netnaf

PACKAGE = Path(netnaf.__file__).parent
# the ROADMAP's size budget: lines in src/netnaf/*.py, as `wc -l` counts them
SIZE_BUDGET = 2400


def imported_modules(name):
    """The netnaf submodules that module `name` imports, by their short
    names, from every import form (`import netnaf.x`, `from netnaf import
    x`, `from .x import y`, `from . import x`)."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (("netnaf." if node.level else "")
                      + (node.module or "")).rstrip(".")
            names = ([f"netnaf.{alias.name}" for alias in node.names]
                     if module == "netnaf" else [module])
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("netnaf."))
    return found


def test_imported_modules_reads_every_import_form():
    assert imported_modules("verify") >= {"naf", "nn", "agent", "config",
                                          "delays", "plant", "reward"}
    assert imported_modules("cli") >= {"agent", "config"}


def test_agent_imports_no_config_cli_or_verify():
    assert not imported_modules("agent") & {"config", "cli", "verify"}


@pytest.mark.parametrize("name", ["nn", "naf", "plant", "delays", "reward"])
def test_model_layers_import_no_agent_or_config(name):
    assert not imported_modules(name) & {"agent", "config"}


def test_package_stays_inside_the_size_budget():
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in PACKAGE.glob("*.py")}
    assert {"agent.py", "nn.py", "__init__.py"} <= set(lines)
    assert sum(lines.values()) <= SIZE_BUDGET, lines
