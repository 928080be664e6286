"""Experiment configuration: flat key-value text with one section per concern.

Unknown sections or keys are hard errors; a silently misspelled
hyperparameter is the classic way these experiments stop being
reproducible. Every run directory gets a resolved snapshot that parses
back to the identical configuration.

The config is the closed loop's one description: `run_episode(net, cfg)` and
`Trainer(cfg)` take it alone, build the plant from its builder and draw the
delays from its delay law.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .agent import Trainer, extended_state_dim
from .delays import GRID, UNIFORM, grid_steps
from .errors import ConfigError
from .plant import OUTPUT_DIM, ChuaCircuit


def _setting(section: str, default, key: str | None = None):
    """A field written as `key = value` under `[section]`; the key defaults
    to the field name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every hyperparameter of one experiment, each defined only here.

    Each field carries its `[section] key` in the text form, and the field
    order fixes the snapshot layout. Frozen, so the config a `Trainer`
    holds cannot change under it; a changed copy comes from
    `apply_overrides`.
    """

    plant_name: str = _setting("plant", "chua", "name")
    p1: float = _setting("plant", 10.0)
    p2: float = _setting("plant", 100.0 / 7.0)
    delta: float = _setting("plant", 2.0 ** -4)
    horizon: float = _setting("plant", 12.0)
    substep: float = _setting("plant", 2.0 ** -8)
    init_box: float = _setting("plant", 4.5)
    delay_distribution: str = _setting("delays", UNIFORM, "distribution")
    sc_min: float = _setting("delays", 2.0 ** -4)
    sc_max: float = _setting("delays", 3.0 * 2.0 ** -4)
    cp_min: float = _setting("delays", 2.0 ** -4)
    cp_max: float = _setting("delays", 3.0 * 2.0 ** -4)
    sc_bound_steps: int = _setting("delays", 4)
    cp_bound_steps: int = _setting("delays", 4)
    hidden: tuple = _setting("network", (128, 128, 128, 128))
    tanh_weight: float = _setting("network", 4.0)
    output_history_len: int = _setting("network", 4)
    episodes: int = _setting("training", 8500)
    gamma: float = _setting("training", 0.99)
    soft_update_rate: float = _setting("training", 0.001, "soft_update")
    batch_size: int = _setting("training", 128, "batch")
    update_iters: int = _setting("training", 10, "iters")
    update_period: int = _setting("training", 4, "period")
    learning_rate: float = _setting("training", 1.25e-5, "lr")
    replay_capacity: int = _setting("training", 1_000_000, "replay")
    warmup: int = _setting("training", 128)
    divergence_penalty: float = _setting("training", -1000.0)
    checkpoint_every: int = _setting("training", 500)
    ou_theta: float = _setting("noise", 0.15, "theta")
    ou_sigma: float = _setting("noise", 0.2, "sigma")
    noise_scale: float = _setting("noise", 3.5, "scale")
    noise_decay_start: int = _setting("noise", 1000, "decay_start")
    noise_scale_final: float = _setting("noise", 0.05, "scale_final")
    seed: int = _setting("run", 0)

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        self.validate()

    # -- validation and derived quantities

    def validate(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.plant_name != "chua":
            raise ConfigError(f"unknown plant {self.plant_name!r}")
        if self.delta <= 0 or self.horizon <= 0 or self.substep <= 0:
            raise ConfigError("delta, horizon and substep must be positive")
        steps = self.horizon / self.delta
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
            raise ConfigError("horizon must be a whole number of sampling periods")
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ConfigError("hidden widths must be positive")
        if self.tanh_weight <= 0:
            raise ConfigError("tanh weight must be positive")
        if self.init_box < 0:
            raise ConfigError("init_box must be >= 0")
        if self.divergence_penalty > 0:
            raise ConfigError("divergence penalty must be <= 0")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        try:  # the plant's own checks
            self.plant()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        ranges = {"sc": (self.sc_min, self.sc_max), "cp": (self.cp_min, self.cp_max)}
        for name, (lo, hi) in ranges.items():
            if not 0.0 <= lo <= hi:
                raise ConfigError(f"{name} delay range must satisfy 0 <= min <= max")
        bounds = {"sc": self.sc_bound_steps, "cp": self.cp_bound_steps}
        if min(bounds.values()) < 0:
            raise ConfigError("delay bounds must be nonnegative step counts")
        for name, steps in bounds.items():
            if ranges[name][1] > steps * self.delta + 1e-9 * self.delta:
                raise ConfigError(f"{name} delays can exceed the declared bound")
        if self.delay_distribution not in (UNIFORM, GRID):
            raise ConfigError(
                f"unknown delay distribution {self.delay_distribution!r}")
        if self.delay_distribution == GRID:
            for name, (lo, hi) in ranges.items():
                if not grid_steps(lo, hi, self.delta):
                    raise ConfigError(f"no multiple of delta lies in the {name} range")
        try:  # the history layout's own checks
            self.extended_dim
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not 0.0 < self.soft_update_rate <= 1.0:
            raise ConfigError("soft update rate must be in (0, 1]")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.episodes < 1 or self.steps_per_episode < 1:
            raise ConfigError("episodes and steps per episode must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.warmup < self.batch_size:
            raise ConfigError("warmup must be at least one batch")
        if self.replay_capacity < self.warmup:
            raise ConfigError("replay capacity must hold the warmup transitions")
        if self.update_period < 1 or self.update_iters < 0:
            raise ConfigError("bad update cadence")
        if self.ou_theta < 0 or self.ou_sigma < 0:
            raise ConfigError("noise theta and sigma must be nonnegative")

    @property
    def steps_per_episode(self) -> int:
        return int(round(self.horizon / self.delta))

    @property
    def total_delay_steps(self) -> int:
        """Worst-case end-to-end delay in sampling periods: the declared
        bounds a + b, which size the extended state. They may be looser than
        the delay ranges; they are what the controller knows ahead of time."""
        return self.sc_bound_steps + self.cp_bound_steps

    @property
    def extended_dim(self) -> int:
        return extended_state_dim(OUTPUT_DIM, self.plant().input_dim,
                                  self.total_delay_steps, self.output_history_len)

    # -- object builders

    def plant(self) -> ChuaCircuit:
        return ChuaCircuit(self.p1, self.p2)

    def trainer(self) -> Trainer:
        return Trainer(self)

    # -- text round trip

    def field_texts(self) -> dict:
        """{section: {key: text}}, in snapshot order: the mapping configparser
        reads from the text form, and what a checkpoint stores."""
        texts = {section: {} for section, _ in _BY_KEY}
        for (section, key), f in _BY_KEY.items():
            texts[section][key] = _FORMATS.get(f.type, str)(getattr(self, f.name))
        return texts


# (section, key) -> field, in declaration order
_BY_KEY = {(f.metadata["section"], f.metadata["key"] or f.name): f
           for f in fields(ExperimentConfig)}
_SECTIONS = {section for section, _ in _BY_KEY}
# text <-> value, by the field's annotation
_PARSERS = {"str": str, "int": int, "float": float,
            "tuple": lambda raw: tuple(int(part) for part in raw.split(","))}
_FORMATS = {"float": lambda value: repr(float(value)),
            "tuple": lambda value: ",".join(str(v) for v in value)}


def format_field_texts(texts) -> str:
    """The text form of a {section: {key: text}} mapping."""
    return "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for section, keys in texts.items())


def from_field_texts(texts) -> ExperimentConfig:
    """The config of a {section: {key: text}} mapping, with the text form's checks."""
    if not (isinstance(texts, dict)
            and all(isinstance(keys, dict) for keys in texts.values())):
        raise ConfigError("configuration is not a mapping of sections to keys")
    values = {}
    for section, keys in texts.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in keys.items():
            f = _BY_KEY.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if not isinstance(raw, str):
                raise ConfigError(f"[{section}] {key} must be text, got {raw!r}")
            try:
                values[f.name] = _PARSERS[f.type](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r}") from exc
    return ExperimentConfig(**values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; every key must be known."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable configuration: {exc}") from exc
    if parser.defaults():
        raise ConfigError("top-level keys are not allowed; use sections")
    return from_field_texts({section: dict(parser.items(section))
                             for section in parser.sections()})


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """New config with the given dataclass fields replaced, re-validated;
    a None value leaves its field as it is."""
    changes = {key: value for key, value in overrides.items()
               if value is not None}
    for key in changes:
        if key not in cfg.__dataclass_fields__:
            raise ConfigError(f"unknown configuration field {key!r}")
    return replace(cfg, **changes)
