"""Experiment configuration: flat key-value text with one section per concern.

Unknown sections or keys are hard errors; a silently misspelled
hyperparameter is the classic way these experiments stop being
reproducible. Every run directory gets a resolved snapshot that parses
back to the identical configuration.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields

from .agent import LoopSetup, Trainer, extended_state_dim
from .delays import UNIFORM, DelayModel
from .errors import ConfigError
from .plant import ChuaCircuit, chua_sensor
from .reward import RewardWeights

# (section, key, field name, type); order fixes the snapshot layout.
_SCHEMA = [
    ("plant", "name", "plant_name", str),
    ("plant", "p1", "p1", float),
    ("plant", "p2", "p2", float),
    ("plant", "delta", "delta", float),
    ("plant", "horizon", "horizon", float),
    ("plant", "substep", "substep", float),
    ("plant", "init_box", "init_box", float),
    ("delays", "distribution", "delay_distribution", str),
    ("delays", "sc_min", "sc_min", float),
    ("delays", "sc_max", "sc_max", float),
    ("delays", "cp_min", "cp_min", float),
    ("delays", "cp_max", "cp_max", float),
    ("delays", "sc_bound_steps", "sc_bound_steps", int),
    ("delays", "cp_bound_steps", "cp_bound_steps", int),
    ("network", "hidden", "hidden", "int_list"),
    ("network", "tanh_weight", "tanh_weight", float),
    ("network", "output_history_len", "output_history_len", int),
    ("training", "episodes", "episodes", int),
    ("training", "gamma", "gamma", float),
    ("training", "soft_update", "soft_update_rate", float),
    ("training", "batch", "batch_size", int),
    ("training", "iters", "update_iters", int),
    ("training", "period", "update_period", int),
    ("training", "lr", "learning_rate", float),
    ("training", "replay", "replay_capacity", int),
    ("training", "warmup", "warmup", int),
    ("training", "divergence_penalty", "divergence_penalty", float),
    ("training", "checkpoint_every", "checkpoint_every", int),
    ("noise", "theta", "ou_theta", float),
    ("noise", "sigma", "ou_sigma", float),
    ("noise", "scale", "noise_scale", float),
    ("noise", "decay_start", "noise_decay_start", int),
    ("noise", "scale_final", "noise_scale_final", float),
    ("run", "seed", "seed", int),
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Every hyperparameter of one experiment, each defined only here.

    Frozen, so the config a `Trainer` holds cannot change under it; a
    changed copy comes from `apply_overrides`.
    """

    plant_name: str = "chua"
    p1: float = 10.0
    p2: float = 100.0 / 7.0
    delta: float = 2.0 ** -4
    horizon: float = 12.0
    substep: float = 2.0 ** -8
    init_box: float = 4.5
    delay_distribution: str = UNIFORM
    sc_min: float = 2.0 ** -4
    sc_max: float = 3.0 * 2.0 ** -4
    cp_min: float = 2.0 ** -4
    cp_max: float = 3.0 * 2.0 ** -4
    sc_bound_steps: int = 4
    cp_bound_steps: int = 4
    hidden: tuple = (128, 128, 128, 128)
    tanh_weight: float = 4.0
    output_history_len: int = 4
    episodes: int = 8500
    gamma: float = 0.99
    soft_update_rate: float = 0.001
    batch_size: int = 128
    update_iters: int = 10
    update_period: int = 4
    learning_rate: float = 1.25e-5
    replay_capacity: int = 1_000_000
    warmup: int = 128
    divergence_penalty: float = -1000.0
    checkpoint_every: int = 500
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    noise_scale: float = 3.5
    noise_decay_start: int = 1000
    noise_scale_final: float = 0.05
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        self.validate()

    # -- validation and derived quantities

    def validate(self):
        if self.plant_name != "chua":
            raise ConfigError(f"unknown plant {self.plant_name!r}")
        if self.delta <= 0 or self.horizon <= 0 or self.substep <= 0:
            raise ConfigError("delta, horizon and substep must be positive")
        steps = self.horizon / self.delta
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError("horizon must be a whole number of sampling periods")
        if self.output_history_len < 1:
            raise ConfigError("output history length must be >= 1")
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ConfigError("hidden widths must be positive")
        if self.tanh_weight <= 0:
            raise ConfigError("tanh weight must be positive")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        try:
            self.delay_model()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not 0.0 < self.soft_update_rate <= 1.0:
            raise ConfigError("soft update rate must be in (0, 1]")
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
    def max_delay_steps(self) -> int:
        return self.sc_bound_steps + self.cp_bound_steps

    @property
    def extended_dim(self) -> int:
        return extended_state_dim(2, 1, self.max_delay_steps,
                                  self.output_history_len)

    # -- object builders

    def plant(self) -> ChuaCircuit:
        return ChuaCircuit(self.p1, self.p2)

    def sensor(self):
        return chua_sensor(self.delta)

    def delay_model(self) -> DelayModel:
        return DelayModel(self.delta, (self.sc_min, self.sc_max),
                          (self.cp_min, self.cp_max), self.sc_bound_steps,
                          self.cp_bound_steps, self.delay_distribution)

    def loop_setup(self) -> LoopSetup:
        return LoopSetup(self.plant(), self.sensor(), self.delay_model(),
                         self.substep, RewardWeights())

    def trainer(self) -> Trainer:
        return Trainer(self.loop_setup(), self)

    # -- text round trip

    def to_text(self) -> str:
        out = io.StringIO()
        current = None
        for section, key, name, kind in _SCHEMA:
            if section != current:
                if current is not None:
                    out.write("\n")
                out.write(f"[{section}]\n")
                current = section
            value = getattr(self, name)
            if kind == "int_list":
                text = ",".join(str(v) for v in value)
            elif kind is float:
                text = repr(float(value))
            else:
                text = str(value)
            out.write(f"{key} = {text}\n")
        return out.getvalue()

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())


def _coerce(kind, raw, where):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "int_list":
            return tuple(int(part) for part in raw.split(","))
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; every key must be known."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable configuration: {exc}") from exc
    if parser.defaults():
        raise ConfigError("top-level keys are not allowed; use sections")

    known = {(s, k): (name, kind) for s, k, name, kind in _SCHEMA}
    sections = {s for s, _, _, _ in _SCHEMA}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, kind = known[(section, key)]
            values[name] = _coerce(kind, raw, f"[{section}] {key}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """New config with the given dataclass fields replaced, re-validated."""
    current = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in current:
            raise ConfigError(f"unknown configuration field {key!r}")
        current[key] = value
    return ExperimentConfig(**current)
