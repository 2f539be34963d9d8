"""Experiment configuration: flat JSON keys, strict validation, CLI flags
override file values, defaults fill the rest. Every run writes back the
fully resolved configuration next to its outputs."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .oracle import MAX_DIM, MAX_ORDER, MAX_PROBE_ORDER
from .tasks import make_cond_point_cloud
from .verify import SUITES


class ConfigError(ValueError):
    pass


_TASKS = ("cond-point-cloud", "poly-regression", "downsample-1d")


@dataclass(frozen=True)
class Command:
    """What one `cope` subcommand is. `artifacts` are the files it writes
    besides resolved_config.json, `tasks` the tasks it runs with its
    default first, and `flags` the config fields its extra flags set."""

    help: str
    artifacts: tuple
    tasks: tuple = _TASKS
    flags: tuple = ()


COMMANDS = {
    "verify": Command(
        "run the numerical verification suites and write a report",
        ("verify_report.json",), flags=("suites",),
    ),
    "train-regression": Command(
        "fit a polynomial chain to a regression task",
        ("metrics.csv", "checkpoint.json"), ("poly-regression", "downsample-1d"), ("steps",),
    ),
    "train-conditional": Command(
        "train a class-conditional generator (MMD or GAN)",
        ("metrics.csv", "checkpoint.json", "samples.csv", "sweep.csv"),
        ("cond-point-cloud",), ("steps",),
    ),
    "degree-report": Command(
        "probe the configured model's numerical degree", ("degree_report.json",)
    ),
}


@dataclass
class ExperimentConfig:
    command: str = "verify"
    # model
    variant: str = "ccp"  # ccp | ncp | additive
    block_orders: tuple = (2,)
    rank: int = 8
    hidden_dim: int = 8
    share_conditional: bool = False
    reconsume_conditional: bool = True
    output_activation: str = "none"  # none | tanh
    # task
    task: str = "cond-point-cloud"  # | poly-regression | downsample-1d; see resolve
    n_classes: int = 4
    cluster_radius: float = 0.6
    cluster_std: float = 0.05
    target_degree: int = 3
    input_dim: int = 2
    output_dim: int = 1
    train_samples: int = 256
    noise_dim: int = 4
    noise_kind: str = "uniform"  # | gaussian
    signal_length: int = 32
    downsample_factor: int = 4
    # optimization
    loss: str = "mmd"  # | gan
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 128
    steps: int = 1000
    stop_mse: float | None = None
    eval_samples: int = 1000
    sweep_points: int = 9
    disc_hidden: int = 32
    probe_max_order: int = 8
    # run
    seed: int = 0
    output_dir: str | None = None
    suites: tuple = ()


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

_ENUMS = {
    "command": tuple(COMMANDS),
    "variant": ("ccp", "ncp", "additive"),
    "output_activation": ("none", "tanh"),
    "task": _TASKS,
    "noise_kind": ("uniform", "gaussian"),
    "loss": ("mmd", "gan"),
}

# the numeric fields with a range [lo, hi) of their own; every other number
# must be positive
_RANGES = {
    "seed": (0, 2**64), "beta1": (0, 1), "beta2": (0, 1), "sweep_points": (2, math.inf),
    "probe_max_order": (1, MAX_PROBE_ORDER + 1),
}

# a declared type: the Python types of the values it takes, and their name
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
    "tuple": ((list, tuple), "a list"),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _typed(name: str, value):
    """`value` checked against field `name`'s declared type. A bool is never
    a number. A float field also takes an int, but not JSON's NaN and
    Infinity, nor an int too large for a float. A list becomes a tuple, and
    a `| None` declaration admits null."""
    declared = _FIELDS[name].type
    kind = declared.removesuffix(" | None")
    if value is None and kind != declared:
        return value
    types, what = _KINDS[kind]
    ok = isinstance(value, types) and (kind == "bool" or not isinstance(value, bool))
    if ok and kind == "float":
        try:
            ok = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            ok = False
    if not ok:
        null = " or null" if kind != declared else ""
        raise ConfigError(f"field '{name}' must be {what}{null}, got {value!r}")
    return tuple(value) if kind == "tuple" else value


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the ranges and cross-field rules of a config of declared types."""
    for name, allowed in _ENUMS.items():
        v = getattr(cfg, name)
        if v not in allowed:
            raise ConfigError(
                f"field '{name}' must be one of {list(allowed)}, got {v!r}"
            )
    tasks = COMMANDS[cfg.command].tasks
    if cfg.task not in tasks:
        raise ConfigError(
            f"field 'task' must be one of {list(tasks)} for command "
            f"'{cfg.command}', got {cfg.task!r}"
        )
    for name, f in _FIELDS.items():
        v = getattr(cfg, name)
        if name in _RANGES:
            lo, hi = _RANGES[name]
            if not lo <= v < hi:
                raise ConfigError(f"field '{name}' must be in [{lo}, {hi}), got {v!r}")
        elif f.type.removesuffix(" | None") in ("int", "float") and v is not None and v <= 0:
            raise ConfigError(f"field '{name}' must be positive, got {v!r}")
    if not cfg.block_orders or any(
        not _is_int(n) or n < 1 for n in cfg.block_orders
    ):
        raise ConfigError(
            f"field 'block_orders' must be positive integers, got {cfg.block_orders!r}"
        )
    if cfg.task == "poly-regression":
        # the target is materialized by the brute-force oracle
        for name, most in (
            ("target_degree", MAX_ORDER), ("input_dim", MAX_DIM), ("output_dim", MAX_DIM)
        ):
            if getattr(cfg, name) > most:
                raise ConfigError(
                    f"field '{name}' must be at most {most} for task "
                    f"'poly-regression', got {getattr(cfg, name)!r}"
                )
    if cfg.task == "downsample-1d" and cfg.signal_length % cfg.downsample_factor:
        raise ConfigError(
            f"field 'signal_length' ({cfg.signal_length}) must be divisible by "
            f"'downsample_factor' ({cfg.downsample_factor})"
        )
    unknown = [s for s in cfg.suites if s not in tuple(SUITES)]  # a list is unhashable
    if unknown:
        raise ConfigError(
            f"field 'suites' names unknown suite(s) {unknown}; available: {list(SUITES)}"
        )
    repeated = [s for i, s in enumerate(cfg.suites) if s in cfg.suites[:i]]
    if repeated:
        raise ConfigError(f"field 'suites' names suite(s) {repeated} more than once")
    if cfg.command == "train-conditional":
        try:
            make_cond_point_cloud(cfg.n_classes, cfg.cluster_radius, cfg.cluster_std)
        except ValueError as e:
            names = "fields 'n_classes', 'cluster_radius' and 'cluster_std'"
            raise ConfigError(f"{names}: {e}") from e
    return cfg


def resolve(file_values: dict | None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- explicit overrides, then validate.

    Unknown keys are rejected by name. A `task` no source sets is the
    command's default task.
    """
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        unknown = sorted(set(source) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        for k, v in source.items():
            merged[k] = _typed(k, v)
    cfg = ExperimentConfig(**merged)
    if "task" not in merged and cfg.command in _ENUMS["command"]:
        cfg.task = COMMANDS[cfg.command].tasks[0]
    return validate(cfg)


def load_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"config {path} cannot be read: {e.strerror}") from e
    except ValueError as e:  # undecodable bytes and over-long integers too
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def dump_resolved(cfg: ExperimentConfig, path) -> None:
    doc = dataclasses.asdict(cfg)  # tuples dump as JSON lists
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
