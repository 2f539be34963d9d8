"""Experiment configuration: flat JSON keys, strict validation, CLI flags
override file values, defaults fill the rest. Every run writes back the
fully resolved configuration next to its outputs."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .oracle import MAX_DIM, MAX_ORDER
from .verify import SUITES


class ConfigError(ValueError):
    pass


COMMANDS = ("verify", "train-regression", "train-conditional", "degree-report")


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
    centering: str = "none"  # none | batch_mean
    # task
    task: str = "cond-point-cloud"  # | poly-regression | downsample-1d
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
    "command": COMMANDS,
    "variant": ("ccp", "ncp", "additive"),
    "output_activation": ("none", "tanh"),
    "centering": ("none", "batch_mean"),
    "task": ("cond-point-cloud", "poly-regression", "downsample-1d"),
    "noise_kind": ("uniform", "gaussian"),
    "loss": ("mmd", "gan"),
}

# the tasks each training command can run; the other commands take any task
_COMMAND_TASKS = {
    "train-regression": ("poly-regression", "downsample-1d"),
    "train-conditional": ("cond-point-cloud",),
}

_POSITIVE_INTS = (
    "rank",
    "hidden_dim",
    "n_classes",
    "target_degree",
    "input_dim",
    "output_dim",
    "train_samples",
    "noise_dim",
    "signal_length",
    "downsample_factor",
    "batch_size",
    "steps",
    "eval_samples",
    "disc_hidden",
    "probe_max_order",
)

_POSITIVE_FLOATS = ("cluster_radius", "cluster_std", "lr", "eps")


def _coerce(name: str, value):
    if name in ("block_orders", "suites"):
        if isinstance(value, (list, tuple)):
            return tuple(value)
        raise ConfigError(f"field '{name}' must be a list, got {value!r}")
    if name in ("share_conditional", "reconsume_conditional"):
        if isinstance(value, bool):
            return value
        raise ConfigError(f"field '{name}' must be a boolean, got {value!r}")
    if name == "stop_mse" and value is None:
        return None
    if name == "output_dir" and value is None:
        return None
    return value


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    for name, allowed in _ENUMS.items():
        v = getattr(cfg, name)
        if v not in allowed:
            raise ConfigError(
                f"field '{name}' must be one of {list(allowed)}, got {v!r}"
            )
    tasks = _COMMAND_TASKS.get(cfg.command, _ENUMS["task"])
    if cfg.task not in tasks:
        raise ConfigError(
            f"field 'task' must be one of {list(tasks)} for command "
            f"'{cfg.command}', got {cfg.task!r}"
        )
    for name in _POSITIVE_INTS:
        v = getattr(cfg, name)
        if not _is_int(v) or v < 1:
            raise ConfigError(f"field '{name}' must be a positive integer, got {v!r}")
    for name in _POSITIVE_FLOATS:
        v = getattr(cfg, name)
        if not _is_real(v) or v <= 0:
            raise ConfigError(f"field '{name}' must be positive, got {v!r}")
    if not _is_int(cfg.seed) or not 0 <= cfg.seed < 2**64:
        raise ConfigError(f"field 'seed' must be an integer in [0, 2**64), got {cfg.seed!r}")
    if not cfg.block_orders or any(
        not _is_int(n) or n < 1 for n in cfg.block_orders
    ):
        raise ConfigError(
            f"field 'block_orders' must be positive integers, got {cfg.block_orders!r}"
        )
    for name in ("beta1", "beta2"):
        v = getattr(cfg, name)
        if not _is_real(v) or not 0 <= v < 1:
            raise ConfigError(f"field '{name}' must be in [0, 1), got {v!r}")
    if cfg.task == "poly-regression":
        # the target is materialized by the brute-force oracle
        if cfg.target_degree > MAX_ORDER:
            raise ConfigError(
                f"field 'target_degree' must be at most {MAX_ORDER} for task "
                f"'poly-regression', got {cfg.target_degree!r}"
            )
        for name in ("input_dim", "output_dim"):
            if getattr(cfg, name) > MAX_DIM:
                raise ConfigError(
                    f"field '{name}' must be at most {MAX_DIM} for task "
                    f"'poly-regression', got {getattr(cfg, name)!r}"
                )
    if cfg.task == "downsample-1d" and cfg.signal_length % cfg.downsample_factor:
        raise ConfigError(
            f"field 'signal_length' ({cfg.signal_length}) must be divisible by "
            f"'downsample_factor' ({cfg.downsample_factor})"
        )
    if cfg.stop_mse is not None and (not _is_real(cfg.stop_mse) or cfg.stop_mse <= 0):
        raise ConfigError(f"field 'stop_mse' must be positive or null, got {cfg.stop_mse!r}")
    if not _is_int(cfg.sweep_points) or cfg.sweep_points < 2:
        raise ConfigError(
            f"field 'sweep_points' must be an integer of at least 2, got {cfg.sweep_points!r}"
        )
    if any(not isinstance(s, str) for s in cfg.suites):
        raise ConfigError(f"field 'suites' must be suite names, got {cfg.suites!r}")
    unknown = [s for s in cfg.suites if s not in SUITES]
    if unknown:
        raise ConfigError(
            f"field 'suites' names unknown suite(s) {unknown}; available: {list(SUITES)}"
        )
    return cfg


def resolve(file_values: dict | None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- explicit overrides, then validate.

    Unknown keys are rejected by name.
    """
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        unknown = sorted(set(source) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        for k, v in source.items():
            merged[k] = _coerce(k, v)
    for name in ("rank", "hidden_dim", "steps", "seed"):
        if name in merged and isinstance(merged[name], float):
            if merged[name] != int(merged[name]):
                raise ConfigError(f"field '{name}' must be an integer")
            merged[name] = int(merged[name])
    cfg = ExperimentConfig(**merged)
    return validate(cfg)


def load_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"config {path} cannot be read: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def dump_resolved(cfg: ExperimentConfig, path) -> None:
    doc = dataclasses.asdict(cfg)
    doc["block_orders"] = list(cfg.block_orders)
    doc["suites"] = list(cfg.suites)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
