"""Experiment runner: resolves a config, builds task + model + optimizer,
runs verification suites or training, writes artifacts under one directory.

Exit codes: 0 all requested work completed within tolerance, 1 a suite
failed, training diverged or the run raised another error, 2 the
configuration was rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .config import (
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    dump_resolved,
    load_file,
    resolve,
)
from .models import init_chain
from .oracle import degree_probe
from .rng import stream
from .tasks import make_cond_point_cloud, make_downsample1d, make_poly_regression
from .training import (
    TrainingDiverged,
    count_parameters,
    train_conditional,
    train_regression,
)
from .verify import degree_ray, run_suites

import numpy as np


def runs_root() -> Path:
    """Where runs land by default: $COPE_OUT, or ./cope_runs when it is unset."""
    return Path(os.environ.get("COPE_OUT", "cope_runs"))


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    """`output_dir` if set, else the runs root plus a per-command, per-seed
    leaf so repeat runs land in stable places."""
    if cfg.output_dir:
        return Path(cfg.output_dir)
    return runs_root() / f"{cfg.command}-seed{cfg.seed}"


def _regression_data(cfg: ExperimentConfig):
    """(var_dims, inputs, targets) for the regression-style tasks,
    poly-regression or downsample-1d."""
    data_rng = stream(cfg.seed, "data")
    if cfg.task == "poly-regression":
        task = make_poly_regression(
            data_rng, cfg.target_degree, cfg.input_dim, cfg.output_dim,
            cfg.train_samples,
        )
        return (cfg.input_dim, cfg.input_dim), task.inputs, task.outputs
    task = make_downsample1d(
        data_rng, cfg.signal_length, cfg.downsample_factor, cfg.train_samples
    )
    return (task.coarse.shape[0],), [task.coarse], task.signals


def _conditional_shape(cfg: ExperimentConfig):
    """(var_dims, out_dim) of the cond-point-cloud generator: noise and a
    one-hot label in, one 2-D point out."""
    return (cfg.noise_dim, cfg.n_classes), 2


def _build_chain(cfg: ExperimentConfig, var_dims, out_dim):
    return init_chain(
        stream(cfg.seed, "init"),
        var_dims,
        cfg.block_orders,
        rank=cfg.rank,
        hidden_dim=cfg.hidden_dim,
        out_dim=out_dim,
        kind=cfg.variant,
        reconsume_conditional=cfg.reconsume_conditional,
        share_conditional=cfg.share_conditional,
        output_activation=cfg.output_activation,
    )


def _run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    results = run_suites(cfg.suites or None, seed=cfg.seed)
    report = {
        "seed": cfg.seed,
        "all_passed": all(r.passed for r in results),
        "results": [r.report_row() for r in results],
    }
    (out_dir / "verify_report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    for r in results:
        print(
            f"{r.suite}: {'PASS' if r.passed else 'FAIL'} "
            f"trials={r.trials} max_dev={r.max_deviation:.3e} "
            f"tol={r.tolerance:g} ({r.seconds:.2f}s)"
        )
    failing = [r.suite for r in results if not r.passed]
    if failing:
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cluster_task(cfg: ExperimentConfig):
    """The cond-point-cloud task with `cfg`'s classes and cluster shape."""
    return make_cond_point_cloud(cfg.n_classes, cfg.cluster_radius, cfg.cluster_std)


def _run_train_regression(cfg: ExperimentConfig, out_dir: Path) -> int:
    var_dims, inputs, targets = _regression_data(cfg)
    spec = _build_chain(cfg, var_dims, out_dim=targets.shape[0])
    print(f"model: {cfg.variant} blocks {list(cfg.block_orders)} "
          f"rank {cfg.rank} ({count_parameters(spec)} parameters)")
    result = train_regression(spec, inputs, targets, cfg, out_dir)
    print(f"final mse {result.final_loss:.6e} after {result.steps_run} steps; "
          f"artifacts in {out_dir}")
    return 0


def _run_train_conditional(cfg: ExperimentConfig, out_dir: Path) -> int:
    task = cluster_task(cfg)
    spec = _build_chain(cfg, *_conditional_shape(cfg))
    print(f"model: {cfg.variant} blocks {list(cfg.block_orders)} "
          f"rank {cfg.rank} ({count_parameters(spec)} parameters)")
    result = train_conditional(spec, task, cfg, out_dir)
    print(f"final {cfg.loss} loss {result.final_loss:.6e} after "
          f"{result.steps_run} steps; artifacts in {out_dir}")
    return 0


def _run_degree_report(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Probe the configured model's numerical degree jointly and per input."""
    if cfg.task == "cond-point-cloud":
        var_dims, out_dim = _conditional_shape(cfg)
    else:
        var_dims, _, targets = _regression_data(cfg)
        out_dim = targets.shape[0]
    spec = _build_chain(cfg, var_dims, out_dim)
    probe_rng = stream(cfg.seed, "probe")
    base = [probe_rng.uniform(-1.0, 1.0, d) for d in var_dims]
    joint_dir = [probe_rng.uniform(-1.0, 1.0, d) for d in var_dims]

    f, exact = degree_ray(spec)

    def probe(direction):
        return degree_probe(
            f,
            np.concatenate(base),
            np.concatenate(direction),
            max_order=cfg.probe_max_order,
            exact=exact,
        )

    degrees = {"joint": probe(joint_dir)}
    for i in range(len(var_dims)):
        single = [
            d if j == i else np.zeros_like(d) for j, d in enumerate(joint_dir)
        ]
        degrees[f"input{i}"] = probe(single)
    report = {
        "variant": cfg.variant,
        "block_orders": list(cfg.block_orders),
        "nominal_order": math.prod(cfg.block_orders),
        "probe_max_order": cfg.probe_max_order,
        "degrees": degrees,
    }
    (out_dir / "degree_report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    for name, d in degrees.items():
        suffix = " (at probe ceiling)" if d >= cfg.probe_max_order else ""
        print(f"degree along {name} ray: {d}{suffix}")
    return 0


_RUNNERS = {
    "verify": _run_verify,
    "train-regression": _run_train_regression,
    "train-conditional": _run_train_conditional,
    "degree-report": _run_degree_report,
}


def clear_artifacts(out_dir, command: str) -> Path:
    """Create `out_dir` and unlink the files `command` writes there.

    Each write then creates a fresh file: a rerun leaves none of the
    previous run's artifacts behind, and truncating a file in place, which
    can stall for tens of milliseconds on ext4, never happens. Other files
    in the directory are not touched.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("resolved_config.json", *COMMANDS[command].artifacts):
        (out_dir / name).unlink(missing_ok=True)
    return out_dir


def run_experiment(cfg: ExperimentConfig) -> int:
    out_dir = clear_artifacts(resolve_output_dir(cfg), cfg.command)
    dump_resolved(cfg, out_dir / "resolved_config.json")
    return _RUNNERS[cfg.command](cfg, out_dir)


# the extra flags a command record can name, by the config field each sets
_FLAGS = {
    "steps": ("--steps", dict(type=int, metavar="N", help="training steps")),
    "suites": ("--suite", dict(
        action="append", metavar="NAME", help="run only the named suite (repeatable)"
    )),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cope",
        description="conditional polynomial expansion networks: "
        "verification suites and desk-scale training runs",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        # unset flags stay off the namespace, so it holds only overrides
        sp = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        sp.add_argument(
            "--config", metavar="PATH",
            help="JSON config file; flags override its keys",
        )
        sp.add_argument("--seed", type=int, metavar="U64", help="master seed")
        sp.add_argument(
            "--out", dest="output_dir", metavar="DIR",
            help="output directory (default $COPE_OUT/<command>-seed<seed>)",
        )
        for field in command.flags:
            flag, kwargs = _FLAGS[field]
            sp.add_argument(flag, dest=field, **kwargs)
    return p


# glibc's mallopt(3) parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and
# the values a command sets: 32 MiB and 128 MiB
_ALLOCATOR_THRESHOLDS = ((-3, 32 << 20), (-1, 128 << 20))


def set_allocator_thresholds() -> None:
    """Keep this process's arrays on the heap: under glibc, serve blocks up
    to 32 MiB from it and return freed memory to the kernel only past
    128 MiB, so a step's kernel arrays are reused, not unmapped and faulted
    back in. Setting either turns off glibc's dynamic mmap threshold, so
    both are set. A no-op on any other C library. Only a command calls
    this, for its own process; importing cope sets nothing."""
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    for param, value in _ALLOCATOR_THRESHOLDS:
        libc.mallopt(param, value)


def exit_status(run) -> int:
    """`run()`'s exit code, or the code of its failure: 2 after
    `config error: ...` when the config is rejected, 1 after the message
    when the run stops on an error, runs out of memory or diverges. Every
    command and script runs through here, so it first sets the allocator
    thresholds for the process."""
    set_allocator_thresholds()
    try:
        return run()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    config = overrides.pop("config", None)
    return exit_status(
        lambda: run_experiment(resolve(load_file(config) if config else {}, overrides))
    )


if __name__ == "__main__":
    sys.exit(main())
