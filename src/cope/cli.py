"""Experiment runner: resolves a config, builds task + model + optimizer,
runs verification suites or training, writes artifacts under one directory.

Exit codes: 0 all requested work completed within tolerance, 1 a suite
failed, training diverged or the run raised another error, 2 the
configuration was rejected.
"""

from __future__ import annotations

import argparse
import json
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
from .models import init_chain, product_compose
from .oracle import degree_probe
from .rng import stream
from .tasks import make_cond_point_cloud, make_downsample1d, make_poly_regression
from .training import (
    TrainingDiverged,
    count_parameters,
    train_conditional,
    train_regression,
)
from .verify import run_suites

import numpy as np


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    """`output_dir` if set, else $COPE_OUT (default ./cope_runs) plus a
    per-command, per-seed leaf so repeat runs land in stable places."""
    if cfg.output_dir:
        return Path(cfg.output_dir)
    root = os.environ.get("COPE_OUT", "cope_runs")
    return Path(root) / f"{cfg.command}-seed{cfg.seed}"


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
        centering=cfg.centering,
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


def _run_train_regression(cfg: ExperimentConfig, out_dir: Path) -> int:
    var_dims, inputs, targets = _regression_data(cfg)
    spec = _build_chain(cfg, var_dims, out_dim=targets.shape[0])
    print(f"model: {cfg.variant} blocks {list(cfg.block_orders)} "
          f"rank {cfg.rank} ({count_parameters(spec)} parameters)")
    result = train_regression(
        spec,
        inputs,
        targets,
        steps=cfg.steps,
        out_dir=out_dir,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.eps,
        stop_loss=cfg.stop_mse,
    )
    print(f"final mse {result.final_loss:.6e} after {result.steps_run} steps; "
          f"artifacts in {out_dir}")
    return 0


def _run_train_conditional(cfg: ExperimentConfig, out_dir: Path) -> int:
    task = make_cond_point_cloud(cfg.n_classes, cfg.cluster_radius, cfg.cluster_std)
    spec = _build_chain(cfg, (cfg.noise_dim, cfg.n_classes), out_dim=2)
    print(f"model: {cfg.variant} blocks {list(cfg.block_orders)} "
          f"rank {cfg.rank} ({count_parameters(spec)} parameters)")
    result = train_conditional(
        spec,
        task,
        steps=cfg.steps,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        out_dir=out_dir,
        loss_kind=cfg.loss,
        noise_dim=cfg.noise_dim,
        noise_kind=cfg.noise_kind,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.eps,
        eval_samples=cfg.eval_samples,
        sweep_points=cfg.sweep_points,
        disc_hidden=cfg.disc_hidden,
    )
    print(f"final {cfg.loss} loss {result.final_loss:.6e} after "
          f"{result.steps_run} steps; artifacts in {out_dir}")
    return 0


def _run_degree_report(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Probe the configured model's numerical degree jointly and per input."""
    if cfg.task == "cond-point-cloud":
        var_dims, out_dim = (cfg.noise_dim, cfg.n_classes), 2
    else:
        var_dims, _, targets = _regression_data(cfg)
        out_dim = targets.shape[0]
    spec = _build_chain(cfg, var_dims, out_dim)
    probe_rng = stream(cfg.seed, "probe")
    base = [probe_rng.uniform(-1.0, 1.0, d) for d in var_dims]
    joint_dir = [probe_rng.uniform(-1.0, 1.0, d) for d in var_dims]

    def probe(direction):
        splits = np.cumsum(var_dims)[:-1]
        return degree_probe(
            lambda x: product_compose(spec, list(np.split(x, splits))),
            np.concatenate(base),
            np.concatenate(direction),
            max_order=cfg.probe_max_order,
        )

    degrees = {"joint": probe(joint_dir)}
    for i in range(len(var_dims)):
        single = [
            d if j == i else np.zeros_like(d) for j, d in enumerate(joint_dir)
        ]
        degrees[f"input{i}"] = probe(single)
    nominal = 1
    for n in cfg.block_orders:
        nominal *= n
    report = {
        "variant": cfg.variant,
        "block_orders": list(cfg.block_orders),
        "nominal_order": nominal,
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


# Every file each command writes into its output directory. A run unlinks
# these names first, so each write creates a fresh file: a rerun leaves none
# of the previous run's artifacts behind, and truncating a file in place,
# which can stall for tens of milliseconds on ext4, never happens. Other
# files in the directory are not touched.
ARTIFACTS = {
    "verify": ("resolved_config.json", "verify_report.json"),
    "train-regression": ("resolved_config.json", "metrics.csv", "checkpoint.json"),
    "train-conditional": (
        "resolved_config.json", "metrics.csv", "checkpoint.json",
        "samples.csv", "sweep.csv",
    ),
    "degree-report": ("resolved_config.json", "degree_report.json"),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    out_dir = resolve_output_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS[cfg.command]:
        (out_dir / name).unlink(missing_ok=True)
    dump_resolved(cfg, out_dir / "resolved_config.json")
    return _RUNNERS[cfg.command](cfg, out_dir)


_HELP = {
    "verify": "run the numerical verification suites and write a report",
    "train-regression": "fit a polynomial chain to a regression task",
    "train-conditional": "train a class-conditional generator (MMD or GAN)",
    "degree-report": "probe the configured model's numerical degree",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cope",
        description="conditional polynomial expansion networks: "
        "verification suites and desk-scale training runs",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument(
            "--config", metavar="PATH",
            help="JSON config file; flags override its keys",
        )
        sp.add_argument("--seed", type=int, metavar="U64", help="master seed")
        sp.add_argument(
            "--out", metavar="DIR",
            help="output directory (default $COPE_OUT/<command>-seed<seed>)",
        )
        if name.startswith("train"):
            sp.add_argument("--steps", type=int, metavar="N", help="training steps")
        if name == "verify":
            sp.add_argument(
                "--suite", action="append", metavar="NAME",
                help="run only the named suite (repeatable)",
            )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"command": args.command}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if getattr(args, "steps", None) is not None:
        overrides["steps"] = args.steps
    if getattr(args, "suite", None):
        overrides["suites"] = tuple(args.suite)
    try:
        file_values = load_file(args.config) if args.config else {}
        # the global default task is conditional; regression gets its own
        if args.command == "train-regression" and "task" not in file_values:
            overrides["task"] = "poly-regression"
        cfg = resolve(file_values, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        return run_experiment(cfg)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
