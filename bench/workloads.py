"""The four fixed workloads, how one repeat of each runs through
`cope.cli.main`, and the gates that decide whether its outputs are right.

A workload is a list of CLI commands run one after the other in this
process. Step counts are fixed so that every seed does the same work; they
were chosen so that the seed code passes the training gates on seeds 0-29.
"""

from __future__ import annotations

import contextlib
import csv
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

DIFFERS = "outputs differ from the run's first repeat"

# Acceptance thresholds from the README; never loosen them.
CCP_MSE_LIMIT = 1e-4
MIN_GAP = 100.0
MIN_CLUSTER_ACCURACY = 0.95

_CUBIC = {
    "task": "poly-regression",
    "target_degree": 3,
    "input_dim": 2,
    "output_dim": 1,
    "train_samples": 256,
    "block_orders": [3],
    "hidden_dim": 8,
}
_GENERATOR = {
    "task": "cond-point-cloud",
    "n_classes": 4,
    "cluster_radius": 0.6,
    "cluster_std": 0.05,
    "noise_dim": 4,
    "batch_size": 64,
    "block_orders": [2, 2],
    "rank": 16,
    "hidden_dim": 8,
    "output_activation": "tanh",
    "eval_samples": 1000,
    "sweep_points": 9,
}


@dataclass(frozen=True)
class Command:
    label: str
    command: str
    config: dict = field(default_factory=dict)
    steps: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "regress-cubic",
            "rank-16 ccp then matched additive fit of a random cubic: tiny "
            "arrays, so per-node tape, backward and Adam overhead dominate",
            (
                # Seeds 0-29 reach mse 5e-5 within 1,360-3,191 steps.
                Command("ccp", "train-regression",
                        {**_CUBIC, "variant": "ccp", "rank": 16}, 4000),
                # matched_additive_rank((2, 2), 3, 1, ccp parameters) is 5.
                Command("additive", "train-regression",
                        {**_CUBIC, "variant": "additive", "rank": 5}, 4000),
            ),
        ),
        Workload(
            "cond-mmd",
            "class-conditional generator with the MMD loss: 4 per-class "
            "forwards and pairwise RBF kernels, so losses and large backward dominate",
            (Command("mmd", "train-conditional", {**_GENERATOR, "loss": "mmd"}, 300),),
        ),
        Workload(
            "cond-gan",
            "same generator and data with the adversarial loss: one stacked "
            "forward, two tapes and two Adam updates a step, no MMD kernels",
            (Command("gan", "train-conditional", {**_GENERATOR, "loss": "gan"}, 500),),
        ),
        Workload(
            "verify",
            "cope verify, all six suites: oracles, tensors, finite differences "
            "and plain-array forwards; the tape barely runs",
            (Command("verify", "verify"),),
        ),
    )
}


@dataclass
class CommandRun:
    """One `cope.cli.main` call and what the bench read back from it."""

    label: str
    out_dir: Path
    exit_code: int
    seconds: float
    steps: int = 0
    # bytes that must repeat exactly across the repeats of a run
    fingerprint: bytes = b""
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def write_configs(workload: Workload, work_dir: Path) -> None:
    for cmd in workload.commands:
        (work_dir / f"{cmd.label}.config.json").write_text(
            json.dumps(cmd.config, sort_keys=True) + "\n"
        )


def run_command(cli_main, cmd: Command, seed: int, work_dir: Path) -> CommandRun:
    """Run one CLI command in this process, timing the whole call.

    The command's own stdout and stderr go to a log file beside its outputs.
    """
    out_dir = work_dir / cmd.label
    argv = [cmd.command, "--seed", str(seed), "--out", str(out_dir)]
    if cmd.config:
        argv += ["--config", str(work_dir / f"{cmd.label}.config.json")]
    if cmd.steps is not None:
        argv += ["--steps", str(cmd.steps)]
    with open(work_dir / f"{cmd.label}.log", "a") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception:  # a crash is a failed command, not a crashed bench
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
    run = CommandRun(cmd.label, out_dir, code, seconds)
    if code != 0:
        run.failures.append(f"exit code {code}")
        return run
    try:
        if cmd.command == "verify":
            _read_verify(run)
        else:
            _read_training(run)
    except (OSError, ValueError, KeyError, IndexError) as e:
        run.failures.append(f"outputs missing or malformed: {e!r}")
    return run


def _read_training(run: CommandRun) -> None:
    metrics = run.out_dir / "metrics.csv"
    run.fingerprint = metrics.read_bytes()
    rows = list(csv.reader(run.fingerprint.decode().splitlines()))[1:]
    run.steps = len(rows)
    run.info["final_loss"] = float(rows[-1][1])


def _read_verify(run: CommandRun) -> None:
    report = json.loads((run.out_dir / "verify_report.json").read_text())
    rows = [{k: v for k, v in r.items() if k != "seconds"} for r in report["results"]]
    # suite timings are not deterministic; everything else in the report is
    run.fingerprint = json.dumps(rows, sort_keys=True).encode()
    run.steps = sum(r["trials"] for r in rows)
    if not report["all_passed"]:
        failing = [r["suite"] for r in rows if r["verdict"] != "pass"]
        run.failures.append(f"suites failed: {failing}")


def check_repeat(workload: Workload, runs: list[CommandRun], reference, load_model) -> None:
    """Apply the workload's gates to one repeat, appending to `failures`.

    `reference` maps command label to the fingerprint of the run's first
    repeat; `load_model` is `cope.checkpoint.load_model`.
    """
    by_label = {r.label: r for r in runs}
    for r in runs:
        if r.exit_code != 0:
            continue
        ref = reference.setdefault(r.label, r.fingerprint)
        if r.fingerprint != ref:
            r.failures.append(DIFFERS)
        if workload.name != "verify":
            try:
                load_model(r.out_dir / "checkpoint.json")
            except (OSError, ValueError, KeyError, TypeError) as e:
                r.failures.append(f"checkpoint does not load: {e!r}")
    if workload.name == "regress-cubic":
        ccp, add = by_label["ccp"], by_label["additive"]
        if ccp.exit_code == 0:
            mse = ccp.info["final_loss"]
            if not mse < CCP_MSE_LIMIT:
                ccp.failures.append(f"ccp mse {mse:.3e} >= {CCP_MSE_LIMIT:g}")
            if add.exit_code == 0:
                gap = add.info["final_loss"] / mse
                add.info["gap"] = gap
                if not gap >= MIN_GAP:
                    add.failures.append(f"additive/ccp gap {gap:.1f}x < {MIN_GAP:g}x")
    if workload.name in ("cond-mmd", "cond-gan"):
        r = runs[0]
        if r.exit_code == 0:
            acc = cluster_accuracy(r.out_dir / "samples.csv")
            r.info["cluster_accuracy"] = acc
            # the GAN lands 0.25-0.8 of its samples at this length: reported,
            # not gated
            if workload.name == "cond-mmd" and not acc >= MIN_CLUSTER_ACCURACY:
                r.failures.append(
                    f"cluster accuracy {acc:.4f} < {MIN_CLUSTER_ACCURACY}"
                )


def cluster_accuracy(samples_csv: Path) -> float:
    """Share of generated samples whose nearest cluster centre is their class."""
    import numpy as np
    from cope.tasks import make_cond_point_cloud, nearest_center

    cfg = _GENERATOR
    task = make_cond_point_cloud(
        cfg["n_classes"], cfg["cluster_radius"], cfg["cluster_std"]
    )
    rows = list(csv.reader(samples_csv.read_text().splitlines()))[1:]
    cls = np.array([int(r[0]) for r in rows])
    pts = np.array([[float(r[1]), float(r[2])] for r in rows]).T
    return float(np.mean(nearest_center(task, pts) == cls))
