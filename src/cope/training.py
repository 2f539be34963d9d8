"""Full-batch training loops with deterministic metrics traces.

Every float written to a CSV uses Python's shortest round-trip repr, so a
rerun with the same seed and config produces byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tape, backward
from .checkpoint import save_model
from .losses import (
    discriminator_loss,
    diversity_regularizer,
    generator_loss,
    mmd_loss,
    mse_loss,
    pairwise_sq_dists,
    rbf_bandwidths,
)
from .models import (
    ModelSpec,
    _layout,
    discriminator_forward,
    init_discriminator,
    lift_model,
    model_parameters,
    product_compose,
)
from .optim import adam_init, adam_step
from .rng import stream
from .tasks import CondPointCloud, one_hot

if TYPE_CHECKING:
    from .config import ExperimentConfig


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float, metrics_path):
        super().__init__(
            f"loss became non-finite ({value}) at step {step}; "
            f"trace kept at {metrics_path}"
        )
        self.step = step
        self.metrics_path = metrics_path


@dataclass
class TrainResult:
    steps_run: int
    final_loss: float
    metrics_path: Path
    checkpoint_path: Path


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


class MetricsWriter:
    def __init__(self, path, header):
        self.path = Path(path)
        self._fh = open(self.path, "w", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(header)

    def row(self, values):
        self._writer.writerow([_fmt(v) for v in values])

    def close(self):
        self._fh.close()


def sample_noise(rng: np.random.Generator, dim: int, n: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (dim, n))
    if kind == "gaussian":
        return rng.standard_normal((dim, n))
    raise ValueError(f"unknown noise kind '{kind}'")


def count_parameters(model) -> int:
    return sum(int(a.size) for a in model_parameters(model).values())


def matched_additive_rank(var_dims, order, out_dim, target_count) -> int:
    """Rank in 1..128 whose additive block over `var_dims` has the
    parameter count closest to target; the lowest such rank on a tie."""

    def count(rank):
        layout = _layout("additive", order, var_dims, rank, rank, out_dim, False)
        return sum(math.prod(shape) for shape in layout.values())

    return min(range(1, 129), key=lambda rank: abs(count(rank) - target_count))


def _adam_settings(cfg: ExperimentConfig) -> dict:
    return dict(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)


def _fit(spec, cfg, out_dir, header, step_loss) -> TrainResult:
    """Adam with `cfg`'s settings on `spec`'s parameters for `cfg.steps`
    steps, one metrics row per step; a loss below `cfg.stop_mse` (if not
    None) ends the run after its update.

    `step_loss(lifted)` returns the loss Var, the row's other losses and
    its diagnostics; a non-finite loss or other loss ends the run with
    TrainingDiverged, keeping the rows written so far.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = adam_init(spec, **_adam_settings(cfg))  # rebinds spec's arrays to views
    metrics = MetricsWriter(out_dir / "metrics.csv", header)
    value = float("nan")
    step = 0
    try:
        for step in range(1, cfg.steps + 1):
            tape = Tape()
            loss, others, diagnostics = step_loss(lift_model(tape, spec))
            value = float(loss.value)
            metrics.row([step, value, *others, *diagnostics])
            if not np.isfinite([value, *others]).all():
                raise TrainingDiverged(step, value, metrics.path)
            adam_step(state, backward(tape, loss))
            del loss, tape  # only one step's tape lives through a forward
            if cfg.stop_mse is not None and value < cfg.stop_mse:
                break
    finally:
        metrics.close()
    ckpt = out_dir / "checkpoint.json"
    save_model(ckpt, spec)
    return TrainResult(step, value, metrics.path, ckpt)


def train_regression(
    spec: ModelSpec, inputs, targets, cfg: ExperimentConfig, out_dir
) -> TrainResult:
    """Full-batch regression with `cfg`'s steps, stop_mse and Adam
    settings; logs one (step, mse) row per step."""
    inputs = [np.asarray(z, dtype=np.float64) for z in inputs]
    targets = np.asarray(targets, dtype=np.float64)

    def step_loss(lifted):
        return mse_loss(product_compose(lifted, inputs), targets), [], []

    return _fit(spec, cfg, out_dir, ["step", "mse"], step_loss)


def _dump_samples(spec, task, draw, per_class, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class"] + [f"x{i}" for i in range(spec.out_dim)])
        for cls in range(task.n_classes):
            noise = draw(per_class)
            out = product_compose(spec, [noise, one_hot(task.n_classes, cls, per_class)])
            for b in range(per_class):
                writer.writerow([cls] + [_fmt(v) for v in out[:, b]])


def _dump_sweep(spec, task, draw, points, path):
    """One forward per class pair: the pair draws one noise vector and
    holds it along `points` steps of t."""
    ts = np.linspace(0.0, 1.0, points)
    k = task.n_classes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["class_a", "class_b", "t"] + [f"x{i}" for i in range(spec.out_dim)]
        )
        for a in range(k):
            for b in range(a + 1, k):
                cond = np.zeros((k, points))
                cond[a], cond[b] = 1.0 - ts, ts
                out = product_compose(spec, [np.repeat(draw(1), points, 1), cond])
                for t, col in zip(ts, out.T):
                    writer.writerow([a, b, _fmt(t)] + [_fmt(v) for v in col])


def _diversity_probe(spec, task, draw) -> float:
    # two one-column draws, not draw(2): the stream fills rows first
    z = np.concatenate([draw(1), draw(1)], 1)
    g = product_compose(spec, [z, one_hot(task.n_classes, 0, 2)])
    return diversity_regularizer(g[:, 0], g[:, 1], z[:, 0], z[:, 1])


def train_conditional(
    spec: ModelSpec, task: CondPointCloud, cfg: ExperimentConfig, out_dir
) -> TrainResult:
    """Class-conditional generator training with `cfg`'s loss (MMD or
    adversarial), noise, batch, seed, steps, stop_mse, Adam and diagnostics
    settings; `stop_mse` bounds the generator loss, the summed MMD or the
    adversarial one.

    `cfg.batch_size` counts samples per class per step. Writes metrics.csv
    plus samples.csv (per-class draws) and sweep.csv (class interpolations).
    """
    if cfg.loss not in ("mmd", "gan"):
        raise ValueError(f"unknown loss kind '{cfg.loss}'")
    k, batch = task.n_classes, cfg.batch_size
    data_rng = stream(cfg.seed, "data")
    noise_rng = stream(cfg.seed, "noise")
    diag_rng = stream(cfg.seed, "diag")
    if cfg.loss == "gan":
        disc = init_discriminator(
            stream(cfg.seed, "init", 1), spec.out_dim, k, cfg.disc_hidden
        )
        disc_state = adam_init(disc, **_adam_settings(cfg))
        header = ["step", "loss", "loss_disc", "diversity"]
    else:
        header = ["step", "loss"] + [f"mmd_class{c}" for c in range(k)] + ["diversity"]

    def draw(n):  # the diagnostics' noise: probe, samples and sweep
        return sample_noise(diag_rng, cfg.noise_dim, n, cfg.noise_kind)

    # every class's batch side by side, class-major: one generator forward
    label_x = np.concatenate([one_hot(k, c, batch) for c in range(k)], axis=1)
    # the labels of the reals and then the fakes: one discriminator forward
    label_xx = np.concatenate([label_x, label_x], axis=1)

    def step_loss(lifted):
        real = np.concatenate([task.sample(data_rng, c, batch) for c in range(k)], 1)
        noise = np.concatenate(
            [sample_noise(noise_rng, cfg.noise_dim, batch, cfg.noise_kind) for _ in range(k)],
            1,
        )
        fake = product_compose(lifted, [noise, label_x])
        if cfg.loss == "mmd":
            # the class axis, and the real distances built once a step
            real = real.reshape((-1, k, batch))
            dyy = pairwise_sq_dists(real, real)
            parts = mmd_loss(fake.reshape(real.shape), real, rbf_bandwidths(dyy), dyy)
            loss, others = parts.sum(), list(parts.value)
        else:
            # the discriminator steps on this forward's values before the
            # generator loss reads its updated weights
            tape_d = Tape()
            loss_d = discriminator_loss(
                discriminator_forward(
                    lift_model(tape_d, disc),
                    np.concatenate([real, fake.value], axis=1),
                    label_xx,
                )
            )
            adam_step(disc_state, backward(tape_d, loss_d))
            logits = discriminator_forward(disc, fake, label_x)
            loss, others = generator_loss(logits), [float(loss_d.value)]
        return loss, others, [_diversity_probe(spec, task, draw)]

    result = _fit(spec, cfg, out_dir, header, step_loss)
    _dump_samples(spec, task, draw, cfg.eval_samples, Path(out_dir) / "samples.csv")
    _dump_sweep(spec, task, draw, cfg.sweep_points, Path(out_dir) / "sweep.csv")
    return result
