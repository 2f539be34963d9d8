"""Full-batch training loops with deterministic metrics traces.

Every float written to a CSV uses Python's shortest round-trip repr, so a
rerun with the same seed and config produces byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tape, backward, concat_rows, softplus
from .checkpoint import save_model
from .losses import (
    diversity_regularizer,
    mmd_loss,
    mse_loss,
    nonsat_gan_losses,
    rbf_bandwidths,
)
from .models import (
    ModelSpec,
    discriminator_forward,
    init_discriminator,
    lift_model,
    model_parameters,
    product_compose,
)
from .optim import adam_init, adam_step
from .rng import stream
from .tasks import CondPointCloud, one_hot


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
    checkpoint_path: Path | None = None


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
    """Rank in 1..128 whose additive-recursion parameter count is closest
    to target."""
    d_sum = int(sum(var_dims))
    best_rank, best_gap = 1, None
    for k in range(1, 129):
        count = (
            order * d_sum * k
            + (order - 1) * k * k
            + order * k * k
            + order * k
            + out_dim * k
            + out_dim
        )
        gap = abs(count - target_count)
        if best_gap is None or gap < best_gap:
            best_rank, best_gap = k, gap
    return best_rank


def _fit(spec, out_dir, header, steps, step_loss, opt, stop_loss=None) -> TrainResult:
    """Adam on `spec`'s parameters, one metrics row per step.

    `step_loss(lifted)` returns the loss Var, the row's other losses and
    its diagnostics; a non-finite loss or other loss ends the run with
    TrainingDiverged, keeping the rows written so far.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = model_parameters(spec)
    state = adam_init(params, **opt)
    metrics = MetricsWriter(out_dir / "metrics.csv", header)
    value = float("nan")
    step = 0
    try:
        for step in range(1, steps + 1):
            tape = Tape()
            loss, others, diagnostics = step_loss(lift_model(tape, spec))
            value = float(loss.value)
            metrics.row([step, value, *others, *diagnostics])
            if not np.isfinite([value, *others]).all():
                raise TrainingDiverged(step, value, metrics.path)
            adam_step(state, params, backward(tape, loss))
            if stop_loss is not None and value < stop_loss:
                break
    finally:
        metrics.close()
    ckpt = out_dir / "checkpoint.json"
    save_model(ckpt, spec)
    return TrainResult(step, value, metrics.path, ckpt)


def train_regression(
    spec: ModelSpec,
    inputs,
    targets,
    *,
    steps: int,
    out_dir,
    lr=1e-3,
    beta1=0.9,
    beta2=0.999,
    eps=1e-8,
    stop_loss=None,
) -> TrainResult:
    """Full-batch regression; logs one (step, mse) row per step."""
    inputs = [np.asarray(z, dtype=np.float64) for z in inputs]
    targets = np.asarray(targets, dtype=np.float64)

    def step_loss(lifted):
        return mse_loss(product_compose(lifted, inputs), targets), [], []

    opt = dict(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    return _fit(spec, out_dir, ["step", "mse"], steps, step_loss, opt, stop_loss)


def _dump_samples(spec, task, noise_rng, noise_dim, noise_kind, per_class, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class"] + [f"x{i}" for i in range(spec.out_dim)])
        for cls in range(task.n_classes):
            noise = sample_noise(noise_rng, noise_dim, per_class, noise_kind)
            out = product_compose(spec, [noise, one_hot(task.n_classes, cls, per_class)])
            for b in range(per_class):
                writer.writerow([cls] + [_fmt(v) for v in out[:, b]])


def _dump_sweep(spec, task, noise_rng, noise_dim, noise_kind, points, path):
    ts = np.linspace(0.0, 1.0, points)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["class_a", "class_b", "t"] + [f"x{i}" for i in range(spec.out_dim)]
        )
        k = task.n_classes
        for a in range(k):
            for b in range(a + 1, k):
                z = sample_noise(noise_rng, noise_dim, 1, noise_kind)[:, 0]
                for t in ts:
                    cond = np.zeros(k)
                    cond[a], cond[b] = 1.0 - t, t
                    out = product_compose(spec, [z, cond])
                    writer.writerow([a, b, _fmt(t)] + [_fmt(v) for v in out])


def _diversity_probe(spec, task, rng, noise_dim, noise_kind) -> float:
    z1 = sample_noise(rng, noise_dim, 1, noise_kind)[:, 0]
    z2 = sample_noise(rng, noise_dim, 1, noise_kind)[:, 0]
    cond = one_hot(task.n_classes, 0, 1)[:, 0]
    g1 = product_compose(spec, [z1, cond])
    g2 = product_compose(spec, [z2, cond])
    return diversity_regularizer(g1, g2, z1, z2)


def train_conditional(
    spec: ModelSpec,
    task: CondPointCloud,
    *,
    steps: int,
    batch_size: int,
    seed: int,
    out_dir,
    loss_kind="mmd",
    noise_dim=4,
    noise_kind="uniform",
    lr=1e-3,
    beta1=0.9,
    beta2=0.999,
    eps=1e-8,
    eval_samples=1000,
    sweep_points=9,
    disc_hidden=32,
) -> TrainResult:
    """Class-conditional generator training with MMD or adversarial loss.

    `batch_size` counts samples per class per step. Writes metrics.csv plus
    samples.csv (per-class draws) and sweep.csv (class interpolations).
    """
    if loss_kind not in ("mmd", "gan"):
        raise ValueError(f"unknown loss kind '{loss_kind}'")
    k = task.n_classes
    data_rng = stream(seed, "data")
    noise_rng = stream(seed, "noise")
    diag_rng = stream(seed, "diag")
    opt = dict(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    if loss_kind == "gan":
        disc = init_discriminator(stream(seed, "init", 1), spec.out_dim + k, disc_hidden)
        disc_state = adam_init(disc, **opt)
        header = ["step", "loss", "loss_disc", "diversity"]
    else:
        header = ["step", "loss"] + [f"mmd_class{c}" for c in range(k)] + ["diversity"]

    def step_loss(lifted):
        labels = [one_hot(k, c, batch_size) for c in range(k)]
        reals = [task.sample(data_rng, c, batch_size) for c in range(k)]
        noises = [
            sample_noise(noise_rng, noise_dim, batch_size, noise_kind) for _ in range(k)
        ]
        if loss_kind == "mmd":
            parts = [
                mmd_loss(product_compose(lifted, [z, y]), x, rbf_bandwidths(x))
                for z, y, x in zip(noises, labels, reals)
            ]
            loss, others = sum(parts), [float(part.value) for part in parts]
        else:
            label_x = np.concatenate(labels, axis=1)
            fake = product_compose(lifted, [np.concatenate(noises, axis=1), label_x])
            # the discriminator steps on this forward's values before the
            # generator loss reads its updated weights
            tape_d = Tape()
            lifted_d = lift_model(tape_d, disc)
            loss_d, _ = nonsat_gan_losses(
                discriminator_forward(
                    lifted_d, concat_rows([np.concatenate(reals, axis=1), label_x])
                ),
                discriminator_forward(lifted_d, concat_rows([fake.value, label_x])),
            )
            adam_step(disc_state, disc, backward(tape_d, loss_d))
            logits = discriminator_forward(disc, concat_rows([fake, label_x]))
            loss, others = softplus(-logits).mean(), [float(loss_d.value)]
        return loss, others, [_diversity_probe(spec, task, diag_rng, noise_dim, noise_kind)]

    result = _fit(spec, out_dir, header, steps, step_loss, opt)
    out_dir = Path(out_dir)
    _dump_samples(
        spec, task, diag_rng, noise_dim, noise_kind, eval_samples, out_dir / "samples.csv"
    )
    _dump_sweep(
        spec, task, diag_rng, noise_dim, noise_kind, sweep_points, out_dir / "sweep.csv"
    )
    return result
