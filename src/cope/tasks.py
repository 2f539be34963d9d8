"""Desk-scale synthetic tasks: conditional 2-D clusters, polynomial
regression targets, and paired coarse/fine 1-D signals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import OracleParams, eval_explicit, expansion_term_keys


@dataclass
class CondPointCloud:
    """Isotropic Gaussian blobs; class identity is the conditioning input."""

    means: np.ndarray  # (n_classes, 2)
    std: float  # of each coordinate, in every class

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        if self.means.ndim != 2 or self.means.shape[1] != 2:
            raise ValueError(f"means must be (n_classes, 2), got {self.means.shape}")

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    def sample(self, rng: np.random.Generator, cls: int, n: int) -> np.ndarray:
        """Column batch of `n` points from class `cls`."""
        if not 0 <= cls < self.n_classes:
            raise ValueError(f"class {cls} outside [0, {self.n_classes})")
        raw = rng.standard_normal((2, n))
        return self.means[cls][:, None] + self.std * raw


def make_cond_point_cloud(n_classes: int, radius: float, std: float) -> CondPointCloud:
    """`n_classes` means evenly spaced on a circle of `radius`.

    Neighbours on the circle are its closest pair, 2 r sin(pi / n) apart;
    a circle on which that gap is below 4 stds, the floor the nearest-centre
    score needs, is rejected before its means are allocated.
    """
    gap = 2.0 * radius * np.sin(np.pi / n_classes) if n_classes > 1 else np.inf
    if gap < 4.0 * std:
        raise ValueError(
            f"clusters overlap: neighbouring means are {gap:.4g} apart, "
            f"below 4 x std {4.0 * std:.4f}"
        )
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes + np.pi / 4.0
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return CondPointCloud(means=means, std=std)


def nearest_center(task: CondPointCloud, samples) -> np.ndarray:
    """Index of the closest cluster mean per column sample."""
    samples = np.asarray(samples, dtype=np.float64)
    d2 = ((samples[None, :, :] - task.means[:, :, None]) ** 2).sum(axis=1)
    return np.argmin(d2, axis=0)


def one_hot(n_classes: int, cls: int, n: int) -> np.ndarray:
    out = np.zeros((n_classes, n))
    out[cls] = 1.0
    return out


@dataclass
class PolyRegression:
    """Random dense polynomial target with unit-scale outputs."""

    target: OracleParams
    inputs: list  # one (dim, n_samples) batch per variable
    outputs: np.ndarray  # (out_dim, n_samples)


def make_poly_regression(
    rng: np.random.Generator,
    degree: int,
    in_dim: int,
    out_dim: int,
    n_samples: int,
) -> PolyRegression:
    # both variables are in_dim wide, so a term's shape is its order alone
    tensors = {
        key: rng.uniform(-1.0, 1.0, size=(out_dim,) + (in_dim,) * len(key))
        for key in expansion_term_keys(degree, 2)
    }
    params = OracleParams(tensors, rng.uniform(-1.0, 1.0, size=out_dim))
    inputs = [rng.uniform(-1.0, 1.0, (in_dim, n_samples)) for _ in range(2)]
    raw = eval_explicit(params, inputs)
    scale = float(np.std(raw))
    scale = scale if scale > 1e-8 else 1.0
    scaled = OracleParams(
        {k: v / scale for k, v in params.tensors.items()},
        params.bias / scale - raw.mean(axis=1) / scale,
    )
    return PolyRegression(target=scaled, inputs=inputs, outputs=eval_explicit(scaled, inputs))


def best_affine_mse(inputs, outputs) -> float:
    """The least mean squared error of any affine map from the stacked
    `inputs` batches to `outputs`: the least-squares fit with a bias. An
    additive chain with no output tanh is affine, so no such chain fits
    below it."""
    outputs = np.asarray(outputs, dtype=np.float64)
    design = np.vstack([*inputs, np.ones((1, outputs.shape[1]))]).T
    coef = np.linalg.lstsq(design, outputs.T, rcond=None)[0]
    return float(np.mean((design @ coef - outputs.T) ** 2))


@dataclass
class Downsample1D:
    """Smooth periodic signals paired with their block-averaged versions."""

    signals: np.ndarray  # (length, n_samples)
    coarse: np.ndarray  # (length // factor, n_samples)


def make_downsample1d(
    rng: np.random.Generator, length: int, factor: int, n_samples: int
) -> Downsample1D:
    if length % factor != 0:
        raise ValueError(f"length {length} is not divisible by factor {factor}")
    t = np.arange(length)[:, None] / length
    signals = np.zeros((length, n_samples))
    for h in (1, 2, 3):
        amp = rng.uniform(0.2, 1.0, n_samples) / h
        phase = rng.uniform(0.0, 2.0 * np.pi, n_samples)
        signals += amp * np.sin(2.0 * np.pi * h * t + phase)
    signals *= 0.9 / np.max(np.abs(signals), axis=0, keepdims=True)
    coarse = signals.reshape(length // factor, factor, n_samples).mean(axis=1)
    return Downsample1D(signals=signals, coarse=coarse)
