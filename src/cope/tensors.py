"""Dense tensor algebra used by the polynomial evaluators.

Tensors are C-contiguous float64 ndarrays; modes are numbered from 1.
Mode-m unfolding, which `mode_m_fold` inverts, maps element
(i_1, ..., i_M) to row i_m and column
j = 1 + sum_{k != m} (i_k - 1) * J_k with J_k = prod_{n < k, n != m} I_n,
so the first remaining mode varies fastest along a row.
"""

from __future__ import annotations

from functools import reduce

import numpy as np


def mode_m_fold(mat, m: int, shape) -> np.ndarray:
    """The tensor of the given shape whose mode-`m` unfolding (1-based,
    columns in the layout above) is `mat`."""
    mat = np.asarray(mat, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if not 1 <= m <= len(shape):
        raise ValueError(f"mode {m} out of range for an order-{len(shape)} tensor")
    if mat.shape != (shape[m - 1], int(np.prod(shape)) // shape[m - 1]):
        raise ValueError(
            f"unfolded shape {mat.shape} does not match mode-{m} of {shape}"
        )
    rest = shape[:m - 1] + shape[m:]
    folded = np.reshape(mat, (shape[m - 1],) + rest, order="F")
    return np.ascontiguousarray(np.moveaxis(folded, 0, m - 1))


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product; row (i, j) flattens with i slowest."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    out = np.einsum("ir,jr->ijr", a, b)
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1])


def khatri_rao_chain(mats) -> np.ndarray:
    """Left-to-right Khatri-Rao product of a nonempty matrix sequence."""
    mats = list(mats)
    if not mats:
        raise ValueError("khatri_rao_chain needs at least one matrix")
    return reduce(khatri_rao, mats)


def hadamard(a, b) -> np.ndarray:
    """Elementwise product with strict shape agreement (no broadcasting)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b
