"""Dense tensor algebra used by the polynomial evaluators.

Tensors are C-contiguous float64 ndarrays; modes are numbered from 1.
The mode-1 unfolding, which `mode1_fold` inverts, maps element
(i_1, ..., i_M) to row i_1 and column
j = 1 + sum_{k >= 2} (i_k - 1) * J_k with J_k = prod_{2 <= n < k} I_n,
so mode 2 varies fastest along a row.
"""

from __future__ import annotations

from functools import reduce

import numpy as np


def mode1_fold(mat, shape) -> np.ndarray:
    """The tensor of the given shape whose mode-1 unfolding (columns in the
    layout above) is `mat`."""
    mat = np.asarray(mat, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if mat.shape != (shape[0], int(np.prod(shape)) // shape[0]):
        raise ValueError(f"unfolded shape {mat.shape} does not match mode 1 of {shape}")
    return np.ascontiguousarray(np.reshape(mat, shape, order="F"))


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
