import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cope.tensors import (
    hadamard,
    khatri_rao,
    khatri_rao_chain,
    mode1_fold,
)


def unfold_by_index_formula(t):
    """Element-by-element reference: row i_1, column
    j = 1 + sum_{k>=2} (i_k - 1) J_k, J_k = prod of the dims strictly
    between mode 1 and mode k."""
    t = np.asarray(t, dtype=float)
    dims = t.shape
    out = np.zeros((dims[0], int(np.prod(dims)) // dims[0]))
    for idx in itertools.product(*[range(d) for d in dims]):
        j = 0
        stride = 1
        for k in range(1, len(dims)):
            j += idx[k] * stride
            stride *= dims[k]
        out[idx[0], j] = t[idx]
    return out


class TestUnfold:
    def test_matches_index_formula(self):
        # the reference unfolds a folded matrix back to that matrix
        rng = np.random.default_rng(7)
        for shape in [(2, 3), (2, 3, 4), (3, 2, 4, 2)]:
            mat = rng.standard_normal((shape[0], np.prod(shape) // shape[0]))
            np.testing.assert_array_equal(
                unfold_by_index_formula(mode1_fold(mat, shape)), mat
            )

    def test_matrix_modes(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(mode1_fold(a, a.shape), a)

    def test_fold_roundtrip(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 4, 2, 5))
        folded = mode1_fold(unfold_by_index_formula(t), t.shape)
        np.testing.assert_array_equal(folded, t)
        assert folded.flags.c_contiguous

    def test_unfolded_shape_mismatch(self):
        # as many entries as the tensor, but not its mode-1 rows
        with pytest.raises(ValueError, match=r"unfolded shape \(4, 2\) does not match"):
            mode1_fold(np.zeros((4, 2)), (2, 2, 2))


class TestKhatriRao:
    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(
            out, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        )

    def test_hand_value(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(
            khatri_rao(a, b),
            [[0.0, 2.0], [1.0, 0.0], [0.0, 4.0], [3.0, 0.0]],
        )

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError, match="column counts differ: 2 vs 3"):
            khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transpose_product_collapses_to_hadamard(self, seed):
        # (A kr B)^T (C kr D) = (A^T C) * (B^T D) when shapes agree.
        rng = np.random.default_rng(seed)
        a, c = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 5))
        b, d = rng.standard_normal((2, 2, 4)), rng.standard_normal((2, 2, 5))
        lhs = khatri_rao(a[0], b[0]).T @ khatri_rao(c[0], d[0])
        rhs = hadamard(a[0].T @ c[0], b[0].T @ d[0])
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestHadamard:
    def test_strict_shapes(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(2, 1\)"):
            hadamard(np.zeros((2, 2)), np.zeros((2, 1)))

    def test_values(self):
        np.testing.assert_array_equal(
            hadamard([[1.0, 2.0]], [[3.0, 4.0]]), [[3.0, 8.0]]
        )


class TestCpReconstruct:
    def test_mode1_unfolding_formula(self):
        # X_(1) = U1 (U_M kr ... kr U2)^T for any order.
        rng = np.random.default_rng(12)
        factors = [rng.standard_normal((d, 3)) for d in (2, 4, 3)]
        t = np.einsum("ar,br,cr->abc", *factors)
        expected = factors[0] @ khatri_rao_chain(factors[:0:-1]).T
        np.testing.assert_allclose(unfold_by_index_formula(t), expected, atol=1e-12)
