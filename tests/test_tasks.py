import time

import numpy as np
import pytest

from cope.config import resolve
from cope.oracle import eval_explicit
from cope.rng import stream
from cope.tasks import (
    CondPointCloud,
    best_affine_mse,
    make_cond_point_cloud,
    make_downsample1d,
    make_poly_regression,
    nearest_center,
    one_hot,
)


def test_cloud_centers_on_circle():
    task = make_cond_point_cloud(4, 0.6, 0.05)
    assert task.means.shape == (4, 2)
    np.testing.assert_allclose(np.linalg.norm(task.means, axis=1), 0.6)


def test_cloud_rejects_overlapping_clusters():
    # gap 4x the max std is the floor for the nearest-center oracle
    with pytest.raises(ValueError, match="overlap"):
        make_cond_point_cloud(4, 0.05, 0.5)


def _min_gap(means):
    """The least distance between two of `means`, pair by pair."""
    return min(
        np.linalg.norm(means[i + 1 :] - means[i], axis=1).min()
        for i in range(len(means) - 1)
    )


# The border is the closed form 2 r sin(pi / k) = 4 std itself, not the
# rounded means' gap; at r = 3.7 and k = 4 the two differ by one ulp.
@pytest.mark.parametrize("k, radius", [(2, 0.6), (4, 3.7), (7, 0.6), (1000, 1000.0)])
def test_circle_borderline_is_left_to_the_means(k, radius):
    gap = 2.0 * radius * np.sin(np.pi / k)
    make_cond_point_cloud(k, radius, gap / 4.0)
    with pytest.raises(ValueError, match="overlap"):
        make_cond_point_cloud(k, radius, np.nextafter(gap / 4.0, np.inf))


@pytest.mark.parametrize("k, seed", [(2, 0), (7, 1), (40, 2)])
def test_cloud_overlap_bound_is_the_brute_force_min_gap(k, seed):
    # the closed form is the least gap over every pair of the circle's means
    radius = float(np.random.default_rng(seed).uniform(0.1, 100.0))
    means = make_cond_point_cloud(k, radius, 0.0).means
    np.testing.assert_allclose(
        _min_gap(means), 2.0 * radius * np.sin(np.pi / k), rtol=1e-12, atol=0.0
    )


def test_a_wide_circle_of_many_classes_resolves_at_once():
    # the check is one closed form, not a scan over pairs of means
    t0 = time.perf_counter()
    values = {"n_classes": 20_000, "cluster_radius": 1e4}
    cfg = resolve(values, {"command": "train-conditional"})
    assert cfg.n_classes == 20_000
    assert time.perf_counter() - t0 < 1.0


def test_cloud_sampling_shape_and_locality():
    task = make_cond_point_cloud(4, 0.6, 0.05)
    pts = task.sample(stream(0, "data"), 2, 500)
    assert pts.shape == (2, 500)
    center = task.means[2]
    assert np.linalg.norm(pts.mean(axis=1) - center) < 0.02
    assert np.all(np.linalg.norm(pts - center[:, None], axis=0) < 0.5)


@pytest.mark.parametrize("seed", [0, 7, 101])
@pytest.mark.parametrize("std", [1e-6, 0.05, 0.37, 3.0, 10.0])
def test_cloud_sampling_is_the_cholesky_draw(std, seed):
    # the isotropic draw keeps every byte of a full-covariance Cholesky draw
    task = make_cond_point_cloud(4, 50.0, std)
    chol = np.linalg.cholesky(std**2 * np.eye(2))
    for cls in range(4):
        raw = stream(seed, "data").standard_normal((2, 300))
        want = task.means[cls][:, None] + chol @ raw
        np.testing.assert_array_equal(task.sample(stream(seed, "data"), cls, 300), want)


def test_nearest_center_on_the_centers():
    task = make_cond_point_cloud(4, 0.6, 0.05)
    got = nearest_center(task, task.means.T)
    np.testing.assert_array_equal(got, np.arange(4))


def test_nearest_center_column_convention():
    task = CondPointCloud(means=np.array([[0.0, 0.0], [1.0, 0.0]]), std=0.1)
    pts = np.array([[0.1, 0.9, 0.49], [0.0, 0.1, 0.0]])
    np.testing.assert_array_equal(nearest_center(task, pts), [0, 1, 0])


def test_one_hot_columns():
    cols = one_hot(4, 1, 3)
    assert cols.shape == (4, 3)
    np.testing.assert_array_equal(cols[1], np.ones(3))
    assert cols.sum() == 3


def per_vector_contraction(params, zs):
    """One column's expansion: each tensor contracted last mode first by
    `np.dot` on vectors, terms summed in key order."""
    out = params.bias.copy()
    for key, term in params.tensors.items():
        for phi in reversed(key):
            z = zs[phi]
            term = np.dot(term.reshape(-1, z.shape[0]), z.reshape(-1, 1)).reshape(
                term.shape[:-1]
            )
        out = out + term
    return out


def test_poly_regression_outputs_match_target():
    task = make_poly_regression(stream(0, "data"), 3, 2, 1, 32)
    assert task.outputs.shape == (1, 32)
    for j in range(5):
        want = eval_explicit(task.target, [z[:, j : j + 1] for z in task.inputs])
        np.testing.assert_allclose(task.outputs[:, j : j + 1], want, rtol=0, atol=0)


@pytest.mark.parametrize("degree, in_dim, out_dim", [(1, 3, 2), (3, 2, 1), (4, 2, 2)])
def test_poly_regression_matches_a_per_vector_contraction(degree, in_dim, out_dim):
    # the batched contraction keeps every byte of one np.dot per column
    task = make_poly_regression(stream(5, "data"), degree, in_dim, out_dim, 40)
    for j in range(40):
        want = per_vector_contraction(task.target, [z[:, j] for z in task.inputs])
        np.testing.assert_allclose(task.outputs[:, j], want, rtol=0, atol=0)


def test_poly_regression_unit_scale():
    # single output: recentering preserves the exact unit global std
    one = make_poly_regression(stream(1, "data"), 3, 2, 1, 400)
    np.testing.assert_allclose(np.std(one.outputs), 1.0, atol=1e-9)
    np.testing.assert_allclose(one.outputs.mean(), 0.0, atol=1e-10)
    # multi output: rows are centered; scale stays near 1 (recentering
    # removes the between-row mean spread from the global std)
    two = make_poly_regression(stream(1, "data"), 3, 2, 2, 400)
    np.testing.assert_allclose(two.outputs.mean(axis=1), 0.0, atol=1e-10)
    assert 0.8 < np.std(two.outputs) <= 1.0 + 1e-9


def test_best_affine_mse_fits_affine_targets_and_bounds_every_affine_map():
    rng = np.random.default_rng(3)
    inputs = [rng.uniform(-1, 1, (2, 50)), rng.uniform(-1, 1, (3, 50))]
    stacked = np.vstack(inputs)
    w, b = rng.standard_normal((2, 5)), rng.standard_normal((2, 1))
    assert best_affine_mse(inputs, w @ stacked + b) < 1e-28
    curved = w @ stacked + b + stacked[:2] ** 2
    floor = best_affine_mse(inputs, curved)
    assert floor > 0.01
    for _ in range(20):
        w2 = w + 0.5 * rng.standard_normal(w.shape)
        b2 = b + 0.5 * rng.standard_normal(b.shape)
        assert floor <= np.mean((w2 @ stacked + b2 - curved) ** 2)


def test_downsample_shapes_and_block_means():
    task = make_downsample1d(stream(0, "data"), 32, 4, 7)
    assert task.signals.shape == (32, 7)
    assert task.coarse.shape == (8, 7)
    np.testing.assert_allclose(
        task.coarse[3, 2], task.signals[12:16, 2].mean()
    )
    assert np.max(np.abs(task.signals)) <= 0.9 + 1e-12


def test_downsample_rejects_ragged_factor():
    with pytest.raises(ValueError, match="divisible"):
        make_downsample1d(stream(0, "data"), 30, 4, 3)
