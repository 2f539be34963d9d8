"""End-to-end acceptance checks. Each test prints one PASS/FAIL line with
the measured numbers so a plain pytest run shows the full scorecard."""

import csv
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cope.config import ExperimentConfig
from cope.models import init_chain
from cope.rng import stream
from cope.tasks import (
    best_affine_mse,
    make_cond_point_cloud,
    make_poly_regression,
    nearest_center,
)
from cope.training import (
    count_parameters,
    matched_additive_rank,
    train_conditional,
    train_regression,
)
from cope.verify import (
    run_affineness,
    run_claim1,
    run_degree_law,
    run_gradients,
    run_lemma1,
    run_reductions,
)

SEED = 0


def _line(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _suite_check(capsys, name, result, time_limit):
    ok = result.passed and result.seconds < time_limit
    _line(
        capsys, name, ok,
        f"max dev {result.max_deviation:.2e} tol {result.tolerance:g}, "
        f"{result.trials} trials, {result.seconds:.2f}s < {time_limit}s"
        + (f", details {result.details}" if result.details else ""),
    )
    assert result.passed, result.details or result.max_deviation
    assert result.seconds < time_limit


def test_coupled_factorization_equals_materialized_tensors(capsys):
    _suite_check(capsys, "claim1-equivalence", run_claim1(seed=SEED), 5.0)


def test_khatri_rao_transpose_product_collapses_to_hadamard(capsys):
    _suite_check(capsys, "lemma1", run_lemma1(seed=SEED), 1.0)


def test_degree_tracks_recursion_depth_and_multiplies_down_chains(capsys):
    _suite_check(capsys, "degree-law", run_degree_law(seed=SEED), 10.0)


def test_zeroed_couplings_collapse_to_reduced_recursions(capsys):
    _suite_check(capsys, "reductions", run_reductions(seed=SEED), 5.0)


def test_baselines_are_affine_while_multiplicative_models_curve(capsys):
    _suite_check(capsys, "affineness", run_affineness(seed=SEED), 5.0)


def test_tape_gradients_match_finite_differences(capsys):
    _suite_check(capsys, "gradients", run_gradients(seed=SEED), 30.0)


@pytest.mark.parametrize("seed", [11, 67])
def test_gradients_pass_where_a_small_step_read_rounding_noise(seed):
    # with h = 1e-5 for every case, the additive block read 1.45e-5 (seed 11)
    # and 1.11e-5 (seed 67) against the 1e-5 tolerance
    result = run_gradients(seed=seed)
    assert result.passed, result.max_deviation


# -- training-based criteria ------------------------------------------------

CCP_RANK = 16
STEP_CAP = 20000


def _fit_cubic(kind, rank, out_dir, task):
    spec = init_chain(
        stream(SEED, "init"), (2, 2), (3,), rank=rank, hidden_dim=8, out_dim=1,
        kind=kind,
    )
    cfg = ExperimentConfig(steps=STEP_CAP, stop_mse=5e-5)
    result = train_regression(spec, task.inputs, task.outputs, cfg, out_dir)
    return spec, result


@pytest.fixture(scope="module")
def cubic_fit_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cubic_fit")
    task = make_poly_regression(stream(SEED, "data"), 3, 2, 1, 256)
    add_rank = matched_additive_rank(
        (2, 2), 3, 1,
        count_parameters(init_chain(
            stream(SEED, "init"), (2, 2), (3,), rank=CCP_RANK, hidden_dim=8,
            out_dim=1,
        )),
    )
    t0 = time.perf_counter()
    ccp_spec, ccp = _fit_cubic("ccp", CCP_RANK, root / "ccp", task)
    add_spec, add = _fit_cubic("additive", add_rank, root / "add", task)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(
        root=root, task=task, add_rank=add_rank, seconds=seconds,
        ccp=ccp, add=add,
        ccp_params=count_parameters(ccp_spec),
        add_params=count_parameters(add_spec),
    )


def test_multiplicative_fits_cubic_additive_cannot(capsys, cubic_fit_runs):
    r = cubic_fit_runs
    ratio = r.add.final_loss / r.ccp.final_loss
    # the additive block is affine: no additive model fits below this
    affine = best_affine_mse(r.task.inputs, r.task.outputs)
    ok = (
        r.ccp.final_loss < 1e-4
        and r.ccp.steps_run <= STEP_CAP
        and ratio >= 100.0
        and 100.0 * r.ccp.final_loss <= affine
        and r.seconds < 180.0
    )
    _line(
        capsys, "expressivity-gap", ok,
        f"ccp mse {r.ccp.final_loss:.2e} in {r.ccp.steps_run} steps "
        f"({r.ccp_params} params) vs additive {r.add.final_loss:.2e} "
        f"({r.add_params} params, rank {r.add_rank}) and affine optimum "
        f"{affine:.8f}: {ratio:.0f}x gap, {r.seconds:.0f}s < 180s",
    )
    assert r.ccp.final_loss < 1e-4
    assert r.ccp.steps_run <= STEP_CAP
    assert ratio >= 100.0
    assert 100.0 * r.ccp.final_loss <= affine
    assert r.seconds < 180.0


N_CLASSES = 4
EVAL_PER_CLASS = 1000  # 4000 generated samples in total


def _train_generator(out_dir, task):
    spec = init_chain(
        stream(SEED, "init"), (4, N_CLASSES), (2, 2), rank=16, hidden_dim=8,
        out_dim=2, output_activation="tanh",
    )
    cfg = ExperimentConfig(
        steps=1000, batch_size=64, seed=SEED, loss="mmd", noise_dim=4,
        noise_kind="uniform", eval_samples=EVAL_PER_CLASS, sweep_points=9,
    )
    return train_conditional(spec, task, cfg, out_dir)


@pytest.fixture(scope="module")
def generator_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("generator")
    task = make_cond_point_cloud(N_CLASSES, 0.6, 0.05)
    t0 = time.perf_counter()
    result = _train_generator(root / "run", task)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(root=root, task=task, result=result, seconds=seconds)


def _read_samples(path):
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    cls = np.array([int(r[0]) for r in rows])
    pts = np.array([[float(r[1]), float(r[2])] for r in rows]).T
    return cls, pts


def test_conditional_generator_lands_on_its_clusters(capsys, generator_run):
    g = generator_run
    out_dir = g.result.metrics_path.parent
    cls, pts = _read_samples(out_dir / "samples.csv")
    assert len(cls) == N_CLASSES * EVAL_PER_CLASS
    accuracy = float(np.mean(nearest_center(g.task, pts) == cls))
    bad_endpoints = []
    sweep = (out_dir / "sweep.csv").read_text().splitlines()
    for a, b, t, x0, x1 in list(csv.reader(sweep))[1:]:
        t = float(t)
        if t in (0.0, 1.0):
            want = int(a) if t == 0.0 else int(b)
            got = int(nearest_center(g.task, np.array([[float(x0)], [float(x1)]]))[0])
            if got != want:
                bad_endpoints.append((a, b, t, got))
    ok = accuracy >= 0.95 and not bad_endpoints and g.seconds < 300.0
    _line(
        capsys, "conditional-generation", ok,
        f"accuracy {accuracy:.4f} on {len(cls)} samples, "
        f"{len(bad_endpoints)} wrong sweep endpoints, {g.seconds:.0f}s < 300s",
    )
    assert accuracy >= 0.95
    assert bad_endpoints == []
    assert g.seconds < 300.0


def test_identical_seeds_give_byte_identical_metrics(
    capsys, cubic_fit_runs, generator_run
):
    _fit_cubic("ccp", CCP_RANK, cubic_fit_runs.root / "ccp2", cubic_fit_runs.task)
    _fit_cubic(
        "additive", cubic_fit_runs.add_rank, cubic_fit_runs.root / "add2",
        cubic_fit_runs.task,
    )
    _train_generator(generator_run.root / "run2", generator_run.task)
    pairs = [
        (cubic_fit_runs.root / "ccp", cubic_fit_runs.root / "ccp2"),
        (cubic_fit_runs.root / "add", cubic_fit_runs.root / "add2"),
        (generator_run.root / "run", generator_run.root / "run2"),
    ]
    mismatched = [
        str(a.name)
        for a, b in pairs
        if (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()
    ]
    ok = not mismatched
    _line(
        capsys, "determinism", ok,
        "3 reruns byte-identical" if ok else f"mismatch in {mismatched}",
    )
    assert mismatched == []
