import csv

import numpy as np
import pytest

from cope.config import ExperimentConfig
from cope.models import init_chain, model_parameters
from cope.rng import stream
from cope.tasks import make_cond_point_cloud, make_poly_regression
from cope.training import (
    TrainingDiverged,
    count_parameters,
    matched_additive_rank,
    sample_noise,
    train_conditional,
    train_regression,
)


def read_rows(path):
    """The rows of the CSV file at `path`, read with the file closed after."""
    return list(csv.reader(path.read_text().splitlines()))


def _poly(seed=0, n=32):
    return make_poly_regression(stream(seed, "data"), 2, 2, 1, n)


def _spec(seed=0, kind="ccp", rank=4, orders=(2,), out=1):
    return init_chain(
        stream(seed, "init"), (2, 2), orders, rank=rank, hidden_dim=4, out_dim=out,
        kind=kind,
    )


def test_count_parameters_ccp_by_hand():
    # order 2, dims (2,2), rank 4, out 1: 2*2*(2*4) maps + (1,4) head + bias
    spec = _spec()
    assert count_parameters(spec) == 2 * 2 * 8 + 4 + 1


def test_matched_additive_rank_matches_built_model():
    target = count_parameters(
        init_chain(stream(0, "init"), (2, 2), (3,), rank=16, hidden_dim=4, out_dim=1)
    )
    k = matched_additive_rank((2, 2), 3, 1, target)
    built = count_parameters(
        init_chain(stream(0, "init"), (2, 2), (3,), rank=k, hidden_dim=4,
                   out_dim=1, kind="additive")
    )
    over = count_parameters(
        init_chain(stream(0, "init"), (2, 2), (3,), rank=k + 1, hidden_dim=4,
                   out_dim=1, kind="additive")
    )
    assert built <= target < over


def test_regression_loss_decreases_and_logs_every_step(tmp_path):
    task = _poly()
    r = train_regression(
        _spec(), task.inputs, task.outputs, ExperimentConfig(steps=40), tmp_path
    )
    rows = read_rows(r.metrics_path)
    assert rows[0] == ["step", "mse"]
    assert len(rows) == 41
    first, last = float(rows[1][1]), float(rows[-1][1])
    assert last < first
    assert r.steps_run == 40
    assert r.checkpoint_path.exists()


def test_regression_stop_loss_halts_early(tmp_path):
    task = _poly()
    cfg = ExperimentConfig(steps=5000, lr=1e-2, stop_mse=1e-3)
    r = train_regression(_spec(), task.inputs, task.outputs, cfg, tmp_path)
    assert r.steps_run < 5000
    assert r.final_loss < 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_regression_divergence_aborts_with_trace(tmp_path):
    task = _poly()
    with pytest.raises(TrainingDiverged, match="step"):
        train_regression(
            _spec(), task.inputs, task.outputs, ExperimentConfig(steps=10, lr=1e150),
            tmp_path,
        )
    rows = read_rows(tmp_path / "metrics.csv")
    assert len(rows) > 1  # the trace up to the failure is kept


def test_regression_reruns_byte_identical(tmp_path):
    task = _poly()
    for sub in ("a", "b"):
        train_regression(
            _spec(), task.inputs, task.outputs, ExperimentConfig(steps=25), tmp_path / sub
        )
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


def test_training_updates_the_live_model(tmp_path):
    task = _poly()
    spec = _spec()
    before = {k: v.copy() for k, v in model_parameters(spec).items()}
    train_regression(spec, task.inputs, task.outputs, ExperimentConfig(steps=3), tmp_path)
    after = model_parameters(spec)
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_sample_noise_kinds():
    rng = stream(0, "noise")
    u = sample_noise(rng, 3, 200, "uniform")
    g = sample_noise(rng, 3, 200, "gaussian")
    assert u.shape == g.shape == (3, 200)
    assert np.all(np.abs(u) <= 1.0)
    assert np.max(np.abs(g)) > 1.0
    with pytest.raises(ValueError, match="noise"):
        sample_noise(rng, 3, 5, "laplace")


def _cond_spec(seed=0):
    return init_chain(
        stream(seed, "init"), (3, 4), (2,), rank=4, hidden_dim=4, out_dim=2,
        output_activation="tanh",
    )


def test_conditional_mmd_artifacts(tmp_path):
    task = make_cond_point_cloud(4, 0.6, 0.05)
    cfg = ExperimentConfig(
        steps=4, batch_size=8, seed=0, noise_dim=3, eval_samples=10, sweep_points=3
    )
    r = train_conditional(_cond_spec(), task, cfg, tmp_path)
    rows = read_rows(r.metrics_path)
    assert rows[0] == ["step", "loss", "mmd_class0", "mmd_class1",
                       "mmd_class2", "mmd_class3", "diversity"]
    assert len(rows) == 5
    samples = read_rows(tmp_path / "samples.csv")
    assert samples[0] == ["class", "x0", "x1"]
    assert len(samples) == 1 + 4 * 10
    sweep = read_rows(tmp_path / "sweep.csv")
    assert sweep[0] == ["class_a", "class_b", "t", "x0", "x1"]
    assert len(sweep) == 1 + 6 * 3  # 4 choose 2 pairs
    assert (tmp_path / "checkpoint.json").exists()


def test_conditional_gan_artifacts(tmp_path):
    task = make_cond_point_cloud(4, 0.6, 0.05)
    cfg = ExperimentConfig(
        steps=3, batch_size=6, seed=0, loss="gan", noise_dim=3, eval_samples=5,
        sweep_points=3, disc_hidden=8,
    )
    r = train_conditional(_cond_spec(), task, cfg, tmp_path)
    rows = read_rows(r.metrics_path)
    assert rows[0] == ["step", "loss", "loss_disc", "diversity"]
    assert len(rows) == 4
    assert np.isfinite(float(rows[-1][1]))


@pytest.mark.parametrize("loss", ["mmd", "gan"])
def test_conditional_reruns_byte_identical(tmp_path, loss):
    task = make_cond_point_cloud(4, 0.6, 0.05)
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            steps=3, batch_size=6, seed=5, noise_dim=3, eval_samples=6, sweep_points=3,
            loss=loss,
        )
        train_conditional(_cond_spec(), task, cfg, tmp_path / sub)
    for name in ("metrics.csv", "samples.csv", "sweep.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


def test_conditional_rejects_unknown_loss(tmp_path):
    task = make_cond_point_cloud(4, 0.6, 0.05)
    with pytest.raises(ValueError, match="loss"):
        cfg = ExperimentConfig(steps=1, batch_size=4, seed=0, loss="wasserstein")
        train_conditional(_cond_spec(), task, cfg, tmp_path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_conditional_divergence_aborts_with_trace(tmp_path):
    task = make_cond_point_cloud(4, 0.6, 0.05)
    with pytest.raises(TrainingDiverged, match="step 2") as info:
        cfg = ExperimentConfig(steps=5, batch_size=6, seed=0, noise_dim=3, lr=1e300)
        train_conditional(_cond_spec(), task, cfg, tmp_path)
    assert info.value.step == 2
    rows = read_rows(tmp_path / "metrics.csv")
    assert [row[0] for row in rows[1:]] == ["1", "2"]  # the trace is kept
    assert not (tmp_path / "checkpoint.json").exists()


@pytest.mark.parametrize("loss", ["mmd", "gan"])
def test_conditional_step_forward_count(tmp_path, monkeypatch, loss):
    import cope.training

    calls, sweep_calls = [], []
    forward, sweep = cope.training.product_compose, cope.training._dump_sweep

    def counted(*args):
        calls.append(1)
        return forward(*args)

    def counted_sweep(*args):
        before = len(calls)
        sweep(*args)
        sweep_calls.append(len(calls) - before)

    monkeypatch.setattr(cope.training, "product_compose", counted)
    monkeypatch.setattr(cope.training, "_dump_sweep", counted_sweep)
    task = make_cond_point_cloud(4, 0.6, 0.05)
    counts = []
    for steps in (2, 3):
        calls.clear()
        cfg = ExperimentConfig(
            steps=steps, batch_size=6, seed=0, loss=loss, noise_dim=3,
            eval_samples=5, sweep_points=3, disc_hidden=8,
        )
        train_conditional(_cond_spec(), task, cfg, tmp_path / str(steps))
        counts.append(len(calls))
    # one step: the generator's tape forward plus one diversity probe
    assert counts[1] - counts[0] == 2
    # one forward per class pair, over all of its sweep points
    assert sweep_calls == [6, 6]


def test_mmd_step_tape_has_no_transpose_and_few_nodes(tmp_path, monkeypatch):
    import cope.training

    tapes = []
    backward = cope.training.backward

    def recorded(tape, out, *rest):
        tapes.append([node.op for node in tape.nodes])
        return backward(tape, out, *rest)

    monkeypatch.setattr(cope.training, "backward", recorded)
    # the benchmark's generator: a [2, 2] chain of rank 16 over 4 classes
    spec = init_chain(
        stream(0, "init"), (4, 4), (2, 2), rank=16, hidden_dim=8, out_dim=2,
        output_activation="tanh",
    )
    cfg = ExperimentConfig(
        steps=2, batch_size=8, seed=0, noise_dim=4, eval_samples=5, sweep_points=3
    )
    train_conditional(spec, make_cond_point_cloud(4, 0.6, 0.05), cfg, tmp_path)
    assert len(tapes) == 2
    for ops in tapes:
        assert "transpose" not in ops
        # 12 parameter leaves, one node per block, tanh, the reshape to
        # (d, k, n), the MMD loss as one node and its sum over the classes
        assert ops.count("custom") == 3
        assert len(ops) == 18


def test_gan_step_runs_the_discriminator_twice_on_two_small_tapes(tmp_path, monkeypatch):
    import cope.training

    tapes, calls = [], []
    backward, discriminate = cope.training.backward, cope.training.discriminator_forward

    def recorded(tape, out, *rest):
        tapes.append([node.op for node in tape.nodes])
        return backward(tape, out, *rest)

    def counted(*args):
        calls.append(1)
        return discriminate(*args)

    monkeypatch.setattr(cope.training, "backward", recorded)
    monkeypatch.setattr(cope.training, "discriminator_forward", counted)
    # the benchmark's generator: a [2, 2] chain of rank 16 over 4 classes
    spec = init_chain(
        stream(0, "init"), (4, 4), (2, 2), rank=16, hidden_dim=8, out_dim=2,
        output_activation="tanh",
    )
    cfg = ExperimentConfig(
        steps=2, batch_size=8, seed=0, loss="gan", noise_dim=4, eval_samples=5,
        sweep_points=3,
    )
    train_conditional(spec, make_cond_point_cloud(4, 0.6, 0.05), cfg, tmp_path)
    # each step: one forward over reals and fakes stacked, on the
    # discriminator's tape, then one over the fakes on the generator's
    assert len(calls) == 4
    assert len(tapes) == 4
    for disc_ops, gen_ops in (tapes[0:2], tapes[2:4]):
        # 7 parameter leaves, three layers and the loss's sign, sum and 1/n;
        # the stacked samples and labels are closed over, no constant leaves
        assert len(disc_ops) == 24
        # 12 parameter leaves, one node per block, then tanh, the
        # discriminator on plain weights and the generator loss; its frozen
        # w1x, w2 and w3 are closed over, no constant leaves
        assert gen_ops.count("custom") == 2
        assert len(gen_ops) == 28
