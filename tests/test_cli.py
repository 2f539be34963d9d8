import json
import os

import pytest

from cope.cli import ARTIFACTS, main, resolve_output_dir
from cope.config import COMMANDS, resolve

# a conditional generator small enough for a step to take milliseconds
_TINY_GENERATOR = {
    "batch_size": 6,
    "rank": 4,
    "hidden_dim": 4,
    "eval_samples": 5,
    "sweep_points": 3,
}


def test_verify_subset_writes_report(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["verify", "--suite", "lemma1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert [r["suite"] for r in report["results"]] == ["lemma1"]
    assert report["results"][0]["verdict"] == "pass"
    assert {"trials", "max_deviation", "tolerance", "seconds"} <= set(
        report["results"][0]
    )
    assert (out / "resolved_config.json").exists()
    assert "lemma1: PASS" in capsys.readouterr().out


def test_unknown_suite_named_in_error(tmp_path, capsys):
    code = main(["verify", "--suite", "nope", "--out", str(tmp_path / "v")])
    assert code == 2
    assert "nope" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"spam": 1}')
    code = main(["verify", "--config", str(cfgfile)])
    assert code == 2
    assert "spam" in capsys.readouterr().err


def test_invalid_field_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"rank": 0}')
    code = main(["verify", "--config", str(cfgfile)])
    assert code == 2
    assert "rank" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, field",
    [
        ({"target_degree": 5}, "target_degree"),
        ({"input_dim": 9}, "input_dim"),
        ({"task": "downsample-1d", "signal_length": 30}, "signal_length"),
        ({"sweep_points": "9"}, "sweep_points"),
        ({"sweep_points": 2.5}, "sweep_points"),
        ({"probe_max_order": "8"}, "probe_max_order"),
        ({"probe_max_order": 2.5}, "probe_max_order"),
        ({"stop_mse": True}, "stop_mse"),
    ],
)
def test_out_of_range_config_exits_2_and_writes_nothing(tmp_path, capsys, values, field):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(values))
    out = tmp_path / "run"
    out.mkdir()
    code = main(["train-regression", "--config", str(cfgfile), "--out", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_train_regression_run_and_flags_override_file(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "task": "poly-regression",
        "train_samples": 16,
        "rank": 3,
        "steps": 500,
    }))
    out = tmp_path / "run"
    code = main([
        "train-regression", "--config", str(cfgfile), "--steps", "4",
        "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["steps"] == 4  # flag beat the file value
    assert resolved["seed"] == 11
    assert (out / "metrics.csv").read_text().count("\n") == 5
    assert (out / "checkpoint.json").exists()
    assert "final mse" in capsys.readouterr().out


def test_train_regression_defaults_to_poly_task(tmp_path):
    out = tmp_path / "run"
    code = main(["train-regression", "--steps", "2", "--out", str(out)])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["task"] == "poly-regression"


def test_conditional_task_guard(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"task": "poly-regression"}')
    code = main([
        "train-conditional", "--config", str(cfgfile), "--steps", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "poly-regression" in capsys.readouterr().err


def test_train_conditional_smoke(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "batch_size": 6,
        "rank": 4,
        "hidden_dim": 4,
        "eval_samples": 5,
        "sweep_points": 3,
    }))
    out = tmp_path / "run"
    code = main([
        "train-conditional", "--config", str(cfgfile), "--steps", "2",
        "--out", str(out),
    ])
    assert code == 0
    for name in ("metrics.csv", "samples.csv", "sweep.csv", "checkpoint.json"):
        assert (out / name).exists(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_exits_1(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "task": "poly-regression", "train_samples": 16, "lr": 1e150,
    }))
    code = main([
        "train-regression", "--config", str(cfgfile), "--steps", "10",
        "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert "diverged" in capsys.readouterr().err


def test_value_error_during_a_run_exits_1(tmp_path, capsys, monkeypatch):
    def broken_trainer(*args, **kwargs):
        raise ValueError("broken trainer")

    monkeypatch.setattr("cope.cli.train_regression", broken_trainer)
    code = main(["train-regression", "--steps", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: broken trainer" in err and "config error" not in err


def test_degree_report_matches_nominal_order(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "block_orders": [2, 2], "rank": 3, "hidden_dim": 3, "noise_dim": 3,
    }))
    out = tmp_path / "run"
    code = main(["degree-report", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "degree_report.json").read_text())
    assert report["nominal_order"] == 4
    assert report["degrees"]["joint"] == 4
    assert "degree along joint ray: 4" in capsys.readouterr().out


def test_cope_out_env_is_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("COPE_OUT", str(tmp_path / "root"))
    cfg = resolve({}, {"command": "verify", "seed": 3})
    assert resolve_output_dir(cfg) == tmp_path / "root" / "verify-seed3"
    monkeypatch.delenv("COPE_OUT")
    assert str(resolve_output_dir(cfg)).startswith("cope_runs")


def test_explicit_out_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("COPE_OUT", str(tmp_path / "root"))
    cfg = resolve({}, {"command": "verify", "output_dir": str(tmp_path / "here")})
    assert resolve_output_dir(cfg) == tmp_path / "here"


def test_cli_reruns_byte_identical(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "task": "poly-regression", "train_samples": 16, "rank": 3,
    }))
    for sub in ("a", "b"):
        assert main([
            "train-regression", "--config", str(cfgfile), "--steps", "6",
            "--out", str(tmp_path / sub),
        ]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()


def _tiny_run(tmp_path, command, out, *extra, **values):
    """Runs `command` into `out` with tiny settings; returns the exit code."""
    cfgfile = tmp_path / f"{command}.json"
    cfgfile.write_text(json.dumps(
        {**(_TINY_GENERATOR if command == "train-conditional" else {}), **values}
    ))
    argv = [command, "--config", str(cfgfile), "--out", str(out)]
    if command.startswith("train"):
        argv += ["--steps", "1" if command == "train-conditional" else "2"]
    if command == "verify":
        argv += ["--suite", "lemma1"]
    return main(argv + list(extra))  # a repeated flag's last value wins


@pytest.mark.parametrize("command", COMMANDS)
def test_artifact_table_lists_exactly_what_each_command_writes(tmp_path, command):
    assert set(ARTIFACTS) == set(COMMANDS)
    out = tmp_path / "run"
    assert _tiny_run(tmp_path, command, out) == 0
    assert sorted(os.listdir(out)) == sorted(ARTIFACTS[command])


def test_rerun_writes_fresh_files_not_in_place(tmp_path):
    out, side = tmp_path / "run", tmp_path / "side"
    side.mkdir()
    assert _tiny_run(tmp_path, "train-conditional", out, "--seed", "1") == 0
    old = {}
    for name in ARTIFACTS["train-conditional"]:
        os.link(out / name, side / name)
        old[name] = (side / name).read_bytes()
    assert _tiny_run(tmp_path, "train-conditional", out, "--seed", "2") == 0
    for name, data in old.items():
        assert (side / name).read_bytes() == data, name
        assert not os.path.samefile(side / name, out / name), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_rerun_leaves_no_stale_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert _tiny_run(tmp_path, "train-conditional", out, "--steps", "5") == 0
    code = _tiny_run(
        tmp_path, "train-conditional", out, "--steps", "5", "--seed", "0", lr=1e300
    )
    assert code == 1
    assert "at step 2" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["metrics.csv", "resolved_config.json"]


def test_rerun_keeps_files_that_are_not_artifacts(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    (out / "samples.csv").write_text("not written by train-regression\n")
    for _ in range(2):
        assert _tiny_run(tmp_path, "train-regression", out) == 0
    assert (out / "notes.txt").read_text() == "mine\n"
    assert (out / "samples.csv").read_text() == "not written by train-regression\n"


@pytest.mark.parametrize(
    "command, task",
    [("train-conditional", "poly-regression"), ("train-regression", "cond-point-cloud")],
)
def test_task_command_mismatch_exits_2_and_writes_nothing(tmp_path, capsys, command, task):
    out = tmp_path / "run"
    out.mkdir()
    assert _tiny_run(tmp_path, command, out, task=task) == 2
    err = capsys.readouterr().err
    assert "field 'task'" in err and task in err
    assert list(out.iterdir()) == []


def test_out_naming_a_file_exits_1_without_traceback(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert main(["degree-report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text() == "a file, not a directory\n"


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify", "--config", str(missing), "--out", str(tmp_path / "v")]) == 2
    assert "missing.json cannot be read" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()

