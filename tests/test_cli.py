"""Command-line behavior: exit codes, output files, overrides, determinism."""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from dcil.cli import (
    COMPARE_CSV_HEADER,
    RUN_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    build_run_config,
    load_config,
    main,
)
from dcil.nncore import ConfigError

# Small, fast run used throughout.
FAST = {
    "sites": 3,
    "sessions": 2,
    "rounds": 1,
    "hidden_dims": [8],
    "classes": 8,
    "per_class": 30,
    "dim": 4,
    "base_classes": 4,
    "base_epochs": 3,
    "local_epochs": 2,
    "dad_epochs": 5,
    "dad_lr": 0.5,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"sites": 3, "bogus": 1, "zed": 2})
    with pytest.raises(ConfigError, match=r"\['bogus', 'zed'\]"):
        load_config(path)


def test_load_config_reports_json_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "sites": 3,\n}\n')
    with pytest.raises(ConfigError, match=r"broken\.json:3:1"):
        load_config(str(path))


def test_build_run_config_maps_flat_keys():
    cfg = build_run_config({**FAST, "lambda": 2.5, "alpha": 0.7, "method": "dcil_fedprox"})
    assert cfg.n_sites == 3
    assert cfg.local.lam == 2.5
    assert cfg.local.local_epochs == 2
    assert cfg.alpha == 0.7
    assert cfg.method == "dcil_fedprox"


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------


def test_run_writes_json_and_csv(runner, tmp_path):
    cfg = write_config(tmp_path, FAST)
    out = str(tmp_path / "results")
    result = runner.invoke(main, ["run", cfg, "--out", out, "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc = json.loads(open(os.path.join(out, "dcid_seed3.json")).read())
    assert doc["config"]["seed"] == 3
    assert len(doc["records"]) == 3
    assert "average_accuracy" in doc["summary"]
    lines = open(os.path.join(out, "dcid_seed3.csv")).read().splitlines()
    assert lines[0] == ",".join(RUN_CSV_HEADER)
    assert len(lines) == 4
    # stdout: method, average, final, params transferred
    fields = result.output.strip().split(", ")
    assert fields[0] == "dcid" and len(fields) == 4


def test_run_missing_config_exits_2(runner):
    result = runner.invoke(main, ["run", "/nonexistent.json"])
    assert result.exit_code == 2


def test_run_invalid_config_value_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path, {**FAST, "method": "warp"})
    result = runner.invoke(main, ["run", cfg])
    assert result.exit_code == 2
    assert "config error" in result.output


@pytest.mark.parametrize(
    "override, message",
    [
        ("rounds=abc", "'rounds'"),  # parser errors name the key
        ("hidden_dims=5", "'hidden_dims'"),
        ("local_lr=abc", "'local_lr'"),
        ("seed=-1", "seed"),  # numpy's seeding would reject it mid-run
        ("base_lr=-0.1", "base_lr"),  # would skip base training silently
        ("base_epochs=-1", "base_epochs"),
        ("per_class=1", "per_class=1"),  # a class with no training or no test example
        ("per_class=2", "per_class=2"),
        ("dim=1", "dim=1"),
        ("spread=-1", "spread"),
        ("hidden_dims=[0]", "hidden dims"),
        ("activation=foo", "activation"),
        ("seed=1.7", "'seed'"),  # integer keys reject fractions, not truncate them
        ("rounds=2.9", "'rounds'"),
        ("hidden_dims=[32.5]", "'hidden_dims'"),
        ("local_epochs=true", "'local_epochs'"),
    ],
)
def test_run_bad_config_value_exits_2_before_training(
    runner, tmp_path, monkeypatch, override, message
):
    monkeypatch.setattr("dcil.cli.run", lambda cfg: pytest.fail("training started"))
    cfg = write_config(tmp_path, FAST)
    result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "r"), "--set", override])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert message in result.output


@pytest.mark.parametrize(
    "overrides",
    [
        {"sites": 1},  # the default dirichlet partition needs two sites
        {"partition": "iid", "per_class": 60, "sites": 60},  # 48 training examples per class
    ],
)
def test_run_unpartitionable_sites_exit_2(runner, tmp_path, overrides):
    cfg = write_config(tmp_path, {**FAST, **overrides})
    result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "r")])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_run_unknown_override_key_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path, FAST)
    result = runner.invoke(main, ["run", cfg, "--set", "warp=9"])
    assert result.exit_code == 2


def test_run_override_precedence_cli_over_file(runner, tmp_path):
    cfg = write_config(tmp_path, {**FAST, "seed": 5, "method": "dcil_fedavg"})
    out = str(tmp_path / "r")
    result = runner.invoke(
        main, ["run", cfg, "--out", out, "--set", "seed=8", "--method", "dcid"]
    )
    assert result.exit_code == 0, result.output
    assert os.path.exists(os.path.join(out, "dcid_seed8.json"))


def test_run_rerun_is_bit_identical(runner, tmp_path):
    cfg = write_config(tmp_path, FAST)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert runner.invoke(main, ["run", cfg, "--out", out_a]).exit_code == 0
    assert runner.invoke(main, ["run", cfg, "--out", out_b]).exit_code == 0
    for name in ("dcid_seed0.json", "dcid_seed0.csv"):
        assert open(os.path.join(out_a, name)).read() == open(os.path.join(out_b, name)).read()


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------


def test_compare_grid_outputs(runner, tmp_path):
    cfg = write_config(
        tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [0, 1]}
    )
    out = str(tmp_path / "cmp")
    result = runner.invoke(main, ["compare", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    comp = open(os.path.join(out, "comparison.csv")).read().splitlines()
    assert comp[0] == ",".join(COMPARE_CSV_HEADER)
    assert len(comp) == 1 + 2 * 3  # 2 methods x 3 sessions
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert summary[0] == ",".join(SUMMARY_CSV_HEADER)
    assert {row.split(",")[0] for row in summary[1:]} == {"dcid", "dcil_fedavg"}


def test_compare_alpha_sweep_labels(runner, tmp_path):
    cfg = write_config(
        tmp_path,
        {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [0], "alphas": [0.5, 10]},
    )
    out = str(tmp_path / "cmp")
    result = runner.invoke(main, ["compare", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    labels = {row.split(",")[0] for row in summary[1:]}
    assert labels == {
        "dcid@alpha=0.5", "dcid@alpha=10", "dcil_fedavg@alpha=0.5", "dcil_fedavg@alpha=10",
    }


def test_compare_requires_two_methods_and_seeds(runner, tmp_path):
    cfg = write_config(tmp_path, {**FAST, "methods": ["dcid"], "seeds": [0]})
    assert runner.invoke(main, ["compare", cfg]).exit_code == 2
    cfg = write_config(tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"]}, "c2.json")
    assert runner.invoke(main, ["compare", cfg]).exit_code == 2


@pytest.mark.parametrize(
    "grid",
    [
        {"seeds": ["x"]},
        {"seeds": 3},
        {"seeds": [0], "alphas": ["x"]},
        {"seeds": [0], "per_class": 1},
        {"seeds": [0.5]},
    ],
)
def test_compare_invalid_grid_value_exits_2(runner, tmp_path, monkeypatch, grid):
    monkeypatch.setattr("dcil.cli.run", lambda cfg: pytest.fail("training started"))
    cfg = write_config(tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"], **grid})
    result = runner.invoke(main, ["compare", cfg, "--out", str(tmp_path / "cmp")])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output


def test_compare_mean_and_std_arithmetic(runner, tmp_path):
    cfg_doc = {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [0, 1]}
    cfg = write_config(tmp_path, cfg_doc)
    out = str(tmp_path / "cmp")
    assert runner.invoke(main, ["compare", cfg, "--out", out]).exit_code == 0
    # independently rerun the two dcid seeds and check the reported mean
    from dcil import run
    accs = []
    for seed in (0, 1):
        cfg_obj = build_run_config({**cfg_doc, "method": "dcid", "seed": seed})
        accs.append([r.accuracy for r in run(cfg_obj).records])
    accs = np.array(accs)
    rows = [
        r.split(",") for r in open(os.path.join(out, "comparison.csv")).read().splitlines()[1:]
    ]
    for session in range(3):
        row = next(r for r in rows if r[0] == "dcid" and int(r[1]) == session)
        assert float(row[2]) == float(accs[:, session].mean())
        assert float(row[3]) == float(accs[:, session].std())
