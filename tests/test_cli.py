"""Command-line behavior: exit codes, output files, overrides, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from cli_call import invoke

import dcil.nncore
from dcil.cli import (
    _LOCAL_KEYS,
    _RUN_KEYS,
    ALL_KEYS,
    COMPARE_CSV_HEADER,
    RUN_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    build_run_config,
    load_config,
)
from dcil.config import COMM_KEYS, ConfigError, LocalLossConfig, RunConfig

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


def write_twice(tmp_path, doc, key, value):
    """`doc` as a JSON file whose last entry repeats `key` with `value`."""
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}")
    return str(path)


def test_load_config_rejects_a_repeated_key(tmp_path):
    # json.load alone keeps the last of two equal keys, so alpha 10 would run
    path = write_twice(tmp_path, {"alpha": 0.1, "sites": 3}, "alpha", 10)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: key 'alpha' appears more than once"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_repeated_config_key_exits_2_before_training(tmp_path, monkeypatch, command):
    monkeypatch.setattr("dcil.orchestrator.run", lambda cfg: pytest.fail("training started"))
    doc = {**FAST, "alpha": 0.1, "methods": ["dcid", "dcil_fedavg"], "seeds": [0]}
    path = write_twice(tmp_path, doc, "alpha", 10)
    out = tmp_path / "out"
    result = invoke([command, path, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == f"config error: {path}: key 'alpha' appears more than once\n"
    assert not out.exists()


def test_load_config_reports_json_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "sites": 3,\n}\n')
    with pytest.raises(ConfigError, match=r"broken\.json:3:1"):
        load_config(str(path))


# The seven flat keys that are not the names of their config fields.
RENAMED = {
    "sites": "n_sites",
    "sessions": "n_sessions",
    "classes": "n_classes",
    "dim": "input_dim",
    "base_classes": "n_base",
    "lambda": "lam",
    "local_lr": "lr",
}
SWEEP_KEYS = {"methods", "seeds", "alphas", "out"}
LOCAL_FIELDS = {f.name for f in fields(LocalLossConfig)}
# A valid value for every flat key of one run, none of them the default.
FLAT_VALUES = {
    "method": "centralized",
    "seed": 7,
    "sites": 4,
    "sessions": 2,
    "rounds": 2,
    "hidden_dims": [16, 8],
    "activation": "tanh",
    "classes": 30,
    "per_class": 50,
    "dim": 8,
    "spread": 0.5,
    "base_classes": 15,
    "base_epochs": 4,
    "base_lr": 0.2,
    "tau1": 3.0,
    "tau2": 4.0,
    "shared_per_class": 5,
    "dcd_lr": 0.01,
    "dcd_epochs": 2,
    "dad_lr": 0.5,
    "dad_epochs": 10,
    "anchors_per_class": 5,
    "partition": "iid",
    "alpha": 0.5,
    "anchor_variant": "replay_ce",
    "lambda": 2.5,
    "mu": 0.1,
    "beta": 10.0,
    "local_lr": 0.01,
    "local_epochs": 3,
    "batch_size": 16,
    "anchor_temperature": 3.0,
}


def test_flat_keys_are_the_config_fields_with_seven_renamed():
    field_names = {f.name for f in fields(RunConfig) if f.name != "local"} | LOCAL_FIELDS
    flat = {RENAMED.get(key, key) for key in ALL_KEYS - SWEEP_KEYS}
    assert flat == field_names
    assert len(ALL_KEYS - SWEEP_KEYS) == len(field_names)
    assert set(FLAT_VALUES) == ALL_KEYS - SWEEP_KEYS


@pytest.mark.parametrize("key", sorted(FLAT_VALUES))
def test_flat_key_lands_in_its_field(key):
    name = RENAMED.get(key, key)
    value = FLAT_VALUES[key]
    expected = tuple(value) if isinstance(value, list) else value
    cfg, default = build_run_config({key: value}), RunConfig()
    if name in LOCAL_FIELDS:
        cfg, default = cfg.local, default.local
    assert getattr(default, name) != expected
    assert getattr(cfg, name) == expected
    assert type(getattr(cfg, name)) is type(expected)


def test_build_run_config_maps_flat_keys():
    cfg = build_run_config({**FAST, "lambda": 2.5, "alpha": 0.7, "method": "dcil_fedprox"})
    assert cfg.n_sites == 3
    assert cfg.local.lam == 2.5
    assert cfg.local.local_epochs == 2
    assert cfg.alpha == 0.7
    assert cfg.method == "dcil_fedprox"


def test_build_run_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['bogus'\]"):
        build_run_config({**FAST, "bogus": 1})


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

# `dcil` arguments, with {cfg}, {missing}, {dir}, {file} and {out} filled
# in per test, the exit code, and how stdout starts and the whole stderr
# where dcil writes them (None: the argument parser's text, not checked).
EXIT_CODES = [
    ([], 2, "", None),
    (["bogus"], 2, "", None),
    (["run"], 2, "", None),
    (["compare"], 2, "", None),
    (["run", "{missing}"], 2, "", None),
    (["compare", "{missing}"], 2, "", None),
    (["run", "{dir}"], 2, "", None),
    (["run", "{cfg}", "--method", "bogus"], 2, "", None),
    (["run", "{cfg}", "--seed", "abc"], 2, "", None),
    (["run", "{cfg}", "--out", "{file}"], 2, "", None),
    (["compare", "{cfg}", "--out", "{file}"], 2, "", None),
    (["run", "{cfg}", "--set", "warp=9"], 2, "", "config error: unknown override key 'warp'\n"),
    (["run", "{cfg}", "--out", "{out}", "--set", "base_lr=1e300"], 1, "",
     "run failed: SGD diverged in epoch 1, batch 2: overflow encountered in dot\n"),
    # repeated --set values apply in order
    (["run", "{cfg}", "--out", "{out}", "--set", "method=dcid", "--set", "method=dcil_fedavg"],
     0, "dcil_fedavg, ", ""),
    (["--help"], 0, None, ""),
    (["run", "--help"], 0, None, ""),
    (["compare", "--help"], 0, None, ""),
    # `python -m dcil.cli`, in a new interpreter
    (["-m", "dcil.cli", "--help"], 0, None, ""),
]


@pytest.mark.parametrize(
    "argv, code, stdout, stderr", EXIT_CODES,
    ids=[" ".join(argv) or "no-args" for argv, *_ in EXIT_CODES],
)
def test_exit_code(tmp_path, argv, code, stdout, stderr):
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {
        "cfg": write_config(tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [0]}),
        "missing": str(tmp_path / "missing.json"),
        "dir": str(tmp_path),
        "file": str(taken),
        "out": str(tmp_path / "out"),
    }
    argv = [a.format(**paths) for a in argv]
    if argv[:1] == ["-m"]:
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dcil.nncore.__file__))}
        res = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                             timeout=120)
        result = (res.returncode, res.stdout, res.stderr)
    else:
        result = invoke(argv)
    assert result[0] == code, result
    if stdout is None:
        assert result[1]
    elif stdout:
        assert result[1].startswith(stdout)
    else:
        assert result[1] == ""
    if stderr is not None:
        assert result[2] == stderr
    if code:
        assert not os.path.exists(paths["out"])  # every failure comes before any output


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------


def test_run_writes_json_and_csv(tmp_path):
    cfg = write_config(tmp_path, FAST)
    out = str(tmp_path / "results")
    result = invoke(["run", cfg, "--out", out, "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc = json.loads(open(os.path.join(out, "dcid_seed3.json")).read())
    assert doc["config"]["seed"] == 3
    assert doc["config"]["hidden_dims"] == [8]
    assert len(doc["records"]) == 3
    assert "average_accuracy" in doc["summary"]
    lines = open(os.path.join(out, "dcid_seed3.csv")).read().splitlines()
    assert lines[0] == ",".join(RUN_CSV_HEADER)
    assert len(lines) == 4
    # stdout: method, average, final, params transferred
    fields = result.output.strip().split(", ")
    assert fields[0] == "dcid" and len(fields) == 4


def test_run_json_lists_each_records_comm_keys_in_ledger_order(tmp_path):
    # json.loads keeps the file's key order, so this reads the written order;
    # 12 classes put "10" and "11" among the per-class keys
    cfg = write_config(tmp_path, {**FAST, "classes": 12})
    out = str(tmp_path / "results")
    assert invoke(["run", cfg, "--out", out]).exit_code == 0
    doc = json.loads(open(os.path.join(out, "dcid_seed0.json")).read())
    assert len(doc["records"]) == 3
    assert COMM_KEYS == ("params_up", "params_down", "shared_samples", "logit_scalars")
    assert tuple(RUN_CSV_HEADER[2:]) == COMM_KEYS
    for record in doc["records"]:
        assert list(record["comm"]) == list(COMM_KEYS)
        assert list(record["per_class"]) == [str(c) for c in record["seen_classes"]]
    assert doc["records"][-1]["seen_classes"] == list(range(12))  # so "9" before "10"


def test_run_failed_write_exits_1_and_leaves_no_temp_file(tmp_path, monkeypatch):
    def failing(src, dst):
        raise OSError("disk full")

    cfg = write_config(tmp_path, FAST)
    out = tmp_path / "results"
    monkeypatch.setattr(os, "replace", failing)
    result = invoke(["run", cfg, "--out", str(out)])
    assert result.exit_code == 1
    assert list(out.iterdir()) == []


def test_run_outputs_get_the_modes_of_plain_files(tmp_path):
    umask = os.umask(0o027)
    try:
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "results"
        assert invoke(["run", cfg, "--out", str(out)]).exit_code == 0
    finally:
        os.umask(umask)
    assert sorted(p.name for p in out.iterdir()) == ["dcid_seed0.csv", "dcid_seed0.json"]
    assert {p.stat().st_mode & 0o777 for p in out.iterdir()} == {0o640}


def test_run_missing_config_exits_2():
    result = invoke(["run", "/nonexistent.json"])
    assert result.exit_code == 2


def test_run_invalid_config_value_exits_2(tmp_path):
    cfg = write_config(tmp_path, {**FAST, "method": "warp"})
    result = invoke(["run", cfg])
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
        ("seed=1e300", "seed"),  # integral, but too long for the output file name
        ("rounds=2.9", "'rounds'"),
        ("hidden_dims=[32.5]", "'hidden_dims'"),
        ("local_epochs=true", "'local_epochs'"),
        ("alpha=NaN", "'alpha'"),  # every range check is False for NaN
        ("alpha=nan", "'alpha'"),
        ("local_lr=NaN", "'local_lr'"),
        ("dad_lr=Infinity", "'dad_lr'"),
        ("lambda=-Infinity", "'lambda'"),
        ("tau1=NaN", "'tau1'"),
        ("alpha=true", "'alpha'"),  # float keys reject a bool, as integer keys do
        ("anchor_temperature=0", "anchor_temperature"),
        ("anchor_temperature=-1", "anchor_temperature"),
        ('hidden_dims="64"', "'hidden_dims'"),  # a string is not split into [6, 4]
        ("out=5", "'out'"),  # not only after training, when the output is written
        # one split rule, one whole line: 8 classes, 4 base, 2 sessions in FAST
        ("sessions=0", "config error: cannot split 8 classes into 4 base + 0 equal sessions\n"),
        ("base_classes=0",
         "config error: cannot split 8 classes into 0 base + 2 equal sessions\n"),
        ("sessions=3", "config error: cannot split 8 classes into 4 base + 3 equal sessions\n"),
    ],
)
def test_run_bad_config_value_exits_2_before_training(
    tmp_path, monkeypatch, override, message
):
    monkeypatch.setattr("dcil.orchestrator.run", lambda cfg: pytest.fail("training started"))
    cfg = write_config(tmp_path, FAST)
    result = invoke(["run", cfg, "--out", str(tmp_path / "r"), "--set", override])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    if message.endswith("\n"):  # a whole stderr line, pinned exactly
        assert result.stdout == "" and result.stderr == message
    else:
        assert message in result.output


def test_run_config_not_utf8_exits_2_before_training(tmp_path, monkeypatch):
    monkeypatch.setattr("dcil.orchestrator.run", lambda cfg: pytest.fail("training started"))
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00{")
    result = invoke(["run", str(path)])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output


def test_run_config_out_naming_a_file_exits_2_before_training(tmp_path, monkeypatch):
    monkeypatch.setattr("dcil.orchestrator.run", lambda cfg: pytest.fail("training started"))
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (str(taken), str(taken / "sub")):
        cfg = write_config(tmp_path, {**FAST, "out": out})
        result = invoke(["run", cfg])
        assert result.exit_code == 2, result.output
        assert "bad value for 'out'" in result.output


def test_run_json_local_config_holds_only_settable_keys(tmp_path):
    cfg = write_config(tmp_path, FAST)
    out = str(tmp_path / "r")
    result = invoke(["run", cfg, "--out", out, "--method", "dcil_fedprox"])
    assert result.exit_code == 0, result.output
    doc = json.loads(open(os.path.join(out, "dcil_fedprox_seed0.json")).read())
    assert set(doc["config"]) == {name for name, _ in _RUN_KEYS.values()} | {"local"}
    assert set(doc["config"]["local"]) == {name for name, _ in _LOCAL_KEYS.values()}


@pytest.mark.parametrize(
    "overrides",
    [
        {"sites": 1},  # the default dirichlet partition needs two sites
        {"partition": "iid", "per_class": 60, "sites": 60},  # 48 training examples per class
    ],
)
def test_run_unpartitionable_sites_exit_2(tmp_path, overrides):
    cfg = write_config(tmp_path, {**FAST, **overrides})
    result = invoke(["run", cfg, "--out", str(tmp_path / "r")])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_run_alpha_whose_dirichlet_draws_overflow_exits_2_before_training(tmp_path, monkeypatch):
    # every share came out 0, and a session dealt one row per site and class
    monkeypatch.setattr("dcil.orchestrator.run", lambda cfg: pytest.fail("training started"))
    cfg = write_config(tmp_path, FAST)
    out = tmp_path / "r"
    result = invoke(["run", cfg, "--out", str(out), "--set", "alpha=1.7e308"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error: alpha=1.7e+308")
    assert not out.exists()


@pytest.mark.parametrize(
    "override, counterpart",
    [("seeds=[3]", "use --seed"), ("alphas=[5.0]", "use --set alpha="),
     ('methods=["dcid","dcil_fedavg"]', "use --method")],
)
def test_run_set_of_a_grid_key_exits_2_before_training(
    tmp_path, monkeypatch, override, counterpart
):
    # `run` read none of them, so `--set seeds=[3]` ran seed 0 and exited 0
    monkeypatch.setattr("dcil.orchestrator.run", lambda cfg: pytest.fail("training started"))
    cfg = write_config(tmp_path, FAST)
    out = tmp_path / "r"
    result = invoke(["run", cfg, "--out", str(out), "--set", override])
    key = override.split("=")[0]
    assert (result.exit_code, result.output) == (
        2, f"config error: run takes no {key!r} list; {counterpart}\n"
    )
    assert not out.exists()


def test_run_keeps_grid_keys_of_the_config_file_and_set_out(tmp_path):
    # one file serves `run` and `compare`
    cfg = write_config(
        tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [3], "alphas": [5.0]}
    )
    out = tmp_path / "r"
    result = invoke(["run", cfg, "--set", f"out={out}"])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in out.iterdir()) == ["dcid_seed0.csv", "dcid_seed0.json"]


def test_run_unknown_override_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, FAST)
    result = invoke(["run", cfg, "--set", "warp=9"])
    assert result.exit_code == 2


def test_run_override_precedence_cli_over_file(tmp_path):
    cfg = write_config(tmp_path, {**FAST, "seed": 5, "method": "dcil_fedavg"})
    out = str(tmp_path / "r")
    result = invoke(["run", cfg, "--out", out, "--set", "seed=8", "--method", "dcid"])
    assert result.exit_code == 0, result.output
    assert os.path.exists(os.path.join(out, "dcid_seed8.json"))


def test_run_rerun_is_bit_identical(tmp_path):
    cfg = write_config(tmp_path, FAST)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert invoke(["run", cfg, "--out", out_a]).exit_code == 0
    assert invoke(["run", cfg, "--out", out_b]).exit_code == 0
    for name in ("dcid_seed0.json", "dcid_seed0.csv"):
        assert open(os.path.join(out_a, name)).read() == open(os.path.join(out_b, name)).read()


# A 6-class dcid run that diverges in each training stage, and what
# `python -m dcil.cli run` prints for it with each case's `--set` overrides:
# one line naming the step whose trap (`nncore.fit` runs every step under
# numpy's floating-point traps) stopped the stage, and no numpy
# `RuntimeWarning`; local_lr=1e5 stays finite and runs to the end.  The whole
# run is under the same traps, so a forward pass outside `fit` that overflows
# (evaluating the model that one huge DAD step or one huge base step left)
# stops the run with numpy's message.  It used to warn, then fail on the
# overflowed logits or, in the `dcil_fedavg` case, score them and exit 0.
DIVERGING = {
    "method": "dcid", "classes": 6, "base_classes": 2, "sessions": 2,
    "sites": 3, "rounds": 1, "dim": 8, "per_class": 30,
    "partition": "dirichlet", "alpha": 1.0, "hidden_dims": [16],
    "local_epochs": 3, "anchors_per_class": 5, "shared_per_class": 5,
    "dcd_epochs": 2, "dad_epochs": 20, "base_epochs": 5, "seed": 0,
}
DOT_OVERFLOW = "run failed: SGD diverged in epoch {}, batch {}: overflow encountered in dot\n"
DIVERGENCE_OUTPUT = {
    ("base_lr=1e300",): (1, "", DOT_OVERFLOW.format(1, 2)),
    ("local_lr=1e300",): (1, "", DOT_OVERFLOW.format(2, 1)),
    ("dcd_lr=1e300",): (1, "", DOT_OVERFLOW.format(2, 1)),
    ("dad_lr=1e300",): (1, "", DOT_OVERFLOW.format(2, 1)),
    ("local_lr=1e5",): (0, "dcid, 0.3750, 0.1667, 2748\n", ""),
    ("dad_epochs=1", "dad_lr=1e300"): (1, "", "run failed: overflow encountered in dot\n"),
    ("method=dcil_fedavg", "base_epochs=1", "batch_size=64", "base_lr=1e300",
     "anchor_variant=replay_ce", "local_lr=0"): (
        1, "", "run failed: overflow encountered in dot\n"),
}


@pytest.mark.parametrize("overrides", sorted(DIVERGENCE_OUTPUT), ids=" ".join)
def test_run_divergence_prints_what_per_step_checks_printed(tmp_path, overrides):
    # A fresh interpreter, because pytest turns warnings into errors and
    # Python prints each warning once per process: a warning must show here.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(dcil.nncore.__file__)))
    res = subprocess.run(
        [sys.executable, "-m", "dcil.cli", "run", write_config(tmp_path, DIVERGING),
         "--out", str(tmp_path / "out"), *(arg for o in overrides for arg in ("--set", o))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (res.returncode, res.stdout, res.stderr) == DIVERGENCE_OUTPUT[overrides]


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------


def test_compare_grid_outputs(tmp_path):
    cfg = write_config(
        tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [0, 1]}
    )
    out = str(tmp_path / "cmp")
    result = invoke(["compare", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    comp = open(os.path.join(out, "comparison.csv")).read().splitlines()
    assert comp[0] == ",".join(COMPARE_CSV_HEADER)
    assert len(comp) == 1 + 2 * 3  # 2 methods x 3 sessions
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert summary[0] == ",".join(SUMMARY_CSV_HEADER)
    assert {row.split(",")[0] for row in summary[1:]} == {"dcid", "dcil_fedavg"}


def test_compare_alpha_sweep_labels(tmp_path):
    cfg = write_config(
        tmp_path,
        {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [0], "alphas": [0.5, 10]},
    )
    out = str(tmp_path / "cmp")
    result = invoke(["compare", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    labels = {row.split(",")[0] for row in summary[1:]}
    assert labels == {
        "dcid@alpha=0.5", "dcid@alpha=10", "dcil_fedavg@alpha=0.5", "dcil_fedavg@alpha=10",
    }


def test_compare_requires_two_methods_and_seeds(tmp_path):
    cfg = write_config(tmp_path, {**FAST, "methods": ["dcid"], "seeds": [0]})
    assert invoke(["compare", cfg]).exit_code == 2
    cfg = write_config(tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"]}, "c2.json")
    assert invoke(["compare", cfg]).exit_code == 2


@pytest.mark.parametrize(
    "grid",
    [
        {"seeds": ["x"]},
        {"seeds": 3},
        {"seeds": [0], "alphas": ["x"]},
        {"seeds": [0], "per_class": 1},
        {"seeds": [0.5]},
        {"methods": ["dcil_fedavg", "dcil_fedavg"], "seeds": [0, 0]},
        {"seeds": [0, 1, 0.0]},
        {"seeds": [0], "alphas": [1, 1.0]},
        {"seeds": [0], "alphas": [0.1, 0.1000001]},  # one label, alpha=0.1, under :g
        {"seeds": [0], "alphas": []},  # would silently run no sweep
        {"seeds": [0], "alphas": "12"},  # not split into alphas 1 and 2
        {"seeds": [0], "alphas": [None, 0.5]},  # would run a bare, unswept label
        {"seeds": [0], "out": 5},
    ],
)
def test_compare_invalid_grid_value_exits_2(tmp_path, monkeypatch, grid):
    monkeypatch.setattr("dcil.orchestrator.run", lambda cfg: pytest.fail("training started"))
    cfg = write_config(tmp_path, {**FAST, "methods": ["dcid", "dcil_fedavg"], **grid})
    result = invoke(["compare", cfg, "--out", str(tmp_path / "cmp")])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output


def test_compare_mean_and_std_arithmetic(tmp_path):
    cfg_doc = {**FAST, "methods": ["dcid", "dcil_fedavg"], "seeds": [0, 1]}
    cfg = write_config(tmp_path, cfg_doc)
    out = str(tmp_path / "cmp")
    assert invoke(["compare", cfg, "--out", out]).exit_code == 0
    # independently rerun the two dcid seeds and check the reported mean
    from dcil.orchestrator import run
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
