"""How the CLI module loads: configs build without an argument parser and
with no package beyond the standard library and dcil, `--help`, a usage
error and a config error load neither NumPy, a trainer nor `tempfile`,
`main` imports argparse only when called, a command loads no package but
NumPy beyond the standard library, and the commands call the `run` that
`dcil.orchestrator` holds when they are invoked."""

import json
import os
import re
import tomllib
from importlib.metadata import EntryPoint

import pytest
from cli_call import invoke
from fresh import fresh_python

import dcil.orchestrator
from dcil.cli import build_run_config, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = {
    "sites": 2, "sessions": 2, "rounds": 1, "hidden_dims": [8], "classes": 6,
    "per_class": 20, "dim": 4, "base_classes": 2, "base_epochs": 1,
    "local_epochs": 1, "dcd_epochs": 1, "dad_epochs": 2,
    "anchors_per_class": 2, "shared_per_class": 4,
}

# Prints the packages outside the standard library that the code after it
# loads from files (Cython registers modules of no file), and whether
# argparse is loaded.
LOADED = """
import sys
before = set(sys.modules)

def loaded():
    new = {name.split(".")[0] for name, module in sys.modules.items()
           if name not in before and getattr(module, "__file__", None)}
    print(",".join(sorted(new - set(sys.stdlib_module_names))), "argparse" in sys.modules)
"""

# Builds a config from a file, imports `main`, then answers `run --help`
# through it, printing what each step loaded.
CONFIG_THEN_MAIN = LOADED + """
import contextlib, io
from dcil.cli import build_run_config, load_config

build_run_config(load_config(%r))
loaded()
from dcil.cli import main
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["run", "--help"])
    except SystemExit as exc:
        code = exc.code
loaded()
print(code)
"""


def test_configs_build_without_argparse_and_main_loads_it(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "methods": ["dcid", "dcil_fedavg"], "seeds": [0]}))
    assert fresh_python(CONFIG_THEN_MAIN % str(path)).splitlines() == [
        "dcil False", "dcil False", "dcil True", "0",
    ]


# NumPy and the modules that import it, none of which a config needs, and
# `tempfile`, which only a command's file writes need.
TRAINERS = ("numpy", "dcil.nncore", "dcil.local_learner", "dcil.distillation",
            "dcil.orchestrator", "tempfile")

# Drops `tempfile`, which `site` may have loaded already, builds a config
# from a file, then calls `main` with each argv, printing the exit code, the
# stderr and which of TRAINERS each step loaded.
CONFIG_AND_EXITS = """
import contextlib, io, sys
sys.modules.pop("tempfile", None)
from dcil.cli import build_run_config, load_config, main

def trainers():
    print(",".join(name for name in %r if name in sys.modules) or "none")

build_run_config(load_config(%r))
trainers()
for argv in %r:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            main(argv, prog_name="dcil")
        except SystemExit as exc:
            code = exc.code
    print(code, repr(err.getvalue().splitlines()[-1:]))
    trainers()
"""


def test_configs_help_and_config_errors_load_no_numpy_and_no_trainer(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    cfg = str(path)
    argvs = [
        ["--help"],
        ["run", "--help"],
        ["run", cfg, "--seed", "abc"],  # a usage error
        ["run", cfg, "--set", "alpha=-1"],  # a config error
    ]
    assert fresh_python(CONFIG_AND_EXITS % (TRAINERS, cfg, argvs)).splitlines() == [
        "none",
        "0 []",
        "none",
        "0 []",
        "none",
        "2 [\"dcil run: error: argument --seed: invalid int value: 'abc'\"]",
        "none",
        "2 ['config error: alpha must be > 0']",
        "none",
    ]


def test_compare_loads_no_package_but_numpy(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "methods": ["dcid", "dcil_fedavg"], "seeds": [0]}))
    out = tmp_path / "out"
    code = LOADED + f"""
from dcil.cli import main
main(["compare", {str(path)!r}, "--out", {str(out)!r}])
loaded()
"""
    lines = fresh_python(code).splitlines()
    assert [line.split(", ")[0] for line in lines[:-1]] == ["dcid", "dcil_fedavg"]
    assert lines[-1] == "dcil,numpy True"
    assert sorted(os.listdir(out)) == ["comparison.csv", "summary.csv"]


# What the installed `dcil` script does, in a fresh interpreter.
ENTRY_POINT = """
import sys
from importlib.metadata import EntryPoint

main = EntryPoint(name="dcil", value="dcil.cli:main", group="console_scripts").load()
sys.argv = ["dcil", "--help"]
try:
    main()
except SystemExit as exc:
    print(exc.code)
"""


def test_console_script_entry_point_answers_help():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"dcil": "dcil.cli:main"}
    lines = fresh_python(ENTRY_POINT).splitlines()
    assert lines[0] == "usage: dcil [-h] COMMAND ..."
    assert [m[1] for m in map(re.compile(r"    (\w+) ").match, lines) if m] == ["run", "compare"]
    assert lines[-1] == "0"
    entry = EntryPoint(name="dcil", value="dcil.cli:main", group="console_scripts")
    assert entry.load() is main


@pytest.mark.parametrize(
    "args, doc, expected",
    [
        (["run", "--method", "dcil_fedavg", "--seed", "3"], TINY, [("dcil_fedavg", 3)]),
        (
            ["compare"],
            {**TINY, "methods": ["dcid", "dcil_fedavg"], "seeds": [0, 1]},
            [("dcid", 0), ("dcid", 1), ("dcil_fedavg", 0), ("dcil_fedavg", 1)],
        ),
    ],
    ids=["run", "compare"],
)
def test_commands_call_the_run_patched_in_after_main_was_built(
    tmp_path, monkeypatch, args, doc, expected
):
    called = []
    run = dcil.orchestrator.run  # the patched function calls the original

    def recording_run(cfg):
        called.append(cfg)
        return run(cfg)

    monkeypatch.setattr("dcil.orchestrator.run", recording_run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    result = invoke([args[0], str(path), "--out", out, *args[1:]])
    assert result.exit_code == 0, result.output
    assert called == [
        build_run_config({**doc, "method": method, "seed": seed}) for method, seed in expected
    ]
