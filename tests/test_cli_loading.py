"""How the CLI module loads: configs build without click, the click group is
built on first use, and the commands call the `run` that `dcil.cli` holds
when they are invoked."""

import json
import os
import tomllib
from importlib.metadata import EntryPoint

import click
import pytest
from click.testing import CliRunner
from fresh import fresh_python

import dcil.cli
import dcil.orchestrator
from dcil.cli import build_run_config, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = {
    "sites": 2, "sessions": 2, "rounds": 1, "hidden_dims": [8], "classes": 6,
    "per_class": 20, "dim": 4, "base_classes": 2, "base_epochs": 1,
    "local_epochs": 1, "dcd_epochs": 1, "dad_epochs": 2,
    "anchors_per_class": 2, "shared_per_class": 4,
}

# Builds a config from a file, prints whether that loaded click, then reads
# `main` and prints what it got.
CONFIG_THEN_MAIN = """
import sys
from dcil.cli import build_run_config, load_config

build_run_config(load_config({path!r}))
print("click" in sys.modules)

from dcil.cli import main
import click

print(isinstance(main, click.Group), ",".join(sorted(main.commands)))
"""


def test_configs_build_without_click_and_main_loads_it(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "methods": ["dcid", "dcil_fedavg"], "seeds": [0]}))
    assert fresh_python(CONFIG_THEN_MAIN.format(path=str(path))).split() == [
        "False", "True", "compare,run",
    ]


def test_main_is_built_once_and_kept():
    assert isinstance(main, click.Group)
    assert dcil.cli.main is main
    assert "main" in vars(dcil.cli)  # later reads skip the module `__getattr__`
    with pytest.raises(AttributeError, match="has no attribute 'cmd_run'"):
        dcil.cli.cmd_run


# What the installed `dcil` script does first, in a process that has not read `main`.
ENTRY_POINT = """
from importlib.metadata import EntryPoint

group = EntryPoint(name="dcil", value="dcil.cli:main", group="console_scripts").load()
print(type(group).__name__, ",".join(sorted(group.commands)))
"""


def test_console_script_entry_point_loads_the_group():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"dcil": "dcil.cli:main"}
    assert fresh_python(ENTRY_POINT).split() == ["Group", "compare,run"]
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
    assert dcil.cli.main is main  # built when this module imported it
    called = []

    def recording_run(cfg):
        called.append(cfg)
        return dcil.orchestrator.run(cfg)

    monkeypatch.setattr("dcil.cli.run", recording_run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    result = CliRunner().invoke(main, [args[0], str(path), "--out", out, *args[1:]])
    assert result.exit_code == 0, result.output
    assert called == [
        build_run_config({**doc, "method": method, "seed": seed}) for method, seed in expected
    ]
