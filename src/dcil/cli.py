"""Config-driven command line: single runs and comparison grids.

Config files are flat JSON documents; unknown keys are rejected.  Overrides
are --set key=value pairs with precedence CLI > file > defaults.  All output
files are written atomically (temp file + rename); CSV schemas are stable.

The config half (`load_config`, `build_run_config`, the key tables and
parsers) imports no argument parser; the benchmark and the tests build
their configs through it.  `main` imports argparse when it is called, and
dispatches to `_cmd_run` or `_cmd_compare`, which read `run` from this
module at each call, so a patched `dcil.cli.run` is the one they call.
Exit codes: 0 success (and --help), 1 runtime failure, 2 usage or config
error, found before any training starts.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from itertools import product

import numpy as np

from .local_learner import LocalLossConfig
from .nncore import ConfigError
from .orchestrator import COMM_KEYS, METHODS, RunConfig, RunResult, run, summarize

RUN_CSV_HEADER = ["session", "accuracy", *COMM_KEYS]
COMPARE_CSV_HEADER = ["method", "session", "mean_acc", "std_acc"]
SUMMARY_CSV_HEADER = ["method", "avg_acc_mean", "final_acc_mean"]


def _int(value) -> int:
    """An integer, or an integral float; a bool or a fraction is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite float; a bool, NaN or an infinity is rejected, not trained on."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"not finite: {value!r}")
    return out


def _list(value) -> list:
    """A JSON list; a string is rejected, not split into its characters."""
    if not isinstance(value, list):
        raise ValueError(f"not a list: {value!r}")
    return value


# The flat config keys are the config dataclass fields, but for these seven.
_FLAT_NAMES = {
    "n_sites": "sites",
    "n_sessions": "sessions",
    "n_classes": "classes",
    "input_dim": "dim",
    "n_base": "base_classes",
    "lam": "lambda",
    "lr": "local_lr",
}
# A parser per declared field type; the annotations are strings (PEP 563).
_PARSERS = {
    "int": _int,
    "float": _float,
    "str": str,
    "tuple[int, ...]": lambda v: tuple(_int(x) for x in _list(v)),
}


def _flat_keys(cls) -> dict:
    """Flat key -> (field name, parser) for each field of `cls` but `local`."""
    return {
        _FLAT_NAMES.get(f.name, f.name): (f.name, _PARSERS[f.type])
        for f in dataclasses.fields(cls)
        if f.name != "local"
    }


_RUN_KEYS = _flat_keys(RunConfig)
_LOCAL_KEYS = _flat_keys(LocalLossConfig)
_SWEEP_KEYS = {"methods", "seeds", "alphas", "out"}
# What `run` takes in place of each grid key; a config file may hold the
# grid keys, so that one file serves `run` and `compare`, but `--set` may not.
_RUN_COUNTERPARTS = {"methods": "--method", "seeds": "--seed", "alphas": "--set alpha="}
ALL_KEYS = set(_RUN_KEYS) | set(_LOCAL_KEYS) | _SWEEP_KEYS


def load_config(path: str) -> dict:
    def unique_keys(pairs):  # json.load would keep the last of a repeated key
        for i, (key, _) in enumerate(pairs):
            if key in (k for k, _ in pairs[:i]):
                raise ConfigError(f"{path}: key {key!r} appears more than once")
        return dict(pairs)

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - ALL_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    return doc


def _parse_override(raw: str):
    if "=" not in raw:
        raise ConfigError(f"override {raw!r} is not of the form key=value")
    key, value = raw.split("=", 1)
    if key not in ALL_KEYS:
        raise ConfigError(f"unknown override key {key!r}")
    try:
        value = json.loads(value)
    except json.JSONDecodeError:
        pass  # bare strings stay strings
    return key, value


def _parse_value(key: str, parse, value):
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {value!r}") from None


def _out_dir(cli_out, doc: dict) -> str:
    """--out, else the config's string `out`, else 'results'; a file in the way is rejected."""
    out = doc.get("out", "")
    if not isinstance(out, str):
        raise ConfigError(f"bad value for 'out': {out!r}")
    out = cli_out or out or "results"
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"bad value for 'out': {existing!r} is not a directory")
    return out


def build_run_config(doc: dict) -> RunConfig:
    unknown = set(doc) - ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    run_kwargs, local_kwargs = {}, {}
    for key, value in doc.items():
        if key in _SWEEP_KEYS:
            continue
        if key in _RUN_KEYS:
            name, parse = _RUN_KEYS[key]
            run_kwargs[name] = _parse_value(key, parse, value)
        else:
            name, parse = _LOCAL_KEYS[key]
            local_kwargs[name] = _parse_value(key, parse, value)
    return RunConfig(local=LocalLossConfig(**local_kwargs), **run_kwargs)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file of this call's own, removed if the write fails."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes the file owner-only
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    import csv  # only the commands write CSV
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _result_doc(cfg: RunConfig, result: RunResult) -> dict:
    return {
        "config": dataclasses.asdict(cfg),
        "records": [dataclasses.asdict(r) for r in result.records],
        "summary": summarize(result.records),
    }


def _run_csv_rows(result: RunResult):
    return [
        [r.session, repr(r.accuracy), *(r.comm[k] for k in COMM_KEYS)] for r in result.records
    ]


def _params_transferred(result: RunResult) -> int:
    return sum(r.comm["params_up"] + r.comm["params_down"] for r in result.records)


def _cmd_run(args) -> None:
    """Execute one run and write metrics JSON + CSV."""
    try:
        doc = load_config(args.config_path)
        for raw in args.overrides:
            key, value = _parse_override(raw)
            if key in _RUN_COUNTERPARTS:
                raise ConfigError(f"run takes no {key!r} list; use {_RUN_COUNTERPARTS[key]}")
            doc[key] = value
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.method is not None:
            doc["method"] = args.method
        out = _out_dir(args.out, doc)
        cfg = build_run_config(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        result = run(cfg)
        os.makedirs(out, exist_ok=True)
        stem = f"{cfg.method}_seed{cfg.seed}"
        _atomic_write(
            os.path.join(out, stem + ".json"),
            json.dumps(_result_doc(cfg, result), indent=2) + "\n",
        )
        _atomic_write(
            os.path.join(out, stem + ".csv"),
            _csv_text(RUN_CSV_HEADER, _run_csv_rows(result)),
        )
    except Exception as exc:  # runtime failure -> exit 1
        print(f"run failed: {exc}", file=sys.stderr)
        sys.exit(1)
    s = summarize(result.records)
    print(
        f"{cfg.method}, {s['average_accuracy']:.4f}, {s['final_accuracy']:.4f}, "
        f"{_params_transferred(result)}"
    )


def _cmd_compare(args) -> None:
    """Run a methods x seeds (x alphas) grid; write per-session and summary CSVs."""
    try:
        doc = load_config(args.config_path)
        methods = doc.get("methods")
        seeds = doc.get("seeds")
        if not isinstance(methods, list) or len(methods) < 2:
            raise ConfigError("compare requires a 'methods' list with >= 2 entries")
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("compare requires a non-empty 'seeds' list")
        seeds = [_parse_value("seeds", _int, seed) for seed in seeds]
        alphas = doc.get("alphas")
        if alphas is None:
            alphas = [None]
        else:
            alphas = _parse_value("alphas", _list, alphas)
            alphas = [_parse_value("alphas", _float, a) for a in alphas]
            if not alphas:
                raise ConfigError("compare requires a non-empty 'alphas' list when one is given")
        # a label prints alpha with :g, so alphas alike under it would share one
        tags = [a if a is None else f"{a:g}" for a in alphas]
        for key, values in (("methods", methods), ("seeds", seeds), ("alphas", tags)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"compare {key!r} lists {value!r} more than once")
        out = _out_dir(args.out, doc)
        # Validate every grid entry up front.
        entries = []
        for method, alpha in product(methods, alphas):
            for seed in seeds:
                # build_run_config skips the sweep keys
                entry = {**doc, "method": method, "seed": seed}
                if alpha is not None:
                    entry["alpha"] = alpha
                    entry["partition"] = "dirichlet"
                entries.append((method, alpha, build_run_config(entry)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        grouped: dict[str, list[RunResult]] = {}
        for method, alpha, cfg in entries:  # in grid order, one run at a time
            label = method if alpha is None else f"{method}@alpha={alpha:g}"
            grouped.setdefault(label, []).append(run(cfg))

        data_rows, summary_rows = [], []
        for label, group in grouped.items():
            acc = np.array([[r.accuracy for r in res.records] for res in group])
            for session in range(acc.shape[1]):
                data_rows.append([
                    label, session,
                    repr(float(acc[:, session].mean())),
                    repr(float(acc[:, session].std())),
                ])
            sums = [summarize(res.records) for res in group]
            summary_rows.append([
                label,
                repr(float(np.mean([s["average_accuracy"] for s in sums]))),
                repr(float(np.mean([s["final_accuracy"] for s in sums]))),
            ])
        os.makedirs(out, exist_ok=True)
        _atomic_write(os.path.join(out, "comparison.csv"),
                      _csv_text(COMPARE_CSV_HEADER, data_rows))
        _atomic_write(os.path.join(out, "summary.csv"),
                      _csv_text(SUMMARY_CSV_HEADER, summary_rows))
    except Exception as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        sys.exit(1)
    for row in summary_rows:
        print(", ".join(str(v) for v in row))


def main(argv=None, prog_name=None) -> None:
    """Decentralized class-incremental learning experiments."""
    import argparse

    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    sub = commands.add_parser("run", help=_cmd_run.__doc__, description=_cmd_run.__doc__,
                              allow_abbrev=False)
    sub.set_defaults(command=_cmd_run)
    sub.add_argument("config_path")
    sub.add_argument("--seed", type=int, help="Override the run seed.")
    sub.add_argument("--method", choices=METHODS, help="Override the method.")
    sub.add_argument("--out", help="Output directory (default from config, else 'results').")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="Override any config key (repeatable).")
    sub = commands.add_parser("compare", help=_cmd_compare.__doc__,
                              description=_cmd_compare.__doc__, allow_abbrev=False)
    sub.set_defaults(command=_cmd_compare)
    sub.add_argument("config_path")
    sub.add_argument("--out")
    args = parser.parse_args(argv)
    args.command(args)


if __name__ == "__main__":
    main(prog_name="python -m dcil.cli")
