"""Config-driven command line: single runs, comparison grids, seed sweeps.

Config files are flat JSON documents; unknown keys are rejected.  Overrides
are --set key=value pairs with precedence CLI > file > defaults.  All output
files are written atomically (temp file + rename); CSV schemas are stable.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
from itertools import product

import click
import numpy as np

from .local_learner import LocalLossConfig
from .nncore import ConfigError, ParameterError
from .orchestrator import METHODS, RunConfig, RunResult, run, summarize

RUN_CSV_HEADER = [
    "session", "accuracy", "params_up", "params_down", "shared_samples", "logit_scalars",
]
COMPARE_CSV_HEADER = ["method", "session", "mean_acc", "std_acc"]
SUMMARY_CSV_HEADER = ["method", "avg_acc_mean", "final_acc_mean"]


def _int(value) -> int:
    """An integer, or an integral float; a bool or a fraction is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


# Flat config keys -> (target dataclass field, parser).
_RUN_KEYS = {
    "method": ("method", str),
    "seed": ("seed", _int),
    "sites": ("n_sites", _int),
    "sessions": ("n_sessions", _int),
    "rounds": ("rounds", _int),
    "hidden_dims": ("hidden_dims", lambda v: tuple(_int(x) for x in v)),
    "activation": ("activation", str),
    "classes": ("n_classes", _int),
    "per_class": ("per_class", _int),
    "dim": ("input_dim", _int),
    "spread": ("spread", float),
    "base_classes": ("n_base", _int),
    "base_epochs": ("base_epochs", _int),
    "base_lr": ("base_lr", float),
    "tau1": ("tau1", float),
    "tau2": ("tau2", float),
    "shared_per_class": ("shared_per_class", _int),
    "dcd_lr": ("dcd_lr", float),
    "dcd_epochs": ("dcd_epochs", _int),
    "dad_lr": ("dad_lr", float),
    "dad_epochs": ("dad_epochs", _int),
    "anchors_per_class": ("anchors_per_class", _int),
    "partition": ("partition", str),
    "alpha": ("alpha", float),
}
_LOCAL_KEYS = {
    "anchor_variant": ("anchor_variant", str),
    "lambda": ("lam", float),
    "mu": ("mu", float),
    "beta": ("beta", float),
    "local_lr": ("lr", float),
    "local_epochs": ("local_epochs", _int),
    "batch_size": ("batch_size", _int),
    "anchor_temperature": ("anchor_temperature", float),
}
_SWEEP_KEYS = {"methods", "seeds", "alphas", "out"}
ALL_KEYS = set(_RUN_KEYS) | set(_LOCAL_KEYS) | _SWEEP_KEYS


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
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


def build_run_config(doc: dict) -> RunConfig:
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
    local = LocalLossConfig(**local_kwargs)
    cfg = RunConfig(local=local, **run_kwargs)
    cfg.validate()
    return cfg


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _result_doc(result: RunResult) -> dict:
    cfg = dataclasses.asdict(result.config)
    cfg["hidden_dims"] = list(cfg["hidden_dims"])
    return {
        "config": cfg,
        "records": [r.to_dict() for r in result.records],
        "summary": summarize(result.records),
    }


def _run_csv_rows(result: RunResult):
    rows = []
    for r in result.records:
        rows.append([
            r.session, repr(r.accuracy), r.comm["params_up"], r.comm["params_down"],
            r.comm["shared_samples"], r.comm["logit_scalars"],
        ])
    return rows


def _params_transferred(result: RunResult) -> int:
    return sum(r.comm["params_up"] + r.comm["params_down"] for r in result.records)


@click.group()
def main():
    """Decentralized class-incremental learning experiments."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the run seed.")
@click.option("--method", type=click.Choice(METHODS), default=None, help="Override the method.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default from config, else 'results').")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Override any config key (repeatable).")
def cmd_run(config_path, seed, method, out_dir, overrides):
    """Execute one run and write metrics JSON + CSV."""
    try:
        doc = load_config(config_path)
        for raw in overrides:
            key, value = _parse_override(raw)
            doc[key] = value
        if seed is not None:
            doc["seed"] = seed
        if method is not None:
            doc["method"] = method
        out = out_dir or doc.get("out") or "results"
        cfg = build_run_config(doc)
    except (ConfigError, ParameterError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    try:
        result = run(cfg)
        os.makedirs(out, exist_ok=True)
        stem = f"{cfg.method}_seed{cfg.seed}"
        _atomic_write(
            os.path.join(out, stem + ".json"),
            json.dumps(_result_doc(result), indent=2) + "\n",
        )
        _atomic_write(
            os.path.join(out, stem + ".csv"),
            _csv_text(RUN_CSV_HEADER, _run_csv_rows(result)),
        )
    except Exception as exc:  # runtime failure -> exit 1
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(1)
    s = summarize(result.records)
    click.echo(
        f"{cfg.method}, {s['average_accuracy']:.4f}, {s['final_accuracy']:.4f}, "
        f"{_params_transferred(result)}"
    )


@main.command("compare")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
def cmd_compare(config_path, out_dir):
    """Run a methods x seeds (x alphas) grid; write per-session and summary CSVs."""
    try:
        doc = load_config(config_path)
        methods = doc.get("methods")
        seeds = doc.get("seeds")
        if not isinstance(methods, list) or len(methods) < 2:
            raise ConfigError("compare requires a 'methods' list with >= 2 entries")
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("compare requires a non-empty 'seeds' list")
        alphas = _parse_value("alphas", list, doc.get("alphas") or [None])
        out = out_dir or doc.get("out") or "results"
        # Validate every grid entry up front.
        entries = []
        for method, alpha in product(methods, alphas):
            for seed in seeds:
                # build_run_config skips the sweep keys
                entry = {**doc, "method": method, "seed": _parse_value("seeds", _int, seed)}
                if alpha is not None:
                    alpha = entry["alpha"] = _parse_value("alphas", float, alpha)
                    entry["partition"] = "dirichlet"
                entries.append((method, alpha, build_run_config(entry)))
    except (ConfigError, ParameterError) as exc:
        click.echo(f"config error: {exc}", err=True)
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
        click.echo(f"compare failed: {exc}", err=True)
        sys.exit(1)
    for row in summary_rows:
        click.echo(", ".join(str(v) for v in row))


if __name__ == "__main__":
    main()
