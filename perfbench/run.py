"""dcil benchmark: drive the unmodified package from outside and print its metrics.

Usage, from the root of a checkout that holds ``src/dcil``:

    python3 perfbench/run.py --workload dcid --seed 1 --seconds 32 --trace 0

Workloads (closed loop, one client, every run seed derived from --seed):

- ``dcid``: default config, method dcid, three seeds run serially in-process.
- ``baselines``: default config, dcil_fedavg, dcil_fedprox, dcil_fedmax and
  centralized for three seeds, serially in-process.  DCD and DAD never run here.
- ``compare-wide``: ``dcil compare`` as a subprocess over dcid and dcil_fedavg,
  alpha 0.1 and 1.0, 128-wide hidden layers and 32-dim inputs (one round,
  three sessions), with ``DCIL_THREADS`` set to nproc and at least two grid
  runs per worker.  The same grid also runs in-process, each run alone, as
  the reference its CSVs must match.

``--trace 0`` repeats the workload's fixed list of runs with tracing off and
prints the end-to-end metrics; ``wall_s`` sums each run's median over the
repeats.  ``avg_acc`` and ``final_acc`` come from the workload's accuracy
reference runs (``harness.reference_docs``), which do not depend on --seed.
``peak_rss_mb`` is this process's for the serial workloads and the peak of
the ``dcil compare`` child plus its descendants for compare-wide.
``--trace 1`` times one untraced repeat, then traced repeats, and prints the
per-layer metrics; the spans of the last traced repeat are written to
``.perfbench_out/``.  A traced ``dcil compare`` child and any worker process
it starts load ``hook/sitecustomize.py``, which installs the tracer there.
Both modes check every run; a traced repeat whose sgd_step calls differ from
the closed-form step count behind ``steps_per_s`` fails its runs.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units come from BENCHMARK.json.  BLAS thread
variables are recorded, never set.

Times are scaled to a reference host speed.  On a shared host a vCPU runs
the same code up to 2x slower for spells of a fraction of a second to tens
of seconds, with no steal time.  ``speed_sampler.py`` times a fixed NumPy
minibatch step four times a second on the CPU the work runs on, and each
timed interval is multiplied by REF_PASS_S over the mean sample inside it.
Raw seconds are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
STARTUP_PROBES = 3
CHILD_TIMEOUT_S = 150
RSS_PERIOD_S = 0.05
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
# `dcil` as its console script runs it; the traced child gets the same command
CLI = [sys.executable, "-c", "from dcil.cli import main; main(prog_name='dcil')"]
# speed_sampler.py's seconds per pass at full speed on a 2-vCPU Xeon VM
REF_PASS_S = 5.3e-5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DCIL_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="dcil benchmark")
    ap.add_argument("--workload", required=True, choices=("dcid", "baselines", "compare-wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = res.stdout.split()
        if (res.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


class Timed(NamedTuple):
    """Raw seconds of some work and the perf_counter interval it ran in."""

    seconds: float
    start: float
    end: float


class SpeedSampler:
    """Runs speed_sampler.py for the life of the benchmark; scales times afterwards."""

    def __init__(self, follow_tid: int):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed_sampler.py"), str(follow_tid)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[tuple[float, float]] = []

    def close(self) -> None:
        """Stop the sampler and collect its samples; later calls do nothing."""
        if self._proc.stdin.closed:
            return
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.stdout.close()
        if self._proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise RuntimeError("speed sampler failed")
        self.samples = [tuple(map(float, ln.split())) for ln in out.splitlines()]

    def scaled(self, t: Timed) -> float:
        """Seconds at the reference speed, from the samples taken during `t`."""
        inside = [s for at, s in self.samples if t.start <= at <= t.end]
        if not inside:
            mid = (t.start + t.end) / 2
            inside = [min(self.samples, key=lambda a: abs(a[0] - mid))[1]]
        return t.seconds * REF_PASS_S / statistics.fmean(inside)


def child_env(*front, **extra) -> dict:
    path = os.pathsep.join([*front, SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path, **extra}


def tree_rss_mb(root: int) -> float:
    """Resident memory of `root` and all its descendants, read from /proc."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    parent_of[int(entry)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    tree, grew = {root}, True
    while grew:
        more = {p for p, pp in parent_of.items() if pp in tree} - tree
        tree |= more
        grew = bool(more)
    pages = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                pages += int(fh.read().split()[1])
        except (OSError, IndexError, ValueError):
            pass
    return pages * PAGE_MB


def run_child(cmd, env=None, tree_rss=False):
    """Run a child to completion; returns (exit code, output, peak RSS MB, Timed).

    The peak RSS is the child's own high-water mark from wait4.  With
    `tree_rss`, it is at least the largest sum of the RSS of the child and
    all its descendants, sampled every RSS_PERIOD_S, so the workers of a
    process pool count together, not as the largest of them.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    done, tree_peak = threading.Event(), [0.0]

    def sample():
        while not done.wait(RSS_PERIOD_S):
            tree_peak[0] = max(tree_peak[0], tree_rss_mb(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True) if tree_rss else None
    if sampler:
        sampler.start()
    try:
        output = proc.stdout.read().decode(errors="replace")
    finally:
        proc.stdout.close()
        done.set()
        if sampler:
            sampler.join()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    t1 = time.perf_counter()
    rss = max(usage.ru_maxrss / 1024, tree_peak[0])
    return proc.returncode, output, rss, Timed(t1 - t0, t0, t1)


def setup_seconds(first_doc: dict) -> float:
    """Median set-up time over fresh interpreters, each scaled by its own speed sample."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, json.dumps(first_doc)]
    values = []
    for _ in range(SETUP_PROBES):
        code, output, _, _ = run_child(cmd, child_env())
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {output.strip()[-300:]}")
        elapsed, per_pass = map(float, output.split()[-2:])
        values.append(elapsed * REF_PASS_S / per_pass)
    return statistics.median(values)


def cli_startups() -> list[Timed]:
    """Wall time of `dcil --help` in fresh interpreters."""
    out = []
    for _ in range(STARTUP_PROBES):
        code, output, _, wall = run_child([*CLI, "--help"], child_env())
        if code != 0:
            raise RuntimeError(f"dcil --help failed: {output.strip()[-300:]}")
        out.append(wall)
    return out


class Unit(NamedTuple):
    """One repeat of a workload's fixed list of runs."""

    raw_wall: float
    digest: str  # SHA-256 over the repeat's records, or "failed"
    spans: list
    parts: list  # Timed per run, or one for a whole `dcil compare`


class Context:
    """Runs checked in-process runs and counts attempted and failed ones."""

    def __init__(self, args):
        import dcil.orchestrator as orch
        import harness
        import tracer

        self.args, self.orch, self.h, self.tr = args, orch, harness, tracer
        self.workers = nproc()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._first_digest: dict = {}

    def count(self, n: int, problems: list[str], where: str) -> None:
        self.attempted += n
        self.flag(n, problems, where)

    def flag(self, n: int, problems: list[str], where: str) -> None:
        """Count `n` runs already attempted as failed when there are problems."""
        if problems:
            self.failed += n
            if len(self.reasons) < 10:
                self.reasons.append(f"{where}: {'; '.join(problems)}")

    def repeat_check(self, key, digest: str, problems: list[str]) -> None:
        if self._first_digest.setdefault(key, digest) != digest:
            problems.append("records digest differs from an earlier repeat")

    def warm_up(self, methods) -> None:
        """Load every code path once before timing; the checked runs judge the results."""
        for m in methods:
            try:
                self.orch.run(self.h.build_run_config(self.h.tiny_doc(m)))
            except Exception:  # noqa: BLE001 - a broken program fails the checked runs
                pass

    def run_one(self, cfg, ledgers):
        """One checked run via the module attribute, so an installed tracer sees it.

        Returns (Timed, records or None, digest).
        """
        where = f"{cfg.method} seed {cfg.seed} alpha {cfg.alpha:g}"
        t0 = time.perf_counter()
        try:
            res = self.orch.run(cfg)
        except Exception as exc:  # a raising run is a failed run, not a crash
            t1 = time.perf_counter()
            self.count(1, [f"raised {type(exc).__name__}: {exc}"], where)
            return Timed(t1 - t0, t0, t1), None, "failed"
        t1 = time.perf_counter()
        digest = self.h.sha256([self.h.records_text(cfg, res.records)])
        problems = self.h.check_records(cfg, res.records, ledgers)
        self.repeat_check((cfg.method, cfg.seed, cfg.alpha), digest, problems)
        self.count(1, problems, where)
        return Timed(t1 - t0, t0, t1), res.records, digest

    def reference(self, workload: str) -> list:
        """Records of the workload's accuracy reference runs, checked like any run."""
        cfgs = [self.h.build_run_config(d) for d in self.h.reference_docs(workload)]
        runs = [(cfg, self.run_one(cfg, self.h.plan(cfg)[1])[1]) for cfg in cfgs]
        print("reference_sha256 " + self.h.sha256(
            [self.h.records_text(c, r) if r is not None else "failed" for c, r in runs]))
        return [r for _, r in runs if r is not None]

    def loop(self, unit, min_units):
        """Repeat `unit` at least `min_units` times, then until the next would overrun --seconds."""
        start, outs = time.perf_counter(), []
        while True:
            outs.append(unit())
            elapsed = time.perf_counter() - start
            next_s = statistics.median(o.raw_wall for o in outs)
            if len(outs) >= min_units and elapsed + next_s > self.args.seconds:
                return outs


class Serial:
    """dcid / baselines: a fixed list of runs, serially in this process."""

    def __init__(self, ctx: Context):
        h = ctx.h
        self.ctx = ctx
        docs = h.serial_docs(ctx.args.workload, ctx.args.seed)
        self.first_doc = docs[0]
        self.cfgs = [h.build_run_config(d) for d in docs]
        self.plans = [h.plan(c) for c in self.cfgs]
        self.steps = sum(p[0] for p in self.plans)
        self.runs = len(self.cfgs)
        self.records = None
        ctx.warm_up(h.SERIAL_METHODS[ctx.args.workload])

    def unit(self, traced: bool) -> Unit:
        tracer = self.ctx.tr.Tracer() if traced else None
        if tracer:
            tracer.install()
        parts, records, digests = [], [], []
        try:
            for cfg, (_, ledgers) in zip(self.cfgs, self.plans):
                timed, recs, digest = self.ctx.run_one(cfg, ledgers)
                parts.append(timed)
                records.append(recs)
                digests.append(digest)
        finally:
            if tracer:
                tracer.uninstall()
        if self.records is None:
            self.records = records
        spans = tracer.take() if tracer else []
        digest = "failed" if "failed" in digests else self.ctx.h.sha256(digests)
        return Unit(sum(p.seconds for p in parts), digest, spans, parts)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def cli_metrics(self, untraced_wall: float, sampler) -> dict:
        return {"cli.compare.wall_s": 0.0, "cli.compare.workers": 0,
                "cli.compare.serial_equiv_s": 0.0, "cli.compare.parallel_efficiency": 0.0}


class CompareWide:
    """`dcil compare` in a subprocess, checked against the same grid run in-process."""

    def __init__(self, ctx: Context):
        h = ctx.h
        self.ctx = ctx
        doc = h.compare_doc(ctx.args.seed, ctx.workers)
        self.grid = h.compare_grid(doc)
        self.first_doc = self.grid[0][1]
        self.cfgs = [h.build_run_config(d) for _, d in self.grid]
        self.plans = [h.plan(c) for c in self.cfgs]
        self.steps = sum(p[0] for p in self.plans)
        self.runs = len(self.cfgs)
        self.doc_path = os.path.join(OUT, f"compare-wide-seed{ctx.args.seed}.json")
        with open(self.doc_path, "w") as fh:
            json.dump(doc, fh)
        self.out_dir = os.path.join(OUT, f"compare-wide-seed{ctx.args.seed}")
        self.spans_dir = os.path.join(OUT, f"compare-wide-seed{ctx.args.seed}-spans")
        self.rss: list[float] = []
        ctx.warm_up(h.WIDE_METHODS)
        # Reference pass: each grid run alone, in-process, untraced.
        self.reference: list[Timed] = []
        self.records = []
        for cfg, (_, ledgers) in zip(self.cfgs, self.plans):
            timed, recs, _ = ctx.run_one(cfg, ledgers)
            self.reference.append(timed)
            self.records.append(recs)
        self.expected = None
        if all(r is not None for r in self.records):
            self.expected = h.expected_compare_csvs(
                [(label, r) for (label, _), r in zip(self.grid, self.records)])
        # the unit digest covers these records too: per-class maps and ledgers
        # are not in the CSVs
        self.records_digest = h.sha256(
            [h.records_text(c, r) for c, r in zip(self.cfgs, self.records) if r is not None])

    def unit(self, traced: bool) -> Unit:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        shutil.rmtree(self.spans_dir, ignore_errors=True)
        env = child_env(DCIL_THREADS=str(self.ctx.workers))
        if traced:
            os.makedirs(self.spans_dir)
            env = child_env(os.path.join(HERE, "hook"), DCIL_THREADS=str(self.ctx.workers),
                            PERFBENCH_SPANS_DIR=self.spans_dir)
        cmd = [*CLI, "compare", self.doc_path, "--out", self.out_dir]
        code, output, rss, timed = run_child(cmd, env, tree_rss=True)
        self.rss.append(rss)
        problems, digest = [], "failed"
        if code != 0:
            problems.append(f"exit {code}: {output.strip()[-300:]}")
        else:
            blobs, tables = [], []
            for name in ("comparison.csv", "summary.csv"):
                with open(os.path.join(self.out_dir, name), "rb") as fh:
                    blobs.append(fh.read())
                tables.append(list(csv.reader(blobs[-1].decode().splitlines())))
            digest = self.ctx.h.sha256([self.records_digest, *blobs])
            if tuple(tables) != self.expected:
                problems.append("CSVs differ from the grid run in-process")
        self.ctx.repeat_check("compare-csv", digest, problems)
        self.ctx.count(self.runs, problems, "dcil compare")
        spans = self.ctx.tr.read_spans_dir(self.spans_dir) if traced and code == 0 else []
        shutil.rmtree(self.out_dir, ignore_errors=True)
        shutil.rmtree(self.spans_dir, ignore_errors=True)
        return Unit(timed.seconds, digest, spans, [timed])

    def peak_rss_mb(self) -> float:
        return max(self.rss)

    def cli_metrics(self, untraced_wall: float, sampler) -> dict:
        w = self.ctx.workers
        serial = sum(sampler.scaled(t) for t in self.reference)
        return {
            "cli.compare.wall_s": untraced_wall,
            "cli.compare.workers": w,
            "cli.compare.serial_equiv_s": serial,
            "cli.compare.parallel_efficiency": serial / (untraced_wall * w),
        }


def summary(ctx, w) -> dict:
    ok = [(c, r) for c, r in zip(w.cfgs, w.records) if r is not None]
    return {
        "comm_scalars": sum(ctx.h.comm_scalars(c, r) for c, r in ok),
        "ledger": ctx.h.ledger_totals([r for _, r in ok]),
    }


def scaled_wall(unit: Unit, sampler) -> float:
    return sum(sampler.scaled(p) for p in unit.parts)


def end_to_end(ctx, w, sampler):
    setup = setup_seconds(w.first_doc)
    reference = ctx.reference(ctx.args.workload)
    avg, final = ctx.h.accuracy_means(reference) if reference else (0.0, 0.0)
    outs = ctx.loop(lambda: w.unit(False), ctx.h.MIN_REPEATS[ctx.args.workload])
    sampler.close()
    per_run = list(zip(*(o.parts for o in outs)))
    wall = sum(statistics.median(sampler.scaled(t) for t in ts) for ts in per_run)
    raw = sum(statistics.median(t.seconds for t in ts) for ts in per_run)
    s = summary(ctx, w)
    print(f"repeats {len(outs)} of {len(per_run)} timed parts: scaled wall_s "
          f"{[round(scaled_wall(o, sampler), 4) for o in outs]}, raw "
          f"{[round(o.raw_wall, 4) for o in outs]}")
    print(f"wall_s as the sum of per-part medians: scaled {wall:.4f}, raw {raw:.4f}; "
          f"{len(sampler.samples)} speed samples")
    print(f"records_sha256 {outs[0].digest}")
    return {
        "wall_s": wall,
        "steps_per_s": w.steps / wall,
        "setup_s": setup,
        "peak_rss_mb": w.peak_rss_mb(),
        "avg_acc": avg,
        "final_acc": final,
        "comm_scalars": s["comm_scalars"],
    }


def per_layer(ctx, w, sampler):
    startup = cli_startups()
    untraced = w.unit(False)
    outs = ctx.loop(lambda: w.unit(True), min_units=1)
    sampler.close()
    untraced_wall = scaled_wall(untraced, sampler)
    walls = [scaled_wall(o, sampler) for o in outs]
    # span durations are raw; scale them like the repeat that holds them
    per_unit = [ctx.tr.layer_metrics(o.spans, wall / o.raw_wall) for o, wall in zip(outs, walls)]
    ctx.tr.write_spans(outs[-1].spans, os.path.join(
        OUT, f"spans-{ctx.args.workload}-seed{ctx.args.seed}.jsonl"))
    for o, u in zip(outs, per_unit):
        # a unit whose runs already failed is not counted twice
        if o.digest != "failed" and u["nncore.sgd_step.calls"] != w.steps:
            ctx.flag(w.runs, [f"{u['nncore.sgd_step.calls']} traced sgd_step calls, closed form "
                              f"{w.steps}"], "optimizer step count")
    metrics = {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
    print(f"repeats: 1 untraced, scaled wall_s {untraced_wall:.4f} (raw {untraced.raw_wall:.4f}); "
          f"{len(outs)} traced, scaled {[round(x, 4) for x in walls]} "
          f"(raw {[round(o.raw_wall, 4) for o in outs]})")
    print(f"records_sha256 untraced {untraced.digest} traced {outs[0].digest} "
          f"identical {all(o.digest == untraced.digest for o in outs)}")
    print(f"optimizer steps: closed form {w.steps}, "
          f"traced sgd_step calls {metrics['nncore.sgd_step.calls']}")
    for k, v in summary(ctx, w)["ledger"].items():
        metrics[f"orchestrator.ledger.{k}"] = v
    metrics["cli.startup_s"] = statistics.median(sampler.scaled(t) for t in startup)
    metrics.update(w.cli_metrics(untraced_wall, sampler))
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced_wall
    return metrics


def main(argv=None) -> None:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcil", "__init__.py")):
        print(f"no dcil package under {SRC}; run from the root of a dcil checkout",
              file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    ctx = Context(args)
    compare = args.workload == "compare-wide"
    # follow this thread's CPU for in-process runs; a compare child uses every CPU
    sampler = SpeedSampler(0 if compare else threading.get_native_id())
    try:
        w = CompareWide(ctx) if compare else Serial(ctx)
        print(f"workload {args.workload} seed {args.seed}: {w.runs} runs per repeat, "
              f"{w.steps} optimizer steps per repeat (closed form)")
        values = per_layer(ctx, w, sampler) if args.trace else end_to_end(ctx, w, sampler)
    finally:
        sampler.close()

    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        missing, extra = set(names) - set(values), set(values) - set(names)
        print(f"metric set differs from BENCHMARK.json: missing {sorted(missing)}, "
              f"extra {sorted(extra)}", file=sys.stderr)
        sys.exit(2)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_frac {ctx.failed / max(ctx.attempted, 1)!r} fraction "
          f"({ctx.failed} of {ctx.attempted} runs)")
    for reason in ctx.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
