"""Span tracer installed around the public functions at each dcil module boundary.

The package imports names directly (``from .nncore import backward``), so a
wrapper on ``dcil.nncore.backward`` alone would see no call.  Each wrapper is
installed in the namespace of the calling module instead, and the span keeps
that caller's name.  Spans are kept in memory as tuples.  A tracer given a
spans directory appends them to ``spans-<pid>.jsonl`` there each time a
thread's outermost span ends, so a process-pool worker, forked or spawned,
leaves its spans behind too (``hook/sitecustomize.py`` installs a tracer in
every interpreter that starts with ``PERFBENCH_SPANS_DIR`` set).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
import weakref

# (namespace module, attribute, layer that owns the function)
TARGETS = (
    ("orchestrator", "run", "orchestrator"),
    ("cli", "run", "orchestrator"),
    ("orchestrator", "evaluate", "orchestrator"),
    ("orchestrator", "local_update", "local_learner"),
    ("orchestrator", "select_anchors_herding", "local_learner"),
    ("orchestrator", "build_shared_dataset", "distillation"),
    ("orchestrator", "compute_logits_table", "distillation"),
    ("orchestrator", "ensemble_logits", "distillation"),
    ("orchestrator", "fedavg_aggregate", "distillation"),
    ("orchestrator", "dcd_finetune", "distillation"),
    ("orchestrator", "dad_refine", "distillation"),
    ("data", "make_synthetic", "data"),
    ("data", "split_sessions", "data"),
    ("data", "partition_iid", "data"),
    ("data", "partition_dirichlet", "data"),
    *(
        (caller, fn, "nncore")
        for caller in ("orchestrator", "local_learner", "distillation")
        for fn in ("backward", "sgd_step", "forward_batch")
    ),
)

TERM_KEYS = {
    "CrossEntropyTerm": "ce",
    "DistillTerm": "distill",
    "ProximalTerm": "prox",
    "UniformActivationTerm": "uniform",
}


def _terms_key(args, kwargs):
    loss = args[1] if len(args) > 1 else kwargs.get("loss")
    return "_".join(TERM_KEYS.get(type(t).__name__, "other") for t in loss.terms)


def _candidates(args, kwargs):
    n = len(args[1] if len(args) > 1 else kwargs["class_examples"])
    k = args[2] if len(args) > 2 else kwargs["k_max"]
    return n * min(k, n)


ATTRS = {"nncore.backward": _terms_key, "local_learner.select_anchors_herding": _candidates}


class Tracer:
    """Records spans (see SPAN_KEYS) with a per-thread parent stack."""

    def __init__(self, spans_dir: str | None = None):
        self.spans: list[tuple] = []
        self.spans_dir = spans_dir
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []
        _TRACERS.add(self)

    def _after_fork(self) -> None:
        """A forked child keeps the wrappers but none of the parent's spans or threads."""
        self.spans = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
            if spans:
                path = os.path.join(self.spans_dir, f"spans-{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.writelines(json.dumps(dict(zip(SPAN_KEYS, s))) + "\n" for s in spans)

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack, tls.run = [], 0
        return tls

    def _wrap(self, fn, name, caller):
        attr_of = ATTRS.get(name)
        is_run = name == "orchestrator.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = self._state()
            sid = next(self._ids)
            parent = tls.stack[-1] if tls.stack else 0
            outer_run = tls.run
            if is_run and not outer_run:
                tls.run = next(self._runs)
            attr = attr_of(args, kwargs) if attr_of else None
            tls.stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tls.stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, tls.run, name, caller, t0, t1, attr))
                tls.run = outer_run
                if self.spans_dir and not tls.stack:
                    self._flush()

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every target the loaded package still has; a missing one records nothing.

        nncore functions get one wrapper per calling module.  Any other
        function gets one wrapper for all the namespaces it is patched into,
        so it still pickles by name (``dcil.orchestrator.run`` sent to a
        process pool finds the same object).
        """
        made = {}
        for ns, attr, layer in TARGETS:
            mod = importlib.import_module(f"dcil.{ns}")
            fn = getattr(mod, attr, None)
            if fn is None or getattr(fn, "__wrapped_by_tracer__", False):
                continue
            caller = ns if layer == "nncore" else layer
            key = (id(fn), caller)
            if key not in made:
                made[key] = self._wrap(fn, f"{layer}.{attr}", caller)
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, made[key])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


SPAN_KEYS = ("id", "parent", "run", "name", "caller", "start", "end", "attr")
_TRACERS: weakref.WeakSet = weakref.WeakSet()
os.register_at_fork(after_in_child=lambda: [t._after_fork() for t in list(_TRACERS)])


def write_spans(spans, path: str) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(SPAN_KEYS, s))) + "\n")


def read_spans_dir(path: str) -> list[tuple]:
    """Spans of every process that wrote into `path`, with ids made unique across them."""
    out = []
    for name in sorted(os.listdir(path)):
        offset = 1 + max((s[0] for s in out), default=0)
        with open(os.path.join(path, name)) as fh:
            for line in fh:
                d = json.loads(line)
                d["id"] += offset
                d["parent"] += offset if d["parent"] else 0
                out.append(tuple(d[k] for k in SPAN_KEYS))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from one unit's spans
# ---------------------------------------------------------------------------

BACKWARD_SPLITS = (
    "orchestrator.ce",
    "local_learner.ce",
    "local_learner.ce_distill",
    "local_learner.distill",
    "local_learner.ce_prox",
    "local_learner.ce_distill_prox",
    "local_learner.distill_prox",
    "local_learner.ce_uniform",
    "local_learner.ce_distill_uniform",
    "local_learner.distill_uniform",
    "distillation.distill",
)

AGGREGATE = (
    "distillation.build_shared_dataset",
    "distillation.compute_logits_table",
    "distillation.ensemble_logits",
    "distillation.fedavg_aggregate",
)

STAGES = {
    "local_update": ("local_learner.local_update",),
    "herding": ("local_learner.select_anchors_herding",),
    "dcd": ("distillation.dcd_finetune",),
    "fedavg": AGGREGATE,
    "dad": ("distillation.dad_refine",),
    "evaluate": ("orchestrator.evaluate",),
}


def _per(total, count, scale=1.0):
    return total / count * scale if count else 0.0


def layer_metrics(spans, time_scale: float = 1.0) -> dict[str, float]:
    """Busy time, self time, counts and per-call costs of each layer.

    Every duration is multiplied by `time_scale`.
    """
    dur = {s[0]: (s[6] - s[5]) * time_scale for s in spans}
    name_of = {s[0]: s[3] for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, *_ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + dur[sid]

    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    bw_time: dict[str, float] = {}
    bw_calls: dict[str, int] = {}
    steps_under: dict[str, int] = {}
    candidates = 0
    for sid, parent, _run, name, caller, _t0, _t1, attr in spans:
        d = dur[sid]
        busy[name] = busy.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + d - child_time.get(sid, 0.0)
        if name == "nncore.backward":
            key = f"{caller}.{attr}"
            bw_time[key] = bw_time.get(key, 0.0) + d
            bw_calls[key] = bw_calls.get(key, 0) + 1
        elif name == "nncore.sgd_step":
            owner = name_of.get(parent, "")
            steps_under[owner] = steps_under.get(owner, 0) + 1
        elif name == "local_learner.select_anchors_herding":
            candidates += attr

    def b(name):
        return busy.get(name, 0.0)

    m: dict[str, float] = {}
    m["nncore.backward.calls"] = calls.get("nncore.backward", 0)
    for key in BACKWARD_SPLITS:
        m[f"nncore.backward.us.{key}"] = _per(bw_time.get(key, 0.0), bw_calls.get(key, 0), 1e6)
    m["nncore.sgd_step.calls"] = calls.get("nncore.sgd_step", 0)
    m["nncore.sgd_step.us_per_call"] = _per(b("nncore.sgd_step"), calls.get("nncore.sgd_step", 0), 1e6)
    m["nncore.forward_batch.busy_s"] = b("nncore.forward_batch")

    for stage in ("dad_refine", "dcd_finetune"):
        name = f"distillation.{stage}"
        steps = steps_under.get(name, 0)
        m[f"{name}.busy_s"] = b(name)
        m[f"{name}.steps"] = steps
        m[f"{name}.us_per_step"] = _per(b(name), steps, 1e6)
    m["distillation.aggregate.busy_s"] = sum(b(n) for n in AGGREGATE)

    lu = "local_learner.local_update"
    m[f"{lu}.busy_s"] = b(lu)
    m[f"{lu}.self_s"] = self_s.get(lu, 0.0)
    m[f"{lu}.steps"] = steps_under.get(lu, 0)
    m[f"{lu}.us_per_step"] = _per(b(lu), steps_under.get(lu, 0), 1e6)
    herd = "local_learner.select_anchors_herding"
    m[f"{herd}.busy_s"] = b(herd)
    m[f"{herd}.candidates"] = candidates
    m[f"{herd}.us_per_candidate"] = _per(b(herd), candidates, 1e6)

    m["data.busy_s"] = sum(v for k, v in busy.items() if k.startswith("data."))
    m["data.partition.calls"] = calls.get("data.partition_iid", 0) + calls.get(
        "data.partition_dirichlet", 0
    )

    run_busy = b("orchestrator.run")
    m["orchestrator.run.busy_s"] = run_busy
    m["orchestrator.self_s"] = self_s.get("orchestrator.run", 0.0)
    m["orchestrator.evaluate.busy_s"] = b("orchestrator.evaluate")
    staged = {k: sum(b(n) for n in names) for k, names in STAGES.items()}
    # base/centralized training and bookkeeping: whatever the named stages leave
    m["orchestrator.share.base"] = _per(run_busy - sum(staged.values()), run_busy)
    for k, v in staged.items():
        m[f"orchestrator.share.{k}"] = _per(v, run_busy)
    return m
