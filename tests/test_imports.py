"""Every module of the package uses each name it imports, every private
top-level function or class is read somewhere in the package, every
public top-level function, class or constant is read by the package or by
the benchmark, no module passes, takes or sets a `check` flag (`nncore.fit`
traps divergence at every step in one pass, so nothing selects a scan), only
`nncore` builds a `Workspace`, the step arithmetic of `nncore` reaches
NumPy through its cheapest entry points, `config` imports only the
standard library, no trainer module names a method, and every stage
request of the orchestrator is one six-tuple that carries no config.

A deleted feature tends to leave its import behind (a class name in the
module that built it, `dataclass` in a module that no longer declares one),
a private helper that only the tests still call, or a public name (an
exception alias, a constant) that only the tests still read; these checks
fail on any such leftover.
"""

import ast
import os
import sys
import tomllib

import pytest

from dcil.config import METHODS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dcil")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    # `np.zeros` and `data_mod.partition_iid` read their first part as a Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_leftovers():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os", "c"]


def names_read(trees) -> set[str]:
    """Names the trees load, as a bare name, an attribute or an import."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)  # `data_mod._helper`
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return read


def unread_private_defs(sources: list[str]) -> list[str]:
    """Private top-level functions and classes that no source reads."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    read = names_read(trees)
    return [name for name in defined if name not in read]


def test_unread_private_defs_finds_leftovers():
    sources = [
        "def _used(): pass\ndef _orphan(): pass\nclass _Old: pass\ndef public(): _used()\n",
        "from m import _imported\nimport m\nm._attr()\n",
        "def _imported(): pass\ndef _attr(): pass\n",
    ]
    assert unread_private_defs(sources) == ["_orphan", "_Old"]


def test_every_private_def_is_read_by_the_package():
    sources = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            sources.append(fh.read())
    assert unread_private_defs(sources) == []


def unread_public_defs(sources: list[str], readers: list[str], entry_points=()) -> list[str]:
    """Public top-level functions, classes and constants of `sources` that
    neither they nor `readers` read; `entry_points` are read, a decorator is no read."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, ast.Assign):
                defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.append(node.target.id)
    read = names_read(trees + [ast.parse(source) for source in readers]) | set(entry_points)
    return [name for name in defined if not name.startswith("_") and name not in read]


def test_unread_public_defs_finds_leftovers():
    sources = [
        "class ConfigError(ValueError): pass\nParameterError = ConfigError\nLIMIT = 3\n"
        "def main(): pass\n@group.command('run')\ndef cmd_run(): pass\ndef helper(): pass\n",
        "from m import ConfigError\nraise ConfigError(LIMIT)\n",
    ]
    readers = ["import m\nm.helper()\nm.ParameterError = None\n"]  # a store is no read
    assert unread_public_defs(sources, readers, ["main"]) == ["ParameterError", "cmd_run"]
    assert unread_public_defs(sources, readers) == ["ParameterError", "main", "cmd_run"]


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    sources = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            sources.append(fh.read())
    readers = []
    for folder, _, files in os.walk(os.path.join(ROOT, "perfbench")):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    readers.append(fh.read())
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    # a console script `pkg.module:func` reads `func`
    entry_points = [target.rsplit(":", 1)[1] for target in scripts.values()]
    assert unread_public_defs(sources, readers, entry_points) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def check_plumbing(source: str) -> list[tuple[str, str, int]]:
    """(kind, top-level definition, line) of each `check=` keyword, `check`
    parameter and `.check` store in `source`."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.keyword) and node.arg == "check":
                found.append(("keyword", name, node.lineno))
            elif isinstance(node, ast.arg) and node.arg == "check":
                found.append(("parameter", name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "check":
                if isinstance(node.ctx, ast.Store):
                    found.append(("store", name, node.lineno))
    return found


def test_check_plumbing_finds_leftovers():
    source = (
        "def stage(p):\n"
        "    def step(out, sel, ws, check):\n"
        "        sgd_step(out, g, lr, check=check)\n"
        "    ws.check = False\n"
        "    if ws.check and check_finite(p):\n"
        "        return fit(p, lr, n, bs, 1, 0, step)\n"
        "class Workspace:\n"
        "    def __init__(self, spec, *, check=True):\n"
        "        self.check = check\n"
    )
    assert sorted(check_plumbing(source), key=lambda f: f[2]) == [
        ("parameter", "stage", 2),
        ("keyword", "stage", 3),
        ("store", "stage", 4),
        ("parameter", "Workspace", 8),
        ("store", "Workspace", 9),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_threads_a_check_flag(module):
    # `fit` runs every step under floating-point traps and scans the trained
    # parameters once, so no path selects whether a scan runs: a reintroduced
    # flag would let a call skip a scan that nothing else makes.
    with open(os.path.join(PACKAGE, module)) as fh:
        assert check_plumbing(fh.read()) == []


def workspace_builds(source: str) -> list[int]:
    """Lines of calls that construct a `Workspace`."""
    return [
        call.lineno
        for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call)
        and "Workspace" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    ]


def test_workspace_builds_finds_both_spellings():
    source = "ws = Workspace(spec)\nws = nncore.Workspace(spec)\nworkspace = ws\n"
    assert workspace_builds(source) == [1, 2]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "nncore.py"])
def test_only_nncore_builds_a_workspace(module):
    # `fit` builds the one workspace of each training call; a trainer that
    # built its own would bypass the loop every stage shares.
    with open(os.path.join(PACKAGE, module)) as fh:
        assert workspace_builds(fh.read()) == []


# The functions that every training step runs, once or more per loss term.
STEP_FUNCTIONS = ("_forward_cache", "_backprop", "_term_grad", "_softmax_t", "_log_softmax")


def is_arange_call(node) -> bool:
    return isinstance(node, ast.Call) and "arange" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def costly_entry_points(source: str, functions) -> list[tuple[str, str, int]]:
    """(function, spelling, line) of each `@`, `np.matmul`, `np.dot`, `zeros_like`,
    `.sum(`/`.max(`/`.any(` call and `np.arange`-indexed subscript in the
    top-level `functions` of `source`."""
    found = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef) or top.name not in functions:
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((node.lineno, node.col_offset, top.name, "@"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if func.attr in ("matmul", "sum", "max", "any", "zeros_like"):
                    found.append((node.lineno, node.col_offset, top.name, func.attr))
                elif func.attr == "dot" and getattr(func.value, "id", None) == "np":
                    found.append((node.lineno, node.col_offset, top.name, "np.dot"))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "zeros_like":
                found.append((node.lineno, node.col_offset, top.name, "zeros_like"))
            elif isinstance(node, ast.Subscript):
                if any(is_arange_call(n) for n in ast.walk(node.slice)):
                    found.append((node.lineno, node.col_offset, top.name, "arange index"))
    return [(name, spelling, line) for line, _, name, spelling in sorted(found)]


def test_costly_entry_points_finds_leftovers():
    source = (
        "def _step(h, w, z):\n"
        "    z = h @ w\n"
        "    z @= w\n"
        "    np.matmul(h.T, z, out=w)\n"
        "    s = z.sum(axis=0) + np.max(z)\n"
        "    if (y < 0).any() or np.any(y >= k):\n"
        "        raise InputError('label out of range')\n"
        "    z[np.arange(n), y] -= 1.0\n"
        "    z[arange(n)] = z[y] - t[:, 0]\n"
        "    g = np.dot(h.T, z) + np.zeros_like(z) + zeros_like(w)\n"
        "    return h.dot(w), np.zeros(z.shape), np.add.reduce(z), np.maximum.reduce(z)\n"
        "def other(h, w):\n"
        "    return (h @ w).sum()\n"
    )
    assert costly_entry_points(source, ("_step",)) == [
        ("_step", "@", 2), ("_step", "@", 3), ("_step", "matmul", 4),
        ("_step", "sum", 5), ("_step", "max", 5), ("_step", "any", 6),
        ("_step", "any", 6), ("_step", "arange index", 8), ("_step", "arange index", 9),
        ("_step", "np.dot", 10), ("_step", "zeros_like", 10), ("_step", "zeros_like", 10),
    ]


def test_step_arithmetic_uses_the_cheapest_entry_points():
    # `ndarray.dot` skips the matmul ufunc machinery and `np.dot`'s
    # `__array_function__` dispatcher, as `np.zeros(shape)` skips the one of
    # `np.zeros_like`, and `np.add.reduce` and `np.maximum.reduce` skip the
    # Python wrappers behind `.sum` and `.max`;
    # labels are checked and encoded once per call by `one_hot`, not scanned
    # with `.any()` and fancy-indexed per term.  `tests/test_step_bytes.py`
    # holds the step to the bytes of the plain spelling.
    with open(os.path.join(PACKAGE, "nncore.py")) as fh:
        source = fh.read()
    defined = {top.name for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)}
    assert set(STEP_FUNCTIONS) <= defined
    assert costly_entry_points(source, STEP_FUNCTIONS) == []


def step_checks(source: str, functions) -> list[tuple[str, str, int]]:
    """(function, spelling, line) of each `raise` statement and `np.asarray(`
    call in the top-level `functions` of `source`."""
    found = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef) or top.name not in functions:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Raise):
                found.append((node.lineno, top.name, "raise"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "asarray" and getattr(node.func.value, "id", None) == "np"):
                found.append((node.lineno, top.name, "np.asarray"))
    return [(name, spelling, line) for line, name, spelling in sorted(found)]


def test_step_checks_finds_leftovers():
    source = (
        "def backward(params, loss, out=None):\n"
        "    x = np.asarray(loss.x, dtype=np.float64)\n"
        "    if x.size == 0:\n"
        "        raise InputError('empty batch in loss term')\n"
        "def softmax_t(logits, tau):\n"
        "    if tau <= 0:\n"
        "        raise ConfigError('temperature')\n"
        "    return np.asarray(logits)\n"
    )
    assert step_checks(source, ("backward",)) == [
        ("backward", "np.asarray", 2), ("backward", "raise", 4),
    ]


def test_training_step_only_does_arithmetic():
    # each trainer checks its inputs once per call, before `fit`, which checks
    # the learning rate and builds the workspace: a check in a function that
    # every step runs would repeat on each step and, behind `fit`'s zero-lr
    # and no-row shortcut, depend on the learning rate
    with open(os.path.join(PACKAGE, "nncore.py")) as fh:
        source = fh.read()
    step = ("backward", "sgd_step", *STEP_FUNCTIONS)
    defined = {top.name for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)}
    assert set(step) <= defined
    assert step_checks(source, step) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Modules `source` imports from outside the standard library, in import
    order; a relative import (another module of the package) is outside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] not in sys.stdlib_module_names:
                found.append(module)
    return found


def test_non_stdlib_imports_finds_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from dataclasses import field\n"
        "from .nncore import NetSpec\n"
        "from . import data\n"
        "from numpy.random import default_rng\n"
        "def check():\n"
        "    import scipy\n"
    )
    assert non_stdlib_imports(source) == ["numpy", ".nncore", ".", "numpy.random", "scipy"]


def test_config_imports_only_the_standard_library():
    # Building a config, `dcil --help` and every usage or config error load
    # `config` and the config half of `cli` only, so none of them loads NumPy
    # (`tests/test_cli_loading.py` checks that in a fresh interpreter).
    with open(os.path.join(PACKAGE, "config.py")) as fh:
        assert non_stdlib_imports(fh.read()) == []


# The stage calls of a run; `_protocol` yields each one to the driver.
STAGE_FUNCTIONS = (
    "_train_fresh", "local_update", "_herd", "_teacher", "dcd_finetune", "fedavg_aggregate",
    "dad_refine", "_record",
)


def stage_reads_outside_yields(source: str) -> list[tuple[str, int]]:
    """(name, line) of each read of a stage function in `source` other than
    as an element of a tuple that the top-level `_protocol` yields."""
    tree = ast.parse(source)
    yielded = set()
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == "_protocol":
            for node in ast.walk(top):
                if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple):
                    yielded.update(id(e) for e in node.value.elts if isinstance(e, ast.Name))
    found = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in STAGE_FUNCTIONS and id(node) not in yielded:
            found.append((node.lineno, node.col_offset, name))
    return [(name, line) for line, _, name in sorted(found)]


def test_stage_reads_outside_yields_finds_direct_calls():
    source = (
        "from .distillation import dad_refine\n"
        "def _protocol(cfg):\n"
        "    p = yield 'local', 1, 0, 0, local_update, (cfg,)\n"
        "    q = dcd_finetune(p)\n"
        "    yield 'dad', 1, 0, None, dad_refine(q), ()\n"
        "    def helper():\n"
        "        return distillation._train_fresh(cfg)\n"
        "    anchors = [_herd(p, shard, 2) for shard in shards]\n"
        "    g = yield 'fedavg', 1, 0, None, fedavg_aggregate, ([p], w)\n"
        "    yield 'evaluate', 1, None, None, _record, (1, _teacher([g], pool, w))\n"
        "def run(cfg):\n"
        "    return dad_refine(cfg)\n"
        "step = local_update\n"
    )
    assert stage_reads_outside_yields(source) == [
        ("dcd_finetune", 4), ("dad_refine", 5), ("_train_fresh", 7), ("_herd", 8),
        ("_teacher", 10), ("dad_refine", 12), ("local_update", 13),
    ]


def test_every_trainer_call_goes_through_the_stage_driver():
    # `_drive` serves each stage call that `_protocol` yields; a direct call
    # would run a stage that no driver sees (a second driver that interleaves
    # runs, a stage event, a stage-tagged error).
    with open(os.path.join(PACKAGE, "orchestrator.py")) as fh:
        assert stage_reads_outside_yields(fh.read()) == []


def malformed_requests(source: str) -> list[int]:
    """Lines of the top-level `_protocol`'s yields that are not a six-element
    tuple `(stage, session, round, site, fn, args)`, or that carry a dict."""
    found = []
    for top in ast.parse(source).body:
        if not (isinstance(top, ast.FunctionDef) and top.name == "_protocol"):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Yield):
                continue
            parts = node.value.elts if isinstance(node.value, ast.Tuple) else ()
            if len(parts) != 6 or any(isinstance(part, ast.Dict) for part in parts):
                found.append(node.lineno)
    return sorted(found)


def test_malformed_requests_finds_leftovers():
    source = (
        "def _protocol(cfg):\n"
        "    p = yield 'base', 0, None, None, train, (x, y)\n"
        "    p = yield 'local', 1, 0, 0, local_update, (p,), {'seed': 3}\n"
        "    yield 'dad', 1, 0, None, dad_refine, {'params': p}\n"
        "    yield request\n"
        "    yield 'evaluate', 1, None, _record, (p,)\n"
        "def _drive(gen):\n"
        "    yield gen\n"
    )
    assert malformed_requests(source) == [3, 4, 5, 6]


def test_every_stage_request_is_one_six_tuple():
    # `_drive` calls `fn(*args)`: a request has no keyword slot, so every
    # stage takes its arguments in one order that a driver can compare
    with open(os.path.join(PACKAGE, "orchestrator.py")) as fh:
        assert malformed_requests(fh.read()) == []


# The modules below the orchestrator: none of them may tell one method from another.
TRAINER_MODULES = ("nncore.py", "local_learner.py", "distillation.py", "data.py")


def method_names(source: str) -> list[tuple[str, int]]:
    """(name, line) of each string constant in `source` that names a method."""
    found = [
        (node.lineno, node.col_offset, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in METHODS
    ]
    return [(name, line) for line, _, name in sorted(found)]


def test_method_names_finds_leftovers():
    source = (
        "def local_update(cfg, method):\n"
        "    if method == 'dcil_fedmax' and cfg.beta > 0:\n"
        "        pass\n"
        "    mode = 'dcil_fedprox_v2' if cfg.mu else \"centralized\"\n"
    )
    assert method_names(source) == [("dcil_fedmax", 2), ("centralized", 4)]


@pytest.mark.parametrize("module", TRAINER_MODULES)
def test_no_trainer_module_names_a_method(module):
    # the orchestrator turns the method into the stage inputs (the shared
    # pool's size, the local penalty weights), so a trainer trains on what it
    # is given and equal work sends equal requests
    with open(os.path.join(PACKAGE, module)) as fh:
        assert method_names(fh.read()) == []


def config_passed_to_a_stage(source: str) -> list[int]:
    """Lines where a yield of the top-level `_protocol` passes `cfg` itself,
    starred or not, as an argument of the stage call."""
    found = []
    for top in ast.parse(source).body:
        if not (isinstance(top, ast.FunctionDef) and top.name == "_protocol"):
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple)):
                continue
            for part in node.value.elts:
                passed = part.elts if isinstance(part, (ast.Tuple, ast.List)) else ()
                for arg in passed:
                    arg = arg.value if isinstance(arg, ast.Starred) else arg
                    if isinstance(arg, ast.Name) and arg.id == "cfg":
                        found.append(arg.lineno)
    return found


def test_config_passed_to_a_stage_finds_leftovers():
    source = (
        "def _protocol(cfg):\n"
        "    p = yield 'base', 0, None, None, train, (cfg, x)\n"
        "    p = yield 'local', 1, 0, 0, local_update, (p, cfg.local, _head(cfg, 1))\n"
        "    yield 'evaluate', 1, None, None, _record, [\n"
        "        p, cfg]\n"
        "    yield 'dad', 1, 0, None, dad_refine, (*cfg,)\n"
        "def run(cfg):\n"
        "    yield 'base', 0, None, None, train, (cfg,)\n"
    )
    assert config_passed_to_a_stage(source) == [2, 5, 6]


def test_no_stage_request_carries_the_config():
    # a request carries only what its stage reads, so that two runs doing
    # the same work send equal requests
    with open(os.path.join(PACKAGE, "orchestrator.py")) as fh:
        assert config_passed_to_a_stage(fh.read()) == []
