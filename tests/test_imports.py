"""Every module of the package uses each name it imports, every private
top-level function or class is read somewhere in the package, every
public top-level function, class or constant is read by the package or by
the benchmark, no module passes, takes or sets a `check` flag (`nncore.fit`
traps divergence at every step in one pass, so nothing selects a scan), only
`nncore` builds a `Workspace`, and the step arithmetic of `nncore` reaches
NumPy through its cheapest entry points.

A deleted feature tends to leave its import behind (a class name in the
module that built it, `dataclass` in a module that no longer declares one),
a private helper that only the tests still call, or a public name (an
exception alias, a constant) that only the tests still read; these checks
fail on any such leftover.
"""

import ast
import os
import tomllib

import pytest

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
