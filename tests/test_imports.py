"""Every module of the package uses each name it imports, and every private
top-level function or class is read somewhere in the package.

A deleted feature tends to leave its import behind (a class name in the
module that built it, `dataclass` in a module that no longer declares one),
or a private helper that only the tests still call; these checks fail on
any such leftover.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dcil")
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


def unread_private_defs(sources: list[str]) -> list[str]:
    """Private top-level functions and classes that no source reads."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):  # `data_mod._helper`
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
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


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []
