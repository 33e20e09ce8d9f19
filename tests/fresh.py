"""Run code in a fresh interpreter that imports `dcil` from this checkout.

Checks of what happens when a process starts (which threads OpenBLAS opens,
which modules a run loads) cannot run in the test process, which loaded
numpy and much else long ago.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(code: str, env: dict[str, str | None] | None = None) -> str:
    """stdout of `code` in a new interpreter with `src` first on its path.

    `env` sets variables over this process's environment; a None value unsets one.
    """
    child = dict(os.environ)
    for name, value in (env or {}).items():
        child.pop(name, None)
        if value is not None:
            child[name] = value
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], env=child, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout
