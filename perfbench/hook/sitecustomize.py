"""Install the span tracer in every interpreter that starts with PERFBENCH_SPANS_DIR set.

The benchmark puts this directory first on PYTHONPATH of a traced ``dcil
compare`` child, so Python imports this module at start-up.  The CLI process
and every worker it starts (spawned, forked or from a fork server) then
append their spans to ``$PERFBENCH_SPANS_DIR/spans-<pid>.jsonl``.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPANS_DIR"):
    _here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, _here)
    from tracer import Tracer

    sys.path.remove(_here)

    Tracer(spans_dir=os.environ["PERFBENCH_SPANS_DIR"]).install()
