"""The benchmark's hooks still name functions that exist.

perfbench/spans.py wraps netspread functions by name and
perfbench/workloads.FIRST_WORK marks the end of set-up by name, so a
rename in the package would break the benchmark without failing any other
test.  Installing every hook in a fresh interpreter catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from spans import Tracer
from workloads import FIRST_WORK
tracer = Tracer(seed=0, rescore=False)
tracer.install()
for target in FIRST_WORK.values():
    tracer.mark_first_work(target)
"""


def test_tracer_and_first_work_hooks_install():
    code = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
