"""The benchmark's own smoke check, run as part of the test suite.

``perfbench/smoke.py`` imports the library names the benchmark uses, runs
every workload at tiny sizes and compares each task's digest with
``perfbench/reference.json``; a rename or a changed output fails it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
