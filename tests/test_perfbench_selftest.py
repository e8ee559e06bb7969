"""The benchmark self-test, run as part of the test suite.

Its replay rebuilds every compile the benchmark jobs make (``compile_spec``,
``compile_nonperiodic`` and ``compile_frqi``) from the loader, fan-out and
inverse-QFT builders, and checks the result gate for gate.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
