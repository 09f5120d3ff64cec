import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # The self-test runs every workload's oracle on tiny inputs and wraps
    # every pmtool function perfbench/tracing.py traces, so deleting or
    # rebinding one of them fails here, not only in a benchmark run.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout.splitlines()
