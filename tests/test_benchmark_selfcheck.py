"""The benchmark harness passes its own self-check.

perfbench/selfcheck.py checks the harness against BENCHMARK.json on
hand-made spans and probes; it writes no files and takes well under a
second.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 problem(s)"
