"""The benchmark's own quick test, run as part of the suite.

``perfbench/run.py --quick`` runs every workload at a small size, traced and
untraced, and checks every output against answers computed apart from qdpb.
The traced pass wraps qdpb's layer boundaries by name, so a change that
renames or rebinds one of them fails here and not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_quick_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 4, proc.stdout
