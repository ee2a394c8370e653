"""The benchmark harness's self-test passes against the current sources.

``perfbench/`` wraps stampseg functions by name, so a removed or renamed
function fails here rather than on the next benchmark run. The self-test
writes only under the gitignored ``perfbench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest passed" in result.stdout
