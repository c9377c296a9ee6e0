"""The benchmark's traced pipeline still runs on the package.

bench/tracing.py calls the kernel's public functions one by one and hooks a
few of its code objects by name, so a refactor under src/ can break it while
every other test passes.  One traced cycle of a workload at seed 1 takes
about a second.
"""

import json
import subprocess
import sys

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["semidecide", "enclose_sweep"])
def test_traced_cycle_is_correct_and_matches_the_cli(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert info["info"]["trace_mismatches"] == []
