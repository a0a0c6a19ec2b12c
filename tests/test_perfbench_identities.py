"""The benchmark harness's completeness identities, from a traced run.

``perfbench/run.py --trace 1`` counts every traced call and checks each
workload's identities between those counts (for example one Hessian-vector
and one Jacobian-adjoint product per unrolled step).  A change that breaks
one makes the run exit with an error, so the suite runs each workload once,
with the shortest budget, in a subprocess: about 4-5 s per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["sweep-1d", "unrolled-reverse-1d",
                                      "ttsa-deblur-2d"])
def test_traced_run_holds_its_identities(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "completeness identities hold" in lines
    assert json.loads(lines[-1])["correct"] is True
