"""The benchmark's output checks, run briefly on every workload.

perfbench/run.py checks what each workload computes (training repetitions
bit-identical, validation NLL near its reference, eval NLL against an
independent estimator, the oracle verdicts) and prints "correct": true on
its last line only if all of them hold. This runs each workload for two
seconds, untraced.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists(RUN), reason="no perfbench checkout")
@pytest.mark.parametrize("workload", ["train-linear", "train-categorical",
                                      "eval-nll", "oracle"])
def test_workload_output_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seconds", "2",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = [line for line in proc.stdout.splitlines()
                if "check failed" in line or "error_rate" in line]
    assert last["correct"] is True, (problems, proc.stderr[-4000:])
