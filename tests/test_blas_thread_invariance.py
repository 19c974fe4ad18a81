"""A result's bits do not depend on how many threads the host's BLAS runs.

OpenBLAS splits a long ``ddot`` across its threads, so ``x @ x`` over
30,000 or more elements rounds differently with one and two threads.  The
library's long sums of squares therefore go through
:func:`repro.detection.batch.sum_of_squares`, which sums in one fixed
order.  This test runs one fold-and-detect in two fresh processes, with
``OPENBLAS_NUM_THREADS=1`` and ``=2``, and compares their bytes.

OpenBLAS caps its thread count at the CPUs the process may use, so on a
one-CPU host both runs use one thread and the comparison cannot fail; the
test is skipped there.  numpy's SIMD dispatch, which can still move last
bits between CPU generations, is out of its scope.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Hashes a raw-matrix fold-and-detect (the per-row sum of squares) and a
#: quick Fig. 5 panel (the acquisition's sums of squares), 40k cycles each.
SCRIPT = """
import hashlib

import numpy as np

from repro.detection.batch import BatchCPADetector
from repro.pipeline import DEFAULT_REGISTRY, RunOptions, run_scenario

digest = hashlib.sha256()
rng = np.random.default_rng(5)
sequence = rng.integers(0, 2, 1023).astype(float)
traces = 5.0 + rng.normal(size=(2, 40_000))
batch = BatchCPADetector().detect_many(sequence, traces)
digest.update(batch.correlations.tobytes())
digest.update(batch.z_scores.tobytes())
panel = run_scenario(DEFAULT_REGISTRY.build("fig5/chip2-inactive", RunOptions(quick=True)))
digest.update(repr(sorted(panel.scalars.items())).encode())
for key in sorted(panel.arrays):
    digest.update(panel.arrays[key].tobytes())
print(digest.hexdigest())
"""


def _digest(threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS runs one thread on a one-CPU host, whatever it is asked for",
)
def test_one_and_two_blas_threads_give_the_same_bytes():
    assert _digest(1) == _digest(2)
