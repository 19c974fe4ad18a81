"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at the
paper's full experimental scale (300,000 cycles per correlation, 100
repetitions for the box plots) and prints a paper-vs-measured comparison.
Run with::

    pytest benchmarks/ --benchmark-only -s

Wall-clock floors are report-only unless ``REPRO_BENCH_RELAXED=0`` (see
the ``relaxed`` fixture); the equivalence asserts always run.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

from repro.core.spec import ScenarioSpec

# The benchmarks time the library against the test suite's oracles
# (tests/rtl_oracle.py) and check it against the paper's published values
# (tests/paper_values.py), so those are importable here too.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from paper_values import PAPER_EXPECTATIONS  # noqa: E402
from record import DEFAULT_RESULTS_FILE, RESULTS_ENV, results_path  # noqa: E402


@pytest.fixture(scope="session")
def relaxed() -> bool:
    """Whether wall-clock floors are report-only (the default).

    A plain ``pytest`` collects the benchmarks as part of tier-1, and a
    speed floor measured on a small or loaded host says nothing about the
    code under test, so by default every benchmark only reports its
    timings and checks equivalence.  Set ``REPRO_BENCH_RELAXED=0`` on a
    dedicated host to enforce the floors.
    """
    return os.environ.get("REPRO_BENCH_RELAXED", "1") != "0"


@pytest.fixture(scope="session", autouse=True)
def bench_results_file(relaxed, tmp_path_factory):
    """Where the benchmarks record their timings (``benchmarks/record.py``).

    A relaxed run (the tier-1 default) with ``REPRO_BENCH_JSON`` unset
    records into pytest's temporary directory, so running the tests
    leaves the tracked ``BENCH.json`` alone.  To refresh ``BENCH.json`` on
    purpose, set ``REPRO_BENCH_JSON=BENCH.json``; an enforcing run
    (``REPRO_BENCH_RELAXED=0``) also writes it by default.
    """
    if relaxed and RESULTS_ENV not in os.environ:
        path = tmp_path_factory.mktemp("bench") / DEFAULT_RESULTS_FILE
        os.environ[RESULTS_ENV] = str(path)
        try:
            yield path
        finally:
            del os.environ[RESULTS_ENV]
    else:
        yield pathlib.Path(results_path())


@pytest.fixture(scope="session")
def report():
    """A titled report printer (output visible with ``pytest -s``)."""

    def _report(title: str, body: str) -> None:
        bar = "=" * 78
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

    return _report


@pytest.fixture(scope="session")
def paper_config() -> ScenarioSpec:
    """The full-scale configuration matching the paper's experiments.

    A default spec's ``watermark``, ``measurement`` and ``detection``.
    """
    return ScenarioSpec(kind="fig5")


@pytest.fixture(scope="session")
def expectations() -> dict:
    """Published values the reproduction is compared against."""
    return PAPER_EXPECTATIONS
