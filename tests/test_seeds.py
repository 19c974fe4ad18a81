"""The seed policy: one stream per (cell seed, contributor name)."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import numpy as np

from repro.core.seeds import child_seed, stream
from repro.pipeline import DEFAULT_REGISTRY, RunOptions, run_scenario

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_adjacent_cells_share_no_repetition():
    # A grid over seeds s and s + 1 must measure two campaigns, not one
    # campaign twice: no repetition of one cell may reappear in the other.
    spec = DEFAULT_REGISTRY.build("fig6/chip1", RunOptions(quick=True))
    first, second = (
        run_scenario(spec.with_seed(seed)).arrays["correlations"] for seed in (1, 2)
    )
    assert len(first) == len(second) > 1
    for row in first:
        for other in second:
            assert not np.allclose(row, other, rtol=0.0, atol=1e-3)


def test_streams_do_not_depend_on_the_hash_seed():
    # A name maps to a fixed integer, never to the per-process salted
    # hash(): serial, process and resumed runs must draw the same values.
    code = (
        "from repro.core.seeds import child_seed, stream\n"
        "print(stream(7, 'm0').integers(0, 2**32, 4).tolist(),"
        " child_seed(7, 'repetition', 3), child_seed(7, 'chip2', 'inactive'))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    local = io.StringIO()
    with contextlib.redirect_stdout(local):
        exec(code, {})
    assert outputs == {local.getvalue()}


def test_contributors_of_one_seed_draw_distinct_streams():
    draws = {
        name: tuple(stream(5, name).integers(0, 2**63, 8))
        for name in ("m0", "peripherals", "a5", "noise")
    }
    assert len(set(draws.values())) == len(draws)
    assert draws["m0"] == tuple(stream(5, "m0").integers(0, 2**63, 8))


def test_child_seeds_fit_a_spec_seed():
    seeds = [child_seed(seed, "repetition", r) for seed in (0, 1, 10**9) for r in range(50)]
    assert all(isinstance(seed, int) and 0 <= seed < 2**32 for seed in seeds)
    assert len(set(seeds)) == len(seeds)


def test_registry_panel_is_the_composite_panel():
    options = RunOptions(quick=True)
    composite = run_scenario(DEFAULT_REGISTRY.build("fig5", options))
    panel = run_scenario(DEFAULT_REGISTRY.build("fig5/chip1-inactive", options))
    assert np.array_equal(
        panel.arrays["correlations"], composite.arrays["chip1/inactive/correlations"]
    )
