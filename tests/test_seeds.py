"""The seed policy: one stream per (cell seed, contributor name)."""

import ast
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

#: The one module that may build generators; everywhere else ``np.random``
#: may only name these types.
SEEDS_MODULE = "core/seeds.py"
RANDOM_TYPES = {"Generator", "SeedSequence"}


def _is_np_random(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def seed_policy_violations(source, module_key):
    """Lines of ``source`` that draw randomness outside ``core/seeds.py``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if alias.name.split(".")[0] == "random"
                or (alias.name == "numpy.random" and module_key != SEEDS_MODULE)
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found.append((node.lineno, "from random import"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            if module_key != SEEDS_MODULE:
                found.append((node.lineno, "from numpy.random import"))
    if module_key == SEEDS_MODULE:
        return found
    typed = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in RANDOM_TYPES
        and _is_np_random(node.value)
    }
    found += [
        (node.lineno, "np.random beyond the Generator/SeedSequence types")
        for node in ast.walk(tree)
        if _is_np_random(node) and id(node) not in typed
    ]
    return sorted(found)


def test_every_draw_goes_through_core_seeds():
    package = SRC / "repro"
    checked, found = 0, {}
    for path in sorted(package.rglob("*.py")):
        key = path.relative_to(package).as_posix()
        checked += 1
        violations = seed_policy_violations(path.read_text(), key)
        if violations:
            found[key] = violations
    assert checked > 50
    assert found == {}


def test_a_second_generator_site_breaks_the_policy():
    # The same draw passes in core/seeds.py and fails anywhere else.
    source = (
        "import numpy as np\n"
        "\n"
        "def noise(n, rng: np.random.Generator):\n"
        "    return np.random.default_rng(0).normal(size=n)\n"
    )
    assert seed_policy_violations(source, SEEDS_MODULE) == []
    assert seed_policy_violations(source, "measurement/noise.py") == [
        (4, "np.random beyond the Generator/SeedSequence types")
    ]


def test_global_numpy_randomness_breaks_the_policy():
    source = "import numpy as np\nnp.random.seed(0)\nx = np.random.normal(0.0, 1.0, 10)\n"
    assert seed_policy_violations(source, "power/noise.py") == [
        (2, "np.random beyond the Generator/SeedSequence types"),
        (3, "np.random beyond the Generator/SeedSequence types"),
    ]


def test_stdlib_random_breaks_the_policy():
    # Not even core/seeds.py may reach for the stdlib's global state.
    source = "import random\nvalue = random.random()\n"
    for key in ("x.py", SEEDS_MODULE):
        assert seed_policy_violations(source, key) == [(1, "import random")]


def test_from_imports_of_global_state_break_the_policy():
    assert seed_policy_violations("from random import shuffle\n", "x.py") == [
        (1, "from random import")
    ]
    assert seed_policy_violations("from numpy.random import normal\n", "x.py") == [
        (1, "from numpy.random import")
    ]
    assert seed_policy_violations(
        "from numpy.random import default_rng\nimport random\n", "x.py"
    ) == [(1, "from numpy.random import"), (2, "import random")]


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
