"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from fault_injection import Fault, inject_faults
from rtl_oracle import Register, trace_from_records
from trial_oracle import fold_rows, naive_rotation_correlations, pearson_correlation

from repro.core.lfsr import LFSR, CircularShiftRegister, max_length_period
from repro.core.load_circuit import registers_for_load_power
from repro.analysis.overhead import area_overhead_reduction
from repro.detection.batch import BatchCPADetector
from repro.detection.cpa import rotation_correlations
from repro.detection.statistics import BoxPlotStats
from repro.pipeline import ExperimentRunner, RetryPolicy, RunOptions, SpecGrid
from repro.power.synthesis import periodic_extend, rolled_blocks
from repro.rtl.activity import ActivityRecord
from repro.rtl.clock_tree import ClockTree
from repro.rtl.signals import hamming_distance


# ---------------------------------------------------------------------------
# Sequence generators
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(width=st.integers(min_value=2, max_value=12), seed=st.integers(min_value=1, max_value=2**12 - 1))
def test_lfsr_period_divides_walk_back_to_seed(width, seed):
    """Any non-zero seed returns to itself after exactly one maximum-length period."""
    seed &= (1 << width) - 1
    if seed == 0:
        seed = 1
    states = LFSR(width=width, seed=seed).states(max_length_period(width) + 1)
    assert states[-1] == seed


@settings(max_examples=25, deadline=None)
@given(width=st.integers(min_value=2, max_value=10), seed=st.integers(min_value=1, max_value=1023))
def test_lfsr_never_reaches_zero_state(width, seed):
    seed &= (1 << width) - 1
    if seed == 0:
        seed = 1
    states = LFSR(width=width, seed=seed).states(min(300, max_length_period(width)) + 1)
    assert np.all(states != 0)


@settings(max_examples=20, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=16),
    pattern=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_circular_shift_register_preserves_bit_count(width, pattern):
    csr = CircularShiftRegister(pattern=pattern, width=width)
    states = csr.states(width + 1)
    assert np.all(np.bitwise_count(states) == bin(csr.pattern).count("1"))
    assert states[-1] == csr.pattern


# ---------------------------------------------------------------------------
# Activity and power invariants
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=32),
    old=st.integers(min_value=0, max_value=2**32 - 1),
    new=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_register_data_toggles_bounded_by_width(width, old, new):
    register = Register("r", width=width, reset_value=old)
    activity = register.step(next_value=new & ((1 << width) - 1))
    assert 0 <= activity.data_toggles <= width
    assert activity.clock_toggles == 2 * width


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2**32 - 1))
def test_hamming_distance_symmetry_and_identity(a, b):
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert hamming_distance(a, a) == 0


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=-(2**70), max_value=2**70),
    b=st.integers(min_value=-(2**70), max_value=2**70),
    width=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
def test_hamming_distance_counts_the_bits_of_the_binary_form(a, b, width):
    """``bit_count`` counts what ``bin(diff).count("1")`` counts, sign included."""
    diff = a ^ b
    if width is not None:
        diff &= (1 << width) - 1
    assert hamming_distance(a, b, width) == bin(diff).count("1")


@settings(max_examples=30, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=40,
    ),
    reps=st.integers(min_value=1, max_value=4),
)
def test_activity_trace_tile_preserves_per_cycle_values(records, reps):
    trace = trace_from_records("t", [ActivityRecord(*r) for r in records])
    tiled = trace.tile(len(records) * reps)
    for i in range(len(tiled)):
        assert tiled[i] == trace[i % len(trace)]


@settings(max_examples=200, deadline=None)
@given(
    period=st.integers(min_value=1, max_value=40),
    num_cycles=st.integers(min_value=1, max_value=300),
    offset=st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        st.sampled_from(["n", "-n", "n+1", "2n+3"]),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_periodic_extend_is_tile_then_roll(period, num_cycles, offset, seed):
    """Slice-copy extension equals tile-truncate-roll for any offset, n or beyond."""
    if isinstance(offset, str):
        offset = {"n": num_cycles, "-n": -num_cycles, "n+1": num_cycles + 1,
                  "2n+3": 2 * num_cycles + 3}[offset]
    template = np.random.default_rng(seed).normal(size=period)
    reps = -(-num_cycles // period)
    expected = np.roll(np.tile(template, reps)[:num_cycles], -offset)
    actual = periodic_extend(template, num_cycles, offset)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_rolled_blocks_equals_modular_gather(window, data):
    """The M0 block fill equals the (arange - shift) % window gather it replaced."""
    num_cycles = data.draw(st.integers(min_value=1, max_value=6 * window))
    repetitions = -(-num_cycles // window)
    shifts = np.array(
        data.draw(st.lists(st.integers(0, window - 1), min_size=repetitions, max_size=repetitions)),
        dtype=np.int64,
    )
    template = np.array(
        data.draw(st.lists(st.integers(0, 10_000), min_size=window, max_size=window)),
        dtype=np.int64,
    )
    index = np.arange(window, dtype=np.int64)[None, :] - shifts[:, None]
    index %= window
    expected = template[index.reshape(-1)[:num_cycles]]
    actual = rolled_blocks(template, shifts, num_cycles)
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(
        st.one_of(
            st.sampled_from([-1.0, 0.0, 0.25, 3.0]),  # ties
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    )
)
@example(samples=[0.5])  # n = 1
@example(samples=[2.0, 1.0, 1.0, 2.0])  # even n, ties
@example(samples=[3.0, 1.0, 2.0])  # odd n
@example(samples=[5.0] + [0.0] * 40 + [-5.0] + [0.0] * 40 + [6.0])  # unsorted outliers
def test_box_stats_equal_percentile_of_the_raw_sample(samples):
    """Sort-once box statistics equal numpy's quantiles of the raw sample, bit for bit."""
    values = np.asarray(samples, dtype=np.float64)
    box = BoxPlotStats.from_samples(samples)
    low, q1, q3, high = np.percentile(values, [2.5, 25, 75, 97.5])
    assert box.median == float(np.median(values))
    assert (box.whisker_low, box.q1, box.q3, box.whisker_high) == (
        float(low), float(q1), float(q3), float(high)
    )
    # Outliers keep the input order, not the sorted one.
    assert box.outliers == tuple(v for v in samples if v < low or v > high)


@settings(max_examples=25, deadline=None)
@given(num_sinks=st.integers(min_value=1, max_value=3000), fanout=st.integers(min_value=2, max_value=32))
def test_clock_tree_toggles_monotonic_in_active_sinks(num_sinks, fanout):
    tree = ClockTree("t", num_sinks=num_sinks, max_fanout=fanout)
    previous = 0
    for active in sorted({0, 1, num_sinks // 2, num_sinks}):
        toggles = tree.toggles_per_cycle(active)
        assert toggles >= previous
        previous = toggles
    assert tree.toggles_per_cycle(num_sinks) >= 2 * num_sinks


# ---------------------------------------------------------------------------
# Sizing / overhead arithmetic
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(load_power_mw=st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
def test_load_register_sizing_monotonic_and_consistent(load_power_mw):
    registers = registers_for_load_power(load_power_mw * 1e-3)
    assert registers >= 0
    more = registers_for_load_power(load_power_mw * 2e-3)
    assert more >= registers
    reduction = area_overhead_reduction(registers)
    assert 0.0 <= reduction < 1.0


@settings(max_examples=40, deadline=None)
@given(registers=st.integers(min_value=0, max_value=100_000))
def test_area_overhead_reduction_bounded(registers):
    reduction = area_overhead_reduction(registers)
    assert 0.0 <= reduction < 1.0
    # More load registers -> larger reduction from removing them.
    assert area_overhead_reduction(registers + 1) >= reduction


# ---------------------------------------------------------------------------
# CPA invariants
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    offset=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pearson_correlation_invariant_to_affine_transform(scale, offset, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=500)
    y = rng.normal(size=500)
    base = pearson_correlation(x, y)
    transformed = pearson_correlation(x, scale * y + offset)
    assert transformed == pytest.approx(base, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(
    width=st.integers(min_value=4, max_value=7),
    rotation=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=100),
)
def test_rotation_correlation_peak_tracks_injected_rotation(width, rotation, seed):
    rng = np.random.default_rng(seed)
    sequence = LFSR(width=width, seed=1).sequence()
    period = len(sequence)
    rotation %= period
    num_cycles = period * 30
    tiled = np.tile(sequence, 31)
    signal = tiled[rotation : rotation + num_cycles].astype(float)
    measured = signal + rng.normal(0, 0.3, num_cycles)
    correlations = rotation_correlations(sequence, measured)
    assert int(np.argmax(correlations)) == rotation
    assert np.all(np.abs(correlations) <= 1.0 + 1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rotation_correlation_fft_equals_naive(seed):
    rng = np.random.default_rng(seed)
    sequence = (rng.random(31) < 0.5).astype(float)
    if sequence.std() == 0:
        sequence[0] = 1.0 - sequence[0]
    measured = rng.normal(size=701)
    assert np.allclose(
        rotation_correlations(sequence, measured),
        naive_rotation_correlations(sequence, measured),
        atol=1e-10,
    )


@settings(max_examples=40, deadline=None)
@given(
    trials=st.integers(min_value=1, max_value=5),
    period=st.integers(min_value=3, max_value=64),
    binary=st.booleans(),
    data=st.data(),
)
def test_streamed_detection_matches_matrix_and_naive(trials, period, binary, data):
    """Rows streamed through one reused buffer into their fold detect like the matrix."""
    num_cycles = data.draw(st.integers(min_value=period, max_value=8 * period))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if binary:
        sequence = rng.integers(0, 2, size=period).astype(np.float64)
    else:
        sequence = rng.normal(size=period)
    matrix = 5.0 + rng.normal(size=(trials, num_cycles))

    def one_buffer():
        row = np.empty(num_cycles)
        for source in matrix:
            row[:] = source
            yield row

    detector = BatchCPADetector()
    stacked = detector.detect_many(sequence, matrix)
    streamed = detector.detect_many(sequence, fold_rows(one_buffer(), period))
    assert np.array_equal(streamed.correlations, stacked.correlations)
    assert np.array_equal(streamed.z_scores, stacked.z_scores)
    assert np.array_equal(streamed.detected, stacked.detected)
    naive = np.stack([naive_rotation_correlations(sequence, row) for row in matrix])
    np.testing.assert_allclose(streamed.correlations, naive, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Sweep supervision
# ---------------------------------------------------------------------------

_SWEEP_SEEDS = (1, 2, 3, 4)

#: Faults over the four fig2 cells: one per targeted cell, firing
#: ``raise`` or ``kill`` on a subset of attempts 1-3.
_fault_rules = st.lists(
    st.tuples(
        st.sampled_from([f"fig2[seed={seed}]" for seed in _SWEEP_SEEDS]),
        st.sampled_from(["raise", "kill"]),
        st.sets(st.integers(min_value=1, max_value=3), min_size=1),
    ),
    max_size=4,
    unique_by=lambda rule: rule[0],
)


@settings(max_examples=12, deadline=None)
@given(
    rules=_fault_rules,
    max_attempts=st.integers(min_value=1, max_value=4),
    max_workers=st.sampled_from([1, 2]),
)
def test_serial_and_process_backends_settle_cells_alike(rules, max_attempts, max_workers):
    """One supervision policy: retries, quarantine and pool fallback agree.

    The serial backend records an injected kill as the failure a dead
    worker leaves; the process backend loses a real worker.  Every cell must still end with
    the same error kind after the same number of attempts, and the cells
    that succeed must report the same bytes.
    """
    plan = [Fault(cell, mode, tuple(sorted(attempts))) for cell, mode, attempts in rules]
    specs = SpecGrid("fig2", RunOptions()).build(seeds=list(_SWEEP_SEEDS))
    with inject_faults(*plan):
        serial, parallel = (
            ExperimentRunner().run_many(
                specs,
                backend=backend,
                max_workers=max_workers,
                retry=RetryPolicy(max_attempts=max_attempts, backoff_s=0.0),
            )
            for backend in ("serial", "process")
        )
    assert [(cell.error_kind, cell.provenance.attempts) for cell in serial] == [
        (cell.error_kind, cell.provenance.attempts) for cell in parallel
    ]
    for one, other in zip(serial, parallel):
        if one.ok:
            assert one.report == other.report
