"""Closed-form watermark activity equals cycle stepping, exactly.

Every producer's array method is compared with the stepping oracle in
``rtl_oracle`` over hypothesis-generated configurations: the LFSR and both
WGC flavours, the clock-modulated bank, the reused IP block and the
baseline load circuit (including trailing partial words of odd width),
under arbitrary WMARK vectors and under the watermark's own period.  The
clock-tree buffer count is compared with the oracle's level-by-level tree.
The activity arrays are integers, so equality is exact.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import rtl_oracle
from repro.core.architectures import BaselineWatermark, ClockModulationWatermark
from repro.core.clock_modulation import ClockModulatedBank, ClockModulatedIPBlock
from repro.core.config import WatermarkConfig
from repro.core.lfsr import LFSR, max_length_period
from repro.core.load_circuit import LoadCircuit
from repro.core.wgc import WatermarkGenerationCircuit
from repro.rtl.components import clock_tree_buffers

FIELDS = ("clock_toggles", "data_toggles", "comb_toggles")

wmark_vectors = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=80)


def _assert_equal(closed_form, stepped):
    for field in FIELDS:
        actual = getattr(closed_form, field)
        expected = getattr(stepped, field)
        assert actual.dtype == np.int64, field
        assert np.array_equal(actual, expected), field


def _stepped_producer(producer, wmark):
    twin = rtl_oracle.stepped_producer(producer)
    return rtl_oracle.trace_from_records(
        producer.name, [twin.step(int(bit)) for bit in wmark]
    )


def _seed(width, seed):
    return (seed & ((1 << width) - 1)) or 1


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=1, max_value=2**16 - 1),
    length=st.integers(min_value=1, max_value=300),
)
def test_lfsr_states_and_activity_match_stepping(width, seed, length):
    lfsr = LFSR(width=width, seed=_seed(width, seed))
    twin = rtl_oracle.stepped_generator(lfsr)
    states, records = [], []
    for _ in range(length):
        states.append(twin.state)
        records.append(twin.step()[1])
    assert lfsr.states(length).tolist() == states
    _assert_equal(lfsr.activity(length), rtl_oracle.trace_from_records("lfsr", records))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=1, max_value=15), length=st.integers(min_value=1, max_value=64))
def test_lfsr_with_non_maximum_taps_matches_stepping(seed, length):
    lfsr = LFSR(width=4, seed=seed, taps=(4, 2))
    twin = rtl_oracle.stepped_generator(lfsr)
    records = [twin.step()[1] for _ in range(length)]
    _assert_equal(lfsr.activity(length), rtl_oracle.trace_from_records("lfsr", records))


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=1, max_value=1023),
    test_chip=st.booleans(),
    length=st.integers(min_value=1, max_value=200),
)
def test_wgc_activity_matches_stepping(width, seed, test_chip, length):
    build = WatermarkGenerationCircuit.test_chip if test_chip else WatermarkGenerationCircuit.minimal
    kwargs = {"active_width": width} if test_chip else {"width": width}
    wgc = build(seed=_seed(width, seed), **kwargs)
    twin = rtl_oracle.stepped_wgc(wgc)
    records = [twin.step()[1] for _ in range(length)]
    _assert_equal(wgc.activity(length), rtl_oracle.trace_from_records("wgc", records))


@settings(max_examples=40, deadline=None)
@given(
    num_words=st.integers(min_value=1, max_value=40),
    word_width=st.integers(min_value=1, max_value=12),
    switching_fraction=st.floats(min_value=0.0, max_value=1.0),
    wmark=wmark_vectors,
)
def test_clock_modulated_bank_matches_stepping(num_words, word_width, switching_fraction, wmark):
    # Up to 40 words puts the ICG-level tree at one and two levels.
    switching = int(switching_fraction * num_words * word_width)
    bank = ClockModulatedBank(
        num_words=num_words, word_width=word_width, switching_registers=switching
    )
    _assert_equal(bank.activity(np.array(wmark)), _stepped_producer(bank, wmark))


@settings(max_examples=40, deadline=None)
@given(
    registers=st.integers(min_value=1, max_value=5000),
    activity_factor=st.floats(min_value=0.0, max_value=1.0),
    gates=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    wmark=wmark_vectors,
)
def test_ip_block_matches_stepping(registers, activity_factor, gates, wmark):
    block = ClockModulatedIPBlock(
        modulated_registers=registers,
        data_activity_factor=activity_factor,
        num_clock_gates=gates,
    )
    _assert_equal(block.activity(np.array(wmark)), _stepped_producer(block, wmark))


@settings(max_examples=60, deadline=None)
@given(num_sinks=st.integers(min_value=1, max_value=6_000))
@example(num_sinks=1)
@example(num_sinks=16)
@example(num_sinks=17)
@example(num_sinks=4_097)
def test_clock_tree_buffers_match_the_level_by_level_tree(num_sinks):
    tree = rtl_oracle.ClockTree(num_sinks)
    assert clock_tree_buffers(num_sinks) == tree.buffer_count
    assert len(tree.levels[-1]) == 1
    for loads, level in zip([num_sinks] + [len(level) for level in tree.levels], tree.levels):
        assert sum(level) == loads
        assert max(level) <= 16


@settings(max_examples=40, deadline=None)
@given(
    registers=st.integers(min_value=1, max_value=120),
    word_width=st.integers(min_value=1, max_value=17),
    wmark=wmark_vectors,
)
def test_load_circuit_matches_stepping(registers, word_width, wmark):
    # Word widths up to 17 over up to 120 registers cover odd widths and
    # trailing partial words.
    load = LoadCircuit(num_registers=registers, word_width=word_width)
    _assert_equal(load.activity(np.array(wmark)), _stepped_producer(load, wmark))


def _architectures(width, seed, test_chip):
    config = WatermarkConfig(
        lfsr_width=width, lfsr_seed=seed, num_words=3, word_width=5, switching_registers=7
    )
    wgc = (
        WatermarkGenerationCircuit.test_chip(active_width=width, seed=seed)
        if test_chip
        else WatermarkGenerationCircuit.minimal(width=width, seed=seed)
    )
    return [
        ClockModulationWatermark.from_config(config),
        ClockModulationWatermark(
            wgc=wgc,
            modulated_block=ClockModulatedBank(num_words=3, word_width=5, switching_registers=7),
        ),
        BaselineWatermark(wgc=wgc, load=LoadCircuit(num_registers=21)),
        BaselineWatermark(wgc=wgc, load=LoadCircuit(num_registers=13, word_width=3)),
        ClockModulationWatermark(
            wgc=wgc,
            modulated_block=ClockModulatedIPBlock(modulated_registers=300, data_activity_factor=0.3),
        ),
    ]


@settings(max_examples=15, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=1, max_value=255),
    test_chip=st.booleans(),
)
def test_periodic_activity_matches_stepping_for_every_load_type(width, seed, test_chip):
    for architecture in _architectures(width, _seed(width, seed), test_chip):
        closed_form = architecture.periodic_activity()
        stepped = rtl_oracle.stepped_activity(architecture)
        assert len(closed_form["load"]) == max_length_period(width)
        for key in ("wgc", "load"):
            assert closed_form[key].name == stepped[key].name
            _assert_equal(closed_form[key], stepped[key])


def test_paper_configuration_matches_stepping():
    # Period 4,095, test-chip WGC, 1,024-register bank: the configuration
    # every paper scenario builds.
    architecture = ClockModulationWatermark.from_config(WatermarkConfig())
    closed_form = architecture.periodic_activity()
    stepped = rtl_oracle.stepped_activity(architecture)
    for key in ("wgc", "load"):
        _assert_equal(closed_form[key], stepped[key])
