"""The watermark sequence generator: a maximum-length Galois LFSR.

The watermark generation circuit in the paper's test chips contains two
32-bit sequence generators; the experiments use a single one configured as
a 12-bit maximum-length LFSR (period 4,095), and the other stays
clock-gated off.

The LFSR is computed in closed form: its output bits, its register states
and its own switching activity (clock pins, data flips and the XOR
feedback gates) are array expressions over the requested number of
cycles.  The power estimator turns that activity into the WGC's share of
the watermark dynamic power (the "Total Watermark Dynamic Power" column of
Table I).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE

#: Feedback taps producing maximum-length sequences for Fibonacci LFSRs.
#: Taps are 1-indexed from the output stage, as conventionally tabulated.
_MAX_LENGTH_TAPS: Dict[int, Tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


def max_length_taps(width: int) -> Tuple[int, ...]:
    """Feedback taps that give a maximum-length sequence for ``width`` bits."""
    if width not in _MAX_LENGTH_TAPS:
        raise ValueError(
            f"no maximum-length tap set tabulated for width {width}; "
            f"supported widths: {sorted(_MAX_LENGTH_TAPS)}"
        )
    return _MAX_LENGTH_TAPS[width]


# -- closed-form (vectorised) sequence generation ---------------------------
#
# Watermark sequences are produced without one Python iteration per bit.
# The generator below produces arrays that are bit-identical to stepping
# the register; the cycle-stepping oracle lives in the test suite, which
# pins the equivalence for every tabulated width.

#: Cache of generated output sequences keyed by generator configuration.
_SEQUENCE_CACHE: Dict[Tuple, np.ndarray] = {}

#: Longest sequence kept in the cache (int8 entries, so 4 MiB per entry cap).
_SEQUENCE_CACHE_MAX_LENGTH = 1 << 22


def clear_sequence_cache() -> None:
    """Drop all cached closed-form sequences (used by tests)."""
    _SEQUENCE_CACHE.clear()


def _galois_feedback_mask(width: int, taps: Tuple[int, ...]) -> int:
    """Feedback mask of the Galois register (see :class:`LFSR`)."""
    mask = 1 << (width - 1)
    for tap in taps:
        if tap != width:
            mask |= 1 << (tap - 1)
    return mask


def galois_sequence_bits(
    width: int, seed: int, taps: Tuple[int, ...], length: int
) -> np.ndarray:
    """Closed-form Galois LFSR output, bit-identical to per-bit stepping.

    The output stream of the right-shifting Galois register implemented by
    :class:`LFSR` satisfies the GF(2) linear recurrence

    ``s[n] = XOR over t in taps of s[n - t]``

    (the recurrence of the reciprocal feedback polynomial).  Squaring the
    polynomial doubles every lag while keeping the term count, so after
    bootstrapping ``2 * width`` bits with the plain state transition the
    rest of the array is filled with O(len(taps) * width * log(length))
    vectorised block XORs instead of one Python iteration per bit.
    """
    if length <= 0:
        raise ValueError("sequence length must be positive")
    mask = (1 << width) - 1
    seed &= mask
    if seed == 0:
        raise ValueError("LFSR seed must be non-zero")
    feedback = _galois_feedback_mask(width, taps)
    bits = np.empty(length, dtype=np.int8)
    # Bootstrap enough bits for the doubled recurrences to take over.
    state = seed
    boot = min(length, 2 * width)
    for i in range(boot):
        bits[i] = state & 1
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= feedback
    filled = boot
    lags = sorted(set(taps))
    min_lag = lags[0]
    while filled < length:
        # Largest squaring level whose longest lag (scale * width) is known.
        scale = 1
        while 2 * scale * width <= filled:
            scale *= 2
        block = min(scale * min_lag, length - filled)
        start = filled - scale * lags[0]
        acc = bits[start : start + block].copy()
        for tap in lags[1:]:
            start = filled - scale * tap
            np.bitwise_xor(acc, bits[start : start + block], out=acc)
        bits[filled : filled + block] = acc
        filled += block
    return bits


def _cached_sequence_bits(key: Tuple, length: int, generate) -> np.ndarray:
    """Serve ``length`` bits from the cache, generating/extending as needed.

    The cache stores the longest sequence generated so far per
    configuration; shorter requests are prefix slices.  No periodicity is
    assumed (non-maximum-length tap sets may have a shorter true period
    than the nominal one), so extensions regenerate from the recurrence.
    """
    cached = _SEQUENCE_CACHE.get(key)
    if cached is None or len(cached) < length:
        cached = generate(length)
        if length <= _SEQUENCE_CACHE_MAX_LENGTH:
            _SEQUENCE_CACHE[key] = cached
    return cached[:length].copy()


def max_length_period(width: int) -> int:
    """Period of a maximum-length sequence of the given register width."""
    if width < 2:
        raise ValueError("LFSR width must be at least 2")
    return (1 << width) - 1


class LFSR:
    """Galois linear feedback shift register.

    Each clock edge shifts the register right by one stage; when the bit
    shifted out (the output) is 1 the feedback mask is XORed in.  The
    feedback taps are the exponents of a primitive polynomial
    ``x^n + ... + 1``; with a primitive polynomial the register cycles
    through all ``2^n - 1`` non-zero states, so the output is a
    maximum-length sequence of period ``2^n - 1``.

    The register is described by its configuration alone: the output bits,
    the register contents and the switching activity from the seed state on
    are all computed as arrays, never by stepping the register.

    Parameters
    ----------
    width:
        Number of stages.
    seed:
        Initial state; must be non-zero (the all-zero state is the lock-up
        state of an XOR-feedback LFSR).
    taps:
        1-indexed taps of the feedback polynomial (excluding the constant
        term).  Defaults to a tabulated maximum-length set.
    """

    def __init__(
        self,
        width: int = 12,
        seed: int = 1,
        taps: Optional[Tuple[int, ...]] = None,
        name: str = "lfsr",
    ) -> None:
        if width < 2:
            raise ValueError("LFSR width must be at least 2")
        self.name = name
        self.width = width
        mask = (1 << width) - 1
        seed &= mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.seed = seed
        self.taps = tuple(taps) if taps is not None else max_length_taps(width)
        for tap in self.taps:
            if not 1 <= tap <= width:
                raise ValueError(f"tap {tap} outside valid range [1, {width}]")
        if width not in self.taps:
            raise ValueError(
                f"the tap set must include the register width {width} "
                f"(the x^{width} term of the feedback polynomial)"
            )
        # Galois feedback mask: the x^width term corresponds to the bit that
        # is shifted out, so it is excluded; the constant term (x^0) injects
        # into the most significant stage.
        self._feedback_mask = _galois_feedback_mask(width, self.taps)

    @property
    def period(self) -> int:
        """Length of the generated periodic sequence."""
        return max_length_period(self.width)

    @property
    def register_count(self) -> int:
        """Number of flip-flops in the generator."""
        return self.width

    def sequence(self, length: Optional[int] = None) -> np.ndarray:
        """Generate ``length`` output bits (default: one full period).

        Served by the closed-form vectorised generator, cached per
        generator configuration; callers receive their own copy.
        """
        if length is None:
            length = self.period
        if length <= 0:
            raise ValueError("sequence length must be positive")
        key = ("lfsr", self.width, self.seed, tuple(sorted(set(self.taps))))
        return _cached_sequence_bits(
            key,
            length,
            lambda n: galois_sequence_bits(self.width, self.seed, self.taps, n),
        )

    def states(self, length: int) -> np.ndarray:
        """Register contents before each of the first ``length`` clock edges.

        ``states(n)[0]`` is the seed state; the output bit of every state
        is its least significant bit, so ``states(n) & 1 == sequence(n)``.
        Stage ``i`` of state ``n`` is stage ``i - 1`` of state ``n + 1``
        with the feedback undone: ``s[n][i] = s[n + 1][i - 1] ^ f[i - 1] o[n]``
        where ``o[n] = s[n][0]`` is the output and ``f`` the feedback mask.
        Stage 0 is the output sequence itself, so ``width - 1`` shifted
        XORs over the first ``length + width - 1`` output bits give every
        state -- one vectorised pass per stage, none per cycle.
        """
        if length <= 0:
            raise ValueError("state count must be positive")
        output = self.sequence(length + self.width - 1).astype(np.int64)
        stage = output
        states = output[:length].copy()
        for index in range(1, self.width):
            feedback = (self._feedback_mask >> (index - 1)) & 1
            stage = stage[1:] ^ (feedback * output[: len(stage) - 1])
            states |= stage[:length] << index
        return states

    def activity(self, length: int) -> ActivityTrace:
        """Switching activity of ``length`` clocked cycles from the seed.

        Every cycle clocks all ``width`` stages (two clock-pin edges each)
        and flips the bits that differ between consecutive states; the
        feedback XORs switch on the cycles that shift out a 1.
        """
        if length <= 0:
            raise ValueError("activity length must be positive")
        states = self.states(length + 1)
        return ActivityTrace(
            name=self.name,
            clock_toggles=np.full(length, CLOCK_EDGES_PER_CYCLE * self.width, dtype=np.int64),
            data_toggles=np.bitwise_count(states[:-1] ^ states[1:]).astype(np.int64),
            comb_toggles=len(self.taps) * (states[:-1] & 1),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LFSR(width={self.width}, taps={self.taps}, seed={self.seed:#x})"
