"""The seed policy: every random stream is named by (cell seed, contributor path).

``stream(seed, "m0")`` is the M0 background's generator in the cell seeded
``seed``; ``child_seed(seed, "repetition", r)`` is the seed of its Fig. 6
repetition ``r``.  Each path is its own ``SeedSequence`` spawn key, so two
contributors of one cell, or two cells at adjacent seeds, never share a
stream.  A name maps to its CRC-32, which every process agrees on; the
builtin ``hash`` of a string is salted per process and would break
serial/process and resume bit-identity.
"""

from __future__ import annotations

import zlib
from typing import Optional, Tuple, Union

import numpy as np

PathPart = Union[int, str]


def _sequence(seed: Optional[int], path: Tuple[PathPart, ...]) -> np.random.SeedSequence:
    key = tuple(zlib.crc32(part.encode()) if isinstance(part, str) else part for part in path)
    return np.random.SeedSequence(seed, spawn_key=key)


def stream(seed: Optional[int], *path: PathPart) -> np.random.Generator:
    """The generator of contributor ``path`` in the cell seeded ``seed``."""
    return np.random.default_rng(_sequence(seed, path))


def child_seed(seed: int, *path: PathPart) -> int:
    """The seed, in ``[0, 2**32)``, of the sub-cell ``path`` of cell ``seed``."""
    return int(_sequence(seed, path).generate_state(1)[0])
