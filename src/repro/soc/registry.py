"""Canonical chip registry.

The paper's two test chips used to be resolved by stringly alias matching
scattered through ``experiments/common.py``; this registry declares each
chip once -- canonical name, builder, aliases, description -- and serves
both the pipeline and the CLI.  Unknown names raise a ``ValueError``
listing every valid spelling.

Workload programs are registered here too, so a :class:`ScenarioSpec`'s
``workload`` field resolves through the same mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.soc.assembler import Program
from repro.soc.workloads import (
    checksum_program,
    dhrystone_like_program,
    idle_loop_program,
    memcopy_program,
)


@dataclass(frozen=True)
class ChipEntry:
    """One registered chip configuration."""

    canonical_name: str
    builder: Callable[..., "object"]
    aliases: Tuple[str, ...]
    description: str

    def matches(self, name: str) -> bool:
        """Whether ``name`` is this chip's canonical name or an alias."""
        return name == self.canonical_name or name in self.aliases


def _build_chip_one(**kwargs):
    from repro.soc.chip import build_chip_one

    return build_chip_one(**kwargs)


def _build_chip_two(**kwargs):
    from repro.soc.chip import build_chip_two

    return build_chip_two(**kwargs)


_CHIPS: Dict[str, ChipEntry] = {}


def register_chip(entry: ChipEntry) -> None:
    """Register a chip; canonical names and aliases must be unique."""
    taken = set()
    for existing in _CHIPS.values():
        taken.add(existing.canonical_name)
        taken.update(existing.aliases)
    clashes = ({entry.canonical_name} | set(entry.aliases)) & taken
    if entry.canonical_name in _CHIPS:
        clashes.add(entry.canonical_name)
    if clashes:
        raise ValueError(f"chip names already registered: {sorted(clashes)}")
    _CHIPS[entry.canonical_name] = entry


register_chip(
    ChipEntry(
        canonical_name="chip1",
        builder=_build_chip_one,
        aliases=("chipI", "chip_one", "1", "I"),
        description="Cortex-M0-class SoC with peripherals, watermark as a macro",
    )
)
register_chip(
    ChipEntry(
        canonical_name="chip2",
        builder=_build_chip_two,
        aliases=("chipII", "chip_two", "2", "II"),
        description="chip I plus the clocked-but-idle dual-core A5-class subsystem",
    )
)


def chip_entry(name: str) -> ChipEntry:
    """Resolve a chip name or alias to its registry entry."""
    for entry in _CHIPS.values():
        if entry.matches(name):
            return entry
    valid = ", ".join(
        f"{entry.canonical_name!r} (aliases: {', '.join(map(repr, entry.aliases))})"
        for entry in sorted(_CHIPS.values(), key=lambda e: e.canonical_name)
    )
    raise ValueError(f"unknown chip name {name!r}; expected one of {valid}")


def canonical_chip_name(name: str) -> str:
    """Canonical name of a chip given any registered spelling."""
    return chip_entry(name).canonical_name


def build_registered_chip(name: str, **kwargs):
    """Build a chip through the registry (accepts any registered spelling)."""
    return chip_entry(name).builder(**kwargs)


#: Workload registry: spec ``workload`` name -> program builder.
_WORKLOADS: Dict[str, Callable[[], Program]] = {
    "dhrystone": dhrystone_like_program,
    "memcopy": memcopy_program,
    "idle": idle_loop_program,
    "checksum": checksum_program,
}


def available_workloads() -> Tuple[str, ...]:
    """Names of every registered workload program."""
    return tuple(sorted(_WORKLOADS))


def workload_program(name: str) -> Optional[Program]:
    """Build the named workload program.

    Returns ``None`` for the default workload so chip builders keep their
    own default (``dhrystone_like_program``) without re-assembling it.
    """
    if name == "dhrystone":
        return None
    try:
        builder = _WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(_WORKLOADS)}"
        ) from None
    return builder()
