"""Tabular power reports.

Formats collections of :class:`ComponentPower` rows the way the paper's
Table I does: dynamic, static and total power per implementation plus the
share of the total watermark dynamic power attributable to the load
circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


def format_power(value_w: float) -> str:
    """Human-readable power value with engineering units."""
    if value_w == 0:
        return "0 W"
    magnitude = abs(value_w)
    if magnitude >= 1e-3:
        return f"{value_w * 1e3:.2f} mW"
    if magnitude >= 1e-6:
        return f"{value_w * 1e6:.3g} uW"
    if magnitude >= 1e-9:
        return f"{value_w * 1e9:.3g} nW"
    return f"{value_w * 1e12:.3g} pW"


@dataclass(frozen=True)
class PowerReportRow:
    """One row of a power report."""

    implementation: str
    dynamic_w: float
    static_w: float
    share_of_watermark_dynamic: Optional[float] = None

    @property
    def total_w(self) -> float:
        """Dynamic plus static power."""
        return self.dynamic_w + self.static_w

@dataclass
class PowerReport:
    """A titled collection of power rows with text-table rendering."""

    title: str
    rows: List[PowerReportRow] = field(default_factory=list)

    def add_row(self, row: PowerReportRow) -> None:
        """Append one row."""
        self.rows.append(row)

    def row(self, implementation: str) -> PowerReportRow:
        """Look up a row by its implementation label."""
        for row in self.rows:
            if row.implementation == implementation:
                return row
        raise KeyError(f"no row labelled {implementation!r} in report {self.title!r}")

    def to_text(self) -> str:
        """Render the report as a fixed-width text table."""
        header = (
            f"{'Implementation':<44} {'Dynamic':>12} {'Static':>12} "
            f"{'Total':>12} {'% WM dyn':>10}"
        )
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for row in self.rows:
            share = (
                f"{row.share_of_watermark_dynamic * 100:.1f}%"
                if row.share_of_watermark_dynamic is not None
                else "-"
            )
            lines.append(
                f"{row.implementation:<44} {format_power(row.dynamic_w):>12} "
                f"{format_power(row.static_w):>12} {format_power(row.total_w):>12} "
                f"{share:>10}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)
