"""Reporting helpers shared by examples and benchmark harnesses.

Everything the benches print goes through these, so tables come out in a
single consistent format (and the format itself is testable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def human_bytes(nbytes: float) -> str:
    """1536 -> '1.5 KB' (decimal units, as the paper reports)."""
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(nbytes) < 1000 or unit == "TB":
            if unit == "B":
                return f"{int(nbytes)} {unit}"
            return f"{nbytes:.1f} {unit}"
        nbytes /= 1000.0
    raise AssertionError("unreachable")


@dataclass
class Table:
    """A fixed-column text table, printed the same way everywhere."""

    headers: list[str]
    rows: list[list[str]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.rows is None:
            self.rows = []

    def add(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}")
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self, title: str | None = None) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for idx, cell in enumerate(row):
                widths[idx] = max(widths[idx], len(cell))

        def fmt(cells: Iterable[str]) -> str:
            return "  ".join(cell.rjust(width)
                             for cell, width in zip(cells, widths))

        lines = []
        if title:
            lines.append(title)
        lines.append(fmt(self.headers))
        lines.append(fmt("-" * width for width in widths))
        lines.extend(fmt(row) for row in self.rows)
        return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 100:
            return f"{cell:.0f}"
        if cell >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)
