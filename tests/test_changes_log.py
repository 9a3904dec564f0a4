"""CHANGES.md entries stay short.

A ``PR n:`` entry is its head line plus the indented lines under it.
From PR 47 on an entry runs to at most 10 lines, and from PR 50 on to
at most 8; long lists (deleted test ids, raw runs) belong in a
``benchmarks/results/`` file it names.
"""

from __future__ import annotations

import pathlib
import re

CHANGES = pathlib.Path(__file__).resolve().parents[1] / "CHANGES.md"
FIRST_CAPPED = 47
MAX_LINES = 10
FIRST_TIGHT = 50
TIGHT_LINES = 8

_HEAD = re.compile(r"PR (\d+):")


def entry_lengths(text: str) -> list[tuple[int, int]]:
    """``(n, lines)`` of every ``PR n:`` entry, in file order."""
    entries: list[list[int]] = []
    current = None
    for line in text.splitlines():
        head = _HEAD.match(line)
        if head:
            current = [int(head[1]), 1]
            entries.append(current)
        elif current is not None and line[:1].isspace():
            current[1] += 1
        else:  # a FOUND:/MENDED: line or a blank one ends the entry
            current = None
    return [(n, lines) for n, lines in entries]


def test_entries_from_pr_47_on_fit_in_10_lines():
    long = [f"PR {n}: {lines} lines"
            for n, lines in entry_lengths(CHANGES.read_text())
            if n >= FIRST_CAPPED and lines > MAX_LINES]
    assert not long, f"CHANGES.md entries over {MAX_LINES} lines: {long}"


def test_entries_from_pr_50_on_fit_in_8_lines():
    long = [f"PR {n}: {lines} lines"
            for n, lines in entry_lengths(CHANGES.read_text())
            if n >= FIRST_TIGHT and lines > TIGHT_LINES]
    assert not long, f"CHANGES.md entries over {TIGHT_LINES} lines: {long}"


def test_continuation_lines_count_and_found_lines_do_not():
    text = "\n".join(["PR 50: head"] + ["  more"] * 10
                     + ["FOUND: a defect", "  its detail", "PR 51: one"])
    assert entry_lengths(text) == [(50, 11), (51, 1)]
