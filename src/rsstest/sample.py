"""Balanced ranked set samples: validation, CSV parsing, monotone transforms.

A balanced ranked set sample (BRSS) with set size k and n cycles is a
k x n grid of measured values: cell (i, l) holds the value measured for
rank slot i in cycle l.  All values are assumed to come from a continuous
population, so ties are rejected outright rather than midranked; callers
with tied data must jitter it before ingestion.

Indexing is 1-based in documentation, file formats and error messages
(rank slots 1..k, cycles 1..n); the in-memory tuples are plain 0-based
Python sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

from .errors import DataValidationError, TieError

Layout = Literal["cycles-as-rows", "cycles-as-columns"]

Matrix = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class RssSample:
    """Immutable k x n grid of measured BRSS values.

    `values[i][l]` is the measurement for rank slot i+1 in cycle l+1.
    All k*n entries are finite and pairwise distinct.
    """

    values: Matrix

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(v) for v in row) for row in self.values)
        if not rows or not rows[0]:
            raise DataValidationError("sample must have at least one rank slot and one cycle")
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise DataValidationError("all rank slots must have the same number of cycles")
        for i, row in enumerate(rows):
            for l, v in enumerate(row):
                if not math.isfinite(v):
                    raise DataValidationError(
                        f"non-finite value {v!r} at rank slot {i + 1}, cycle {l + 1}"
                    )
        _check_distinct(rows)
        object.__setattr__(self, "values", rows)

    @property
    def k(self) -> int:
        """Set size: number of rank slots per cycle."""
        return len(self.values)

    @property
    def n(self) -> int:
        """Number of cycles."""
        return len(self.values[0])

    def row(self, i: int) -> tuple[float, ...]:
        """All n values measured for rank slot i (1-based)."""
        if not 1 <= i <= self.k:
            raise ValueError(f"rank slot {i} out of range 1..{self.k}")
        return self.values[i - 1]

    def cycle(self, l: int) -> tuple[float, ...]:
        """The k values of cycle l (1-based), ordered by rank slot."""
        if not 1 <= l <= self.n:
            raise ValueError(f"cycle index {l} out of range 1..{self.n}")
        return tuple(self.values[i][l - 1] for i in range(self.k))


def _check_distinct(rows: Matrix) -> None:
    seen: dict[float, tuple[int, int]] = {}
    for i, row in enumerate(rows):
        for l, v in enumerate(row):
            if v in seen:
                pi, pl = seen[v]
                raise TieError(
                    f"tied value {v!r} at rank slot {i + 1}, cycle {l + 1} "
                    f"collides with rank slot {pi + 1}, cycle {pl + 1}"
                )
            seen[v] = (i, l)


def parse_csv(text: str | Iterable[str], layout: Layout) -> RssSample:
    """Parse a comma-separated table of measurements into an RssSample.

    The table must be rectangular and numeric.  An optional single header
    line starting with '#' is skipped.  `layout` declares the orientation
    explicitly (no auto-detection): "cycles-as-rows" reads each line as
    one cycle with k columns; "cycles-as-columns" reads each line as one
    rank slot with n columns.
    """
    if layout not in ("cycles-as-rows", "cycles-as-columns"):
        raise DataValidationError(f"unknown layout {layout!r}")
    lines = text.splitlines() if isinstance(text, str) else list(text)
    rows: list[list[float]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if rows:
                raise DataValidationError(f"header line {lineno} appears after data")
            continue
        cells = [c.strip() for c in line.split(",")]
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataValidationError(
                    f"non-numeric cell {cell!r} at line {lineno}, column {col}"
                ) from None
        if rows and len(parsed) != len(rows[0]):
            raise DataValidationError(
                f"ragged row at line {lineno}: got {len(parsed)} cells, expected {len(rows[0])}"
            )
        rows.append(parsed)
    if not rows:
        raise DataValidationError("no data rows found")

    if layout == "cycles-as-rows":
        k, n = len(rows[0]), len(rows)
        values = tuple(tuple(rows[l][i] for l in range(n)) for i in range(k))
    else:
        k, n = len(rows), len(rows[0])
        values = tuple(tuple(row) for row in rows)
    if k < 2:
        raise DataValidationError(f"set size k={k} is below the minimum of 2")
    if n < 1:
        raise DataValidationError("at least one cycle is required")
    return RssSample(values)


def monotone_transform(sample: RssSample, f: Callable[[float], float]) -> RssSample:
    """Apply a strictly increasing map cellwise; ranks are preserved.

    Raises if the transform produces non-finite values or collapses two
    cells to the same value (i.e. it was not strictly increasing on the
    sample's range).
    """
    try:
        return RssSample(tuple(tuple(f(v) for v in row) for row in sample.values))
    except DataValidationError as exc:
        raise DataValidationError(f"transform broke sample validity: {exc}") from exc
