"""Jeu de taquin slides, rectification, evacuation, and word invariants."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .tableau import (
    RowStrictTableau,
    Shape,
    _check_ints,
    is_skew_cellset,
    tableau_from_cells,
)

Cell = tuple[int, int]


def reading_word(t: RowStrictTableau) -> tuple[int, ...]:
    """Read down columns, rightmost column first."""
    return t.column_word()


def slide_targets(t: RowStrictTableau) -> list[Cell]:
    """Empty cells into which a slide may start, in (row, column) order.

    A target lies left of or above an occupied box, so shares its right or
    bottom edge with the occupied region, and keeps a skew diagram when added.
    """
    occupied = set(t.entries)
    candidates = set()
    for (r, c) in occupied:
        if c > 1:
            candidates.add((r, c - 1))
        if r > 1:
            candidates.add((r - 1, c))
    out = []
    for cell in sorted(candidates - occupied):
        if is_skew_cellset(occupied | {cell}):
            out.append(cell)
    return out


def _slide(cells: dict[Cell, int], start: Cell) -> Cell:
    """Walk the hole from `start` in place, moving into the smaller of
    right/below (ties go right), until nothing lies right or below; return
    the box where the hole stops.  A start with no such neighbor stays put."""
    r, c = start
    while True:
        right = cells.get((r, c + 1))
        below = cells.get((r + 1, c))
        if right is None and below is None:
            return r, c
        if below is None or (right is not None and right <= below):
            cells[(r, c)] = right
            del cells[(r, c + 1)]
            c += 1
        else:
            cells[(r, c)] = below
            del cells[(r + 1, c)]
            r += 1


def jdt_slide(t: RowStrictTableau, cell: Cell) -> RowStrictTableau:
    """One jeu de taquin slide of t into the empty cell."""
    cell = tuple(cell)
    _check_ints(cell, "cell coordinate")
    if cell not in slide_targets(t):
        raise ValueError(f"{cell} is not a valid slide target")
    cells = t.entries
    _slide(cells, cell)
    return tableau_from_cells(cells)


def rectify(t: RowStrictTableau) -> RowStrictTableau:
    """Slide until the shape is straight.

    The default order picks the lexicographically last valid target each time;
    the result is independent of this choice (a tested property).
    """
    while True:
        targets = slide_targets(t)
        if not targets:
            return t
        t = jdt_slide(t, targets[-1])


def delta(t: RowStrictTableau) -> RowStrictTableau:
    """Delete the boxes containing 1, decrement the rest, and slide the holes
    closed from the bottom hole up."""
    if not t.is_straight:
        raise ValueError("delta requires a straight shape")
    if t.size == 0:
        raise ValueError("delta requires a nonempty tableau")
    cells = {cell: v - 1 for cell, v in t.entries.items() if v > 1}
    ones = sorted(cell for cell, v in t.entries.items() if v == 1)
    for hole in reversed(ones):
        _slide(cells, hole)
    out = tableau_from_cells(cells)
    if not out.is_straight:
        raise AssertionError("delta produced a non-straight shape")
    return out


def _evacuate_rows(rows) -> list[list[int]]:
    """Evacuation of a straight row-strict filling given by its rows: the
    delta steps on the live row lists, where the boxes that the step of value
    i vacates receive n+1-i (n the largest entry).

    The filling stays straight, so its least value i heads column 1 in rows
    1, 2, ...; those boxes are deleted and their holes slid closed from the
    bottom one up, each hole moving into the smaller of its right and lower
    neighbors (ties go right) until it has neither, where its box leaves the
    end of its row.  Entries are never decremented: a uniform shift does not
    change a slide's comparisons.  Only the values present take a step, so a
    gapped filling costs no more than a gapless one.  Every row is padded
    with n+1, the value of a box outside the filling, and one padded row is
    added below, so a slide needs no bounds checks.

    The result is checked as it is filled, from the largest value down: each
    box's right neighbor must already hold a larger value and its lower
    neighbor a value at least as large (ValueError), and every box of the
    shape must be filled (AssertionError).  So it has the input's shape,
    positive entries, strict rows and weak columns.
    """
    width = max(map(len, rows), default=0) + 1
    n = max((max(row) for row in rows if row), default=0)
    gone = n + 1
    live = [[*row, *[gone] * (width - len(row))] for row in rows]
    out = [[0] * len(row) + [gone] * (width - len(row)) for row in rows]
    live.append([gone] * width)
    out.append(live[-1])
    while live[0][0] != gone:
        i = live[0][0]
        x = gone - i
        top = 1
        while live[top][0] == i:
            top += 1
        for r in range(top - 1, -1, -1):
            row, c = live[r], 0
            while True:
                right, below = row[c + 1], live[r + 1][c]
                if below < right:
                    row[c] = below
                    r += 1
                    row = live[r]
                elif right != gone:
                    row[c] = right
                    c += 1
                else:
                    break
            row[c] = gone
            filled = out[r]
            if filled[c + 1] <= x:
                raise ValueError(f"evacuated row {r + 1} is not strictly increasing")
            if out[r + 1][c] < x:
                raise ValueError(f"evacuated column {c + 1} is not weakly increasing at row {r + 2}")
            filled[c] = x
    if any(row[0] != gone for row in live):
        raise AssertionError("evacuate changed the shape")
    return [filled[: len(row)] for filled, row in zip(out, rows)]


def evacuate(t: RowStrictTableau) -> RowStrictTableau:
    """Evacuation of a straight tableau (see _evacuate_rows)."""
    if not t.is_straight:
        raise ValueError("evacuate requires a straight shape")
    return RowStrictTableau(t.shape, _evacuate_rows(t.rows))


@dataclass(frozen=True)
class GKProfile:
    """Greene-Kleitman invariants: values[i-1] is the longest subword
    decomposable into i disjoint nondecreasing subwords."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        _check_ints(self.values, "profile value")
        deltas = self.increments()
        for a, b in zip(deltas, deltas[1:]):
            if b > a:
                raise ValueError(f"profile increments must weakly decrease: {self.values}")
        if any(v < 0 for v in self.values):
            raise ValueError("profile values must be nonnegative")

    def increments(self) -> tuple[int, ...]:
        prev = 0
        out = []
        for v in self.values:
            out.append(v - prev)
            prev = v
        return tuple(out)


def gk_profile(word, m: int) -> GKProfile:
    """Greene-Kleitman invariants of a word, for chain counts 1..m.

    By Greene's theorem, the longest subword coverable by i nondecreasing
    subwords has the length of the first i rows, together, of the word's
    insertion tableau.  One row-insertion pass builds it: each letter
    bumps the leftmost strictly larger letter of a row into the next row,
    or ends that row.
    """
    word = tuple(word)
    _check_ints(word, "letter")
    _check_ints((m,), "m")
    if m < 1:
        raise ValueError("m must be at least 1")
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            i = bisect_right(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            rows.append([x])
    sums = list(accumulate(map(len, rows[:m])))
    return GKProfile((*sums, *[len(word)] * (m - len(sums))))


def gk_profile_of_tableau(t: RowStrictTableau, m: int | None = None) -> GKProfile:
    """Profile of the reading word; m defaults to the number of columns."""
    if m is None:
        m = max(1, t.shape.outer.row(1))
    return gk_profile(reading_word(t), m)


def column_lengths(shape: Shape) -> tuple[int, ...]:
    return shape.conjugate().parts
