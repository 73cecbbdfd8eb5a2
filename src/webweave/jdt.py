"""Row insertion (rectification, delta, evacuation and Greene-Kleitman
profiles) and single jeu de taquin slides."""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .tableau import (
    RowStrictTableau,
    Shape,
    _broken_column,
    _check_ints,
    skew_shape_from_cells,
    tableau_from_cells,
)

Cell = tuple[int, int]


def reading_word(t: RowStrictTableau) -> tuple[int, ...]:
    """Read down columns, rightmost column first."""
    return t.column_word()


def slide_targets(t: RowStrictTableau) -> list[Cell]:
    """Empty cells into which a slide may start, in (row, column) order.

    A target keeps a skew diagram when added and shares its right or bottom
    edge with a box: it is an inner corner of the tight skew shape of t's
    boxes with a box to its right or below.
    """
    return _slide_targets(t.entries)


def _slide_targets(cells: dict[Cell, int]) -> list[Cell]:
    """slide_targets of the tableau with these boxes."""
    shape = skew_shape_from_cells(cells)
    inner, outer = shape.inner.row, shape.outer.row
    corners = ((r, inner(r)) for r in range(1, len(shape.inner) + 1))
    return [(r, c) for r, c in corners if inner(r + 1) < c and (outer(r) > c or outer(r + 1) >= c)]


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
    cells = t.entries
    if cell not in _slide_targets(cells):
        raise ValueError(f"{cell} is not a valid slide target")
    _slide(cells, cell)
    return tableau_from_cells(cells)


def _insert(rows: list[list[int]], word, bisect=bisect_left) -> list[list[int]]:
    """Row-insert each letter of `word` into `rows`, in place, and return
    them: the letter takes the place `bisect` finds in a row and bumps the
    entry there into the next row, or ends that row.  With bisect_left it
    bumps the leftmost entry >= it, which keeps rows strict and columns
    weak, as in this library's tableaux: the transpose of the classical
    insertion, which bisect_right gives."""
    for x in word:
        for row in rows:
            i = bisect(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            rows.append([x])
    return rows


def rectify(t: RowStrictTableau) -> RowStrictTableau:
    """The straight tableau t slides to, in any order of slides: the
    insertion tableau of t's row reading word, bottom row first and each row
    left to right.  A tableau without boxes rectifies to EMPTY_TABLEAU.  The
    tableau built checks the insertion's columns (ValueError)."""
    return RowStrictTableau.from_rows(_insert([], [x for row in reversed(t.rows) for x in row]))


def delta(t: RowStrictTableau) -> RowStrictTableau:
    """Delete the boxes containing 1, decrement the rest, and slide the holes
    closed: the rectification of what remains, checked as rectify's is."""
    if not t.is_straight:
        raise ValueError("delta requires a straight shape")
    if t.size == 0:
        raise ValueError("delta requires a nonempty tableau")
    word = [x - 1 for row in reversed(t.rows) for x in row if x > 1]
    return RowStrictTableau.from_rows(_insert([], word))


def _evacuate_rows(rows) -> list[list[int]]:
    """Evacuation of a straight row-strict filling given by its rows, by
    Schützenberger's theorem evac(P(w)) = P(w#): w is the row reading word,
    bottom row first and each row left to right, whose insertion tableau is
    the filling itself.  For n the largest entry + 1, w# reads n - x over
    each row reversed, top row first.  Its first row's letters increase, so
    they make the first row, and _insert inserts the rest.  Only the values
    present are read, so a gapped filling costs no more.

    The rows are trusted to be strict with weak columns, as every caller's
    are: evacuate passes a RowStrictTableau's, the campaigns rows from
    _grow or rows this kernel returned, and insertion keeps rows strict.
    Only the result is checked: without the input's shape or weak columns
    it raises AssertionError.
    """
    n = max([row[-1] for row in rows if row] or [0]) + 1
    top = [[n - x for x in reversed(rows[0])]] if rows else []
    out = _insert(top, [n - x for row in rows[1:] for x in reversed(row)])
    out += [[] for _ in range(len(rows) - len(out))]
    if list(map(len, out)) != list(map(len, rows)):
        raise AssertionError("evacuate changed the shape")
    if _broken_column(out):
        raise AssertionError("evacuate broke a column")
    return out


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
    insertion tableau.  One pass of _insert with bisect_right builds it:
    each letter bumps the leftmost strictly larger letter of a row into the
    next row, or ends that row.
    """
    word = tuple(word)
    _check_ints(word, "letter")
    _check_ints((m,), "m")
    if m < 1:
        raise ValueError("m must be at least 1")
    rows = _insert([], word, bisect_right)
    sums = list(accumulate(map(len, rows[:m])))
    return GKProfile((*sums, *[len(word)] * (m - len(sums))))


def gk_profile_of_tableau(t: RowStrictTableau, m: int | None = None) -> GKProfile:
    """Profile of the reading word; m defaults to the number of columns."""
    if m is None:
        m = max(1, t.shape.outer.row(1))
    return gk_profile(reading_word(t), m)


def column_lengths(shape: Shape) -> tuple[int, ...]:
    return shape.conjugate().parts
