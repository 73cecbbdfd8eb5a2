"""The Catalan, Tymoczko, and Russell maps from rectangular tableaux to webs.

Geometry model: cut the disk at the midpoint of the boundary arc between the
last and first marked points and lay the points on a line at integer
abscissae, with every arc a semicircle in the upper half plane.  Two arcs
cross iff their endpoints interleave, and then exactly once, at an exactly
rational abscissa; no floating point appears anywhere.
"""
from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, partial
from typing import Callable, NamedTuple

from .tableau import RowStrictTableau, _check_ints, _russell_rows, _standardize, is_standard
from .webcore import (
    BLACK,
    WHITE,
    Matching,
    Web,
    _canonical,
    _check_pairs,
    _check_structure,
    _contract,
    _defects,
    _depths_after_labels,
    _fields,
    _reflect_pairs,
    _reflect_parts,
    _same_web,
)

Pair = tuple[int, int]


_NOT_2ROW = "expected a standard tableau of shape (n, n)"
_NOT_3ROW = "expected a standard tableau of shape (k, k, k)"


def _pair_rows(top, bottom) -> list[Pair]:
    """The Catalan pairs of two rows, in bottom-row order: each bottom value
    with the largest unpaired smaller top value, in one stack pass that
    merges the rows in increasing order.  The rows must strictly increase
    and be disjoint, as a standard tableau's do; the callers check that
    once or build such rows.  Raises ValueError unless every bottom value
    finds a partner (the lattice condition)."""
    pairs: list[Pair] = []
    unpaired: list[int] = []
    i, n = 0, len(top)
    for v in bottom:
        while i < n and top[i] < v:
            unpaired.append(top[i])
            i += 1
        if not unpaired:
            raise ValueError(f"value {v} precedes every unpaired value of the row above")
        pairs.append((unpaired.pop(), v))
    return pairs


def catalan_pairing(top_row, bottom_row) -> tuple[Pair, ...]:
    """Match each bottom-row value with the largest unpaired smaller top-row
    value (the unique matching-parenthesis pairing; noncrossing), by the one
    stack pass _pair_rows; the pairs come sorted.

    The two rows must be strictly increasing, of equal length, and disjoint.
    Rejects inputs where some bottom value precedes every available top value.
    """
    top, bottom = tuple(top_row), tuple(bottom_row)
    _check_ints(top + bottom, "value")
    for row in (top, bottom):
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f"row {row} is not strictly increasing")
    if len(top) != len(bottom):
        raise ValueError("rows differ in length")
    if set(top) & set(bottom):
        raise ValueError("rows are not disjoint")
    return tuple(sorted(_pair_rows(top, bottom)))


def _catalan_pairs(rows) -> tuple[Pair, ...]:
    """The pairs, sorted, of the noncrossing matching of a standard (n, n)
    tableau given by its rows, which are not checked again (_pair_rows)."""
    return tuple(sorted(_pair_rows(*rows)))


def _standard_rows(t: RowStrictTableau, rows: int, refusal: str):
    """The rows of t, a standard (is_standard) rectangle of `rows` rows, or
    ValueError(refusal): the one standardness check of the public maps, so
    the row kernels trust what they read."""
    if not (t.is_rectangular and len(t.rows) == rows and is_standard(t)):
        raise ValueError(refusal)
    return t.rows


def web_of_2row(t: RowStrictTableau) -> Matching:
    """The noncrossing matching of a 2-row rectangular standard tableau;
    any other tableau is refused (_standard_rows)."""
    pairs = _catalan_pairs(_standard_rows(t, 2, _NOT_2ROW))
    return Matching(len(pairs), pairs)


@dataclass(frozen=True)
class Arc:
    """A semicircle over [left, right]; `middle` marks the tripod-center end."""

    left: int
    right: int
    middle: int

    def __post_init__(self) -> None:
        _check_ints((self.left, self.right, self.middle), "point")
        if self.left < 1:
            raise ValueError(f"arc left end {self.left} is below 1")
        if not self.left < self.right:
            raise ValueError(f"arc endpoints out of order: ({self.left}, {self.right})")
        if self.middle not in (self.left, self.right):
            raise ValueError("middle must be one of the endpoints")

    @property
    def boundary_end(self) -> int:
        return self.right if self.middle == self.left else self.left


@dataclass(frozen=True)
class ArcDiagram:
    """Arcs over points 1..m; each middle point carries exactly two arc ends."""

    points: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        _check_ints((self.points,), "number of points")
        ends: dict[int, int] = {}
        for arc in self.arcs:
            if arc.right > self.points:
                raise ValueError(f"arc {arc} exceeds {self.points} points")
            ends[arc.middle] = ends.get(arc.middle, 0) + 1
        for p, count in ends.items():
            if count != 2:
                raise ValueError(f"middle point {p} carries {count} designated ends, expected 2")


def _arc_ends(rows) -> list[tuple[int, int]]:
    """The m-diagram's arcs as (left, right) endpoints, two per middle-row
    value in increasing order: first the arc to its partner in the top row,
    whose middle end is on the right, then the arc to its partner in the
    bottom row, whose middle end is on the left.

    `rows` are those of a standard (k, k, k) tableau, which are not checked
    again.  The partners are the sl2 pairs (_pair_rows) of rows 1-2, in
    middle-row order, and of rows 2-3, sorted into it.
    """
    top, middle, bottom = rows
    return [arc for arcs in zip(_pair_rows(top, middle), sorted(_pair_rows(middle, bottom))) for arc in arcs]


def m_diagram(u: RowStrictTableau) -> ArcDiagram:
    """Join each middle-row entry to its partners in the rows above and
    below; any tableau but a standard (k, k, k) one is refused
    (_standard_rows)."""
    ends = _arc_ends(_standard_rows(u, 3, _NOT_3ROW))
    arcs = tuple(Arc(left, right, middle=left if a % 2 else right) for a, (left, right) in enumerate(ends))
    return ArcDiagram(u.size, arcs)


@dataclass(frozen=True)
class Crossing:
    """A transversal intersection of interleaving arcs (i,j) and (k,l),
    i < k < j < l, at exact abscissa x with k < x < j."""

    arc_a: int
    arc_b: int
    x: Fraction


def _by_abscissa(c, d) -> int:
    """Compare crossings (arc_a, arc_b, num, den) by abscissa num/den,
    cross-multiplying (both denominators are positive)."""
    return c[2] * d[3] - d[2] * c[3]


def _crossings(ends) -> list[tuple[int, int, int, int]]:
    """Every pair of interleaving arcs a = (i, j), b = (k, l), i < k < j < l,
    of an m-diagram given as _arc_ends gives it, as (a, b, num, den): the
    semicircles meet at abscissa num/den.  Sorted by (a, abscissa, b), all
    in integers.

    Each of the two Catalan pairings is noncrossing, so only a top arc (even
    index, middle end on the right) and a bottom arc (odd index, middle end
    on the left) can interleave.  The middle ends increase with the index,
    so one bisect gives each arc's window: for a top arc (i, j), the bottom
    arcs whose middle end lies in (i, j); for a bottom arc (i, j), the top
    arcs whose middle end lies past j."""
    middles = [left for left, _ in ends[1::2]]
    n = len(ends)
    out = []
    for a, (i, j) in enumerate(ends):
        row = []
        for b in range(2 * bisect_right(middles, j), n, 2) if a % 2 else range(2 * bisect_right(middles, i) + 1, a, 2):
            k, l = ends[b]
            if i < k < j < l:
                num, den = k * l - i * j, (k + l) - (i + j)
                assert k * den < num < j * den
                row.append((a, b, num, den))
        if len(row) > 1:
            row.sort(key=cmp_to_key(_by_abscissa))  # stable: ties stay in b order
        out += row
    return out


def find_crossings(diagram: ArcDiagram) -> tuple[Crossing, ...]:
    """Every interleaving arc pair with its exact semicircle intersection,
    sorted by (first-opening arc, abscissa, other arc).  Any diagram is
    scanned pair by pair; `_crossings` scans an m-diagram's windows alone."""
    ends = [(arc.left, arc.right) for arc in diagram.arcs]
    out = []
    for a, (i, j) in enumerate(ends):
        row = []
        for b, (k, l) in enumerate(ends):
            if i < k < j < l:
                row.append(Crossing(a, b, Fraction(k * l - i * j, (k + l) - (i + j))))
                assert k < row[-1].x < j
        out += sorted(row, key=operator.attrgetter("x"))  # stable: ties stay in b order
    return tuple(out)


# At a crossing of arcs a and b the counterclockwise germs are (a rightward,
# b rightward, a leftward, b leftward).  One germ of each arc points at its
# tripod, leftward iff the arc's middle end is its left end, and the two are
# cyclically adjacent.  Indexed by 2 * (a's middle end is left) + (b's middle
# end is left), this gives the position of the first of them.
_FIRST_TOWARD_MIDDLE = (0, 3, 1, 2)


def tymoczko_web(u: RowStrictTableau) -> Web:
    """Replace middle points by tripods and resolve each crossing into an H.

    At a crossing, the counterclockwise germ order is (first arc rightward,
    second arc rightward, first arc leftward, second arc leftward); the two
    germs pointing at tripod whites are cyclically adjacent, the new black
    vertex joins them, the new white vertex joins the other two, and the H bar
    joins black to white.  Any tableau but a standard (k, k, k) one is
    refused (_standard_rows).
    """
    return Web(*_tymoczko_parts(_standard_rows(u, 3, _NOT_3ROW)))


def _tymoczko_parts(rows):
    """The fields of the Tymoczko web of a standard (k, k, k) tableau, given
    its rows, as lists of integers and colors in one pass.

    Vertices: the 3k boundary points, then the tripod white of each middle
    value, then a black and a white per crossing.  Edges: the tripod legs,
    then each arc's segments left to right, arc by arc, then the H bars.
    """
    ends = _arc_ends(rows)
    crossings = _crossings(ends)
    k = len(ends) // 2
    m = 3 * k
    hits: list[list[tuple]] = [[] for _ in ends]  # each arc's crossings, left to right
    for c in crossings:
        hits[c[0]].append(c)
        hits[c[1]].append(c)
    for on_arc in hits:
        if len(on_arc) > 1:
            on_arc.sort(key=cmp_to_key(_by_abscissa))

    edges = [(m + i, ends[2 * i][1] - 1) for i in range(k)]
    first = []  # each arc's first segment
    at: dict[tuple, list[int]] = {c: [] for c in crossings}  # segment left of c on arcs a, b
    vertex = {c: m + k + 2 * n for n, c in enumerate(crossings)}  # its black; white is next
    for a, (left, right) in enumerate(ends):
        first.append(len(edges))
        middle_left = a % 2
        node = m + a // 2 if middle_left else left - 1
        for c in hits[a]:
            at[c].append(len(edges))
            black = vertex[c]
            edges.append((node, black if middle_left else black + 1))
            node = black + 1 if middle_left else black
        edges.append((node, right - 1 if middle_left else m + a // 2))

    rotation: list[tuple[int, ...]] = [()] * (m + k + 2 * len(crossings))
    for c in crossings:
        a, b = c[0], c[1]
        left_a, left_b = at[c] if a < b else at[c][::-1]
        germs = (left_a + 1, left_b + 1, left_a, left_b) * 2
        s = _FIRST_TOWARD_MIDDLE[2 * (a % 2) + b % 2]
        black, bar = vertex[c], len(edges)
        edges.append((black, black + 1))
        rotation[black] = (germs[s], germs[s + 1], bar)
        rotation[black + 1] = (bar, germs[s + 2], germs[s + 3])
    for i in range(k):
        top, bottom = 2 * i, 2 * i + 1
        rotation[ends[top][0] - 1] = (first[top],)
        rotation[ends[top][1] - 1] = (i,)
        rotation[ends[bottom][1] - 1] = (first[bottom] + len(hits[bottom]),)
        rotation[m + i] = (first[top] + len(hits[top]), i, first[bottom])
    return [BLACK] * m, [WHITE] * k + [BLACK, WHITE] * len(crossings), edges, rotation


def russell_web(t: RowStrictTableau) -> Web:
    """Web of a 3-row once-or-twice filling: build the standardization's web,
    then contract the boundary pair (j, j+1) of each doubled value.  The pairs
    are contracted on the builder's lists, so one Web is built."""
    return Web(*_russell_parts(_russell_rows(t)))


def _russell_parts(rows, webs=None):
    """The fields of the Russell web of a filling given by its rows, no pair
    contracted without doubled values.  The rows strictly increase, as a
    tableau's and a growth's do; _standardize makes russell_repetition's
    checks on them, and the standardized rows need no more: standardizing
    keeps rows strict and columns weak and gives each of 1..3k once, so they
    are a standard tableau's rows, which _arc_ends trusts.

    Without `webs` (the CLI, russell_web, tableau_of_web) the
    standardization's Tymoczko web is built per call.  A campaign batch's
    pipeline passes a fresh dict (Pipeline.batch): `webs` keeps the webs of
    the last two standardizations built, keyed by their flat rows, as
    tuples no caller can change.  A family grows the fillings of one
    standardization together (verify.Family.grow), and the theorem also
    builds the web of its evacuation, so each is built at most once per
    batch, or twice for the theorem.  A build that raises leaves nothing behind, and
    the standardizing and the contraction still run per filling.

    The contraction reads the built fields before the pipeline's gate
    does, so when it fails on fields that the gate refuses, the gate's
    refusal is raised: a float id, say, is a ValueError naming it, as a
    standard tableau's build would give, not the remap's TypeError."""
    rows, pair_starts = _standardize(rows)
    if webs is None:
        parts = _tymoczko_parts(rows)
    else:
        key = (*rows[0], *rows[1], *rows[2])  # all three rows have length k
        parts = webs.get(key)
        if parts is None:
            parts = tuple(map(tuple, _tymoczko_parts(rows)))
            if len(webs) == 2:
                del webs[next(iter(webs))]
            webs[key] = parts
    if not pair_starts:
        return parts
    try:
        return _contract(parts, pair_starts)
    except (TypeError, ValueError, IndexError):
        _check_structure(parts)
        raise


# --- the inverse, by face depth ----------------------------------------------

def _matching_rows(pairs) -> tuple[tuple[int, ...], ...]:
    """The rows of the 2-row tableau of a matching given by its sorted,
    checked pairs: openers on top."""
    return tuple(i for i, _ in pairs), tuple(sorted(j for _, j in pairs))


# The rows (0 = top) that a boundary vertex's value fills, by its color and
# state: the depth of the disk face after it minus that of the face before.
_ROWS_OF_STATE = {
    (BLACK, 1): (0,), (BLACK, 0): (1,), (BLACK, -1): (2,),
    (WHITE, 1): (0, 1), (WHITE, 0): (0, 2), (WHITE, -1): (1, 2),
}


def _tableau_rows(parts) -> tuple[tuple[int, ...], ...]:
    """The rows of the 3-row filling whose web has these checked plain
    fields: label i places the value i by its state (_ROWS_OF_STATE).  A
    state outside -1..1 raises LookupError; any other web outside the family
    gives rows that the forward map does not send back to it."""
    boundary_colors = parts[0]
    if not boundary_colors:
        raise LookupError("a web without boundary vertices has no tableau")
    after = _depths_after_labels(parts)
    rows: tuple[list[int], ...] = ([], [], [])
    for i, color in enumerate(boundary_colors):
        state = after[i] - after[i - 1]
        if (color, state) not in _ROWS_OF_STATE:
            raise LookupError(f"boundary vertex {i + 1} has state {state}, outside -1..1")
        for r in _ROWS_OF_STATE[color, state]:
            rows[r].append(i + 1)
    return tuple(tuple(row) for row in rows)


class Pipeline(NamedTuple):
    """What a kind of family does with the rows of each tableau: build the
    sorted pairs of its matching or the plain fields of its web, check them,
    key them canonically, tell whether two are the same (exactly when their
    keys are equal, raising when a key would, without printing the keys),
    reflect them, list their defects, and read the tableau's rows back off
    them.  `parts` builds and checks once; the other stages trust it, as
    the functions that take a Matching or a Web do.  The pipelines here
    build per call; `batch` gives the pipeline that a campaign or pool piece runs."""

    build: Callable
    check: Callable[..., None]
    key: Callable[..., str]
    same: Callable[..., bool]
    reflect: Callable
    defects: Callable[..., list[str]]
    inverse: Callable[..., tuple]

    def parts(self, rows):
        parts = self.build(rows)
        self.check(parts)
        return parts

    def batch(self) -> Pipeline:
        """The pipeline that one in-process campaign or one pool piece runs:
        SL3_RUSSELL's build with a fresh memo of the last two
        standardizations' Tymoczko webs (see _russell_parts), dropped with
        the batch, and the check still run on every filling; any other
        pipeline as given."""
        if self.build is _russell_parts:
            return self._replace(build=partial(_russell_parts, webs={}))
        return self


# a matching that passes the partition and noncrossing check has no other defect;
# its sorted pairs are tuples of ints, so they are equal exactly when their strings are
SL2 = Pipeline(_catalan_pairs, lambda pairs: _check_pairs(len(pairs), pairs), str, operator.eq, _reflect_pairs,
               lambda pairs: [], _matching_rows)
SL3_STANDARD = Pipeline(_tymoczko_parts, _check_structure, _canonical, _same_web, _reflect_parts, _defects,
                        _tableau_rows)
SL3_RUSSELL = SL3_STANDARD._replace(build=_russell_parts)


def tableau_of_web(web) -> RowStrictTableau:
    """Invert the Catalan or Russell map directly, at any size, from the
    matching or web alone: a matching's openers form the top row, and a
    web's rows are read off its face depths (see _tableau_rows).  The rows
    say which family the input is in.  They must form a tableau that maps
    forward to the input again, and the forward maps take only rectangles,
    so anything else raises LookupError.  The input was checked when it was
    made, so the one check is of the round trip's pairs or fields."""
    p, parts = (SL2, web.pairs) if isinstance(web, Matching) else (SL3_RUSSELL, _fields(web))
    rows = p.inverse(parts)
    try:
        t = RowStrictTableau.from_rows(rows)
        if p.same(p.parts(rows), parts):
            return t
    except ValueError:
        pass
    raise LookupError("not in the image of a rectangular family")
