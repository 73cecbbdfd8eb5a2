"""The Catalan, Tymoczko, and Russell maps from rectangular tableaux to webs.

Geometry model: cut the disk at the midpoint of the boundary arc between the
last and first marked points and lay the points on a line at integer
abscissae, with every arc a semicircle in the upper half plane.  Two arcs
cross iff their endpoints interleave, and then exactly once, at an exactly
rational abscissa; no floating point appears anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .tableau import (
    RowStrictTableau,
    Shape,
    enumerate_russell,
    enumerate_standard,
    is_standard,
    standardize_with_pairs,
)
from .webcore import (
    BLACK,
    WHITE,
    Matching,
    Web,
    _contract,
    canonicalize,
)

Pair = tuple[int, int]


def catalan_pairing(top_row, bottom_row) -> tuple[Pair, ...]:
    """Match each bottom-row value with the largest unpaired smaller top-row
    value (the unique matching-parenthesis pairing; noncrossing).

    The two rows must be strictly increasing, of equal length, and disjoint.
    Rejects inputs where some bottom value precedes every available top value.
    """
    top = tuple(int(v) for v in top_row)
    bottom = tuple(int(v) for v in bottom_row)
    for row in (top, bottom):
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f"row {row} is not strictly increasing")
    if len(top) != len(bottom):
        raise ValueError("rows differ in length")
    if set(top) & set(bottom):
        raise ValueError("rows are not disjoint")
    openers = set(top)
    stack: list[int] = []
    pairs = []
    for v in sorted(top + bottom):
        if v in openers:
            stack.append(v)
        else:
            if not stack:
                raise ValueError(f"bottom value {v} precedes every unpaired top value")
            pairs.append((stack.pop(), v))
    return tuple(sorted(pairs))


def web_of_2row(t: RowStrictTableau) -> Matching:
    """The noncrossing matching of a 2-row rectangular standard tableau."""
    if not (t.is_rectangular and len(t.rows) == 2 and is_standard(t)):
        raise ValueError("expected a standard tableau of shape (n, n)")
    return Matching(t.shape.outer.row(1), catalan_pairing(t.rows[0], t.rows[1]))


@dataclass(frozen=True)
class Arc:
    """A semicircle over [left, right]; `middle` marks the tripod-center end."""

    left: int
    right: int
    middle: int

    def __post_init__(self) -> None:
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
        ends: dict[int, int] = {}
        for arc in self.arcs:
            if arc.right > self.points:
                raise ValueError(f"arc {arc} exceeds {self.points} points")
            ends[arc.middle] = ends.get(arc.middle, 0) + 1
        for p, count in ends.items():
            if count != 2:
                raise ValueError(f"middle point {p} carries {count} designated ends, expected 2")


def m_diagram(u: RowStrictTableau) -> ArcDiagram:
    """Join each middle-row entry to its partners in the rows above and below."""
    if not (u.is_rectangular and len(u.rows) == 3 and is_standard(u)):
        raise ValueError("expected a standard tableau of shape (k, k, k)")
    top_partner = {b: t for t, b in catalan_pairing(u.rows[0], u.rows[1])}
    bottom_partner = {t: b for t, b in catalan_pairing(u.rows[1], u.rows[2])}
    arcs = []
    for mid in u.rows[1]:
        arcs.append(Arc(top_partner[mid], mid, middle=mid))
        arcs.append(Arc(mid, bottom_partner[mid], middle=mid))
    return ArcDiagram(u.size, tuple(arcs))


@dataclass(frozen=True)
class Crossing:
    """A transversal intersection of interleaving arcs (i,j) and (k,l),
    i < k < j < l, at exact abscissa x with k < x < j."""

    arc_a: int
    arc_b: int
    x: Fraction


def find_crossings(diagram: ArcDiagram) -> tuple[Crossing, ...]:
    """Every interleaving arc pair with its exact semicircle intersection,
    sorted by (first-opening arc, abscissa)."""
    out = []
    for a, arc_a in enumerate(diagram.arcs):
        for b, arc_b in enumerate(diagram.arcs):
            i, j = arc_a.left, arc_a.right
            k, l = arc_b.left, arc_b.right
            if i < k < j < l:
                x = Fraction(k * l - i * j, (k + l) - (i + j))
                assert k < x < j
                out.append(Crossing(a, b, x))
    return tuple(sorted(out, key=lambda c: (c.arc_a, c.x, c.arc_b)))


class _WebBuilder:
    def __init__(self, n_boundary: int):
        self.boundary_colors = [BLACK] * n_boundary
        self.internal_colors: list[str] = []
        self.edges: list[tuple[int, int]] = []
        self.rotation: dict[int, tuple[int, ...]] = {}
        self._n_boundary = n_boundary

    def internal(self, color: str) -> int:
        self.internal_colors.append(color)
        return self._n_boundary + len(self.internal_colors) - 1

    def edge(self, a: int, b: int) -> int:
        self.edges.append((a, b))
        return len(self.edges) - 1

    def parts(self) -> tuple[list[str], list[str], list[tuple[int, int]], list[tuple[int, ...]]]:
        """Boundary colors, internal colors, edges and rotation, the fields of a Web."""
        rotation = [self.rotation[v] for v in range(self._n_boundary + len(self.internal_colors))]
        return self.boundary_colors, self.internal_colors, self.edges, rotation


def tymoczko_web(u: RowStrictTableau) -> Web:
    """Replace middle points by tripods and resolve each crossing into an H.

    At a crossing, the counterclockwise germ order is (first arc rightward,
    second arc rightward, first arc leftward, second arc leftward); the two
    germs pointing at tripod whites are cyclically adjacent, the new black
    vertex joins them, the new white vertex joins the other two, and the H bar
    joins black to white.
    """
    return Web(*_tymoczko_parts(u))


def _tymoczko_parts(u: RowStrictTableau):
    """The fields of tymoczko_web(u) as plain lists, before any Web is built."""
    diagram = m_diagram(u)
    crossings = find_crossings(diagram)
    builder = _WebBuilder(diagram.points)

    tripod = {}
    arc_at: dict[tuple[int, str], int] = {}  # (point, "top" | "bottom" | "boundary") -> arc
    for idx, arc in enumerate(diagram.arcs):
        if arc.middle not in tripod:
            tripod[arc.middle] = builder.internal(WHITE)
        arc_at[arc.middle, "bottom" if arc.middle == arc.left else "top"] = idx
        arc_at[arc.boundary_end, "boundary"] = idx
    legs = {mid: builder.edge(w, mid - 1) for mid, w in tripod.items()}
    cross_nodes = {}
    for c in crossings:
        cross_nodes[c] = (builder.internal(BLACK), builder.internal(WHITE))

    # split each arc at its crossings, walking left to right
    per_arc: dict[int, list[Crossing]] = {i: [] for i in range(len(diagram.arcs))}
    for c in crossings:
        per_arc[c.arc_a].append(c)
        per_arc[c.arc_b].append(c)
    for hits in per_arc.values():
        hits.sort(key=lambda c: c.x)
    segments: dict[int, list[int]] = {}
    for idx, arc in enumerate(diagram.arcs):
        white_is_left = arc.middle == arc.left
        nodes = [tripod[arc.middle] if white_is_left else arc.boundary_end - 1]
        for c in per_arc[idx]:
            u_c, v_c = cross_nodes[c]
            nodes.extend((u_c, v_c) if white_is_left else (v_c, u_c))
        nodes.append(arc.boundary_end - 1 if white_is_left else tripod[arc.middle])
        segments[idx] = [builder.edge(nodes[s], nodes[s + 1]) for s in range(0, len(nodes) - 1, 2)]

    def germ_edge(arc_idx: int, c: Crossing, direction: str) -> int:
        r = per_arc[arc_idx].index(c)
        return segments[arc_idx][r] if direction == "L" else segments[arc_idx][r + 1]

    for c in crossings:
        u_c, v_c = cross_nodes[c]
        bar = builder.edge(u_c, v_c)
        germs = [(c.arc_a, "R"), (c.arc_b, "R"), (c.arc_a, "L"), (c.arc_b, "L")]

        def toward_white(germ):
            arc = diagram.arcs[germ[0]]
            return germ[1] == ("L" if arc.middle == arc.left else "R")

        start = next(
            i for i in range(4) if toward_white(germs[i]) and toward_white(germs[(i + 1) % 4])
        )
        ordered = [germs[(start + d) % 4] for d in range(4)]
        builder.rotation[u_c] = (
            germ_edge(ordered[0][0], c, ordered[0][1]),
            germ_edge(ordered[1][0], c, ordered[1][1]),
            bar,
        )
        builder.rotation[v_c] = (
            bar,
            germ_edge(ordered[2][0], c, ordered[2][1]),
            germ_edge(ordered[3][0], c, ordered[3][1]),
        )

    for mid, w in tripod.items():
        top, bottom = segments[arc_at[mid, "top"]], segments[arc_at[mid, "bottom"]]
        builder.rotation[w] = (top[-1], legs[mid], bottom[0])

    for p in range(diagram.points):
        point = p + 1
        if point in tripod:
            builder.rotation[p] = (legs[point],)
        else:
            arc_idx = arc_at[point, "boundary"]
            white_is_left = diagram.arcs[arc_idx].middle == diagram.arcs[arc_idx].left
            builder.rotation[p] = (segments[arc_idx][-1] if white_is_left else segments[arc_idx][0],)
    return builder.parts()


def russell_web(t: RowStrictTableau) -> Web:
    """Web of a 3-row once-or-twice filling: build the standardization's web,
    then contract the boundary pair (j, j+1) of each doubled value.  The pairs
    are contracted on the builder's lists, so one Web is built."""
    u, pair_starts = standardize_with_pairs(t)
    return Web(*_contract(*_tymoczko_parts(u), pair_starts))


# --- table-based inverse ----------------------------------------------------

MAX_2ROW = 10
MAX_3ROW = 5


@lru_cache(maxsize=None)
def _matching_table(n: int) -> dict[tuple[Pair, ...], RowStrictTableau]:
    return {web_of_2row(t).pairs: t for t in enumerate_standard(Shape((n, n)))}


@lru_cache(maxsize=None)
def _web_table(k: int, h: int) -> dict[str, RowStrictTableau]:
    return {canonicalize(russell_web(t)): t for t in enumerate_russell(k, h)}


def tableau_of_web(web, shape) -> RowStrictTableau:
    """Invert the Catalan or Russell map by lookup over the enumerated family.

    `shape` is (n, n) for matchings or (k, k, k) for webs; for webs the
    repetition is read off the number of white boundary vertices.
    """
    shape = tuple(shape)
    if isinstance(web, Matching):
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"matching families have shape (n, n), got {shape}")
        if shape[0] > MAX_2ROW:
            raise ValueError(f"n={shape[0]} beyond the desk-scale bound {MAX_2ROW}")
        if shape[0] != web.n:
            raise LookupError(f"matching on {2 * web.n} points is not in the {shape} family")
        try:
            return _matching_table(web.n)[web.pairs]
        except KeyError:
            raise LookupError("matching is not in the image of the 2-row family") from None
    if len(shape) != 3 or len(set(shape)) != 1:
        raise ValueError(f"web families have shape (k, k, k), got {shape}")
    k = shape[0]
    if k > MAX_3ROW:
        raise ValueError(f"k={k} beyond the desk-scale bound {MAX_3ROW}")
    h = sum(1 for c in web.boundary_colors if c == WHITE)
    if web.n_boundary != 3 * k - h:
        raise LookupError(f"web has {web.n_boundary} boundary vertices, family wants {3 * k - h}")
    try:
        return _web_table(k, h)[canonicalize(web)]
    except KeyError:
        raise LookupError(f"web is not in the image of the (k={k}, h={h}) family") from None
