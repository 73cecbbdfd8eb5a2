"""Shared independent oracles and seeded generators for the test suite."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from webweave.jdt import delta, jdt_slide, slide_targets
from webweave.tableau import (
    EMPTY_TABLEAU,
    NotRussellError,
    RowStrictTableau,
    Shape,
    russell_repetition,
    standardize_with_pairs,
    tableau_from_cells,
)
from webweave.webcore import BLACK, WHITE, Web, _common_white_neighbor, contract_pairs, validate_web


def all_row_strict_fillings(shape, max_entry) -> list[RowStrictTableau]:
    """Brute force: every row-strict filling of a straight shape with entries
    at most max_entry."""
    cells = Shape(shape).cells()
    results = []
    filling: dict[tuple[int, int], int] = {}

    def fill(i):
        if i == len(cells):
            results.append(tableau_from_cells(dict(filling)))
            return
        r, c = cells[i]
        lo = 1
        if c > 1:
            lo = max(lo, filling[(r, c - 1)] + 1)
        if r > 1:
            lo = max(lo, filling[(r - 1, c)])
        for v in range(lo, max_entry + 1):
            filling[(r, c)] = v
            fill(i + 1)
        filling.pop((r, c), None)

    fill(0)
    return results


def random_skew_tableau(rng: random.Random, max_boxes: int = 10) -> RowStrictTableau:
    """A random genuinely skew row-strict tableau with at most max_boxes boxes."""
    while True:
        rows = rng.randint(1, 4)
        outer = sorted((rng.randint(1, 5) for _ in range(rows)), reverse=True)
        inner = []
        cap = outer[0]
        for r in range(rows):
            cap = min(cap, rng.randint(0, outer[r]))
            inner.append(cap)
        cells = {}
        for r in range(1, rows + 1):
            for c in range(inner[r - 1] + 1, outer[r - 1] + 1):
                lo = 1
                if (r, c - 1) in cells:
                    lo = max(lo, cells[(r, c - 1)] + 1)
                if (r - 1, c) in cells:
                    lo = max(lo, cells[(r - 1, c)])
                cells[(r, c)] = lo + rng.randint(0, 2)
        if 0 < len(cells) <= max_boxes and any(v > 0 for v in inner):
            return tableau_from_cells(cells)


def rectify_random_order(t: RowStrictTableau, rng: random.Random) -> RowStrictTableau:
    """Rectify choosing a uniformly random valid slide target at every step."""
    while True:
        targets = slide_targets(t)
        if not targets:
            return t
        t = jdt_slide(t, rng.choice(targets))


# --- evacuation by n delta steps -------------------------------------------

def evacuate_by_delta(t: RowStrictTableau) -> RowStrictTableau:
    """Evacuation: box sets vacated by successive delta steps, refilled with
    the reversed alphabet (step i vacates the boxes that receive n+1-i).
    The reference for webweave.jdt.evacuate."""
    if not t.is_straight:
        raise ValueError("evacuate requires a straight shape")
    n = t.max_entry
    if n == 0:
        return EMPTY_TABLEAU
    shapes = [set(t.entries)]
    cur = t
    for _ in range(n):
        cur = delta(cur)
        shapes.append(set(cur.entries))
    cells: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for cell in shapes[i - 1] - shapes[i]:
            cells[cell] = n + 1 - i
    return tableau_from_cells(cells)


# --- enumeration by box-by-box growth and by collapsing pairs --------------

def enumerate_standard_by_cells(shape: Shape) -> list[RowStrictTableau]:
    """Standard Young tableaux grown box by box on a cell map, each rebuilt
    with shape inference; sorted by column word.  The reference for
    webweave.tableau.enumerate_standard."""
    cells = shape.cells()
    n = len(cells)
    results: list[RowStrictTableau] = []
    filled: dict[tuple[int, int], int] = {}

    def grow(v: int) -> None:
        if v > n:
            results.append(tableau_from_cells(dict(filled)))
            return
        for (r, c) in cells:
            if (r, c) in filled:
                continue
            if (r > 1 and (r - 1, c) not in filled) or (c > 1 and (r, c - 1) not in filled):
                continue
            filled[(r, c)] = v
            grow(v + 1)
            del filled[(r, c)]

    grow(1)
    results.sort(key=lambda t: t.column_word())
    return results


def _merge_sets(limit: int, h: int) -> list[tuple[int, ...]]:
    """Size-h subsets of 1..limit with no two consecutive members."""
    out = []
    for combo in itertools.combinations(range(1, limit + 1), h):
        if all(b - a > 1 for a, b in zip(combo, combo[1:])):
            out.append(combo)
    return out


def enumerate_russell_by_collapse(k: int, h: int) -> list[RowStrictTableau]:
    """Russell fillings the long way round: collapse h disjoint consecutive
    pairs (j, j+1) in each standard tableau of shape (k,k,k) and keep the
    fillings whose standardization round-trips; sorted by column word.  The
    reference for webweave.tableau.enumerate_russell."""
    results = []
    for u in enumerate_standard_by_cells(Shape((k, k, k))):
        ent = u.entries
        for starts in _merge_sets(3 * k - 1, h):
            collapsed = {
                cell: v - sum(1 for s in starts if s < v) for cell, v in ent.items()
            }
            try:
                t = tableau_from_cells(collapsed)
            except ValueError:
                continue
            try:
                if russell_repetition(t) != h:
                    continue
                back, pairs = standardize_with_pairs(t)
            except NotRussellError:
                continue
            if back == u and pairs == starts:
                results.append(t)
    results.sort(key=lambda t: t.column_word())
    return results


# --- reflection by white-vertex expansion -----------------------------------

@dataclass(frozen=True)
class ExpandedWeb:
    """An all-black-boundary web plus the consecutive pairs (p, p+1) that may
    be contracted back into white boundary vertices."""

    web: Web
    contractible: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "contractible", tuple(sorted(int(p) for p in self.contractible)))
        for p, q in zip(self.contractible, self.contractible[1:]):
            if q - p < 2:
                raise ValueError(f"contractible pairs at {p} and {q} overlap")
        for p in self.contractible:
            _common_white_neighbor(self.web, p)


def expand_white(web: Web) -> ExpandedWeb:
    """Replace each white boundary vertex by a pair of black boundary vertices
    attached to a new internal white vertex (the reverse contraction)."""
    report = validate_web(web)
    if report:
        raise ValueError("cannot expand an invalid web: " + "; ".join(report))
    b = web.n_boundary
    whites = [v for v in range(b) if web.boundary_colors[v] == WHITE]
    if not whites:
        return ExpandedWeb(web, ())

    new_b = b + len(whites)
    # slot assignment along the boundary, preserving cyclic order
    slot_of: dict[int, int] = {}
    pair_slots: dict[int, tuple[int, int]] = {}
    contractible = []
    cursor = 0
    for v in range(b):
        if web.boundary_colors[v] == WHITE:
            pair_slots[v] = (cursor, cursor + 1)
            contractible.append(cursor + 1)  # 1-based position of the pair
            cursor += 2
        else:
            slot_of[v] = cursor
            cursor += 1

    # vertex ids: boundary slots first, then old internals, then restored whites
    remap: dict[int, int] = {}
    for v, slot in slot_of.items():
        remap[v] = slot
    for i, v in enumerate(range(b, web.n_vertices)):
        remap[v] = new_b + i
    restored = {v: new_b + (web.n_vertices - b) + i for i, v in enumerate(whites)}

    colors = [BLACK] * new_b + [web.internal_colors[v - b] for v in range(b, web.n_vertices)]
    colors += [WHITE] * len(whites)
    edges = []
    for a, bb in web.edges:
        edges.append(tuple(restored.get(x, remap.get(x)) for x in (a, bb)))
    rotation: list[tuple[int, ...]] = [()] * len(colors)
    for v in range(web.n_vertices):
        target = restored[v] if v in restored else remap[v]
        rotation[target] = web.rotation[v]
    for v in whites:
        left, right = pair_slots[v]
        e_left = len(edges)
        edges.append((restored[v], left))
        e_right = len(edges)
        edges.append((restored[v], right))
        old_edge = web.rotation[v][0]
        # ccw at the pulled-in white: old edge into the disk, then the leg to
        # the clockwise-side (smaller label) black, then the other leg
        rotation[restored[v]] = (old_edge, e_left, e_right)
        rotation[left] = (e_left,)
        rotation[right] = (e_right,)
    out = Web(tuple(colors[:new_b]), tuple(colors[new_b:]), tuple(edges), tuple(rotation))
    return ExpandedWeb(out, tuple(contractible))


def _mirror_all_black(web: Web) -> Web:
    """Reflect an all-black-boundary web: boundary label i becomes m+1-i and
    every rotation reverses (a mirror image reverses orientation)."""
    b = web.n_boundary
    remap = {v: (b - 1 - v if v < b else v) for v in range(web.n_vertices)}
    edges = tuple((remap[a], remap[bb]) for a, bb in web.edges)
    rotation: list[tuple[int, ...]] = [()] * web.n_vertices
    for v in range(web.n_vertices):
        rotation[remap[v]] = tuple(reversed(web.rotation[v]))
    return Web(web.boundary_colors, web.internal_colors, edges, tuple(rotation))


def reflect_web_by_expansion(web: Web) -> Web:
    """Reflection the long way round: expand white boundary vertices to black
    pairs, relabel i -> m+1-i while reversing every rotation, then recontract
    at the reflected pair positions.  The reference for the direct mirror
    webweave.webcore.reflect_web."""
    exp = expand_white(web)
    m = exp.web.n_boundary
    mirrored = _mirror_all_black(exp.web)
    return contract_pairs(mirrored, [m - p for p in exp.contractible])
