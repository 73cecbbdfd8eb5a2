"""Shared independent oracles and seeded generators for the test suite."""
from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

from webweave import verify
from webweave.bijection import (
    _ROWS_OF_STATE,
    Arc,
    ArcDiagram,
    Crossing,
    _russell_parts,
    web_of_2row,
)
from webweave.jdt import _slide, _slide_targets, jdt_slide, slide_targets
from webweave.tableau import (
    EMPTY_SHAPE,
    EMPTY_TABLEAU,
    NotRussellError,
    RowStrictTableau,
    Shape,
    SkewShape,
    _check_ints,
    _field,
    _typed,
    enumerate_russell,
    enumerate_standard,
    format_tableau,
    is_standard,
    russell_repetition,
    skew_shape_from_cells,
    standardize_with_pairs,
    tableau_from_cells,
)
from webweave.verify import _failure
from webweave.webcore import (
    BLACK,
    WHITE,
    Matching,
    Web,
    WebStructureError,
    _canonical,
    _check_structure,
    _contract,
    _fields,
    canonicalize,
    reflect_matching,
    reflect_web,
    validate_web,
)


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


def column_word_by_entries(t: RowStrictTableau) -> tuple[int, ...]:
    """Column reading word read off the (row, column) -> entry map: columns
    right to left, each top to bottom.  The reference for the rows-level
    tableau._column_word."""
    ent = t.entries
    if not ent:
        return ()
    max_col = max(c for _, c in ent)
    word: list[int] = []
    for c in range(max_col, 0, -1):
        for r in range(1, len(t.rows) + 1):
            if (r, c) in ent:
                word.append(ent[(r, c)])
    return tuple(word)


def random_filling(rng: random.Random, n_rows: int, k: int, doubled: int = 0) -> RowStrictTableau:
    """A random filling of the n_rows x k rectangle, grown value by value: each
    value takes an addable box and, while fewer than `doubled` values have,
    maybe a second one in a lower row.  Standard when doubled is 0."""
    rows: list[list[int]] = [[] for _ in range(n_rows)]

    def addable(r: int) -> bool:
        return len(rows[r]) < k and (r == 0 or len(rows[r - 1]) > len(rows[r]))

    v = 1
    while sum(map(len, rows)) < n_rows * k:
        r = rng.choice([r for r in range(n_rows) if addable(r)])
        rows[r].append(v)
        lower = [s for s in range(r + 1, n_rows) if addable(s)]
        if doubled and lower and rng.random() < 0.5:
            rows[rng.choice(lower)].append(v)
            doubled -= 1
        v += 1
    return RowStrictTableau.from_rows(rows)


def rectify_random_order(t: RowStrictTableau, rng: random.Random) -> RowStrictTableau:
    """Rectify choosing a uniformly random valid slide target at every step."""
    while True:
        targets = slide_targets(t)
        if not targets:
            return t
        t = jdt_slide(t, rng.choice(targets))


def slide_targets_by_trial(t: RowStrictTableau) -> list[tuple[int, int]]:
    """Try each empty cell left of or above a box: it is a target if the boxes
    with it added still infer a skew shape.  The reference for
    webweave.jdt.slide_targets, which reads the targets off the shape."""
    occupied = set(t.entries)
    candidates = set()
    for (r, c) in occupied:
        if c > 1:
            candidates.add((r, c - 1))
        if r > 1:
            candidates.add((r - 1, c))
    out = []
    for cell in sorted(candidates - occupied):
        try:
            skew_shape_from_cells(occupied | {cell})
        except ValueError:
            continue
        out.append(cell)
    return out


def random_skew_filling(rng: random.Random) -> RowStrictTableau:
    """A random row-strict filling of a random skew shape, up to 5 rows and 6
    columns, given as from_rows takes it: rows may be empty, and the inner
    shape need not be tight (a row may end left of the inner part above)."""
    outer = sorted((rng.randint(0, 6) for _ in range(rng.randint(1, 5))), reverse=True)
    outer[0] = max(outer[0], 1)
    inner, cap = [], outer[0]
    for part in outer:
        cap = min(cap, rng.randint(0, part))
        inner.append(cap)
    cells: dict[tuple[int, int], int] = {}
    rows = []
    for r, (lo, hi) in enumerate(zip(inner, outer), 1):
        for c in range(lo + 1, hi + 1):
            low = max(cells.get((r, c - 1), 0) + 1, cells.get((r - 1, c), 1))
            cells[(r, c)] = low + rng.randint(0, 2)
        rows.append([cells[(r, c)] for c in range(lo + 1, hi + 1)])
    while len(rows) > 1 and not outer[len(rows) - 1]:
        rows.pop()
    return RowStrictTableau.from_rows(rows, tuple(p for p in inner[: len(rows)] if p))


def skew_shape_by_row_scans(cells) -> SkewShape:
    """The tight skew shape covering exactly the given boxes, each row's
    columns found by a scan of every box.  The reference for
    webweave.tableau.skew_shape_from_cells, which groups the boxes by row
    in one pass."""
    cells = set(cells)
    if not cells:
        return SkewShape(EMPTY_SHAPE, EMPTY_SHAPE)
    if any(r < 1 or c < 1 for r, c in cells):
        raise ValueError("boxes must have positive coordinates")
    max_row = max(r for r, _ in cells)
    spans: list[tuple[int, int] | None] = []
    for r in range(1, max_row + 1):
        cols = [c for (rr, c) in cells if rr == r]
        if not cols:
            spans.append(None)
            continue
        lo, hi = min(cols), max(cols)
        if len(cols) != hi - lo + 1:
            raise ValueError(f"row {r} is not contiguous: {sorted(cols)}")
        spans.append((lo, hi))
    outer = [0] * max_row
    inner = [0] * max_row
    for r in range(max_row, 0, -1):
        span = spans[r - 1]
        if span is None:
            below = outer[r] if r < max_row else 0
            outer[r - 1] = inner[r - 1] = below
        else:
            outer[r - 1] = span[1]
            inner[r - 1] = span[0] - 1
    for r in range(1, max_row):
        if outer[r] > outer[r - 1] or inner[r] > inner[r - 1]:
            raise ValueError("cells do not form a skew diagram")
    return SkewShape(Shape(tuple(outer)), Shape(tuple(p for p in inner if p > 0)))


def random_box_set(rng: random.Random) -> set[tuple[int, int]]:
    """Boxes in rows and columns up to 6: half the time the boxes of a random
    skew filling, and otherwise each box of a grid kept with one random
    chance, the grid starting at 0 a third of the time.  So some sets form
    skew diagrams, and some have a box at 0, a broken row or no skew shape."""
    if rng.randrange(2):
        return set(random_skew_filling(rng).entries)
    keep, low = rng.random(), rng.choice((0, 1, 1))
    return {(r, c) for r in range(low, 7) for c in range(low, 7) if rng.random() < keep}


# --- the tableau gate with a probe of the cell map --------------------------

def first_fault(check, *args):
    """None if check(*args) returns, else the type and message of the
    ValueError it raises: what a gate and its oracle must agree on."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def broken_column_by_cells(rows, inner=()) -> tuple[int, int] | None:
    """(row, column) of the first box, in (row, column) order, less than the
    box above it, probed on the (row, column) -> entry map of a filling whose
    row r+1 starts right of inner[r] boxes.  The reference for
    webweave.tableau._broken_column."""
    entries = {}
    for r, row in enumerate(rows, 1):
        offset = inner[r - 1] if r <= len(inner) else 0
        for j, v in enumerate(row, 1):
            entries[(r, offset + j)] = v
    for (r, c), v in entries.items():
        above = entries.get((r - 1, c))
        if above is not None and above > v:
            return r, c
    return None


def tableau_gate_by_cells(shape: SkewShape, rows) -> None:
    """The checks RowStrictTableau makes, in its order, with its messages, the
    column check by the cell-map probe: the reference for its construction."""
    _check_ints((v for row in rows for v in row), "entry")
    outer, inner = shape.outer, shape.inner
    if len(rows) != len(outer):
        raise ValueError(f"expected {len(outer)} rows, got {len(rows)}")
    for r, row in enumerate(rows, start=1):
        if len(row) != outer.row(r) - inner.row(r):
            raise ValueError(f"row {r} has {len(row)} entries, shape wants {outer.row(r) - inner.row(r)}")
        for v in row:
            if v <= 0:
                raise ValueError(f"entries must be positive, got {v}")
        for a, b in zip(row, row[1:]):
            if a >= b:
                raise ValueError(f"row {r} not strictly increasing: {row}")
    broken = broken_column_by_cells(rows, inner.parts)
    if broken:
        r, c = broken
        raise ValueError(f"column {c} not weakly increasing at row {r}")


# --- rectification and delta by slides --------------------------------------

# The references for webweave.jdt.rectify and delta, which insert the row
# reading word instead.
def rectify_by_slides(t: RowStrictTableau) -> RowStrictTableau:
    """Slide one cell map into the lexicographically last valid target until
    none is left; the result is independent of this choice (a tested
    property).  A tableau with no target comes back as it is."""
    cells = t.entries
    targets = _slide_targets(cells)
    if not targets:
        return t
    while targets:
        _slide(cells, targets[-1])
        targets = _slide_targets(cells)
    return tableau_from_cells(cells)


def delta_by_slides(t: RowStrictTableau) -> RowStrictTableau:
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
        cur = delta_by_slides(cur)
        shapes.append(set(cur.entries))
    cells: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for cell in shapes[i - 1] - shapes[i]:
            cells[cell] = n + 1 - i
    return tableau_from_cells(cells)


def evacuate_by_cells(t: RowStrictTableau) -> RowStrictTableau:
    """Evacuation: the n delta steps on one cell map, where the boxes that
    step i vacates receive n+1-i; the result is built once from its cells.
    The reference for the slide kernel, which it preceded.

    The filling stays straight, so its least value i heads column 1 in rows
    1, 2, ...; those boxes are deleted and their holes slid closed from the
    bottom one up, each stopping box taking n+1-i.  A missing value vacates
    nothing.
    """
    if not t.is_straight:
        raise ValueError("evacuate requires a straight shape")
    n = t.max_entry
    cells = t.entries
    out: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        r = 1
        while cells.get((r, 1)) == i:
            r += 1
        for hole in range(r - 1, 0, -1):
            del cells[(hole, 1)]
            out[_slide(cells, (hole, 1))] = n + 1 - i
    result = tableau_from_cells(out)
    if result.shape != t.shape:
        raise AssertionError("evacuate changed the shape")
    return result


# --- evacuation by slides on plain rows ------------------------------------

# The reference for webweave.jdt._evacuate_rows, which computes the same map
# by one row-insertion pass (Schützenberger's evac(P(w)) = P(w#)).
def evacuate_rows_by_slides(rows) -> list[list[int]]:
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


# --- Greene-Kleitman invariants by chain-cover search -----------------------

# The reference for webweave.jdt.gk_profile on words too long for the
# unpruned and subset searches.  Its chains start from the end 0, so it is
# exact only for words of positive letters.
def _best_chain_cover(word: tuple[int, ...], chains: int) -> int:
    """Longest subword of `word` coverable by `chains` nondecreasing subwords.

    Memoized search over (position, multiset of chain ends).  Two exact
    reductions keep the state space small: chain ends are compressed to the
    least remaining letter that is >= them (states with the same future merge),
    and a letter is only ever appended to the largest feasible end (an
    exchange argument; cross-checked against the unpruned search in tests).
    """
    n = len(word)
    suffix_letters: list[list[int]] = [[] for _ in range(n + 1)]
    for p in range(n - 1, -1, -1):
        letters = set(suffix_letters[p + 1])
        letters.add(word[p])
        suffix_letters[p] = sorted(letters)
    dead = (max(word) if word else 0) + 1

    def compress(ends: tuple[int, ...], p: int) -> tuple[int, ...]:
        letters = suffix_letters[p]
        out = []
        for e in ends:
            i = bisect_left(letters, e)
            out.append(letters[i] if i < len(letters) else dead)
        return tuple(sorted(out))

    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(p: int, ends: tuple[int, ...]) -> int:
        if p == n:
            return 0
        key = (p, ends)
        hit = memo.get(key)
        if hit is not None:
            return hit
        x = word[p]
        score = best(p + 1, compress(ends, p + 1))
        i = bisect_left(ends, x + 1) - 1  # largest end <= x
        if i >= 0:
            extended = ends[:i] + ends[i + 1 :] + (x,)
            score = max(score, 1 + best(p + 1, compress(extended, p + 1)))
        memo[key] = score
        return score

    return best(0, compress((0,) * chains, 0))


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


def _fill_by_closures(parts, rows, v, left, remaining, last):
    """The children of one growth node, as webweave.tableau._fill makes
    them, with one `addable` closure per node, asked again for every row.
    Each value takes one addable box or, for exactly `left` of the values,
    an addable box plus a box in a lower row that is addable once the first
    is placed; a child with more doubled values left than half its empty
    boxes is not made.  `_fill` grows standard tableaux alone (left 0)."""

    def addable(r: int) -> bool:
        n = len(rows[r])
        return n < parts[r] and (r == 0 or len(rows[r - 1]) > n)

    cut = v >= last
    for r in range(len(parts)):
        if not addable(r):
            continue
        rows[r].append(v)
        if 2 * left < remaining:
            yield rows if cut or remaining == 1 else _fill_by_closures(parts, rows, v + 1, left, remaining - 1, last)
        if left:
            for s in range(r + 1, len(parts)):
                if addable(s):
                    rows[s].append(v)
                    yield (rows if cut or remaining == 2
                           else _fill_by_closures(parts, rows, v + 1, left - 1, remaining - 2, last))
                    rows[s].pop()
        rows[r].pop()


def grow_by_closures(shape: Shape, doubled: int, prefix=(), last=inf) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every filling of a straight shape with the values 1, 2,
    ..., exactly `doubled` of them in two boxes, grown by `_fill_by_closures`
    from `prefix` and cut after `last` as webweave.tableau._grow cuts it.
    At doubled 0 it is the reference for the order of `_grow` and of
    Family.shards(); at doubled h it is the growth that once listed the
    Russell fillings, and the reference for the set that
    `tableau._russell_fillings` gives from every standard tableau."""
    parts = shape.parts
    rows = [list(row) for row in prefix] or [[] for _ in parts]
    placed = sum(map(len, rows))
    top = max(map(max, filter(None, rows)), default=0)
    left, remaining = doubled - (placed - top), shape.size - placed
    if 2 * left > remaining:
        return []
    if remaining == 0 or top >= last:
        return [tuple(map(tuple, rows))]
    out = []
    stack = [_fill_by_closures(parts, rows, top + 1, left, remaining, last)]
    while stack:
        for child in stack[-1]:
            if child is not rows:
                stack.append(child)
                break
            out.append(tuple(map(tuple, rows)))
        else:
            stack.pop()
    return out


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


# --- standardization by repeated splitting ---------------------------------

def standardize_cells_by_splitting(t: RowStrictTableau) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
    """Split the smallest duplicated value at a time, shifting every larger
    entry up by one, until no value repeats; also report where each doubled
    original value ended up, as {original value: (j, j+1) pair start j}.  The
    reference for webweave.tableau._standardize."""
    cells = dict(t.entries)
    originals = {cell: v for cell, v in cells.items()}
    doubled = sorted({v for v in t.values() if sum(1 for x in t.values() if x == v) == 2})
    while True:
        seen: dict[int, list[tuple[int, int]]] = {}
        for cell, v in cells.items():
            seen.setdefault(v, []).append(cell)
        dups = sorted(v for v, cs in seen.items() if len(cs) > 1)
        if not dups:
            break
        i = dups[0]
        if len(seen[i]) != 2:
            raise NotRussellError(f"value {i} appears {len(seen[i])} times")
        a, b = sorted(seen[i])  # row order; the lower instance gets i+1
        if a[0] == b[0]:
            raise NotRussellError(f"doubled value {i} appears twice in row {a[0]}")
        for cell, v in cells.items():
            if v > i:
                cells[cell] = v + 1
        cells[b] = i + 1
    pair_starts = {}
    for v in doubled:
        spots = sorted(cell for cell, orig in originals.items() if orig == v)
        upper, lower = spots
        j, j1 = cells[upper], cells[lower]
        if j1 != j + 1:
            raise NotRussellError(f"doubled value {v} split into non-consecutive {j}, {j1}")
        pair_starts[v] = j
    return cells, pair_starts


def standardize_rows_by_values(rows) -> tuple[list[list[int]], tuple[int, ...]]:
    """webweave.tableau._standardize as a dict of box lists walked value by
    value: the reference for the sort's results and refusals."""
    parts = tuple(map(len, rows))
    if len(parts) != 3 or not parts[0] == parts[1] == parts[2]:
        raise NotRussellError(f"shape {parts} is not a 3-row rectangle")
    boxes: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(rows):  # row by row, so each list runs top down
        for c, v in enumerate(row):
            boxes.setdefault(v, []).append((r, c))
    out = [list(row) for row in rows]
    starts = []
    smaller = 0
    for v in range(1, max(boxes, default=0) + 1):
        spots = boxes.get(v)
        if spots is None:
            raise NotRussellError(f"value {v} is missing")
        if len(spots) > 2:
            raise NotRussellError(f"value {v} appears {len(spots)} times")
        if len(spots) == 2:
            _, (lower, c) = spots
            out[lower][c] = smaller + 2
            starts.append(smaller + 1)
        r, c = spots[0]
        out[r][c] = smaller + 1
        smaller += len(spots)
    return out, tuple(starts)


def standardize_with_pairs_by_splitting(t: RowStrictTableau) -> tuple[RowStrictTableau, tuple[int, ...]]:
    """webweave.tableau.standardize_with_pairs on the splitting reference."""
    russell_repetition(t)
    cells, pair_starts = standardize_cells_by_splitting(t)
    return tableau_from_cells(cells), tuple(sorted(pair_starts.values()))


# --- contraction one pair at a time -----------------------------------------

def _common_white_neighbor(web: Web, p: int) -> tuple[int, int, int]:
    """The shared white neighbor of boundary vertices p and p+1 (1-based,
    cyclic); returns (white vertex, edge at p, edge at p+1)."""
    b = web.n_boundary
    if not 1 <= p <= b:
        raise ValueError(f"position {p} out of range 1..{b}")
    vp, vq = p - 1, p % b
    for v in (vp, vq):
        if web.boundary_colors[v] != BLACK:
            raise ValueError(f"boundary vertex {v + 1} is not black")
        if len(web.rotation[v]) != 1:
            raise ValueError(f"boundary vertex {v + 1} does not have degree 1")
    ep, eq = web.rotation[vp][0], web.rotation[vq][0]
    u = _other(web, ep, vp)
    if _other(web, eq, vq) != u or web.color(u) != WHITE:
        raise ValueError(f"boundary vertices {p} and {p % b + 1} have no common white neighbor")
    return u, ep, eq


def _other(web: Web, e: int, v: int) -> int:
    a, b = web.edges[e]
    return b if v == a else a


def _contract_one(web: Web, p: int) -> Web:
    """Delete the black boundary pair (p, p+1) and move their shared white
    neighbor onto the boundary in their place, building a new Web."""
    _check_structure(_fields(web))
    b = web.n_boundary
    u, ep, eq = _common_white_neighbor(web, p)
    if web.is_boundary(u):
        raise ValueError("shared white neighbor already lies on the boundary")
    rot_u = web.rotation[u]
    iu = rot_u.index(ep)
    if rot_u[(iu + 1) % len(rot_u)] != eq:
        raise ValueError("contraction pair edges are not adjacent in the white vertex's rotation")
    vp, vq = p - 1, p % b

    # new boundary: u replaces the pair; seam contraction (p == b) appends u
    if p < b:
        new_boundary = [v for v in range(b) if v not in (vp, vq)]
        new_boundary.insert(p - 1, u)
    else:
        new_boundary = [v for v in range(1, b - 1)] + [u]
    new_internal = [v for v in range(b, web.n_vertices) if v != u]
    remap = {v: i for i, v in enumerate(new_boundary + new_internal)}

    keep_edges = [e for e in range(len(web.edges)) if e not in (ep, eq)]
    edge_remap = {e: i for i, e in enumerate(keep_edges)}
    edges = tuple((remap[a], remap[bb]) for a, bb in (web.edges[e] for e in keep_edges))
    colors = [None] * len(remap)
    rotation: list[tuple[int, ...]] = [()] * len(remap)
    for v, new_v in remap.items():
        colors[new_v] = web.color(v)
        rotation[new_v] = tuple(edge_remap[e] for e in web.rotation[v] if e in edge_remap)
    nb = len(new_boundary)
    return Web(tuple(colors[:nb]), tuple(colors[nb:]), edges, tuple(rotation))


def contract_pairs_one_by_one(web: Web, positions) -> Web:
    """Contract at several recorded pair positions, lowest first, one Web per
    pair; each earlier contraction shifts the later positions down by one.
    The reference for webweave.webcore.contract_pairs."""
    for done, p in enumerate(sorted(positions)):
        web = _contract_one(web, p - done)
    return web


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
    return contract_pairs_one_by_one(mirrored, [m - p for p in exp.contractible])


# --- the pairing remark's two orders, each by min or max over a list -------

def pairing_bottom_first(top, bottom):
    """Pair each bottom value, in increasing order, with the largest unpaired
    smaller top value, found by max over a list; the pairs sorted.  The
    reference for webweave.bijection.catalan_pairing."""
    unpaired = sorted(top)
    pairs = []
    for b in sorted(bottom):
        t = max(x for x in unpaired if x < b)
        unpaired.remove(t)
        pairs.append((t, b))
    return tuple(sorted(pairs))


def pairing_top_first(top, bottom):
    """Pair each top value, in decreasing order, with the least unpaired
    larger bottom value; the pairs sorted.  The pairing remark says this
    gives catalan_pairing's pairs too."""
    unpaired = sorted(bottom)
    pairs = []
    for t in sorted(top, reverse=True):
        b = min(x for x in unpaired if x > t)
        unpaired.remove(b)
        pairs.append((t, b))
    return tuple(sorted(pairs))


# --- the m-diagram, its crossings and the web, by objects and Fractions -----

def m_diagram_by_pairing(u: RowStrictTableau) -> ArcDiagram:
    """Join each middle-row entry to its pairing_bottom_first partners in the
    rows above and below.  The reference for webweave.bijection.m_diagram;
    it shares no pairing code with the library."""
    if not (u.is_rectangular and len(u.rows) == 3 and is_standard(u)):
        raise ValueError("expected a standard tableau of shape (k, k, k)")
    top_partner = {b: t for t, b in pairing_bottom_first(u.rows[0], u.rows[1])}
    bottom_partner = {t: b for t, b in pairing_bottom_first(u.rows[1], u.rows[2])}
    arcs = []
    for mid in u.rows[1]:
        arcs.append(Arc(top_partner[mid], mid, middle=mid))
        arcs.append(Arc(mid, bottom_partner[mid], middle=mid))
    return ArcDiagram(u.size, tuple(arcs))


def find_crossings_by_fraction(diagram: ArcDiagram) -> tuple[Crossing, ...]:
    """Every interleaving arc pair with its intersection abscissa as a
    Fraction, sorted by (first-opening arc, abscissa, other arc).  The
    reference for webweave.bijection.find_crossings."""
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

    def parts(self):
        rotation = [self.rotation[v] for v in range(self._n_boundary + len(self.internal_colors))]
        return self.boundary_colors, self.internal_colors, self.edges, rotation


def tymoczko_parts_by_diagram(u: RowStrictTableau):
    """The fields of tymoczko_web(u) built from the ArcDiagram, its Crossing
    objects and Crossing-keyed dicts.  The reference for the integer builder
    webweave.bijection._tymoczko_parts."""
    diagram = m_diagram_by_pairing(u)
    crossings = find_crossings_by_fraction(diagram)
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


def russell_parts_by_diagram(t: RowStrictTableau):
    """The fields of russell_web(t) on the reference builder."""
    u, starts = standardize_with_pairs(t)
    return _contract(tymoczko_parts_by_diagram(u), starts)


# --- the web gate as two id passes and a sorted structure check ------------

def web_gate_by_passes(parts) -> None:
    """A pass refusing edge endpoints that are not integers, one refusing such
    rotation entries, then the structure check, its incidences in a dict and
    compared sorted.  The reference for webweave.webcore._check_structure,
    which makes one pass over the edges and one over the rotation."""
    boundary_colors, internal_colors, edges, rotation = parts
    _check_ints((v for edge in edges for v in edge), "id")
    _check_ints((e for rot in rotation for e in rot), "id")
    for colors in (boundary_colors, internal_colors):
        for c in colors:
            if c not in (BLACK, WHITE):
                raise ValueError(f"bad color {c!r}")
    nv = len(boundary_colors) + len(internal_colors)
    if len(rotation) != nv:
        raise WebStructureError(f"rotation lists {len(rotation)} vertices, web has {nv}")
    seen_at: dict[int, list[int]] = {e: [] for e in range(len(edges))}
    for v, rot in enumerate(rotation):
        for e in rot:
            if not 0 <= e < len(edges):
                raise WebStructureError(f"vertex {v} lists unknown edge {e}")
            seen_at[e].append(v)
    for e, (a, b) in enumerate(edges):
        if not (0 <= a < nv and 0 <= b < nv):
            raise WebStructureError(f"edge {e} endpoint out of range")
        if a == b:
            raise WebStructureError(f"edge {e} is a loop")
        if sorted(seen_at[e]) != sorted((a, b)):
            raise WebStructureError(f"edge {e} incidences {seen_at[e]} disagree with endpoints {(a, b)}")


def _other_type(rng: random.Random, v):
    """The id v as a float, equal to it or not, a bool or a str."""
    if not isinstance(v, int):
        return str(v)
    return rng.choice((float(v), v + 0.5, bool(v % 2), str(v)))


def with_float_bar(build):
    """The web builder `build` with a seeded fault: the first endpoint of its
    last edge, which joins two internal vertices when the Tymoczko builder
    resolves a crossing, is a float equal to it."""

    def seeded(rows):
        boundary_colors, internal_colors, edges, rotation = build(rows)
        *edges, (a, b) = edges
        return boundary_colors, internal_colors, [*edges, (float(a), b)], rotation

    return seeded


def without_last_vertex(build):
    """The web builder `build` with a seeded fault: its last internal vertex
    is dropped, color and rotation, and the edges still name it."""

    def seeded(rows):
        boundary_colors, internal_colors, edges, rotation = build(rows)
        return boundary_colors, internal_colors[:-1], edges, rotation[:-1]

    return seeded


def mutate_web_parts(rng: random.Random, parts):
    """The plain fields of a web with one seeded fault in one field: an id
    that is a float, a bool or a str, in an edge or in the rotation; an id
    out of range; a loop; two vertices' rotations swapped; a bad color; or a
    dropped vertex (its rotation, and its color if it is internal)."""
    boundary_colors, internal_colors, edges, rotation = (list(field) for field in parts)
    nv, b = len(boundary_colors) + len(internal_colors), len(boundary_colors)
    vertex = rng.randrange(len(rotation))
    kind = rng.randrange(8)
    if kind == 0:  # an edge endpoint of another type
        e, side = rng.randrange(len(edges)), rng.randrange(2)
        pair = list(edges[e])
        pair[side] = _other_type(rng, pair[side])
        edges[e] = tuple(pair)
    elif kind == 1:  # a rotation entry of another type
        rot = list(rotation[vertex])
        i = rng.randrange(len(rot))
        rot[i] = _other_type(rng, rot[i])
        rotation[vertex] = tuple(rot)
    elif kind == 2:  # an endpoint out of range
        e, side = rng.randrange(len(edges)), rng.randrange(2)
        pair = list(edges[e])
        pair[side] = rng.choice((-1, nv, nv + 7))
        edges[e] = tuple(pair)
    elif kind == 3:  # a rotation entry naming no edge
        rotation[vertex] = (*rotation[vertex][:-1], rng.choice((-1, len(edges))))
    elif kind == 4:  # a loop
        e = rng.randrange(len(edges))
        edges[e] = (edges[e][0], edges[e][0])
    elif kind == 5:  # two rotations swapped
        other = rng.randrange(len(rotation) - 1)
        other += other >= vertex
        rotation[vertex], rotation[other] = rotation[other], rotation[vertex]
    elif kind == 6:  # a bad color
        colors = boundary_colors if rng.randrange(2) or not internal_colors else internal_colors
        colors[rng.randrange(len(colors))] = rng.choice(("red", None, BLACK.upper()))
    else:  # a dropped vertex
        del rotation[vertex]
        if b <= vertex < nv and rng.randrange(2):
            del internal_colors[vertex - b]
    return boundary_colors, internal_colors, edges, rotation


def turn_or_recolor(rng: random.Random, parts):
    """The plain fields of a web with one vertex changed in a way the
    structure gate passes: its rotation reversed or turned by one step, or
    its color flipped."""
    boundary_colors, internal_colors, edges, rotation = (list(field) for field in parts)
    vertex = rng.randrange(len(rotation))
    kind = rng.randrange(3)
    if kind == 0:
        rotation[vertex] = rotation[vertex][::-1]
    elif kind == 1:
        rotation[vertex] = (*rotation[vertex][1:], *rotation[vertex][:1])
    else:
        b = len(boundary_colors)
        colors, i = (boundary_colors, vertex) if vertex < b else (internal_colors, vertex - b)
        colors[i] = WHITE if colors[i] == BLACK else BLACK
    return tuple(boundary_colors), tuple(internal_colors), tuple(edges), tuple(rotation)


def renumber_web_parts(rng: random.Random, parts):
    """The plain fields of the same web up to isotopy, written another way:
    its internal vertices and its edges renumbered at random, each edge's
    ends in either order, and each internal rotation read from a random
    start.  The boundary keeps its labels."""
    boundary_colors, internal_colors, edges, rotation = parts
    b, ni = len(boundary_colors), len(internal_colors)
    order = rng.sample(range(b, b + ni), ni)  # the old vertex at each new internal id
    vertex = list(range(b + ni))
    for new_v, v in enumerate(order, b):
        vertex[v] = new_v
    edge = rng.sample(range(len(edges)), len(edges))  # the new id of each old edge
    new_edges = [()] * len(edges)
    for e, (x, y) in enumerate(edges):
        new_edges[edge[e]] = (vertex[x], vertex[y]) if rng.randrange(2) else (vertex[y], vertex[x])
    new_rotation = [tuple(edge[e] for e in rotation[v]) for v in (*range(b), *order)]
    for v in range(b, b + ni):
        turn = rng.randrange(len(new_rotation[v]) or 1)
        new_rotation[v] = new_rotation[v][turn:] + new_rotation[v][:turn]
    new_colors = tuple(internal_colors[v - b] for v in order)
    return tuple(boundary_colors), new_colors, tuple(new_edges), tuple(new_rotation)


# --- faces as lists, and the inverse read off them -------------------------

def augmented_faces_by_lists(parts):
    """Faces of the map augmented with the boundary circle, given the plain
    fields of a structurally sound web: each face as its list of half-edges in
    order, and the face of each half-edge.  Half-edge 2e starts at edges[e][0]
    and 2e+1 at edges[e][1]; with E edges, arc i from boundary vertex i to
    i+1 (mod b) has the halves 2E+2i and 2E+2i+1.  The even arc halves make
    the face outside the disk; the odd half of arc i lies in the disk face
    between labels i+1 and i+2.  Each vertex's half-edges are listed
    before they are linked.  The reference for webweave.webcore._face_successors,
    whose cycles are these faces."""
    boundary_colors, _, edges, rotation = parts
    b = len(boundary_colors)
    arc_base = 2 * len(edges)
    # succ[h] follows h around its face: the half-edge after h's twin, ccw at
    # the twin's start.  Half-edges are named, not found by their endpoints,
    # so parallel arcs (b == 2) and the arc loop (b == 1) stay well-formed.
    succ = [0] * (arc_base + 2 * b)
    for v, rot in enumerate(rotation):
        halves = [2 * e + (edges[e][0] != v) for e in rot]
        if v < b:
            # ccw at a boundary vertex: arc toward the next label, the web
            # edge into the disk, arc back toward the previous label
            halves = [arc_base + 2 * v, *halves, arc_base + 2 * ((v - 1) % b) + 1]
        prev = halves[-1] if halves else 0
        for h in halves:
            succ[prev ^ 1] = h
            prev = h
    faces: list[list[int]] = []
    face_of = [-1] * len(succ)
    for start in range(len(succ)):
        if face_of[start] < 0:
            face, h = [], start
            while face_of[h] < 0:
                face_of[h] = len(faces)
                face.append(h)
                h = succ[h]
            faces.append(face)
    return faces, face_of


def tableau_rows_by_face_lists(parts) -> tuple[tuple[int, ...], ...]:
    """The rows of the 3-row filling whose web has these checked plain
    fields.  A face's depth is the number of web edges crossed on a shortest
    way to it from the disk face between labels b and 1, and label i places
    the value i by its state.  A state outside -1..1 raises LookupError; any
    other web outside the family gives rows that the forward map does not
    send back to it.  Every face is listed before the search by depth
    reads any of them.  The reference for webweave.bijection._tableau_rows."""
    boundary_colors, _, edges, _ = parts
    if not boundary_colors:
        raise LookupError("a web without boundary vertices has no tableau")
    arc_base = 2 * len(edges)
    faces, face_of = augmented_faces_by_lists(parts)
    depth = [-1] * len(faces)
    depth[face_of[-1]] = 0  # the last half-edge is the odd half of arc b-1
    queue = [face_of[-1]]
    for f in queue:
        for h in faces[f]:
            g = face_of[h ^ 1]
            if h < arc_base and depth[g] < 0:
                depth[g] = depth[f] + 1
                queue.append(g)
    after = [depth[f] for f in face_of[arc_base + 1 :: 2]]  # the disk face after each label
    rows: tuple[list[int], ...] = ([], [], [])
    for i, color in enumerate(boundary_colors):
        state = after[i] - after[i - 1]
        if (color, state) not in _ROWS_OF_STATE:
            raise LookupError(f"boundary vertex {i + 1} has state {state}, outside -1..1")
        for r in _ROWS_OF_STATE[color, state]:
            rows[r].append(i + 1)
    return tuple(tuple(row) for row in rows)


def defects_by_face_lists(parts) -> list[str]:
    """The violations of the plain fields of a structurally sound web, read
    off the list of every face.  The reference for webweave.webcore._defects,
    which traces each face once off the face permutation."""
    boundary_colors, internal_colors, edges, rotation = parts
    report: list[str] = []
    b = len(boundary_colors)
    colors = (*boundary_colors, *internal_colors)
    for v, rot in enumerate(rotation):
        want = 1 if v < b else 3
        where = f"boundary vertex {v + 1}" if v < b else f"internal vertex {v - b}"
        if len(rot) != want:
            report.append(f"{where} has degree {len(rot)}, expected {want}")
    for e, (x, y) in enumerate(edges):
        if colors[x] == colors[y]:
            report.append(f"edge {e} joins two {colors[x]} vertices")
    if b == 0:
        if colors or edges:
            report.append("web without boundary vertices is not embeddable in the disk model")
        return report
    faces, _ = augmented_faces_by_lists(parts)
    euler = len(colors) - (len(edges) + b) + len(faces)
    if euler != 2:
        report.append(f"rotation system is not a planar disk embedding (V-E+F = {euler}, expected 2)")
        return report
    for face in faces:
        if len(face) < 6 and max(face) < 2 * len(edges):  # no arc half: internal
            report.append(f"internal face of size {len(face)} < 6")
    return report


# --- the canonical key by breadth-first search on a Web ---------------------

def canonicalize_by_bfs(web: Web) -> str:
    """Breadth-first from the boundary vertices in label order, reading each
    internal vertex's rotation from its discovery edge, with dict-based names.
    The reference for webweave.webcore.canonicalize and its kernel."""
    _check_structure(_fields(web))
    b = web.n_boundary
    order: dict[int, int] = {v: v for v in range(b)}
    anchor: dict[int, int] = {}
    queue = deque(range(b))
    nxt = b

    def anchored(v: int) -> tuple[int, ...]:
        rot = web.rotation[v]
        if v < b or v not in anchor:
            return rot
        i = rot.index(anchor[v])
        return rot[i:] + rot[:i]

    while queue:
        v = queue.popleft()
        for e in anchored(v):
            w = _other(web, e, v)
            if w not in order:
                order[w] = nxt
                nxt += 1
                anchor[w] = e
                queue.append(w)
    if len(order) != web.n_vertices:
        raise ValueError("web has vertices unreachable from the boundary")
    by_id = sorted(order, key=order.get)
    chunks = ["".join("B" if c == BLACK else "W" for c in web.boundary_colors)]
    for v in by_id:
        mark = "B" if web.color(v) == BLACK else "W"
        nbrs = ",".join(str(order[_other(web, e, v)]) for e in anchored(v))
        chunks.append(f"{mark}({nbrs})")
    return "|".join(chunks)


# --- matchings by all pairs and by reflected objects -------------------------

def check_pairs_by_all_pairs(n: int, pairs) -> None:
    """Raise ValueError unless the pairs partition 1..2n and no two cross,
    comparing every pair with every other.  The reference for
    webweave.webcore._check_pairs."""
    norm = tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))
    cover = sorted(x for pair in norm for x in pair)
    if len(norm) != n or cover != list(range(1, 2 * n + 1)):
        raise ValueError(f"pairs do not partition 1..{2 * n}")
    for (i, j) in norm:
        for (k, l) in norm:
            if i < k < j < l:
                raise ValueError(f"pairs ({i},{j}) and ({k},{l}) cross")


def pairs_key_by_reflection(m: Matching, mirror: bool = False) -> str:
    """The key of a Matching, reflecting it as a Matching when mirrored.  The
    reference for the SL2 pipeline's key of its pairs and of their reflection."""
    return str((reflect_matching(m) if mirror else m).pairs)


def all_perfect_matchings(points: int):
    """Every perfect matching of 1..points, crossing or not, as sorted pairs."""
    if points == 0:
        yield ()
        return
    rest = list(range(2, points + 1))
    for j in rest:
        others = [v for v in rest if v != j]
        relabel = dict(enumerate(others, start=1))
        for sub in all_perfect_matchings(points - 2):
            yield tuple(sorted(((1, j), *((relabel[a], relabel[b]) for a, b in sub))))


# --- the inverse by table lookup, and injectivity by remembered keys ---------

@lru_cache(maxsize=None)
def _matching_table(n: int) -> dict:
    return {web_of_2row(t).pairs: t for t in enumerate_standard(Shape((n, n)))}


@lru_cache(maxsize=None)
def _web_table(k: int, h: int) -> dict:
    return {_canonical(_russell_parts(t.rows)): t for t in enumerate_russell(k, h)}


def tableau_of_web_by_table(web, shape) -> RowStrictTableau:
    """Invert the Catalan or Russell map by lookup over the enumerated family
    (the repetition is read off the number of white boundary vertices).  The
    reference for webweave.bijection.tableau_of_web."""
    shape = tuple(shape)
    if isinstance(web, Matching):
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"matching families have shape (n, n), got {shape}")
        if shape[0] != web.n:
            raise LookupError(f"matching on {2 * web.n} points is not in the {shape} family")
        try:
            return _matching_table(web.n)[web.pairs]
        except KeyError:
            raise LookupError("matching is not in the image of the 2-row family") from None
    if len(shape) != 3 or len(set(shape)) != 1:
        raise ValueError(f"web families have shape (k, k, k), got {shape}")
    k = shape[0]
    h = sum(1 for c in web.boundary_colors if c == WHITE)
    if web.n_boundary != 3 * k - h:
        raise LookupError(f"web has {web.n_boundary} boundary vertices, family wants {3 * k - h}")
    try:
        return _web_table(k, h)[canonicalize(web)]
    except KeyError:
        raise LookupError(f"web is not in the image of the (k={k}, h={h}) family") from None


def collision_check():
    """A per-tableau injectivity check that remembers the canonical key of
    every tableau it has passed and fails a tableau whose key it has seen.
    The reference for verify's left-inverse injectivity check."""
    seen: dict[str, RowStrictTableau] = {}

    def check(family, t: RowStrictTableau) -> dict | None:
        p = family.pipeline
        key = p.key(p.parts(t.rows))
        if key in seen:
            return _failure(t.rows, "distinct web", f"collides with {format_tableau(seen[key])}")
        seen[key] = t
        return None

    return check


def check_theorem_per_tableau(family, t: RowStrictTableau) -> dict | None:
    """The theorem on one tableau in full: the key of its web, reflected as a
    Matching or a Web by the public reflect_matching or reflect_web, against
    the key of its evacuation's web.  The reference for verify's check, which
    checks once per evacuation orbit and reflects by the pipeline's reflect
    stage.  It builds and evacuates with verify's pipeline and kernel, so a
    test that patches those patches both."""
    p = family.pipeline
    parts = p.parts(t.rows)
    if family.rows == 2:
        actual = p.key(reflect_matching(Matching(len(parts), parts)).pairs)
    else:
        actual = p.key(_fields(reflect_web(Web(*parts))))
    expected = p.key(p.parts(verify._evacuate_rows(t.rows)))
    if actual != expected:
        return _failure(t.rows, expected, actual)
    return None


def theorem_failures_per_tableau(family) -> list[dict]:
    """Every tableau's full theorem check, records sorted as verify sorts them."""
    failures = [bad for bad in (check_theorem_per_tableau(family, t) for t in family.tableaux()) if bad is not None]
    return sorted(failures, key=lambda f: tuple(f["reading_word"]))


# --- the web reader, item by item -------------------------------------------

def typed_items_by_items(value, kind: type, what: str) -> list:
    """Each item of an array checked in turn.  The reference for
    webweave.tableau._typed_items, which reads the items' exact types in one
    pass first."""
    return [_typed(item, kind, f"each entry of {what}") for item in _typed(value, list, what)]


def web_from_json_by_items(doc) -> Web:
    """A web document read item by item: each entry typed, each endpoint
    looked up and each half-edge's start compared on its own, in document
    order.  The reference for webweave.webcore.web_from_json, which checks
    each array in bulk passes and goes item by item only where they do not
    accept."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    doc = _typed(doc, dict, "a web document")
    boundary_colors = tuple(
        _field(item, "color", "each entry of boundary")
        for item in typed_items_by_items(_field(doc, "boundary", "a web document"), dict, "boundary")
    )
    internal_colors = tuple(_typed(_field(doc, "internal_colors", "a web document"), list, "internal_colors"))
    if len(internal_colors) != _typed(_field(doc, "internal_count", "a web document"), int, "internal_count"):
        raise WebStructureError("internal_count disagrees with internal_colors")
    b = len(boundary_colors)
    vertex_of = {(f"b{v}" if v < b else f"i{v - b}"): v for v in range(b + len(internal_colors))}

    def endpoint(name) -> int:
        v = vertex_of.get(name) if isinstance(name, str) else None
        if v is None:
            raise WebStructureError(f"bad endpoint {name!r}")
        return v

    edge_docs = typed_items_by_items(_field(doc, "edges", "a web document"), list, "edges")
    if any(len(ends) != 2 for ends in edge_docs):
        raise WebStructureError("each edge must have two endpoints")
    edges = tuple((endpoint(x), endpoint(y)) for x, y in edge_docs)
    start_of = {2 * e + side: v for e, ends in enumerate(edges) for side, v in enumerate(ends)}
    rotation = []
    for v, halves in enumerate(typed_items_by_items(_field(doc, "rotation", "a web document"), list, "rotation")):
        for h in typed_items_by_items(halves, int, f"rotation[{v}]"):
            if start_of.get(h) != v:
                raise WebStructureError(f"half-edge {h} does not sit at vertex {v}")
        rotation.append(tuple(h // 2 for h in halves))
    return Web(boundary_colors, internal_colors, edges, tuple(rotation))


def web_document_sites(doc: dict) -> list[tuple]:
    """The path of every field of a web document that a mutation may
    replace or delete: each top-level field, boundary entry and its color,
    internal color, edge and its endpoints, rotation entry and half-edge."""
    sites = [(key,) for key in doc]
    sites += [("boundary", i, *rest) for i in range(len(doc["boundary"])) for rest in ((), ("color",))]
    sites += [("internal_colors", i) for i in range(len(doc["internal_colors"]))]
    sites += [("edges", e, *rest) for e in range(len(doc["edges"])) for rest in ((), (0,), (1,))]
    sites += [("rotation", v, *rest) for v, halves in enumerate(doc["rotation"])
              for rest in ((), *((j,) for j in range(len(halves))))]
    return sites


DELETED = object()  # a mutation that deletes the field instead of replacing it


def web_document_values(doc: dict, site: tuple) -> list:
    """What a mutation may put at a site: -1, an id just out of range (the
    next internal vertex's name at an endpoint, the next half-edge
    elsewhere), True, 1.0, "0", None, [], {}, "b99", ["b0"], or DELETED."""
    out_of_range = f"i{len(doc['internal_colors'])}" if site[0] == "edges" and len(site) == 3 else 2 * len(doc["edges"])
    return [-1, out_of_range, True, 1.0, "0", None, [], {}, "b99", ["b0"], DELETED]


def mutate_web_document(doc: dict, site: tuple, value) -> dict:
    """A copy of the document with the field at site replaced by value, or
    deleted (value DELETED)."""
    doc = json.loads(json.dumps(doc))
    *path, last = site
    container = doc
    for step in path:
        container = container[step]
    if value is DELETED:
        del container[last]
    else:
        container[last] = value
    return doc


def seeded_web_mutations(rng: random.Random, doc: dict, count: int) -> list[dict]:
    """count single-field mutations of the document, drawn without
    replacement from every (site, value) pair."""
    pairs = [(site, value) for site in web_document_sites(doc) for value in web_document_values(doc, site)]
    return [mutate_web_document(doc, *pair) for pair in rng.sample(pairs, min(count, len(pairs)))]
