"""Partitions, skew shapes, and row-strict tableaux.

Conventions: boxes are addressed (row, column), 1-indexed, row 1 at the top.
Rows of a tableau strictly increase left to right; columns weakly increase
top to bottom.  All types are immutable values; operations return new
tableaux.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations, zip_longest
from math import factorial, inf
from operator import le


class NotRussellError(ValueError):
    """Raised when a tableau fails the 3-row once-or-twice condition."""


def _is_int(value) -> bool:
    """Whether value is an integer; a bool is not, though it is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(values, what: str) -> None:
    """Raise ValueError naming the first of values that is not an integer."""
    for value in values:
        if not _is_int(value):
            raise ValueError(f"bad {what} {value!r}; expected an integer")


def _int_of(text: str, what: str) -> int:
    """The integer that text spells in the one form this program reads and
    writes, str() of an int: an optional '-', then ASCII digits with no
    leading zero, and 0 unsigned.  int() alone would also take '_', '+',
    spaces and non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and text != "0"):
        raise ValueError(f"bad {what} {text!r}; expected an integer")
    return int(text)


@dataclass(frozen=True)
class Shape:
    """An integer partition, stored as its weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        _check_ints(self.parts, "shape part")
        for i, p in enumerate(self.parts):
            if p <= 0:
                raise ValueError(f"shape parts must be positive, got {p}")
            if i > 0 and p > self.parts[i - 1]:
                raise ValueError(f"shape parts must weakly decrease: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def row(self, r: int) -> int:
        """Length of row r (1-indexed); 0 beyond the last row."""
        return self.parts[r - 1] if 1 <= r <= len(self.parts) else 0

    def contains(self, other: Shape) -> bool:
        return all(other.row(r) <= self.row(r) for r in range(1, len(other) + 1))

    def conjugate(self) -> Shape:
        if not self.parts:
            return Shape(())
        return Shape(tuple(sum(1 for p in self.parts if p >= c) for c in range(1, self.parts[0] + 1)))

    def cells(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(1, len(self.parts) + 1) for c in range(1, self.parts[r - 1] + 1)]

    @property
    def is_rectangular(self) -> bool:
        return len(set(self.parts)) <= 1


EMPTY_SHAPE = Shape(())


@dataclass(frozen=True)
class SkewShape:
    """A set difference outer/inner of two nested Young diagrams."""

    outer: Shape
    inner: Shape = EMPTY_SHAPE

    def __post_init__(self) -> None:
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner {self.inner.parts} not contained in outer {self.outer.parts}")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def is_straight(self) -> bool:
        return self.inner == EMPTY_SHAPE

    def cells(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(1, len(self.outer) + 1)
            for c in range(self.inner.row(r) + 1, self.outer.row(r) + 1)
        ]


@dataclass(frozen=True)
class RowStrictTableau:
    """A filling of a skew shape, strictly increasing in rows, weakly in columns.

    ``rows[i]`` holds the entries of row i+1 left to right, i.e. the values in
    columns inner_i+1 .. outer_i.  Skew rows may be empty tuples.
    """

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        _check_ints((v for row in self.rows for v in row), "entry")
        outer, inner = self.shape.outer, self.shape.inner
        if len(self.rows) != len(outer):
            raise ValueError(f"expected {len(outer)} rows, got {len(self.rows)}")
        for r, row in enumerate(self.rows, start=1):
            if len(row) != outer.row(r) - inner.row(r):
                raise ValueError(f"row {r} has {len(row)} entries, shape wants {outer.row(r) - inner.row(r)}")
            for v in row:
                if v <= 0:
                    raise ValueError(f"entries must be positive, got {v}")
            for a, b in zip(row, row[1:]):
                if a >= b:
                    raise ValueError(f"row {r} not strictly increasing: {row}")
        broken = _broken_column(self.rows, inner.parts)
        if broken:
            r, c = broken
            raise ValueError(f"column {c} not weakly increasing at row {r}")

    @classmethod
    def from_rows(cls, rows, inner=()) -> RowStrictTableau:
        """The tableau of these rows, row r starting right of inner[r-1]
        boxes.  Trailing zeros of `inner` are dropped; Shape refuses any
        other part below 1."""
        rows = tuple(tuple(row) for row in rows)
        inner = tuple(inner)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        inner_shape = Shape(inner)
        outer = Shape(tuple(len(row) + inner_shape.row(r) for r, row in enumerate(rows, start=1)))
        return cls(SkewShape(outer, inner_shape), rows)

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """Mapping from (row, column) to entry."""
        out: dict[tuple[int, int], int] = {}
        for r, row in enumerate(self.rows, start=1):
            off = self.shape.inner.row(r)
            for j, v in enumerate(row):
                out[(r, off + j + 1)] = v
        return out

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def max_entry(self) -> int:
        return max((v for row in self.rows for v in row), default=0)

    @property
    def is_straight(self) -> bool:
        return self.shape.is_straight

    @property
    def is_rectangular(self) -> bool:
        return self.is_straight and self.shape.outer.is_rectangular

    def values(self) -> list[int]:
        return [v for row in self.rows for v in row]

    def column_word(self) -> tuple[int, ...]:
        """Column reading word: columns right to left, each top to bottom."""
        return _column_word(self.rows, self.shape.inner.parts)


def _broken_column(rows, inner=()) -> tuple[int, int] | None:
    """(row, column) of the first box less than the box above it, in a
    filling given by its rows, row r+1 starting right of inner[r] boxes."""
    for r in range(1, len(rows)):
        above, row, skip = rows[r - 1], rows[r], 0
        if r <= len(inner):  # align row r+1 under row r, which starts right of inner[r-1] boxes
            skip = inner[r - 1]
            row = row[skip - (inner[r] if r < len(inner) else 0) :]
        if not all(map(le, above, row)):
            return r + 1, skip + next(c for c, (a, b) in enumerate(zip(above, row), 1) if a > b)
    return None


def _column_word(rows, inner=()) -> tuple[int, ...]:
    """The column reading word of a filling given by its rows, row r+1
    starting right of inner[r] boxes: columns right to left, each top to
    bottom."""
    padded = [(None,) * (inner[r] if r < len(inner) else 0) + tuple(row) for r, row in enumerate(rows)]
    return tuple(v for column in reversed(list(zip_longest(*padded))) for v in column if v is not None)


EMPTY_TABLEAU = RowStrictTableau(SkewShape(EMPTY_SHAPE, EMPTY_SHAPE), ())


def skew_shape_from_cells(cells) -> SkewShape:
    """Infer the tight skew shape covering exactly the given boxes.

    Rows above the top occupied row are retained as empty (the skew shape
    keeps absolute coordinates).  Raises if a coordinate is not an integer
    or the boxes do not form a skew diagram.
    """
    cells = set(cells)
    _check_ints(chain.from_iterable(cells), "box coordinate")
    if not cells:
        return SkewShape(EMPTY_SHAPE, EMPTY_SHAPE)
    if any(r < 1 or c < 1 for r, c in cells):
        raise ValueError("boxes must have positive coordinates")
    cols_of: dict[int, list[int]] = {}
    for r, c in cells:
        cols_of.setdefault(r, []).append(c)
    max_row = max(cols_of)
    spans: list[tuple[int, int] | None] = []
    for r in range(1, max_row + 1):
        cols = cols_of.get(r)
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


def tableau_from_cells(cells: dict[tuple[int, int], int]) -> RowStrictTableau:
    """Rebuild a tableau from a cell map, inferring the tight skew shape."""
    if not cells:
        return EMPTY_TABLEAU
    shape = skew_shape_from_cells(cells)
    outer, inner = shape.outer, shape.inner
    rows = tuple(
        tuple(cells[(r, c)] for c in range(inner.row(r) + 1, outer.row(r) + 1))
        for r in range(1, len(outer) + 1)
    )
    return RowStrictTableau(shape, rows)


def is_standard(t: RowStrictTableau) -> bool:
    """True iff entries are exactly 1..n, each once (columns then auto-strict)."""
    return sorted(t.values()) == list(range(1, t.size + 1))


def russell_repetition(t: RowStrictTableau) -> int:
    """The number of doubled values in a 3-row rectangular once-or-twice filling.

    Rejects (NotRussellError) tableaux of the wrong shape and fillings where
    some value in 1..max is missing or appears three or more times.
    """
    return len(_standardize(_russell_rows(t))[1])


def _russell_rows(t: RowStrictTableau) -> tuple[tuple[int, ...], ...]:
    """t.rows, after the one Russell check that rows cannot make: that t is
    straight."""
    if not t.is_straight:
        raise NotRussellError(f"shape {t.shape.outer.parts} is not a 3-row rectangle")
    return t.rows


def _standardize(rows) -> tuple[list[list[int]], tuple[int, ...]]:
    """Standardize the rows of a 3-row rectangular once-or-twice filling by
    one stable sort of its boxes, row by row, by value: a box's new value is
    its rank, the number of entries with a smaller original value, plus 1,
    plus 1 more in the lower copy of a doubled value.  Also return, in
    increasing order, the start j of the pair (j, j+1) that each doubled
    value became.  The rows come back as plain lists.

    The rows must each strictly increase and hold positive values, as those
    of a RowStrictTableau and of `_grow` do, so the two copies of a doubled
    value are in different rows.  One walk over the ranks makes
    russell_repetition's other checks (NotRussellError): three rows of one
    length, and each of 1..max once or twice.
    """
    parts = tuple(map(len, rows))
    if len(parts) != 3 or not parts[0] == parts[1] == parts[2]:
        raise NotRussellError(f"shape {parts} is not a 3-row rectangle")
    flat = [*rows[0], *rows[1], *rows[2]]
    out = flat[:]
    starts = []
    prev, doubled = 0, False
    for rank, i in enumerate(sorted(range(len(flat)), key=flat.__getitem__), 1):
        v = flat[i]
        if v == prev:
            if doubled:
                raise NotRussellError(f"value {v} appears {flat.count(v)} times")
            doubled = True
            starts.append(rank - 1)
        elif v == prev + 1:
            prev, doubled = v, False
        else:
            raise NotRussellError(f"value {prev + 1} is missing")
        out[i] = rank
    k = parts[0]
    return [out[:k], out[k:2 * k], out[2 * k:]], tuple(starts)


def standardize(t: RowStrictTableau) -> RowStrictTableau:
    """Split doubled values, smallest first, into consecutive entries.

    The doubled value i becomes i in its upper box and i+1 in its lower box,
    with larger entries shifted up to make room; the result is a standard
    Young tableau of the same shape.
    """
    return standardize_with_pairs(t)[0]


def standardize_with_pairs(t: RowStrictTableau) -> tuple[RowStrictTableau, tuple[int, ...]]:
    """Standardize and also return the sorted pair starts j (doubled value -> j, j+1)."""
    rows, starts = _standardize(_russell_rows(t))
    return RowStrictTableau(t.shape, rows), starts


def _rotate_complement(rows, n: int) -> list[list[int]]:
    """The rows of a straight filling turned 180 degrees, each entry x sent to
    n+1-x."""
    return [[n + 1 - v for v in reversed(row)] for row in reversed(rows)]


def rotate_complement(t: RowStrictTableau, n: int) -> RowStrictTableau:
    """Rotate a rectangular tableau 180 degrees and send each entry x to n+1-x."""
    _check_ints((n,), "alphabet size")
    if not t.is_rectangular:
        raise ValueError(f"shape {t.shape.outer.parts} is not rectangular")
    if t.size and n < t.max_entry:
        raise ValueError(f"alphabet size {n} is below max entry {t.max_entry}")
    return RowStrictTableau.from_rows(_rotate_complement(t.rows, n))


def count_standard(shape: Shape) -> int:
    """Number of standard Young tableaux of a straight shape (hook lengths)."""
    parts = shape.parts
    if not parts:
        return 1
    conj = shape.conjugate().parts
    hooks = 1
    for r, c in shape.cells():
        hooks *= (parts[r - 1] - c) + (conj[c - 1] - r) + 1
    return factorial(shape.size) // hooks


def _fill(parts, rows: list[list[int]], v: int, remaining: int, last: float):
    """The children of one node of the growth tree: place the value v in
    each addable box of the filled top-left part `rows` of a straight
    shape, and yield, with v in place, the generator of that child's own
    children, or `rows` itself where the shape is then full or v is `last`.
    `_grow` drives the generators from a stack, so no call nests once per
    value; the rows are live, and the caller runs each child out before it
    resumes the parent.  A row is addable while shorter than its part and
    than the row above, whose length the loop carries, so rows and columns
    strictly increase."""
    cut = v >= last or remaining == 1
    above, r = inf, 0
    for row in rows:
        n = len(row)
        if n < parts[r] and n < above:
            row.append(v)
            yield rows if cut else _fill(parts, rows, v + 1, remaining - 1, last)
            row.pop()
        above, r = n, r + 1


def _grow(shape: Shape, prefix: tuple[tuple[int, ...], ...] = (), last: float = inf):
    """Yield, in growth order, the rows of every standard filling of a
    straight shape whose values 1..d fill the boxes of `prefix` as there (d
    its number of boxes; the empty prefix starts from the empty shape).  A
    finite `last` cuts the tree after that value: yield each node there, or
    a full filling where the shape fills up sooner; every filling grows
    from exactly one of them.  The rows are plain tuples, not validated:
    growth keeps rows and columns strict, and only the public enumerators
    build tableaux.  The tree is walked depth first from an explicit stack
    of `_fill` generators, so a filling may have any number of values."""
    parts = shape.parts
    rows = [list(row) for row in prefix] or [[] for _ in parts]
    placed = sum(map(len, rows))
    remaining = shape.size - placed
    if remaining == 0 or placed >= last:
        yield tuple(map(tuple, rows))
        return
    stack = [_fill(parts, rows, placed + 1, remaining, last)]
    while stack:
        for child in stack[-1]:
            if child is not rows:
                stack.append(child)
                break
            yield tuple(map(tuple, rows))
        else:
            stack.pop()


def _russell_fillings(rows, h: int):
    """Yield the rows of every filling with h doubled values that
    standardizes to the standard (k,k,k) tableau of these rows: one per
    set of h of its descents j (j+1 in a lower row than j) with no two
    consecutive, each pair (j, j+1) merged into one value, so a value x
    becomes x less the number of merged starts below it.  `_standardize`
    splits each merged value back into its pair, and any two fillings with
    one standardization differ in the pairs they merge."""
    row_of = {v: r for r, row in enumerate(rows) for v in row}
    descents = [j for j in range(1, len(row_of)) if row_of[j] < row_of[j + 1]]
    for starts in combinations(descents, h):
        if all(b - a > 1 for a, b in zip(starts, starts[1:])):
            yield tuple(tuple(x - bisect_left(starts, x) for x in row) for row in rows)


def _sorted_tableaux(shape: Shape, grown) -> list[RowStrictTableau]:
    """The tableaux of the rows grown in the straight shape, sorted by column word."""
    skew = SkewShape(shape)
    return [RowStrictTableau(skew, rows) for rows in sorted(grown, key=_column_word)]


def enumerate_standard(shape: Shape) -> list[RowStrictTableau]:
    """All standard Young tableaux of a straight shape, sorted by column word."""
    return _sorted_tableaux(shape, _grow(shape))


def _max_repetition(k: int) -> int:
    """The most doubled values of a (k,k,k) filling: each fills 2 of 3k boxes."""
    return 3 * k // 2


def _check_repetition(k: int, h: int) -> None:
    """Refuse a number h of doubled values that no (k,k,k) filling has."""
    if not 0 <= h <= _max_repetition(k):
        raise ValueError(f"repetition {h} out of range 0..{_max_repetition(k)} for k={k}")


def enumerate_russell(k: int, h: int) -> list[RowStrictTableau]:
    """All 3-row rectangular once-or-twice fillings with exactly h doubled values.

    Each standard (k,k,k) tableau, grown value by value, gives the fillings
    that standardize to it (`_russell_fillings`).  Sorted by column word;
    for h = 0 this is enumerate_standard((k,k,k)).
    """
    _check_ints((k,), "k")
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_ints((h,), "repetition")
    _check_repetition(k, h)
    shape = Shape((k, k, k))
    return _sorted_tableaux(shape, (filling for rows in _grow(shape) for filling in _russell_fillings(rows, h)))


# --- text and JSON forms ------------------------------------------------

_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _typed(value, kind: type, what: str):
    """Return value if it is a JSON value of the given kind, so that a
    malformed document fails with a ValueError naming the field instead of a
    TypeError deep inside the parse."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}")
    return value


def _field(doc: dict, key: str, what: str):
    """doc[key], or a ValueError naming the missing field."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{what} has no {key!r} field") from None


def _typed_items(value, kind: type, what: str) -> list:
    """The items of value, an array whose every item is a JSON value of the
    given kind.  One pass reads each item's exact type; only if it meets
    another type (a bool, a subclass, a fault) are the items checked one by
    one, which names the first fault and lets a subclass of the kind pass."""
    items = _typed(value, list, what)
    if {*map(type, items)} <= {kind}:
        return items
    return [_typed(item, kind, f"each entry of {what}") for item in items]


def parse_tableau(text: str) -> RowStrictTableau:
    """Parse the text form: one row per line, entries space-separated."""
    rows = []
    for lineno, line in enumerate(text.strip().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(tuple(_int_of(tok, "entry") for tok in line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        return EMPTY_TABLEAU
    return RowStrictTableau.from_rows(rows)


def _format_rows(rows) -> str:
    """The text form of a tableau given by its rows."""
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


def format_tableau(t: RowStrictTableau) -> str:
    return _format_rows(t.rows)


def tableau_to_json(t: RowStrictTableau) -> dict:
    doc: dict = {"rows": [list(row) for row in t.rows]}
    if not t.is_straight:
        doc["inner"] = list(t.shape.inner.parts)
    return doc


def tableau_from_json(doc: dict | str) -> RowStrictTableau:
    if isinstance(doc, str):
        doc = json.loads(doc)
    doc = _typed(doc, dict, "a tableau document")
    rows = _typed_items(_field(doc, "rows", "a tableau document"), list, "rows")
    return RowStrictTableau.from_rows(rows, tuple(_typed_items(doc.get("inner", []), int, "inner")))
