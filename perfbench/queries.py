"""Seeded single-tableau requests for the query_mix workload, and the
invariants each response must satisfy.

A request is one in-process call of ``webweave.cli.main(argv)`` with a text
document on stdin.  The composition of the stream (which class, size and
command) is fixed by the spec, so every seed asks for the same mix; the seed
only chooses the tableaux and the order.  That keeps the latency tail, which
the largest inputs set, comparable from seed to seed.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from webweave.bijection import russell_web, web_of_2row
from webweave.jdt import evacuate
from webweave.tableau import (
    RowStrictTableau,
    format_tableau,
    is_standard,
    parse_tableau,
    rotate_complement,
    russell_repetition,
    standardize_with_pairs,
    tableau_from_cells,
)
from webweave.webcore import (
    canonicalize,
    matching_from_json,
    matching_to_json,
    validate_web,
    web_from_json,
    web_to_json,
)

# chance of placing the next value in two boxes when the growth allows it
DOUBLE_CHANCE = 0.25


@dataclass(frozen=True)
class Query:
    klass: str
    size: int
    command: str
    tableau: RowStrictTableau
    stdin: str

    @property
    def argv(self) -> list[str]:
        return self.command.split()


def random_syt(parts: tuple[int, ...], rng: random.Random) -> RowStrictTableau:
    """A uniformly random standard tableau of a straight shape (hook walk).

    The largest remaining value goes to the corner where a walk ends that
    starts at a uniform cell and jumps to a uniform cell of its hook.
    """
    rows = list(parts)
    cells: dict[tuple[int, int], int] = {}
    for v in range(sum(parts), 0, -1):
        i = rng.randrange(sum(rows))
        r = 0
        while i >= rows[r]:
            i -= rows[r]
            r += 1
        c = i
        while True:
            arm = rows[r] - c - 1
            leg = sum(1 for below in rows[r + 1 :] if below > c)
            if arm + leg == 0:
                break
            j = rng.randrange(arm + leg)
            if j < arm:
                c += j + 1
            else:
                r += j - arm + 1
        cells[(r + 1, c + 1)] = v
        rows[r] -= 1
    return tableau_from_cells(cells)


def random_russell(k: int, rng: random.Random) -> RowStrictTableau:
    """A random (k,k,k) once-or-twice filling with at least one doubled value.

    Grown value by value: each value fills one addable box, or two addable
    boxes in different rows with the lower box in a column no further right.
    """
    def addable(rows: list[int]) -> list[int]:
        return [r for r in range(3) if rows[r] < k and (r == 0 or rows[r - 1] > rows[r])]

    while True:
        rows = [0, 0, 0]
        cells: dict[tuple[int, int], int] = {}
        v = doubled = 0
        while sum(rows) < 3 * k:
            v += 1
            singles = addable(rows)
            # the lower box need only be addable once the upper one is placed;
            # in a partition it then never lies right of the upper box
            pairs = [(a, b) for a in singles for b in addable(rows[:a] + [rows[a] + 1] + rows[a + 1 :]) if b > a]
            if pairs and rng.random() < DOUBLE_CHANCE:
                chosen = rng.choice(pairs)
                doubled += 1
            else:
                chosen = (rng.choice(singles),)
            for r in chosen:
                rows[r] += 1
                cells[(r + 1, rows[r])] = v
        if doubled:
            return tableau_from_cells(cells)


def check_input(klass: str, t: RowStrictTableau) -> None:
    """Raise ValueError unless t belongs to its class."""
    if klass == "russell":
        h = russell_repetition(t)
        u, starts = standardize_with_pairs(t)
        if h < 1 or not is_standard(u) or collapse(u, starts) != t:
            raise ValueError(f"generated filling fails the standardization round trip:\n{format_tableau(t)}")
    elif not is_standard(t):
        raise ValueError(f"generated tableau is not standard:\n{format_tableau(t)}")


def collapse(u: RowStrictTableau, starts) -> RowStrictTableau:
    """Merge each pair (j, j+1) of a standard tableau back into one value."""
    return tableau_from_cells({cell: v - sum(1 for s in starts if s < v) for cell, v in u.entries.items()})


def _web_document(t: RowStrictTableau) -> dict:
    if len(t.rows) == 2:
        return matching_to_json(web_of_2row(t))
    return web_to_json(russell_web(t))


def make_queries(spec: dict, seed: int) -> list[Query]:
    """The workload's distinct requests, in seeded order.

    Each class receives an equal share of spec["distinct_queries"], cycling
    through every (size, command) combination of the class in a fixed order.
    """
    rng = random.Random(seed)
    classes = spec["classes"]
    share = spec["distinct_queries"] // len(classes)
    out = []
    for klass in classes:
        lo, hi = klass["sizes"]
        combos = itertools.cycle(itertools.product(range(lo, hi + 1), klass["commands"]))
        for size, command in itertools.islice(combos, share):
            name = klass["name"]
            if name == "russell":
                t = random_russell(size, rng)
            else:
                t = random_syt((size,) * klass["rows"], rng)
            check_input(name, t)
            if command == "reflect":
                stdin = json.dumps(_web_document(t), separators=(",", ":"))
            else:
                stdin = format_tableau(t)
            out.append(Query(name, size, command, t, stdin))
    rng.shuffle(out)
    return out


def _doubled_starts(t: RowStrictTableau) -> tuple[int, ...]:
    """Pair starts of a once-or-twice filling, read off its values alone:
    the i-th smallest doubled value d becomes the pair (d + i, d + i + 1)."""
    values = t.values()
    doubled = sorted({v for v in values if values.count(v) == 2})
    return tuple(d + i for i, d in enumerate(doubled))


def check_output(q: Query, code: int, out: str, err: str) -> str | None:
    """None if the response is right, else a one-line reason.

    The checks are the paper's invariants, evaluated with the library outside
    the timed loop: reflection equals the web of the evacuated tableau,
    evacuation is an involution equal to rotate-and-complement, emitted webs
    round-trip, are valid and are the input's, and standardization is
    standard and collapses back.
    """
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        return _invariant_failure(q, out)
    except (ValueError, LookupError, TypeError) as exc:
        return f"output does not parse: {exc}"


def _invariant_failure(q: Query, out: str) -> str | None:
    t = q.tableau
    text = out.strip()
    two_row = len(t.rows) == 2
    if q.command == "evacuate":
        e = parse_tableau(text)
        if evacuate(e) != t:
            return "evacuating the output does not give the input back"
        if e != rotate_complement(t, t.max_entry):
            return "evacuation differs from rotate-and-complement"
    elif q.command == "standardize":
        u = parse_tableau(text)
        if not is_standard(u):
            return "standardized output is not standard"
        if collapse(u, _doubled_starts(t)) != t:
            return "standardized output does not collapse back to the input"
    elif q.command == "to-web --canonical":
        expected = str(web_of_2row(t).pairs) if two_row else canonicalize(russell_web(t))
        if text != expected:
            return "canonical form differs from the library's"
    elif q.command == "to-web":
        doc = json.loads(text)
        if two_row:
            m = matching_from_json(doc)
            if matching_to_json(m) != doc:
                return "matching JSON does not round-trip"
            if m != web_of_2row(t):
                return "matching is not the input tableau's"
        else:
            web = web_from_json(doc)
            if web_to_json(web) != doc:
                return "web JSON does not round-trip"
            problems = validate_web(web)
            if problems:
                return "invalid web: " + "; ".join(problems)
            # a valid web of another tableau passes the two checks above
            if canonicalize(web) != canonicalize(russell_web(t)):
                return "web is not the input tableau's"
    elif q.command == "reflect":
        doc = json.loads(text)
        if two_row:
            if matching_from_json(doc) != web_of_2row(evacuate(t)):
                return "reflected matching differs from the evacuated tableau's"
        elif canonicalize(web_from_json(doc)) != canonicalize(russell_web(evacuate(t))):
            return "reflected web differs from the evacuated tableau's web"
    else:
        return f"unknown command {q.command!r}"
    return None
