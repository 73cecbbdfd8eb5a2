"""Exhaustive verification campaigns over enumerated tableau families."""
from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .bijection import SL2, SL3_RUSSELL, SL3_STANDARD, Pipeline
from .jdt import _evacuate_rows
from .tableau import (
    RowStrictTableau,
    Shape,
    _check_ints,
    _check_repetition,
    _column_word,
    _format_rows,
    _grow,
    _is_int,
    _max_repetition,
    _rotate_complement,
    _russell_fillings,
    count_standard,
    enumerate_russell,
    enumerate_standard,
)


class FamilyBoundError(ValueError):
    """The requested family exceeds the configured desk-scale bounds."""


class _Kind(NamedTuple):
    pipeline: Pipeline
    bound: int  # the largest side checked without an explicit time budget


# by (rows, is_russell: can a value be doubled)
_KINDS = {
    (2, False): _Kind(SL2, 8),
    (3, False): _Kind(SL3_STANDARD, 5),
    (3, True): _Kind(SL3_RUSSELL, 4),
}

# the value after which Family.shards() cuts the standard growth tree
_SHARD_DEPTH = 10


class TimeBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Family:
    """An enumerable verification domain: (n, n), or (k, k, k) with an
    optional repetition (None = standard tableaux, "all" = every h).  An h
    that no (k,k,k) filling has is refused, as enumerate_russell refuses it.
    The kind follows from the tableaux held: h = 0 holds exactly the standard
    tableaux, so it has their kind, and only describe() tells them apart."""

    shape: tuple[int, ...]
    repetition: int | str | None = None

    def __post_init__(self) -> None:
        shape = tuple(self.shape)
        _check_ints(shape, "shape part")
        if len(shape) not in (2, 3) or len(set(shape)) != 1:
            raise ValueError(f"families are rectangles (n,n) or (k,k,k), got {shape}")
        object.__setattr__(self, "shape", Shape(shape).parts)  # refuses sides that are not positive
        if self.repetition is not None and len(self.shape) == 2:
            raise ValueError("2-row families do not take a repetition")
        if self.repetition not in (None, "all"):
            if not _is_int(self.repetition):
                raise ValueError(f"bad repetition {self.repetition!r}; expected an integer or 'all'")
            _check_repetition(self.shape[0], self.repetition)

    @property
    def rows(self) -> int:
        return len(self.shape)

    @property
    def max_repetition(self) -> int:
        return _max_repetition(self.shape[0])

    @property
    def is_russell(self) -> bool:
        """Whether the family's fillings can double a value."""
        return self.rows == 3 and self.repetition not in (None, 0)

    @property
    def kind(self) -> _Kind:
        return _KINDS[self.rows, self.is_russell]

    @property
    def pipeline(self) -> Pipeline:
        return self.kind.pipeline

    def describe(self) -> str:
        base = ",".join(str(p) for p in self.shape)
        if self.repetition is None:
            return f"standard({base})"
        return f"russell({base}, h={self.repetition})"

    def check_bounds(self) -> None:
        bound = self.kind.bound
        if self.shape[0] > bound:
            raise FamilyBoundError(f"{self.describe()}: its kind is bounded at side <= {bound} without a time budget")

    @property
    def repetitions(self) -> range:
        """The numbers of doubled values the family's tableaux have."""
        if self.repetition is None:
            return range(1)
        if self.repetition == "all":
            return range(self.max_repetition + 1)
        return range(self.repetition, self.repetition + 1)

    def shards(self) -> list[tuple[tuple[int, ...], ...]]:
        """The standard growth tree of the family's shape, cut after the
        value _SHARD_DEPTH: the prefix rows of each node there, in growth
        order.  That is a few hundred to a few thousand shards however large
        the family, and each standard tableau grows from exactly one of
        them, so each member does too (see `grow`)."""
        return list(_grow(Shape(self.shape), (), _SHARD_DEPTH))

    def grow(self, shard: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Stream the rows of one shard's tableaux, in growth order, as
        unvalidated plain tuples (see `tableau._grow`): its standard
        tableaux or, for a Russell family, each standard tableau's fillings
        (`tableau._russell_fillings`) one after another, h by h, so the
        fillings of one standardization come together."""
        grown = _grow(Shape(self.shape), shard)
        if not self.is_russell:
            return grown
        return (filling for rows in grown for h in self.repetitions for filling in _russell_fillings(rows, h))

    def tableaux(self) -> list[RowStrictTableau]:
        """Every tableau of the family, h by h, each h sorted by column word."""
        if not self.is_russell:
            return enumerate_standard(Shape(self.shape))
        return [t for h in self.repetitions for t in enumerate_russell(self.shape[0], h)]


@dataclass
class VerifyReport:
    family: str
    check: str
    total: int
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "check": self.check,
            "total": self.total,
            "failures": self.failures,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"check {self.check} over {self.family}: total {self.total}, "
            f"{status}, {self.elapsed_ms:.0f} ms"
        )


def _failure(rows, expected: str, actual: str) -> dict:
    return {
        "tableau": _format_rows(rows),
        "reading_word": list(_column_word(rows)),
        "expected": expected,
        "actual": actual,
    }


def _check_theorem(p: Pipeline, rows, balance):
    """The theorem once per evacuation orbit: t's web, reflected, against
    the web of e = evac(t), compared by the pipeline's `same`; keys are
    built only for a failure record.  t is skipped when e < t and adds
    hash((t, e)) to balance[0]; a checked t with e > t adds hash((e, t)) to
    balance[1].  The family's sums agree when each skipped t is the
    evacuation of one checked tableau that evacuates to it in turn, whose
    check covers t if reflection is an involution that sends isotopic webs
    to isotopic webs.  If t fails and evacuating e gives t back, e is
    checked from the two webs built, and its record written if it fails."""
    e = tuple(map(tuple, _evacuate_rows(rows)))
    if e < rows:
        balance[0] += hash((rows, e))
        return
    parts = e_parts = p.parts(rows)
    if e > rows:
        balance[1] += hash((e, rows))
        e_parts = p.parts(e)
    reflected = p.reflect(parts)
    if not p.same(reflected, e_parts):
        yield _failure(rows, p.key(e_parts), p.key(reflected))
        if e > rows and tuple(map(tuple, _evacuate_rows(e))) == rows and not p.same(p.reflect(e_parts), parts):
            yield _failure(e, p.key(parts), p.key(p.reflect(e_parts)))


def _check_involution(p: Pipeline, rows, balance):
    back = _evacuate_rows(_evacuate_rows(rows))
    if tuple(map(tuple, back)) != rows:
        yield _failure(rows, _format_rows(rows), _format_rows(back))


def _check_lemma(p: Pipeline, rows, balance):
    actual = _evacuate_rows(rows)
    expected = _rotate_complement(rows, max(map(max, rows)))
    if actual != expected:
        yield _failure(rows, _format_rows(expected), _format_rows(actual))


def _check_validity(p: Pipeline, rows, balance):
    try:  # a build that its check refuses is a failure too, of either kind
        report = p.defects(p.parts(rows))
    except ValueError as exc:
        report = [str(exc)]
    if report:
        yield _failure(rows, "", "; ".join(report))


def _check_injectivity(p: Pipeline, rows, balance):
    """The inverse gives the rows back from their web, so no other tableau of
    the family has that web: of two tableaux with one web, one fails here."""
    back = p.inverse(p.parts(rows))
    if back != rows:
        yield _failure(rows, _format_rows(rows), _format_rows(back))


_PER_TABLEAU = {
    "theorem": _check_theorem,
    "involution": _check_involution,
    "lemma": _check_lemma,
    "validity": _check_validity,
    "injectivity": _check_injectivity,
}
CHECK_NAMES = tuple(_PER_TABLEAU)


# the pool deals each worker this many pieces, so a worker that finishes early takes another
PIECES_PER_WORKER = 8

_CAMPAIGNS = itertools.count()  # a token per pool campaign, tagging its workers' state
_worker = None  # in a pool worker: (campaign token, its deadline), set by _start_worker


def _check_shards(check, family, shards, deadline, max_seconds) -> tuple[int, list[dict], int, int]:
    """Grow each shard and check the rows of each tableau in turn with the
    pipeline that `Pipeline.batch` gives for this call, so a memo it keeps
    is dropped when the call returns; return the number grown, the failure
    records the checks yield, and the two sums of the theorem's orbit
    balance (see `_check_theorem`; 0 for any other check).  Raise
    TimeBudgetExceeded once the clock has passed `deadline` (inf: no
    budget), read after every tableau, growing included."""
    fn = _PER_TABLEAU[check]
    pipeline = family.pipeline.batch()
    count = 0
    failures = []
    balance = [0, 0]
    for shard in shards:
        for rows in family.grow(shard):
            count += 1
            failures.extend(fn(pipeline, rows, balance))
            if time.monotonic() > deadline:
                raise TimeBudgetExceeded(f"exceeded {max_seconds}s")
    return count, failures, *balance


def _check_batch(args) -> tuple[int, list[dict], int, int]:
    """Check one in-process batch, (check, family, shards, max_seconds,
    seconds_left), as `_check_shards` does, within `seconds_left` from now."""
    check, family, shards, max_seconds, seconds_left = args
    return _check_shards(check, family, shards, time.monotonic() + seconds_left, max_seconds)


def _start_worker(token, seconds_left: float) -> None:
    """A pool worker's initializer: fix its deadline `seconds_left` from now
    on its own clock, for every piece it takes.  The state carries the
    campaign's token, which every piece of that campaign carries too."""
    global _worker
    _worker = token, time.monotonic() + seconds_left


def _check_piece(args) -> tuple[int, list[dict], int, int]:
    """Check one pool piece, (check, family, shards, max_seconds, token),
    as `_check_shards` does, by the deadline of the worker that took it, so
    a piece that starts late gets only the time left; a piece that starts
    past the deadline grows nothing.  Worker state of another campaign is
    never read: its token differs."""
    check, family, shards, max_seconds, token = args
    if _worker is None or _worker[0] != token:
        raise RuntimeError("a piece ran in a worker that its campaign did not start")
    deadline = _worker[1]
    if time.monotonic() > deadline:
        raise TimeBudgetExceeded(f"exceeded {max_seconds}s")
    return _check_shards(check, family, shards, deadline, max_seconds)


def run_verification(
    family: Family,
    check: str,
    jobs: int = 1,
    max_seconds: float | None = None,
) -> VerifyReport:
    """Run one named property exhaustively over a family.

    Families beyond the desk-scale bounds are refused unless a time budget is
    given; exceeding a given budget, growing included, aborts with
    TimeBudgetExceeded, and a negative (-0.0 too), infinite (past every float too) or NaN budget or jobs < 1
    is refused with ValueError before anything is grown.  `jobs` alone sets
    the workers.  When jobs is 1 or the family has fewer than 4 * jobs
    shards, every shard is grown and checked in-process, as one batch.
    Otherwise the shards are dealt into n = PIECES_PER_WORKER * jobs pieces
    (at most one per shard), piece i of every n-th shard from the i-th, and
    a pool of `jobs` workers takes them one at a time, so a worker that
    finishes early takes the next.  Each batch or piece runs its own
    pipeline (`Pipeline.batch`), and a worker's deadline is the time left
    when the pool is made, on its own clock; after the first
    piece that fails, budget or other, the pieces not yet started are
    cancelled, and the whole campaign is checked against the budget once the
    pool returns.  Each tableau is grown where it is checked.  The theorem is
    checked once per evacuation orbit.  Records are sorted by reading word,
    so the report does not depend on `jobs`; if the sums of the orbit
    balance (see `_check_theorem`) differ, one record for the family, with
    no tableau and the two sums, follows them.  A family of standard
    tableaux must grow count_standard of its shape, whatever the check:
    else one more record for the family, with no tableau and the two
    counts, comes last.
    """
    if check not in CHECK_NAMES:
        raise ValueError(f"unknown check {check!r}; expected one of {CHECK_NAMES}")
    if max_seconds is None:
        family.check_bounds()
    elif not (
        (_is_int(max_seconds) or isinstance(max_seconds, float))
        and 0 <= max_seconds <= sys.float_info.max
        and math.copysign(1.0, max_seconds) > 0  # also NaN and -0.0
    ):
        raise ValueError(f"max_seconds must be a number of seconds >= 0, got {max_seconds!r}")
    _check_ints((jobs,), "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.monotonic()

    def seconds_left() -> float:
        return math.inf if max_seconds is None else max_seconds - (time.monotonic() - start)

    shards = family.shards()
    if len(shards) < 4 * jobs:
        jobs = 1
    if jobs == 1:
        results = [_check_batch((check, family, shards, max_seconds, seconds_left()))]
    else:
        # imported here, so a serial campaign and the CLI load no process pool
        from concurrent.futures import ProcessPoolExecutor

        token = next(_CAMPAIGNS)
        n = min(PIECES_PER_WORKER * jobs, len(shards))
        pieces = [(check, family, shards[i::n], max_seconds, token) for i in range(n)]
        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                                 initargs=(token, seconds_left())) as pool:
            try:
                results = list(pool.map(_check_piece, pieces))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
        if seconds_left() < 0:
            raise TimeBudgetExceeded(f"exceeded {max_seconds}s")

    counts, batches, skipped, covered = zip(*results)
    failures = sorted((bad for batch in batches for bad in batch), key=lambda f: tuple(f["reading_word"]))
    skipped, covered = sum(skipped), sum(covered)
    if skipped != covered:
        failures.append(_failure((), f"skipped tableaux hash to {covered}", f"skipped tableaux hash to {skipped}"))
    total = sum(counts)
    if not family.is_russell and total != (members := count_standard(Shape(family.shape))):
        failures.append(_failure((), f"{members} tableaux grown", f"{total} tableaux grown"))
    elapsed = (time.monotonic() - start) * 1000.0
    return VerifyReport(family.describe(), check, total, failures, elapsed)
