"""Exhaustive verification campaigns over enumerated tableau families."""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .bijection import _matching_rows, _russell_parts, _standard_parts, _tableau_rows, web_of_2row
from .jdt import evacuate, reading_word
from .tableau import (
    RowStrictTableau,
    Shape,
    _format_rows,
    enumerate_russell,
    enumerate_standard,
    format_tableau,
    rotate_complement,
)
from .webcore import Matching, Web, _parts_key, reflect_matching, validate_web

# desk-scale defaults; larger families need an explicit time budget
MAX_2ROW_N = 8
MAX_3ROW_K = 5
MAX_RUSSELL_K = 4


class FamilyBoundError(ValueError):
    """The requested family exceeds the configured desk-scale bounds."""


class TimeBudgetExceeded(RuntimeError):
    pass


class Pipeline(NamedTuple):
    """What a kind of family does with each tableau: build its matching or
    the plain fields of its web, key those canonically (with mirror=True, the
    key of the reflection), list the defects of the matching or web, and read
    the tableau's rows back off it."""

    parts: Callable
    key: Callable[..., str]
    defects: Callable[..., list[str]]
    inverse: Callable[..., tuple]


def _pairs_key(m: Matching, mirror: bool = False) -> str:
    return str((reflect_matching(m) if mirror else m).pairs)


def _no_defects(m: Matching) -> list[str]:
    return []  # noncrossing is enforced when a Matching is built


def _web_defects(parts) -> list[str]:
    return validate_web(Web(*parts))


SL2 = Pipeline(web_of_2row, _pairs_key, _no_defects, _matching_rows)
SL3_STANDARD = Pipeline(_standard_parts, _parts_key, _web_defects, _tableau_rows)
SL3_RUSSELL = Pipeline(_russell_parts, _parts_key, _web_defects, _tableau_rows)


@dataclass(frozen=True)
class Family:
    """An enumerable verification domain: (n, n), or (k, k, k) with an
    optional repetition (None = standard tableaux, "all" = every h).  A (k,k,k)
    filling has at most 3k // 2 doubled values, so a larger h is refused."""

    shape: tuple[int, ...]
    repetition: int | str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(p) for p in self.shape))
        if len(self.shape) not in (2, 3) or len(set(self.shape)) != 1:
            raise ValueError(f"families are rectangles (n,n) or (k,k,k), got {self.shape}")
        if self.repetition is not None:
            if len(self.shape) == 2:
                raise ValueError("2-row families do not take a repetition")
            if isinstance(self.repetition, str):
                if self.repetition != "all":
                    raise ValueError(f"bad repetition {self.repetition!r}")
            elif not 0 <= self.repetition <= self.max_repetition:
                raise ValueError(
                    f"repetition {self.repetition} out of range 0..{self.max_repetition} for k={self.shape[0]}"
                )

    @property
    def rows(self) -> int:
        return len(self.shape)

    @property
    def max_repetition(self) -> int:
        return 3 * self.shape[0] // 2

    @property
    def is_russell(self) -> bool:
        return self.rows == 3 and self.repetition is not None

    @property
    def pipeline(self) -> Pipeline:
        if self.rows == 2:
            return SL2
        return SL3_RUSSELL if self.is_russell else SL3_STANDARD

    def describe(self) -> str:
        base = ",".join(str(p) for p in self.shape)
        if self.repetition is None:
            return f"standard({base})"
        return f"russell({base}, h={self.repetition})"

    def check_bounds(self) -> None:
        side = self.shape[0]
        if self.rows == 2 and side > MAX_2ROW_N:
            raise FamilyBoundError(f"2-row families are bounded at n <= {MAX_2ROW_N}")
        if self.rows == 3 and self.repetition is None and side > MAX_3ROW_K:
            raise FamilyBoundError(f"3-row standard families are bounded at k <= {MAX_3ROW_K}")
        if self.is_russell and side > MAX_RUSSELL_K:
            raise FamilyBoundError(f"Russell families are bounded at k <= {MAX_RUSSELL_K}")

    def tableaux(self) -> list[RowStrictTableau]:
        if self.repetition is None:
            return enumerate_standard(Shape(self.shape))
        k = self.shape[0]
        if self.repetition == "all":
            out = []
            for h in range(self.max_repetition + 1):
                out.extend(enumerate_russell(k, h))
            return out
        return enumerate_russell(k, int(self.repetition))


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


def _failure(t: RowStrictTableau, expected: str, actual: str) -> dict:
    return {
        "tableau": format_tableau(t),
        "reading_word": list(reading_word(t)),
        "expected": expected,
        "actual": actual,
    }


def _check_theorem(family: Family, t: RowStrictTableau) -> dict | None:
    p = family.pipeline
    actual = p.key(p.parts(t), mirror=True)
    expected = p.key(p.parts(evacuate(t)))
    if actual != expected:
        return _failure(t, expected, actual)
    return None


def _check_involution(family: Family, t: RowStrictTableau) -> dict | None:
    back = evacuate(evacuate(t))
    if back != t:
        return _failure(t, format_tableau(t), format_tableau(back))
    return None


def _check_lemma(family: Family, t: RowStrictTableau) -> dict | None:
    actual = evacuate(t)
    expected = rotate_complement(t, t.max_entry)
    if actual != expected:
        return _failure(t, format_tableau(expected), format_tableau(actual))
    return None


def _check_validity(family: Family, t: RowStrictTableau) -> dict | None:
    p = family.pipeline
    report = p.defects(p.parts(t))
    if report:
        return _failure(t, "", "; ".join(report))
    return None


def _check_injectivity(family: Family, t: RowStrictTableau) -> dict | None:
    """The inverse gives t back from its web, so no other tableau of the
    family has that web: of two tableaux with one web, one fails here."""
    p = family.pipeline
    rows = p.inverse(p.parts(t))
    if rows != t.rows:
        return _failure(t, format_tableau(t), _format_rows(rows))
    return None


_PER_TABLEAU = {
    "theorem": _check_theorem,
    "involution": _check_involution,
    "lemma": _check_lemma,
    "validity": _check_validity,
    "injectivity": _check_injectivity,
}
CHECK_NAMES = tuple(_PER_TABLEAU)


def _check_all(
    fn: Callable[[Family, RowStrictTableau], dict | None],
    family: Family,
    tableaux: list[RowStrictTableau],
    max_seconds: float | None,
    seconds_left: float,
) -> list[dict]:
    """Check each tableau in turn, raising TimeBudgetExceeded once this call
    has run longer than `seconds_left` (inf: no budget).  The budget is a
    duration, so a pool worker can measure it on its own clock."""
    start = time.monotonic()
    failures = []
    for t in tableaux:
        bad = fn(family, t)
        if bad is not None:
            failures.append(bad)
        if time.monotonic() - start > seconds_left:
            raise TimeBudgetExceeded(f"exceeded {max_seconds}s")
    return failures


def _check_batch(args) -> list[dict]:
    check, family, tableaux, max_seconds, seconds_left = args
    return _check_all(_PER_TABLEAU[check], family, tableaux, max_seconds, seconds_left)


def _worker_count(jobs: int | None) -> int:
    jobs = jobs or 1
    cap = os.environ.get("WEBWEAVE_THREADS")
    if cap:
        try:
            jobs = min(jobs, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"WEBWEAVE_THREADS must be an integer, got {cap!r}") from None
    return max(1, jobs)


def run_verification(
    family: Family,
    check: str,
    jobs: int | None = None,
    max_seconds: float | None = None,
) -> VerifyReport:
    """Run one named property exhaustively over a family.

    Families beyond the desk-scale bounds are refused unless a time budget is
    given; exceeding a given budget aborts with TimeBudgetExceeded, and a
    negative or NaN budget is refused with ValueError before enumeration.
    """
    if check not in CHECK_NAMES:
        raise ValueError(f"unknown check {check!r}; expected one of {CHECK_NAMES}")
    if max_seconds is None:
        family.check_bounds()
    elif not max_seconds >= 0:  # also NaN
        raise ValueError(f"max_seconds must be a number of seconds >= 0, got {max_seconds}")
    start = time.monotonic()

    def seconds_left() -> float:
        return math.inf if max_seconds is None else max_seconds - (time.monotonic() - start)

    tableaux = family.tableaux()
    if seconds_left() < 0:
        raise TimeBudgetExceeded(f"enumeration alone exceeded {max_seconds}s")

    jobs = _worker_count(jobs)
    if jobs == 1 or len(tableaux) < 4 * jobs:
        failures = _check_all(_PER_TABLEAU[check], family, tableaux, max_seconds, seconds_left())
    else:
        chunks = [tableaux[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = [(check, family, chunk, max_seconds, seconds_left()) for chunk in chunks]
            results = pool.map(_check_batch, batches)
            failures = [bad for batch in results for bad in batch]
        if seconds_left() < 0:
            raise TimeBudgetExceeded(f"exceeded {max_seconds}s")

    failures.sort(key=lambda f: tuple(f["reading_word"]))
    elapsed = (time.monotonic() - start) * 1000.0
    return VerifyReport(family.describe(), check, len(tableaux), failures, elapsed)
