import concurrent.futures
import functools
import io
import itertools
import operator
import os
import random
import re
from fractions import Fraction
from math import inf
from types import SimpleNamespace

import pytest

from oracles import (
    canonicalize_by_bfs,
    collision_check,
    grow_by_closures,
    reflect_web_by_expansion,
    renumber_web_parts,
    russell_parts_by_diagram,
    theorem_failures_per_tableau,
    tymoczko_parts_by_diagram,
    with_float_bar,
    without_last_vertex,
)
from test_webcore import square_face_web
from webweave import bijection, cli, tableau, verify, webcore
from webweave.bijection import _russell_parts, _tymoczko_parts
from webweave.jdt import _evacuate_rows, reading_word
from webweave.verify import (
    Family,
    FamilyBoundError,
    TimeBudgetExceeded,
    run_verification,
)
from webweave.tableau import (
    RowStrictTableau,
    Shape,
    _standardize,
    enumerate_russell,
    enumerate_standard,
    format_tableau,
    rotate_complement,
)
from webweave.webcore import BLACK, Web, _fields, canonicalize, reflect_web

T = RowStrictTableau.from_rows


class InProcessPool:
    """A process pool double that runs in this process, one simulated worker
    after another: worker w runs the pool's initializer, keeps the state it
    sets (`states`), and takes pieces w, w + max_workers, ... in turn.  The
    results come in piece order.  A piece that raises ends the map, so the
    pieces not started never run; `ran` lists (worker, piece index) in the
    order run, `results` what the pieces returned, and `shutdowns` the
    cancel_futures of each shutdown."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers, self.start = max_workers, functools.partial(initializer, *initargs)
        self.worker, self.pieces, self.results, self.states, self.ran, self.shutdowns = None, [], [], [], [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append(cancel_futures)

    def map(self, fn, pieces):
        self.pieces = list(pieces)
        self.results = results = [None] * len(self.pieces)
        for self.worker in range(self.max_workers):
            self.start()
            self.states.append(verify._worker)
            for i in range(self.worker, len(self.pieces), self.max_workers):
                self.ran.append((self.worker, i))
                results[i] = fn(self.pieces[i])
        return results


@pytest.fixture
def pools(monkeypatch):
    """Put InProcessPool in place of the process pool, and list the pools
    made; the worker state they leave in this process goes with the test."""
    made = []

    def make(**kwargs):
        made.append(InProcessPool(**kwargs))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    monkeypatch.setattr(verify, "_worker", None)
    return made


class TickingClock:
    """A clock for verify.time that ticks a second per reading; `now` is the
    last reading."""

    def __init__(self):
        self.now = -1.0

    def monotonic(self):
        self.now += 1
        return self.now


class TestFamily:
    def test_rejects_non_rectangles(self):
        with pytest.raises(ValueError):
            Family((3, 2))

    def test_rejects_repetition_on_two_rows(self):
        with pytest.raises(ValueError):
            Family((2, 2), 1)

    def test_all_repetitions_concatenate(self):
        assert len(Family((1, 1, 1), "all").tableaux()) == 3  # 1 standard + 2 with h=1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_stops_at_the_largest_repetition(self, k):
        every_h = [t for h in range(3 * k // 2 + 1) for t in enumerate_russell(k, h)]
        assert Family((k, k, k), "all").tableaux() == every_h

    @pytest.mark.parametrize("shape, repetition", [((4, 4), None), ((3, 3, 3), None), ((3, 3, 3), "all")])
    def test_tableaux_keep_the_enumerators_order(self, shape, repetition):
        family = Family(shape, repetition)
        if repetition is None:
            expected = enumerate_standard(Shape(shape))
        else:
            expected = [t for h in family.repetitions for t in enumerate_russell(shape[0], h)]
        assert family.tableaux() == expected

    @pytest.mark.parametrize("h", [2.5, True])
    def test_rejects_non_integer_repetition(self, h):
        # 2.5 used to fail later in range(), and True ran as h=1
        with pytest.raises(ValueError, match=f"bad repetition {h!r}"):
            Family((3, 3, 3), h)

    @pytest.mark.parametrize(
        "shape, message",
        [((3.5, 3.5, 3.5), "bad shape part 3.5"), ((True, True), "bad shape part True"), ((0, 0), "positive")],
    )
    def test_rejects_sides_that_are_not_positive_integers(self, shape, message):
        # (3.5, 3.5, 3.5) used to run as (3, 3, 3), and (0, 0) failed only
        # once the family was grown
        with pytest.raises(ValueError, match=message):
            Family(shape)

    def test_repetition_range(self):
        # a (k,k,k) filling has at most 3k // 2 doubled values
        assert len(Family((3, 3, 3), 4).tableaux()) > 0
        for h in (-1, 5, 8):
            with pytest.raises(ValueError, match="out of range 0..4"):
                Family((3, 3, 3), h)

    def test_bounds(self):
        with pytest.raises(FamilyBoundError):
            Family((9, 9)).check_bounds()
        with pytest.raises(FamilyBoundError):
            Family((6, 6, 6)).check_bounds()
        with pytest.raises(FamilyBoundError):
            Family((5, 5, 5), "all").check_bounds()
        Family((8, 8)).check_bounds()
        Family((5, 5, 5), 0).check_bounds()

    @pytest.mark.parametrize(
        "family, bound",
        [(Family((9, 9)), 8), (Family((6, 6, 6)), 5), (Family((6, 6, 6), 0), 5), (Family((5, 5, 5), "all"), 4),
         (Family((5, 5, 5), 1), 4)],
        ids=lambda value: value.describe() if isinstance(value, Family) else f"bound {value}",
    )
    def test_refusal_names_the_family_and_its_bound(self, family, bound):
        with pytest.raises(FamilyBoundError) as refused:
            family.check_bounds()
        message = str(refused.value)
        assert message.startswith(family.describe() + ":") and "bounded" in message and f"<= {bound} " in message

    @pytest.mark.parametrize("k", range(1, 6))
    def test_no_doubled_value_is_the_standard_kind(self, k):
        # h = 0 holds exactly the standard tableaux, so it is built, bounded
        # and sharded as they are, and only describe() tells them apart
        family, standard = Family((k, k, k), 0), Family((k, k, k))
        assert family.pipeline.build is _tymoczko_parts
        assert family.kind == standard.kind and not family.is_russell
        assert family.shards() == standard.shards()
        assert family.describe() == f"russell({k},{k},{k}, h=0)"
        if k == 4:
            assert len(family.shards()) == 462

    @pytest.mark.parametrize("k", range(1, 6))
    def test_doubled_values_keep_the_russell_kind(self, k):
        for repetition in [*range(1, 3 * k // 2 + 1), "all"]:
            family = Family((k, k, k), repetition)
            assert family.pipeline.build is _russell_parts and family.is_russell
            assert family.kind == verify._KINDS[3, True]


class TestRunVerification:
    @pytest.mark.parametrize("check", ["theorem", "involution", "lemma", "validity", "injectivity"])
    def test_checks_pass_on_small_families(self, check):
        for family in (Family((3, 3)), Family((2, 2, 2)), Family((2, 2, 2), "all")):
            result = run_verification(family, check)
            assert result.ok, result.failures
            assert result.total == len(family.tableaux())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checks_build_no_tableau(self, jobs, monkeypatch):
        # growth yields plain rows and every check reads them, so a campaign
        # validates no tableau; pool workers are forked and see the patch
        families = (Family((3, 3)), Family((2, 2, 2)), Family((2, 2, 2), "all"))
        totals = [len(family.tableaux()) for family in families]

        def refuse(self):
            raise AssertionError("a RowStrictTableau was built")

        monkeypatch.setattr(RowStrictTableau, "__post_init__", refuse)
        for family, total in zip(families, totals):
            for check in verify.CHECK_NAMES:
                result = run_verification(family, check, jobs=jobs)
                assert result.ok and result.total == total, (family, check)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checks_build_no_web(self, jobs, monkeypatch):
        # validity lists the defects of the plain fields (webcore._defects),
        # so no check builds a Web; pool workers are forked and see the patch
        families = (Family((3, 3, 3)), Family((2, 2, 2), "all"))
        totals = [len(family.tableaux()) for family in families]

        def refuse(self):
            raise AssertionError("a Web was built")

        monkeypatch.setattr(Web, "__post_init__", refuse)
        for family, total in zip(families, totals):
            for check in verify.CHECK_NAMES:
                result = run_verification(family, check, jobs=jobs)
                assert result.ok and result.total == total, (family, check)

    def test_report_json_shape(self):
        result = run_verification(Family((2, 2)), "theorem")
        doc = result.to_json()
        assert doc["total"] == 2
        assert doc["failures"] == []
        assert doc["check"] == "theorem"
        assert "elapsed_ms" in doc

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_verification(Family((2, 2)), "rotation")

    def test_out_of_bounds_needs_budget(self):
        with pytest.raises(FamilyBoundError):
            run_verification(Family((9, 9)), "involution")

    def test_budget_lifts_bound_but_enforces_time(self):
        with pytest.raises(TimeBudgetExceeded):
            run_verification(Family((9, 9)), "involution", max_seconds=1e-9)

    def test_injectivity_honours_budget(self, monkeypatch):
        clock = itertools.count()
        monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 1\.5s$"):
            run_verification(Family((3, 3, 3), "all"), "injectivity", max_seconds=1.5)

    def test_worker_batch_honours_budget(self, monkeypatch):
        clock = itertools.count()
        monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
        family = Family((3, 3))
        batch = ("involution", family, family.shards(), 0.5, 0.0)
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 0\.5s$"):
            verify._check_batch(batch)

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            run_verification(Family((9, 9)), "lemma", max_seconds=float("nan"))

    @pytest.mark.parametrize("seconds", [inf, 10**400], ids=["inf", "10**400"])
    def test_infinite_budget_rejected(self, seconds):
        # an infinite budget would lift the size bounds and bound nothing;
        # 10**400 is past every float, and raised OverflowError when the
        # sign of the budget was read
        with pytest.raises(ValueError, match=f"got {re.escape(repr(seconds))}$"):
            run_verification(Family((3, 3)), "lemma", max_seconds=seconds)

    def test_negative_budget_rejected_before_enumeration(self, monkeypatch):
        # every enumerator, shard listing included, grows through `_fill`
        def grow_nothing(*args):
            raise AssertionError("the family was grown")

        monkeypatch.setattr(tableau, "_fill", grow_nothing)
        with pytest.raises(ValueError, match="-1"):
            run_verification(Family((10, 10)), "theorem", max_seconds=-1)

    def test_negative_zero_budget_rejected_before_enumeration(self, monkeypatch):
        # 0 <= -0.0 holds, so the sign is read too; the campaign used to run
        # and fail after its first tableau with "exceeded -0.0s"
        def grow_nothing(*args):
            raise AssertionError("the family was grown")

        monkeypatch.setattr(tableau, "_fill", grow_nothing)
        with pytest.raises(ValueError, match=r"^max_seconds must be a number of seconds >= 0, got -0\.0$"):
            run_verification(Family((3, 3)), "lemma", max_seconds=-0.0)

    @pytest.mark.parametrize("seconds", ["5", True, Fraction(1, 2)])
    def test_budget_that_is_no_int_or_float_rejected_before_enumeration(self, monkeypatch, seconds):
        # "5" raised TypeError, True gave a 1 s budget, and a Fraction ran
        def grow_nothing(*args):
            raise AssertionError("the family was grown")

        monkeypatch.setattr(tableau, "_fill", grow_nothing)
        message = f"^max_seconds must be a number of seconds >= 0, got {re.escape(repr(seconds))}$"
        with pytest.raises(ValueError, match=message):
            run_verification(Family((3, 3)), "lemma", max_seconds=seconds)

    @pytest.mark.parametrize("jobs", [2.5, "2", True])
    def test_non_integer_jobs_rejected_before_enumeration(self, monkeypatch, jobs):
        # 2.5 and "2" raised TypeError, and True ran as 1
        def grow_nothing(*args):
            raise AssertionError("the family was grown")

        monkeypatch.setattr(tableau, "_fill", grow_nothing)
        with pytest.raises(ValueError, match=f"^bad jobs {re.escape(repr(jobs))}; expected an integer$"):
            run_verification(Family((3, 3)), "lemma", jobs=jobs, max_seconds=5)

    def test_parallel_run_is_budgeted_as_a_whole(self, monkeypatch, pools):
        # a clock that ticks a second per reading: each worker's 21 (3,3,3)
        # tableaux, in 8 pieces, stay within the 29 s left when the pool is
        # made, counted from the worker's start, so only the check after the
        # pool returns finds the 30 s budget spent
        monkeypatch.setattr(verify, "time", TickingClock())
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 30s$"):
            run_verification(Family((3, 3, 3)), "involution", jobs=2, max_seconds=30)
        (pool,) = pools
        assert pool.max_workers == 2 and len(pool.pieces) == 2 * verify.PIECES_PER_WORKER
        grown = [count for count, *_ in pool.results]
        assert [sum(grown[w::2]) for w in range(2)] == [21, 21]
        assert [w for w, _ in pool.ran] == [0] * 8 + [1] * 8 and pool.shutdowns == [False]

    def test_parallel_matches_serial(self):
        family = Family((3, 3, 3))
        serial = run_verification(family, "theorem", jobs=1)
        parallel = run_verification(family, "theorem", jobs=4)
        assert serial.total == parallel.total == 42
        assert serial.failures == parallel.failures == []

    def test_jobs_alone_sets_the_workers(self, monkeypatch, pools):
        # WEBWEAVE_THREADS once capped the workers; no variable is read now
        monkeypatch.setenv("WEBWEAVE_THREADS", "1")
        report = run_verification(Family((4, 4, 4)), "theorem", jobs=2)
        (pool,) = pools
        assert pool.max_workers == 2 and len(pool.ran) == 2 * verify.PIECES_PER_WORKER
        assert sorted(shard for piece in pool.pieces for shard in piece[2]) == sorted(Family((4, 4, 4)).shards())
        assert report.ok and report.total == 462

    @pytest.mark.parametrize("jobs", [2, 8])
    def test_family_with_few_shards_runs_in_process(self, jobs, monkeypatch):
        # (3,3) has 5 shards, fewer than 4 per worker, so it is checked as
        # one batch in-process; with evacuation the identity the theorem
        # fails on every matching that is not its own reflection
        def no_pool(**kwargs):
            raise AssertionError("a process pool was built")

        family = Family((3, 3))
        assert len(family.shards()) == 5
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: rows)
        serial = _doc(family, "theorem")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert serial["failures"] and _doc(family, "theorem", jobs) == serial


class TestShards:
    def test_budget_covers_growing(self, monkeypatch):
        # with a clock that ticks a second per reading, a 5.5 s budget trips
        # after the fifth tableau of a (12,12) campaign, and a batch given
        # 3.5 s after the fourth, so nothing beyond them is grown; listing
        # the shards (a finite `last`) grows no tableau and is not counted
        grown = []
        real_grow = tableau._grow

        def counting_grow(shape, prefix=(), last=inf):
            for rows in real_grow(shape, prefix, last):
                if last == inf:
                    grown.append(rows)
                yield rows

        monkeypatch.setattr(tableau, "_grow", counting_grow)
        monkeypatch.setattr(verify, "_grow", counting_grow)
        family = Family((12, 12))
        clock = itertools.count()
        monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 5\.5s$"):
            run_verification(family, "involution", max_seconds=5.5)
        assert len(grown) == 5
        grown.clear()
        clock = itertools.count()
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 3\.5s$"):
            verify._check_batch(("involution", family, family.shards(), 3.5, 3.5))
        assert len(grown) == 4

    @pytest.mark.parametrize("family", [Family((4, 4, 4)), Family((3, 3, 3), "all")], ids=Family.describe)
    def test_output_does_not_depend_on_jobs(self, family, monkeypatch):
        # with evacuation the identity the theorem fails on many tableaux;
        # the pool is recorded, so the jobs 2 and 3 runs are known to be
        # sharded into pieces, each taken by one of `jobs` workers
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: rows)
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append((max_workers, []))
                super().__init__(max_workers, **kwargs)

            def map(self, fn, sent):
                pools[-1][1].extend(sent)
                return super().map(fn, pools[-1][1])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        docs = [run_verification(family, "theorem", jobs=jobs).to_json() for jobs in (1, 2, 3)]
        for doc in docs:
            del doc["elapsed_ms"]
        assert docs[0] == docs[1] == docs[2]
        assert docs[0]["total"] == len(family.tableaux())
        words = [f["reading_word"] for f in docs[0]["failures"]]
        assert words and words == sorted(words)
        # the pieces deal the shard list by stride: each shard once, in one piece
        shards = family.shards()
        assert [jobs for jobs, _ in pools] == [2, 3]
        for jobs, pieces in pools:
            n = verify.PIECES_PER_WORKER * jobs
            assert len(pieces) == n and [piece[2] for piece in pieces] == [shards[i::n] for i in range(n)]
            assert sorted(shard for piece in pieces for shard in piece[2]) == sorted(shards)

    @pytest.mark.parametrize(
        "family",
        [Family((n, n)) for n in range(1, 9)]
        + [Family((k, k, k)) for k in range(1, 5)]
        + [Family((k, k, k), h) for k in range(1, 4) for h in [*range(3 * k // 2 + 1), "all"]]
        + [Family((5, 5, 5)), Family((10, 10)), Family((4, 4, 4), "all")],
        ids=Family.describe,
    )
    def test_shards_partition_the_family(self, family):
        # growth yields unvalidated rows; each must make a valid tableau,
        # here at the scale of the benchmark's families too
        grown = [T(rows) for shard in family.shards() for rows in family.grow(shard)]
        assert len(set(grown)) == len(grown)
        # h = size - largest entry, so this is the order of Family.tableaux()
        grown.sort(key=lambda t: (t.size - t.max_entry, t.column_word()))
        assert grown == family.tableaux()

    @pytest.mark.parametrize(
        "family", [Family((8, 8)), Family((5, 5, 5)), Family((4, 4, 4), "all")], ids=Family.describe
    )
    def test_shards_keep_closure_growth_order(self, family):
        # --jobs deals shards by position, so the shard list and each
        # shard's stream must come in the order the closure growth gives:
        # a Russell shard gives each standard tableau's fillings, h by h
        shape = Shape(family.shape)
        shards = grow_by_closures(shape, 0, (), verify._SHARD_DEPTH)
        assert family.shards() == shards
        for prefix in shards:
            grown = grow_by_closures(shape, 0, prefix)
            if family.is_russell:
                grown = [f for rows in grown for h in family.repetitions for f in tableau._russell_fillings(rows, h)]
            assert list(family.grow(prefix)) == grown

    @pytest.mark.parametrize(
        "family", [Family((3, 3, 3), 2), Family((4, 4, 4), "all"), Family((5, 5, 5), "all")], ids=Family.describe
    )
    def test_a_standardizations_fillings_come_together(self, family):
        # the build's memo keeps the last two standardizations' webs, so
        # each shard must give all the fillings of one standardization, at
        # every h, one after another, and no other shard any of them; a
        # (5,5,5) shard grows several standard tableaux, so its first 100
        # shards show the order within a shard
        shards = family.shards()[:100]
        runs = [key for shard in shards for key, _ in itertools.groupby(map(_standardized, family.grow(shard)))]
        assert len(runs) == len(set(runs)) >= len(shards)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize(
        "family", [Family((4, 4)), Family((3, 3, 3), "all"), Family((8, 8))], ids=Family.describe
    )
    def test_pieces_partition_the_shards(self, family, jobs, monkeypatch, pools):
        # piece i holds every n-th shard from the i-th, n being 8 per worker
        # or, for the 14 shards of (4,4), one piece per shard;
        # with evacuation the identity the records are compared too
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: rows)
        serial = _doc(family, "theorem")
        assert serial["failures"] and _doc(family, "theorem", jobs) == serial
        shards = family.shards()
        if jobs == 1:
            assert not pools
            return
        (pool,) = pools
        n = min(verify.PIECES_PER_WORKER * jobs, len(shards))
        assert pool.max_workers == jobs and [piece[2] for piece in pool.pieces] == [shards[i::n] for i in range(n)]
        dealt = [shard for piece in pool.pieces for shard in piece[2]]
        assert len(dealt) == len(shards) and sorted(dealt) == sorted(shards)
        assert sorted(i for _, i in pool.ran) == list(range(n))

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_no_piece_grows_past_its_workers_deadline(self, jobs, monkeypatch, pools):
        # a clock that ticks a second per reading, and a 100 s budget over
        # (4,4,4), one tableau per shard: in-process the budget trips after
        # the 100th tableau, and in the pool the first worker grows up to
        # its deadline, a few pieces in, and no further; the campaign
        # cancels the pieces not started, and a piece started past its
        # worker's deadline grows nothing
        family, clock, grown = Family((4, 4, 4)), TickingClock(), []
        real_grow = tableau._grow

        def counting_grow(shape, prefix=(), last=inf):
            for rows in real_grow(shape, prefix, last):
                if last == inf:
                    grown.append((pools[-1].worker if pools else None, clock.now))
                yield rows

        monkeypatch.setattr(verify, "_grow", counting_grow)
        monkeypatch.setattr(verify, "time", clock)
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 100s$"):
            run_verification(family, "involution", jobs=jobs, max_seconds=100)
        if jobs == 1:
            assert not pools and len(grown) == 100
            return
        (pool,) = pools
        (deadline,) = {state[1] for state in pool.states}
        assert {w for w, _ in pool.ran} == {w for w, _ in grown} == {0} and len(pool.ran) < len(pool.pieces)
        assert all(now <= deadline for _, now in grown) and grown[-1][1] == deadline
        assert pool.shutdowns[0] is True
        grown.clear()
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 100s$"):
            verify._check_piece(pool.pieces[-1])
        assert grown == []

    def test_a_tripped_pool_cancels_the_pieces_not_started(self, monkeypatch):
        # the budget is spent when the pool is made, so the first piece trips
        cancels = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                cancels.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        with pytest.raises(TimeBudgetExceeded, match=r"^exceeded 1e-09s$"):
            run_verification(Family((10, 10)), "involution", jobs=2, max_seconds=1e-9)
        assert cancels[0] is True


class TestFailureRecords:
    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((2, 2, 2), "all")], ids=Family.describe)
    def test_seeded_theorem_failures_match_web_oracle(self, family, monkeypatch):
        # with evacuation the identity, the theorem fails wherever a web is
        # not its own reflection; the records must be those of the Web path
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: rows)
        oracle_parts = russell_parts_by_diagram if family.is_russell else tymoczko_parts_by_diagram
        want = []
        for t in family.tableaux():
            web = Web(*oracle_parts(t))
            actual, expected = canonicalize_by_bfs(reflect_web(web)), canonicalize_by_bfs(web)
            if actual != expected:
                want.append(
                    {"tableau": format_tableau(t), "reading_word": list(reading_word(t)), "expected": expected,
                     "actual": actual}
                )
        want.sort(key=lambda f: tuple(f["reading_word"]))
        got = run_verification(family, "theorem").to_json()["failures"]
        assert want and got == want

    @pytest.mark.parametrize("family", [Family((3, 3)), Family((2, 2, 2), "all")], ids=Family.describe)
    def test_seeded_lemma_and_involution_failures_match_tableau_records(self, family, monkeypatch):
        # evacuation seeded as the identity fails the lemma wherever t is not
        # its own rotate-complement, and seeded as a shift by one fails the
        # involution everywhere; the records must be those the tableau
        # path wrote
        def record(t, expected, actual):
            return {"tableau": format_tableau(t), "reading_word": list(reading_word(t)),
                    "expected": format_tableau(expected), "actual": format_tableau(actual)}

        tableaux = family.tableaux()
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: [list(row) for row in rows])
        want = [record(t, rotate_complement(t, t.max_entry), t) for t in tableaux
                if t != rotate_complement(t, t.max_entry)]
        want.sort(key=lambda f: tuple(f["reading_word"]))
        assert want and run_verification(family, "lemma").to_json()["failures"] == want

        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: [[v + 1 for v in row] for row in rows])
        want = [record(t, t, T([[v + 2 for v in row] for row in t.rows])) for t in tableaux]
        want.sort(key=lambda f: tuple(f["reading_word"]))
        assert run_verification(family, "involution").to_json()["failures"] == want

    def test_seeded_collision_is_flagged(self, monkeypatch):
        # one tableau is given another's web; pool workers are forked, so
        # they see the patched pipeline too
        family = Family((3, 3, 3))
        tableaux = family.tableaux()
        victim, other = tableaux[5], tableaux[17]
        _patch_build(monkeypatch, family, lambda real, rows: real(other.rows if rows == victim.rows else rows))
        want = [
            {"tableau": format_tableau(victim), "reading_word": list(reading_word(victim)),
             "expected": format_tableau(victim), "actual": format_tableau(other)}
        ]
        serial = run_verification(family, "injectivity", jobs=1).to_json()["failures"]
        parallel = run_verification(family, "injectivity", jobs=2).to_json()["failures"]
        assert serial == parallel == want
        # the key-remembering oracle flags the later of the two
        check = collision_check()
        flagged = [bad for bad in (check(family, t) for t in tableaux) if bad is not None]
        assert [bad["tableau"] for bad in flagged] == [format_tableau(other)]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("family", [Family((4, 4)), Family((3, 3, 3))], ids=Family.describe)
    def test_seeded_malformed_build_is_a_validity_record(self, family, jobs, monkeypatch):
        # a build that its check refuses is that tableau's failure record, for
        # a matching as for a web, and the campaign goes on; so is a web that
        # passes the check but has a defect.  Pool workers are forked and see
        # the patch
        tableaux = family.tableaux()
        if family.rows == 2:
            bad = {tableaux[3]: (((1, 3), (2, 5), (4, 6), (7, 8)), "pairs (1,3) and (2,5) cross")}
        else:
            loop = ((BLACK,), (), ((0, 0),), ((0, 0),))
            bad = {tableaux[3]: (loop, "edge 0 is a loop"),
                   tableaux[9]: (_fields(square_face_web()), "internal face of size 4 < 6")}
        seeded = {t.rows: parts for t, (parts, _) in bad.items()}
        _patch_build(monkeypatch, family, lambda real, rows: seeded[rows] if rows in seeded else real(rows))
        want = [{"tableau": format_tableau(t), "reading_word": list(reading_word(t)), "expected": "", "actual": says}
                for t, (_, says) in bad.items()]
        want.sort(key=lambda f: tuple(f["reading_word"]))
        report = run_verification(family, "validity", jobs=jobs)
        assert report.total == len(tableaux)
        assert report.to_json()["failures"] == want

    def test_wrong_inverse_fails_every_tableau(self, monkeypatch):
        # a wrong inverse fails every tableau instead of passing unnoticed
        _patch_pipeline(monkeypatch, Family((3, 3)), inverse=lambda m: ((), ()))
        report = run_verification(Family((3, 3)), "injectivity")
        assert len(report.failures) == report.total == 5


def _patch_pipeline(monkeypatch, family, **stages):
    """Replace stages of the family's pipeline in verify's table of kinds,
    which is keyed by (rows, is_russell); pool workers are forked, so they
    see the patch too."""
    kind = family.kind
    patched = kind._replace(pipeline=kind.pipeline._replace(**stages))
    monkeypatch.setitem(verify._KINDS, (family.rows, family.is_russell), patched)


def _patch_build(monkeypatch, family, build):
    """Give the family's pipeline the forward builder build(real_build, rows)."""
    real = family.pipeline.build
    _patch_pipeline(monkeypatch, family, build=lambda rows: build(real, rows))


def _evacuated(rows):
    return tuple(map(tuple, _evacuate_rows(rows)))


class TestTheoremOrbits:
    """The theorem is checked once per evacuation orbit; the full check of
    every tableau is the oracle."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((4, 4)), Family((2, 2, 2), "all")],
                             ids=Family.describe)
    def test_seeded_failures_match_oracle(self, family, jobs, monkeypatch):
        # the forward map is patched on three tableaux and evacuation is not,
        # so the skip path runs: the tableau on the skipped side of its orbit
        # fails by its partner's check, which writes both records.  Each
        # victim is given the web of a tableau that is not self-evacuating,
        # so that the self-evacuating victim fails too; pool workers are
        # forked and see the patch
        rows = [t.rows for t in family.tableaux()]
        sides = [lambda e, t: e < t, lambda e, t: e > t, lambda e, t: e == t]
        victims = [next(t for t in rows if side(_evacuated(t), t)) for side in sides]
        donors = [t for t in rows if _evacuated(t) != t and t not in victims]
        swap = dict(zip(victims, donors))
        _patch_build(monkeypatch, family, lambda real, rows: real(swap.get(tuple(map(tuple, rows)), rows)))
        want = theorem_failures_per_tableau(family)
        assert run_verification(family, "theorem", jobs=jobs).to_json()["failures"] == want
        failed = {f["tableau"] for f in want}
        assert all(format_tableau(T(rows)) in failed for rows in victims)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partner_record_only_when_the_partner_fails(self, jobs, monkeypatch):
        # reflection seeded to leave rotations unreversed on the webs of the
        # tableaux t < evac(t) only, so it is no involution: each such t is
        # checked and fails, and its skipped partner evac(t), whose web is
        # reflected right, passes, so it gets no record
        family = Family((3, 3, 3))
        _seed_unreversed_reflection(monkeypatch, family, lambda e, t: e > t)
        want = theorem_failures_per_tableau(family)
        assert len(want) == 18
        assert run_verification(family, "theorem", jobs=jobs).to_json()["failures"] == want

    def test_skip_rests_on_the_reflection(self, monkeypatch):
        # the same fault on the webs of the tableaux t > evac(t): each such t
        # is skipped and its partner passes, so the campaign cannot see it.
        # The skip is sound only for a reflection that is an involution
        # sending isotopic webs to isotopic webs, as the shipped one is
        # (TestShippedReflection)
        family = Family((3, 3, 3))
        _seed_unreversed_reflection(monkeypatch, family, lambda e, t: e < t)
        assert len(theorem_failures_per_tableau(family)) == 18
        assert run_verification(family, "theorem").ok

    def test_balance_fails_without_an_involution(self, monkeypatch):
        # evacuation seeded to send every tableau to the least one: each of
        # the others is skipped, and no checked tableau evacuates to it
        family = Family((3, 3, 3))
        least = min(t.rows for t in family.tableaux())
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: least)
        want = theorem_failures_per_tableau(family)
        assert len(want) == 41
        doc = _doc(family, "theorem")
        assert _doc(family, "theorem", 2) == doc
        _assert_unbalanced(doc, [f for f in want if f["tableau"] == format_tableau(T(least))])

    def test_balance_fails_on_a_partner_outside_the_family(self, monkeypatch):
        # evacuation seeded to swap each tableau of h=1 with a smaller one of
        # another h: each member is skipped, and a partner the family does
        # not grow covers nothing
        family = Family((2, 2, 2), 1)
        others = sorted(t.rows for h in (0, 2, 3) for t in Family((2, 2, 2), h).tableaux())
        swap = {}
        for rows in sorted(t.rows for t in family.tableaux()):
            swap[rows] = next(s for s in others if s < rows and s not in swap)
            swap[swap[rows]] = rows
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: swap[tuple(map(tuple, rows))])
        assert len(theorem_failures_per_tableau(family)) == 15
        doc = _doc(family, "theorem")
        assert _doc(family, "theorem", 2) == doc
        _assert_unbalanced(doc, [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_balance_pairs_each_skip_with_its_evacuation(self, jobs, monkeypatch):
        # evacuation seeded to turn two orbits a < c and b < d, with
        # a < b < c < d, into the 4-cycle a -> c -> b -> d -> a.  Then c and d
        # are skipped and are the evacuations of the checked a and b, which
        # pass; but c and d fail, and neither a nor b evacuates back to
        # them, so a balance of the skipped tableaux alone would hold
        family = Family((3, 3, 3))
        orbits = sorted((t.rows, _evacuated(t.rows)) for t in family.tableaux() if t.rows < _evacuated(t.rows))
        (a, c), (b, d) = next((x, y) for x, y in itertools.combinations(orbits, 2) if x[0] < y[0] < x[1] < y[1])
        cycle = {a: c, c: b, b: d, d: a}
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: cycle.get(rows) or _evacuate_rows(rows))
        failed = {f["tableau"] for f in theorem_failures_per_tableau(family)}
        assert failed == {format_tableau(T(c)), format_tableau(T(d))}
        _assert_unbalanced(_doc(family, "theorem", jobs), [])

    @pytest.mark.parametrize(
        "family, skipped",
        [(Family((4, 4)), 4), (Family((3, 3, 3), "all"), 280), (Family((5, 5, 5)), 2968),
         (Family((4, 4, 4), "all"), 6396), (Family((10, 10)), 8272)],
        ids=lambda x: x.describe() if isinstance(x, Family) else str(x),
    )
    def test_each_orbit_is_checked_once(self, family, skipped, monkeypatch):
        # a checked tableau builds its own web and, unless evacuation fixes
        # it, its evacuation's, and every member of the family is checked or
        # is the evacuation of one that is: coverage does not rest on the
        # involution check, and each member is built exactly once
        built = []

        def counting(real, rows):
            built.append(rows)
            return real(rows)

        _patch_build(monkeypatch, family, counting)
        members = [rows for shard in family.shards() for rows in family.grow(shard)]
        report = run_verification(family, "theorem", max_seconds=600)
        assert report.ok and report.total == len(members)
        checked, in_order = [], iter(built)
        for rows in in_order:
            checked.append(rows)
            if _evacuated(rows) != rows:
                assert next(in_order) == _evacuated(rows), rows
        assert len(checked) == len(members) - skipped
        assert any(_evacuated(rows) == rows for rows in checked)
        assert sorted(built) == sorted(members)


def _assert_unbalanced(doc, records):
    """The report holds the records, then the family's one record of an
    orbit balance whose two sums differ."""
    *rest, last = doc["failures"]
    assert rest == records
    assert last["tableau"] == "" and last["reading_word"] == []
    expected, actual = (re.fullmatch(r"skipped tableaux hash to (-?\d+)", last[k]) for k in ("expected", "actual"))
    assert expected and actual and expected[1] != actual[1]


def _reflect_parts_unreversed(parts):
    """_reflect_parts with a seeded fault: the rotations keep their direction."""
    boundary_colors, internal_colors, edges, rotation = parts
    b = len(boundary_colors)
    remap = [*range(b - 1, -1, -1), *range(b, b + len(internal_colors))]
    edges = [(remap[x], remap[y]) for x, y in edges]
    return boundary_colors[::-1], internal_colors, edges, [rotation[v] for v in remap]


def _seed_unreversed_reflection(monkeypatch, family, side):
    """Seed the one web reflection, so reflect_web, the oracle's path, and
    the family's pipeline, to leave rotations unreversed on the webs of the
    tableaux t with side(evac(t), t) only; pool workers are forked and see
    it."""
    p, real = family.pipeline, webcore._reflect_parts
    seeded = {p.key(p.parts(t.rows)) for t in family.tableaux() if side(_evacuated(t.rows), t.rows)}

    def reflect(parts):
        return (_reflect_parts_unreversed if p.key(parts) in seeded else real)(parts)

    monkeypatch.setattr(webcore, "_reflect_parts", reflect)
    _patch_pipeline(monkeypatch, family, reflect=reflect)


class TestShippedReflection:
    """The theorem check reflects with the one reflection per kind that the
    public reflect_matching and reflect_web call, and compares with the one
    equality per kind."""

    def test_one_reflection_per_kind(self):
        assert verify.SL2.reflect is webcore._reflect_pairs
        assert verify.SL3_STANDARD.reflect is verify.SL3_RUSSELL.reflect is webcore._reflect_parts

    def test_one_equality_per_kind(self):
        assert verify.SL2.same is operator.eq
        assert verify.SL3_STANDARD.same is verify.SL3_RUSSELL.same is webcore._same_web

    @pytest.mark.parametrize("family", [Family((5, 5, 5)), Family((4, 4, 4), "all")], ids=Family.describe)
    def test_reflection_sends_isotopic_webs_to_isotopic_webs(self, family, family_webs):
        # what the theorem check's skip rests on, beside the involution that
        # test_reflection_stage_against_expansion_oracle pins: the web
        # written another way reflects to the same web
        rng, p = random.Random(family.describe()), family.pipeline
        for rows, parts in family_webs(family):
            renumbered = renumber_web_parts(rng, parts)
            assert webcore._same_web(renumbered, parts), rows
            assert webcore._same_web(p.reflect(renumbered), p.reflect(parts)), rows

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((2, 2, 2), "all")], ids=Family.describe)
    def test_seeded_reflection_fault_fails_the_theorem(self, family, jobs, monkeypatch):
        # the fault is seeded in the body of the one function, so reflect_web
        # and every web pipeline run it; pool workers are forked and see it
        monkeypatch.setattr(webcore._reflect_parts, "__code__", _reflect_parts_unreversed.__code__)
        web = Web(*family.pipeline.parts(family.tableaux()[0].rows))
        assert canonicalize(reflect_web(web)) != canonicalize_by_bfs(reflect_web_by_expansion(web))
        report = run_verification(family, "theorem", jobs=jobs)
        assert report.failures and report.to_json()["failures"] == theorem_failures_per_tableau(family)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((2, 2, 2), "all")], ids=Family.describe)
    def test_seeded_reflection_fault_on_fixed_points_fails_the_theorem(self, family, jobs, monkeypatch):
        # a tableau that evacuation fixes builds its web once and checks it
        # against its own reflection; the fault is seeded on exactly the webs
        # of fixed points on which it shows, so those fail and no other does
        p = family.pipeline
        want, seeded = [], set()
        for t in family.tableaux():
            if _evacuated(t.rows) == t.rows:
                key, actual = p.key(p.parts(t.rows)), p.key(_reflect_parts_unreversed(p.parts(t.rows)))
                if actual != key:
                    seeded.add(key)
                    want.append({"tableau": format_tableau(t), "reading_word": list(reading_word(t)),
                                 "expected": key, "actual": actual})
        assert want
        want.sort(key=lambda f: tuple(f["reading_word"]))

        def reflect_fixed_unreversed(parts):
            return (_reflect_parts_unreversed if p.key(parts) in seeded else p.reflect)(parts)

        _patch_pipeline(monkeypatch, family, reflect=reflect_fixed_unreversed)
        report = run_verification(family, "theorem", jobs=jobs)
        assert report.to_json()["failures"] == want

    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((5, 5, 5)), Family((4, 4, 4), "all")],
                             ids=Family.describe)
    def test_reflection_stage_against_expansion_oracle(self, family, family_webs):
        # the pipeline's reflection is an involution on plain fields, and its
        # key is that of reflecting the long way round, by expanding white
        # boundary vertices into black pairs
        p, total = family.pipeline, 0
        for rows, parts in family_webs(family):
            assert tuple(map(tuple, p.reflect(p.reflect(parts)))) == parts, rows
            assert p.key(p.reflect(parts)) == canonicalize_by_bfs(reflect_web_by_expansion(Web(*parts))), rows
            total += 1
        assert total == len(family.tableaux())



def _float_id_build(real, rows):
    """The real build with a seeded fault: edge 0's first endpoint a float
    equal to it."""
    boundary_colors, internal_colors, edges, rotation = real(rows)
    (a, b), *rest = edges
    return boundary_colors, internal_colors, [(float(a), b), *rest], rotation


class TestOneWebGate:
    """The sl3 campaigns run the gate a Web runs, so a build that emits an id
    that is not an integer is refused where it is built; pool workers are
    forked and see the seeded build."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((2, 2, 2), "all")], ids=Family.describe)
    def test_seeded_float_id_is_a_validity_record(self, family, jobs, monkeypatch):
        # one record per tableau, and the campaign finishes
        real = family.pipeline.build
        want = [{"tableau": format_tableau(t), "reading_word": list(reading_word(t)), "expected": "",
                 "actual": f"bad id {float(real(t.rows)[2][0][0])!r}; expected an integer"}
                for t in family.tableaux()]
        want.sort(key=lambda f: tuple(f["reading_word"]))
        _patch_build(monkeypatch, family, _float_id_build)
        report = run_verification(family, "validity", jobs=jobs)
        assert report.total == len(want)
        assert report.to_json()["failures"] == want

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("check", ["theorem", "injectivity"])
    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((2, 2, 2), "all")], ids=Family.describe)
    def test_seeded_float_id_stops_the_campaign(self, family, check, jobs, monkeypatch, capsys):
        # the theorem and injectivity trust what the build gives once it is
        # checked, so the refusal is a ValueError: exit 2 and one error line
        _patch_build(monkeypatch, family, _float_id_build)
        message = r"bad id \d+\.0; expected an integer"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_verification(family, check, jobs=jobs)
        argv = ["verify", "--shape", ",".join(map(str, family.shape)), "--check", check, "--jobs", str(jobs)]
        if family.is_russell:
            argv += ["--repetition", str(family.repetition)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(f"error: {message}\n", err), err


def _doc(family, check, jobs=1):
    """The campaign's report as JSON, less its elapsed time."""
    doc = run_verification(family, check, jobs=jobs).to_json()
    del doc["elapsed_ms"]
    return doc


def _memo_free(monkeypatch, family):
    """Put a wrapper of the family's build in verify._KINDS: a build that is
    not _russell_parts runs as given, so the campaign keeps no memo."""
    _patch_build(monkeypatch, family, lambda real, rows: real(rows))


def _standardized(rows):
    return tuple(map(tuple, _standardize(rows)[0]))


def _flat(rows):
    """The entries of rows, row by row, in one tuple."""
    return tuple(itertools.chain(*rows))


# a standardization whose m-diagram has crossings, so its Tymoczko web's
# last edge is an H bar between internal vertices
VICTIM = ((1, 3, 4), (2, 6, 7), (5, 8, 9))


class TestBatchMemo:
    """A campaign over a Russell family grows each standardization's
    fillings together, so the memo of the last two standardizations' webs
    (bijection._russell_parts with the memo of Pipeline.batch, one per
    batch or pool piece) builds each standardization's Tymoczko web once
    for `validity` and `injectivity`, and at most twice for the theorem,
    which also builds the web of each filling's evacuation; the memo-free
    campaign is the oracle.  Pool workers are forked and see every patch."""

    FAMILY = Family((3, 3, 3), "all")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("check", ["theorem", "validity", "injectivity"])
    def test_report_equals_the_memo_free_campaign(self, check, jobs, monkeypatch):
        memo = _doc(self.FAMILY, check, jobs)
        _memo_free(monkeypatch, self.FAMILY)
        assert memo == _doc(self.FAMILY, check, jobs) and memo["total"] == 576

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_theorem_records_equal_the_memo_free_campaign(self, jobs, monkeypatch):
        # with evacuation the identity the theorem fails wherever a web is
        # not its own reflection, so the records are compared too
        monkeypatch.setattr(verify, "_evacuate_rows", lambda rows: rows)
        memo = _doc(self.FAMILY, "theorem", jobs)
        _memo_free(monkeypatch, self.FAMILY)
        assert memo["failures"] and memo == _doc(self.FAMILY, "theorem", jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fault", ["float id", "dropped vertex", "raise"])
    def test_seeded_fault_in_one_standardization(self, fault, jobs, monkeypatch):
        # one record per filling of the family with that standardization,
        # the contracted ones too, saying what the gate says of the built
        # fields; a raise is not remembered, so each of them builds it
        # again, and every other standardization is built once
        real, calls = bijection._tymoczko_parts, []
        faulty = {"float id": with_float_bar(real), "dropped vertex": without_last_vertex(real)}.get(fault)
        says = "seeded fault"
        if faulty:
            with pytest.raises(ValueError) as gate:
                webcore._check_structure(faulty(VICTIM))
            says = str(gate.value)
        if fault == "float id":
            assert says == f"bad id {float(real(VICTIM)[2][-1][0])!r}; expected an integer"

        def seeded(rows):
            calls.append(tuple(map(tuple, rows)))
            if calls[-1] != VICTIM:
                return real(rows)
            if fault == "raise":
                raise ValueError("seeded fault")
            return faulty(rows)

        monkeypatch.setattr(bijection, "_tymoczko_parts", seeded)
        victims = [t for t in self.FAMILY.tableaux() if _standardized(t.rows) == VICTIM]
        want = [{"tableau": format_tableau(t), "reading_word": list(reading_word(t)), "expected": "", "actual": says}
                for t in victims]
        want.sort(key=lambda f: tuple(f["reading_word"]))
        memo = _doc(self.FAMILY, "validity", jobs)
        assert len(victims) > 1 and memo["failures"] == want
        if jobs == 1:
            built = len(victims) if fault == "raise" else 1
            assert calls.count(VICTIM) == built and len(calls) == 41 + built
        _memo_free(monkeypatch, self.FAMILY)
        assert memo == _doc(self.FAMILY, "validity", jobs)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("check", ["theorem", "validity", "injectivity"])
    @pytest.mark.parametrize("family", [Family((3, 3, 3), "all"), Family((4, 4, 4), "all"), Family((3, 3, 3), 2)],
                             ids=Family.describe)
    def test_builds_per_standardization(self, family, check, jobs, monkeypatch, pools):
        # Russell (4,4,4) has 12,976 members and 462 standardizations, each
        # built once, serial or over the pool double's pieces; the theorem
        # builds 829 webs there.  Without the memo a check builds one per
        # member (the theorem each member once, test_each_orbit_is_checked_once)
        real, calls = bijection._tymoczko_parts, []
        monkeypatch.setattr(bijection, "_tymoczko_parts", lambda rows: calls.append(_flat(rows)) or real(rows))
        report = run_verification(family, check, jobs=jobs)
        assert report.ok and len(pools) == (jobs > 1)
        standardizations = {_flat(_standardize(t.rows)[0]) for t in family.tableaux()}
        assert set(calls) == standardizations
        if check == "theorem":
            assert max(map(calls.count, standardizations)) <= 2
        else:
            assert len(calls) == len(standardizations)
        if family.shape == (3, 3, 3) and jobs == 1:
            calls.clear()
            _memo_free(monkeypatch, family)
            assert run_verification(family, check).total == len(calls) == len(family.tableaux())

    def test_no_memo_outlives_a_campaign(self, monkeypatch, pools):
        # a build patched between two campaigns changes the second, whether
        # either one is serial or pooled; the pool double's workers start in
        # this process and leave their state here, and neither a serial
        # campaign nor a later pool reads it
        real = bijection._tymoczko_parts
        victims = {format_tableau(t) for t in self.FAMILY.tableaux() if _standardized(t.rows) == VICTIM}
        for first, then in [(1, 1), (2, 1), (3, 1), (2, 2)]:
            assert run_verification(self.FAMILY, "validity", jobs=first).ok
            with monkeypatch.context() as patched:
                patched.setattr(bijection, "_tymoczko_parts",
                                lambda rows: with_float_bar(real)(rows) if _standardized(rows) == VICTIM else real(rows))
                failed = {f["tableau"] for f in run_verification(self.FAMILY, "validity", jobs=then).failures}
            assert failed == victims, (first, then)
        assert [pool.max_workers for pool in pools] == [2, 3, 2, 2]

    def test_a_piece_reads_only_its_campaigns_worker(self, pools):
        # a piece whose token is not its worker's finds no state to read
        assert run_verification(self.FAMILY, "validity", jobs=2).ok
        check, family, shards, max_seconds, token = pools[0].pieces[0]
        with pytest.raises(RuntimeError, match="did not start"):
            verify._check_piece((check, family, shards, max_seconds, object()))
        verify._worker = None
        with pytest.raises(RuntimeError, match="did not start"):
            verify._check_piece(pools[0].pieces[0])

    def test_a_pool_builds_each_standardization_once(self, tmp_path, monkeypatch):
        # pool workers are forked and see the patch; each logs what it
        # builds to a file named by its process id, and no standardization
        # is built twice, by one worker or by two
        family, real = Family((4, 4, 4), "all"), bijection._tymoczko_parts

        def logged(rows):
            with open(tmp_path / str(os.getpid()), "a") as log:
                log.write(f"{_flat(rows)}\n")
            return real(rows)

        monkeypatch.setattr(bijection, "_tymoczko_parts", logged)
        assert run_verification(family, "validity", jobs=2).ok
        logs = {path.name: path.read_text().splitlines() for path in tmp_path.iterdir()}
        assert str(os.getpid()) not in logs and 1 <= len(logs) <= 2
        built = [rows for log in logs.values() for rows in log]
        assert len(set(built)) == len(built) == 462

    def test_no_memo_outlives_a_cli_call(self, monkeypatch, capsys):
        # to-web builds per call: a build patched between two calls on one
        # Russell tableau changes the second, and undone, gives the first back
        text = "1 2 3\n1 4 5\n3 6 7\n"  # standardizes to VICTIM
        outputs = []

        def to_web():
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            outputs.append((cli.main(["to-web"]), *capsys.readouterr()))

        to_web()
        with monkeypatch.context() as patched:
            patched.setattr(bijection, "_tymoczko_parts", with_float_bar(bijection._tymoczko_parts))
            to_web()
        to_web()
        first, second, third = outputs
        assert first[0] == 0 and first[1].startswith("{") and first == third
        assert second[:2] == (2, "") and re.fullmatch(r"error: bad id \d+\.0; expected an integer\n", second[2])

    @pytest.mark.parametrize("check", ["theorem", "validity", "injectivity"])
    def test_a_build_in_the_kinds_runs_per_filling(self, check, monkeypatch):
        # a build that a test puts in verify._KINDS is not _russell_parts, so
        # it keeps no memo: it is called once per filling the check builds
        family, built = self.FAMILY, []
        _patch_build(monkeypatch, family, lambda real, rows: built.append(rows) or real(rows))
        members = [rows for shard in family.shards() for rows in family.grow(shard)]
        report = run_verification(family, check)
        assert report.ok and report.total == len(members) == 576
        assert sorted(built) == sorted(members)


class TestContractionRefusal:
    """When the contraction refuses fields that the gate accepts,
    bijection._russell_parts raises the contraction's own ValueError; a
    standardization with a pair start shifted off its pair is the seed.
    Pool workers are forked and see the patch."""

    FAMILY = Family((3, 3, 3), "all")

    @staticmethod
    def _shift_victim_pairs(monkeypatch):
        # the first pair of each filling that standardizes to VICTIM moves
        # one label on, where its two boundary vertices share no white
        real = bijection._standardize

        def shifted(rows):
            out, starts = real(rows)
            if starts and tuple(map(tuple, out)) == VICTIM:
                starts = (starts[0] + 1, *starts[1:])
            return out, starts

        monkeypatch.setattr(bijection, "_standardize", shifted)

    def test_the_contraction_error_is_raised(self, monkeypatch):
        rows = ((1, 2, 3), (1, 5, 6), (4, 7, 8))  # standardizes to VICTIM, pair (1, 2)
        webcore._check_structure(_tymoczko_parts(VICTIM))
        self._shift_victim_pairs(monkeypatch)
        with pytest.raises(ValueError, match=r"^boundary vertices 2 and 3 have no common white neighbor$"):
            _russell_parts(rows)

    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "memo-free"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_validity_record_per_affected_filling(self, memo, jobs, monkeypatch):
        victims = []
        for t in self.FAMILY.tableaux():
            rows, starts = _standardize(t.rows)
            if starts and tuple(map(tuple, rows)) == VICTIM:
                says = f"boundary vertices {starts[0] + 1} and {starts[0] + 2} have no common white neighbor"
                victims.append({"tableau": format_tableau(t), "reading_word": list(reading_word(t)),
                                "expected": "", "actual": says})
        victims.sort(key=lambda f: tuple(f["reading_word"]))
        self._shift_victim_pairs(monkeypatch)
        if not memo:
            _memo_free(monkeypatch, self.FAMILY)
        doc = _doc(self.FAMILY, "validity", jobs)
        assert len(victims) == 7 and doc["total"] == 576 and doc["failures"] == victims


def _doubled(rows):
    """The value 2 written as 1: 1 is doubled and 2 is missing."""
    return tuple(tuple(1 if v == 2 else v for v in row) for row in rows)


def _gap(rows):
    """The largest value written one more: a gap below it."""
    n = max(map(max, rows))
    return tuple(tuple(n + 1 if v == n else v for v in row) for row in rows)


def _swapped(rows):
    """The first two entries of the last row swapped."""
    *rest, last = rows
    return (*rest, (last[1], last[0], *last[2:]))


def _seed_growth(monkeypatch, family, fault, member=0):
    """Grow the family with the rows of its member-th tableau in growth
    order replaced by fault(rows), and return those faulty rows.  Pool
    workers are forked and see the patch."""
    real = Family.grow
    victim = [rows for shard in family.shards() for rows in real(family, shard)][member]

    def grow(self, shard):
        return (fault(rows) if rows == victim else rows for rows in real(self, shard))

    monkeypatch.setattr(Family, "grow", grow)
    return fault(victim)


def _never_ok(family, check, jobs=1) -> bool:
    """Whether the campaign writes a record or raises what a malformed
    growth raises: a gate's ValueError or evacuation's AssertionError."""
    try:
        return not run_verification(family, check, jobs=jobs).ok
    except (ValueError, AssertionError):
        return True


class TestMalformedGrowth:
    """The row kernels trust the rows they are given, so a growth that
    yields rows no standard tableau has is caught by the campaigns' gates:
    the pipeline's check, the inverse, evacuation and the theorem's orbit
    balance."""

    FAMILIES = [Family((3, 3, 3)), Family((5, 5))]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fault", [_doubled, _gap, _swapped], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("family", FAMILIES, ids=Family.describe)
    def test_seeded_member_fails_every_check(self, family, fault, jobs, monkeypatch):
        bad = _seed_growth(monkeypatch, family, fault)
        report = run_verification(family, "validity", jobs=jobs)
        assert report.total == 42 and [f["tableau"] for f in report.failures] == [tableau._format_rows(bad)]
        assert _never_ok(family, "theorem", jobs) and _never_ok(family, "injectivity", jobs)

    @pytest.mark.parametrize("fault", [_doubled, _gap, _swapped], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("family", FAMILIES, ids=Family.describe)
    def test_injectivity_fails_whichever_member_is_seeded(self, family, fault, monkeypatch):
        # validity does not see every such member: a swapped last row can
        # pair as the sorted one does, and the web is then a valid web
        for member in range(42):
            with monkeypatch.context() as patched:
                _seed_growth(patched, family, fault, member)
                assert _never_ok(family, "injectivity"), member

    @pytest.mark.parametrize("fault", [_doubled, _gap, _swapped], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("family, jobs", [(FAMILIES[0], 1), (FAMILIES[0], 2), (FAMILIES[1], 1),
                                              (Family((2, 2, 2), "all"), 1)],
                             ids=lambda x: x.describe() if isinstance(x, Family) else f"jobs{x}")
    def test_theorem_fails_whichever_member_is_seeded(self, family, jobs, fault, monkeypatch):
        # a seeded member on the skipped side of its orbit is never built,
        # and its partner's check passes, so only the balance can see it
        for member in range(len(_members(family))):
            with monkeypatch.context() as patched:
                _seed_growth(patched, family, fault, member)
                assert _never_ok(family, "theorem", jobs), member

    @pytest.mark.parametrize("family", [*FAMILIES, Family((2, 2, 2), "all")], ids=Family.describe)
    def test_theorem_fails_on_a_dropped_member(self, family, monkeypatch):
        # a standard family's count record follows the balance record
        members = _members(family)
        dropped = next(rows for rows in members if _evacuated(rows) != rows)
        _seed_members(monkeypatch, family, lambda rows: [] if rows == dropped else [rows])
        doc = _doc(family, "theorem")
        assert doc["total"] == len(members) - 1
        if family.is_russell:
            _assert_unbalanced(doc, [])
        else:
            _assert_unbalanced({"failures": doc["failures"][:-1]}, [])
            assert doc["failures"][-1] == _count_record(len(members), len(members) - 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("check", verify.CHECK_NAMES)
    @pytest.mark.parametrize("self_evacuating", [True, False], ids=["self-evacuating", "in an orbit of two"])
    @pytest.mark.parametrize("family", [Family((3, 3, 3)), Family((3, 3, 3), 0)], ids=Family.describe)
    def test_every_check_fails_on_a_dropped_standard_member(self, family, self_evacuating, check, jobs, monkeypatch):
        # the orbit balance covers no self-evacuating member, so only the
        # count sees one dropped; the count record comes last
        members = _members(family)
        dropped = next(rows for rows in members if (_evacuated(rows) == rows) == self_evacuating)
        _seed_members(monkeypatch, family, lambda rows: [] if rows == dropped else [rows])
        doc = _doc(family, check, jobs)
        assert doc["total"] == 41 and doc["failures"][-1] == _count_record(42, 41)
        unbalanced = check == "theorem" and not self_evacuating
        assert len(doc["failures"]) == 1 + unbalanced

    @pytest.mark.parametrize("family", [*FAMILIES, Family((2, 2, 2), "all")], ids=Family.describe)
    def test_theorem_fails_on_a_repeated_member(self, family, monkeypatch):
        members = _members(family)
        kept, lost = [rows for rows in members if _evacuated(rows) != rows][:2]
        _seed_members(monkeypatch, family, lambda rows: [kept] if rows == lost else [rows])
        doc = _doc(family, "theorem")
        assert doc["total"] == len(members)
        _assert_unbalanced(doc, [])


def _count_record(members, grown):
    """The family's record of a standard family that grew the wrong number of members."""
    return {"tableau": "", "reading_word": [], "expected": f"{members} tableaux grown",
            "actual": f"{grown} tableaux grown"}


def _members(family):
    """The rows of every member of the family, in growth order."""
    return [rows for shard in family.shards() for rows in family.grow(shard)]


def _seed_members(monkeypatch, family, replace):
    """Grow the family with each member's rows replaced by the list
    replace(rows) of rows; pool workers are forked and see the patch."""
    real = Family.grow
    monkeypatch.setattr(Family, "grow", lambda self, shard: (r for rows in real(self, shard) for r in replace(rows)))
