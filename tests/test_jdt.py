import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _best_chain_cover,
    all_row_strict_fillings,
    delta_by_slides,
    evacuate_by_cells,
    evacuate_by_delta,
    evacuate_rows_by_slides,
    random_filling,
    random_skew_filling,
    random_skew_tableau,
    rectify_by_slides,
    slide_targets_by_trial,
)
from webweave import jdt
from webweave.jdt import (
    GKProfile,
    _evacuate_rows,
    column_lengths,
    delta,
    evacuate,
    gk_profile,
    gk_profile_of_tableau,
    jdt_slide,
    reading_word,
    rectify,
    slide_targets,
)
from webweave.tableau import (
    EMPTY_TABLEAU,
    RowStrictTableau,
    Shape,
    SkewShape,
    _standardize,
    enumerate_russell,
    enumerate_standard,
    rotate_complement,
    skew_shape_from_cells,
    tableau_from_cells,
)
from webweave.verify import Family, run_verification

T = RowStrictTableau.from_rows


# --- independent oracles --------------------------------------------------

def gk_unpruned(word, chains):
    """Reference Greene-Kleitman search: branch over every distinct feasible
    chain end, memoized on (position, sorted ends), no state compression."""
    n = len(word)
    memo = {}

    def best(p, ends):
        if p == n:
            return 0
        key = (p, ends)
        if key in memo:
            return memo[key]
        x = word[p]
        res = best(p + 1, ends)
        tried = set()
        for idx, e in enumerate(ends):
            if e <= x and e not in tried:
                tried.add(e)
                res = max(res, 1 + best(p + 1, tuple(sorted(ends[:idx] + ends[idx + 1 :] + (x,)))))
        memo[key] = res
        return res

    return best(0, (0,) * chains)


def longest_strictly_decreasing(seq):
    best = [1] * len(seq)
    for i in range(len(seq)):
        for j in range(i):
            if seq[j] > seq[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


def gk_by_subsets(word, chains):
    """Dilworth oracle: a subword splits into <= i nondecreasing chains iff its
    longest strictly decreasing subsequence has length <= i."""
    n = len(word)
    out = 0
    for mask in range(1 << n):
        sub = [word[i] for i in range(n) if mask >> i & 1]
        if longest_strictly_decreasing(sub) <= chains:
            out = max(out, len(sub))
    return out


@st.composite
def skew_row_strict(draw, max_rows=4, max_width=4, max_boxes=10):
    rows = draw(st.integers(1, max_rows))
    outer = sorted(
        (draw(st.integers(1, max_width)) for _ in range(rows)), reverse=True
    )
    inner = []
    cap = outer[0]
    for r in range(rows):
        cap = min(cap, draw(st.integers(0, outer[r])))
        inner.append(cap)
    inner = [min(inner[r], outer[r]) for r in range(rows)]
    for r in range(1, rows):
        inner[r] = min(inner[r], inner[r - 1])
    cells = {}
    for r in range(1, rows + 1):
        for c in range(inner[r - 1] + 1, outer[r - 1] + 1):
            lo = 1
            if (r, c - 1) in cells:
                lo = max(lo, cells[(r, c - 1)] + 1)
            if (r - 1, c) in cells:
                lo = max(lo, cells[(r - 1, c)])
            cells[(r, c)] = lo + draw(st.integers(0, 2))
    if not cells or len(cells) > max_boxes:
        return EMPTY_TABLEAU
    return tableau_from_cells(cells)


# --- reading words ---------------------------------------------------------

class TestReadingWord:
    def test_russell_example(self):
        assert reading_word(T([[1, 2], [1, 3], [3, 4]])) == (2, 3, 4, 1, 1, 3)

    def test_lemma_example(self):
        t = T([[1, 2, 3, 5], [1, 2, 4, 6], [3, 5, 7, 8]])
        assert reading_word(t) == (5, 6, 8, 3, 4, 7, 2, 2, 5, 1, 1, 3)

    def test_empty(self):
        assert reading_word(EMPTY_TABLEAU) == ()


# --- slides ----------------------------------------------------------------

def skew(cells):
    return tableau_from_cells(cells)


class TestJdtSlide:
    def test_paper_walkthrough(self):
        t = skew({(1, 2): 1, (1, 3): 3, (2, 1): 1, (2, 2): 2, (2, 3): 3, (3, 1): 3})
        got = jdt_slide(t, (1, 1))
        assert got == skew({(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 1, (2, 2): 3, (3, 1): 3})

    def test_single_box_moves_left(self):
        t = skew({(1, 2): 5})
        assert jdt_slide(t, (1, 1)) == T([[5]])

    def test_two_by_two_skew(self):
        # hand-run: hole takes the 1 from below (1 < 2), then the 3 from its right
        t = skew({(1, 2): 2, (2, 1): 1, (2, 2): 3})
        assert jdt_slide(t, (1, 1)) == skew({(1, 1): 1, (1, 2): 2, (2, 1): 3})

    def test_tie_moves_the_right_entry(self):
        # the hole trades with the 1 on its right (tie rule), then the 2 below
        t = skew({(1, 2): 1, (2, 1): 1, (2, 2): 2})
        got = jdt_slide(t, (1, 1))
        assert got == skew({(1, 1): 1, (1, 2): 2, (2, 1): 1})

    def test_rejects_occupied_target(self):
        with pytest.raises(ValueError):
            jdt_slide(T([[1, 2]]), (1, 1))

    def test_rejects_detached_target(self):
        with pytest.raises(ValueError):
            jdt_slide(T([[1, 2]]), (1, 3))

    @pytest.mark.parametrize("cell", [(1.0, 1), (1, True)])
    def test_rejects_non_integer_cell(self, cell):
        # (1.0, 1) used to slide into (1, 1)
        with pytest.raises(ValueError, match="bad cell coordinate"):
            jdt_slide(skew({(1, 2): 5}), cell)

    @given(skew_row_strict())
    @settings(max_examples=80, deadline=None)
    def test_slide_preserves_content_and_validity(self, t):
        for target in slide_targets(t):
            out = jdt_slide(t, target)
            assert sorted(out.values()) == sorted(t.values())
            assert out.size == t.size


class TestSlideTargets:
    def test_read_off_the_shape_matches_trial(self):
        # empty rows and inner shapes that are not tight included
        rng = random.Random(23)
        loose = 0
        for _ in range(20000):
            t = random_skew_filling(rng)
            assert slide_targets(t) == slide_targets_by_trial(t), t
            loose += skew_shape_from_cells(t.entries).inner != t.shape.inner
        assert loose > 2000

    def test_corners_with_a_box_right_or_below(self):
        # inner (3, 1) with row 1 empty is loose: its tight inner is (2, 1)
        t = T([[], [5]], (3, 1))
        assert slide_targets(t) == [(1, 2), (2, 1)]
        assert slide_targets(T([[1, 2]], (2,))) == [(1, 2)]
        assert slide_targets(T([[1, 2]])) == []


class TestRectify:
    def test_straight_is_fixed(self):
        t = T([[1, 3], [2, 4]])
        assert rectify(t) == t

    def test_paper_skew_rectifies(self):
        t = skew({(1, 2): 1, (1, 3): 3, (2, 1): 1, (2, 2): 2, (2, 3): 3, (3, 1): 3})
        got = rectify(t)
        assert got.is_straight
        assert sorted(got.values()) == sorted(t.values())

    def test_anti_straight_rotation_keeps_profile(self):
        anti = skew({(1, 3): 1, (1, 4): 3, (2, 3): 2, (2, 4): 4})
        straight = rectify(anti)
        m = 4
        assert gk_profile(reading_word(anti), m) == gk_profile(reading_word(straight), m)

    @given(skew_row_strict(), st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_order_independence(self, t, seed):
        rng = random.Random(seed)
        cur = t
        while True:
            targets = slide_targets(cur)
            if not targets:
                break
            cur = jdt_slide(cur, rng.choice(targets))
        assert cur == rectify(t)

    def test_boxless_skew_is_empty(self):
        # it used to come back unchanged, skew and not straight
        assert rectify(RowStrictTableau(SkewShape(Shape((2,)), Shape((2,))), ((),))) == EMPTY_TABLEAU
        assert rectify(T([[], []], (3, 1))) == EMPTY_TABLEAU

    def test_matches_slides_on_seeded_fillings(self):
        # empty rows and inner shapes that are not tight included
        rng = random.Random(22)
        fillings = [draw(rng) for _ in range(20000) for draw in (random_skew_tableau, random_skew_filling)]
        assert all(rectify(t) == EMPTY_TABLEAU for t in fillings if not t.size)
        boxed = dict.fromkeys(t for t in fillings if t.size)  # each distinct filling once
        assert len(boxed) > 12000
        for t in boxed:
            assert rectify(t) == rectify_by_slides(t), t


class TestDelta:
    def test_paper_first_step(self):
        assert delta(T([[1, 3, 4], [2, 3], [4, 5]])) == T([[1, 2, 3], [2, 4], [3]])

    def test_paper_second_step(self):
        assert delta(T([[1, 2, 3], [2, 4], [3]])) == T([[1, 2], [1, 3], [2]])

    def test_single_box(self):
        assert delta(T([[1]])) == EMPTY_TABLEAU

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            delta(EMPTY_TABLEAU)

    def test_rejects_skew_shape(self):
        with pytest.raises(ValueError, match="delta requires a straight shape"):
            delta(skew({(1, 2): 1}))

    def test_no_ones_just_decrements(self):
        assert delta(T([[2, 3]])) == T([[1, 2]])

    def test_box_count_and_max_drop(self):
        for t in enumerate_standard(Shape((3, 2, 1))):
            out = delta(t)
            ones = sum(1 for v in t.values() if v == 1)
            assert out.size == t.size - ones
            assert out.max_entry == t.max_entry - 1

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2, 1), (2, 2, 2), (4, 2, 1), (3, 3, 3)])
    def test_matches_slides_on_every_filling(self, shape):
        # gapped fillings and values repeated down column 1 included
        for t in all_row_strict_fillings(shape, 6):
            assert delta(t) == delta_by_slides(t), t

    @pytest.mark.parametrize("family", [Family((8, 8)), Family((4, 4, 4)), Family((4, 4, 4), "all")], ids=Family.describe)
    def test_matches_slides_on_families(self, family, family_tableaux):
        for t in family_tableaux(family):
            assert delta(t) == delta_by_slides(t), t


def test_insertion_runs_no_slide(monkeypatch):
    """rectify, delta and evacuate give the slide oracles' answers with the
    slide kernel and the target search disabled."""
    rng = random.Random(5)
    skew_tableaux = [random_skew_tableau(rng) for _ in range(200)]
    straight = enumerate_standard(Shape((3, 2, 1))) + all_row_strict_fillings((2, 2, 1), 5)
    expected = (
        [rectify_by_slides(t) for t in skew_tableaux],
        [delta_by_slides(t) for t in straight],
        [evacuate_by_delta(t) for t in straight],
    )

    def refuse(*args):
        raise AssertionError("a slide ran")

    monkeypatch.setattr(jdt, "_slide", refuse)
    monkeypatch.setattr(jdt, "slide_targets", refuse)
    assert (
        [rectify(t) for t in skew_tableaux],
        [delta(t) for t in straight],
        [evacuate(t) for t in straight],
    ) == expected


class TestEvacuate:
    def test_paper_example(self):
        assert evacuate(T([[1, 3, 4], [2, 3], [4, 5]])) == T([[1, 2, 4], [2, 3], [3, 5]])

    def test_final_example(self):
        assert evacuate(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])) == T(
            [[1, 2, 5], [3, 4, 7], [5, 6, 7]]
        )

    def test_column_fixed(self):
        assert evacuate(T([[1], [2]])) == T([[1], [2]])

    def test_empty(self):
        assert evacuate(EMPTY_TABLEAU) == EMPTY_TABLEAU

    def test_rejects_skew_shape(self):
        with pytest.raises(ValueError, match="evacuate requires a straight shape"):
            evacuate(skew({(1, 2): 1}))

    def test_involution_small_families(self):
        for shape in [(2, 2), (3, 3), (2, 2, 2)]:
            for t in enumerate_standard(Shape(shape)):
                assert evacuate(evacuate(t)) == t
        for h in range(3):
            for t in enumerate_russell(2, h):
                assert evacuate(evacuate(t)) == t

    def test_matches_rotate_complement_small(self):
        for shape in [(2, 2), (3, 3), (2, 2, 2)]:
            for t in enumerate_standard(Shape(shape)):
                assert evacuate(t) == rotate_complement(t, t.max_entry)

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (6, 6), (4, 3, 3, 1)])
    def test_matches_delta_oracle_standard(self, shape):
        for t in enumerate_standard(Shape(shape)):
            assert evacuate(t) == evacuate_by_delta(t)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_delta_oracle_russell(self, k):
        for h in range(3 * k // 2 + 1):
            for t in enumerate_russell(k, h):
                assert evacuate(t) == evacuate_by_delta(t)

    @pytest.mark.parametrize("shape", [(2, 2, 1), (3, 2), (2, 2, 2), (3, 2, 1)])
    def test_matches_delta_oracle_all_fillings(self, shape):
        # gapped fillings and values repeated down column 1 included
        for t in all_row_strict_fillings(shape, 6):
            assert evacuate(t) == evacuate_by_delta(t)


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p, *rest)


def _rows(t):
    return [list(row) for row in t.rows]


def _agrees_with_oracles(tableaux):
    """The rows kernel equals the cell-map evacuation it replaced on every
    tableau, and the delta-step oracle on all of a family of at most 1,500
    or a seeded sample of 500 (the oracle takes about 1 ms a tableau at 20
    boxes)."""
    every = len(tableaux) <= 1500
    sample = set() if every else set(random.Random(len(tableaux)).sample(range(len(tableaux)), 500))
    for index, t in enumerate(tableaux):
        out = _evacuate_rows(t.rows)
        assert out == _rows(evacuate_by_cells(t)), t.rows
        if every or index in sample:
            assert out == _rows(evacuate_by_delta(t)), t.rows


class TestEvacuationCommutesWithStandardization:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_russell_filling(self, k):
        # the step from the standard case of the theorem to the Russell case:
        # a Russell web is its standardization's Tymoczko web with the pairs
        # (j, j+1) contracted, and evacuating 1..3k sends (j, j+1) to (3k - j, 3k + 1 - j)
        for h in range(3 * k // 2 + 1):
            for t in enumerate_russell(k, h):
                rows, starts = _standardize(t.rows)
                reflected_starts = tuple(sorted(3 * k - j for j in starts))
                assert _standardize(_evacuate_rows(t.rows)) == (_evacuate_rows(rows), reflected_starts), t.rows


class TestEvacuateRowsAgainstOracles:
    @pytest.mark.parametrize("size", range(10))
    def test_every_small_straight_shape(self, size):
        _agrees_with_oracles([t for parts in _partitions(size) for t in enumerate_standard(Shape(parts))])

    @pytest.mark.parametrize("shape", [(n, n) for n in range(1, 11)] + [(k, k, k) for k in range(1, 5)])
    def test_rectangles(self, shape):
        _agrees_with_oracles(enumerate_standard(Shape(shape)))

    @pytest.mark.parametrize("k", range(1, 5))
    def test_russell_every_h(self, k, family_tableaux):
        for h in range(3 * k // 2 + 1):
            _agrees_with_oracles(family_tableaux(Family((k, k, k), h)))

    def test_gapped_and_empty(self):
        assert _evacuate_rows(((1, 3),)) == [[1, 3]]
        assert _evacuate_rows(((1, 4), (3,))) == [[1, 2], [4]]
        assert _evacuate_rows(((2, 5), (5,))) == [[1, 4], [1]]
        assert _evacuate_rows(()) == []

    def test_checks_its_result(self):
        # rows of no straight shape leave boxes unfilled; rows that are not
        # strict, or columns that are not weak, are refused by the tableau
        # that evacuate takes, before the kernel runs
        with pytest.raises(AssertionError, match="changed the shape"):
            _evacuate_rows(((), (1,)))
        with pytest.raises(ValueError, match="row 1 not strictly increasing"):
            evacuate(T(((2, 1),)))
        with pytest.raises(ValueError, match="column 1 not weakly increasing"):
            evacuate(T(((2,), (1,))))

    def test_result_checks_guard_campaigns(self, monkeypatch):
        # the classical insertion bumps the wrong entry; campaigns pass the
        # kernel checked rows only, so its result checks are what refuse it
        insert = jdt._insert
        monkeypatch.setattr(jdt, "_insert", lambda rows, word, bisect=None: insert(rows, word, bisect_right))
        with pytest.raises(AssertionError, match="^evacuate changed the shape$"):
            run_verification(Family((3, 3, 3), "all"), "lemma")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_broken_column_is_refused(self, jobs, monkeypatch):
        # an insertion that returns its rows bottom-up keeps a rectangle's
        # row lengths, so only the column check can refuse its result; pool
        # workers are forked and see the patch
        insert = jdt._insert
        monkeypatch.setattr(jdt, "_insert", lambda rows, word, bisect=bisect_left: insert(rows, word, bisect)[::-1])
        with pytest.raises(AssertionError, match="^evacuate broke a column$"):
            evacuate(T([[1, 3], [2, 4]]))
        with pytest.raises(AssertionError, match="^evacuate broke a column$"):
            run_verification(Family((3, 3, 3), "all"), "lemma", jobs=jobs)


def _agrees_with_slides(fillings):
    """The kernel equals the slide oracle on every filling, and is an
    involution on those whose least entry is 1."""
    for rows in fillings:
        rows = [list(row) for row in rows]
        out = _evacuate_rows(rows)
        assert out == evacuate_rows_by_slides(rows), rows
        if rows and rows[0][:1] == [1]:
            assert _evacuate_rows(out) == rows, rows


def _random_straight_filling(rng, n_rows, k, doubled=0):
    """A seeded random filling of the n_rows x k rectangle cut to a random
    straight shape (each row at most as long as the one above), its values
    spread by random gaps from 1 up."""
    rows = random_filling(rng, n_rows, k, doubled).rows
    cut = sorted((rng.randint(0, k) for _ in range(n_rows)), reverse=True)
    cut[0] = max(cut[0], 1)
    spread = [0, 1]
    for _ in range(n_rows * k):
        spread.append(spread[-1] + rng.randint(1, 3))
    return [[spread[v] for v in row[:width]] for row, width in zip(rows, cut)]


class TestEvacuateRowsBySlides:
    @pytest.mark.parametrize("size", range(10))
    def test_every_small_straight_shape(self, size):
        _agrees_with_slides(t.rows for parts in _partitions(size) for t in enumerate_standard(Shape(parts)))

    @pytest.mark.parametrize("shape", [(n, n) for n in range(1, 11)] + [(k, k, k) for k in range(1, 6)])
    def test_rectangles(self, shape):
        _agrees_with_slides(t.rows for t in enumerate_standard(Shape(shape)))

    @pytest.mark.parametrize("k", range(1, 5))
    def test_russell_every_h(self, k, family_tableaux):
        _agrees_with_slides(t.rows for t in family_tableaux(Family((k, k, k), "all")))

    @pytest.mark.parametrize("shape", [(2, 2, 1), (3, 2), (2, 2, 2), (3, 2, 1), (3, 3), (2, 1, 1, 1)])
    def test_every_filling_up_to_six(self, shape):
        # gapped fillings and values repeated down column 1 included
        _agrees_with_slides(t.rows for t in all_row_strict_fillings(shape, 6))

    def test_random_two_rows_past_enumeration(self):
        rng = random.Random(60)
        _agrees_with_slides(random_filling(rng, 2, n).rows for n in range(1, 61) for _ in range(5))

    def test_random_three_rows_with_doubled_values(self):
        rng = random.Random(20)
        _agrees_with_slides(
            random_filling(rng, 3, k, rng.randint(0, 3 * k // 2)).rows for k in range(1, 21) for _ in range(5)
        )

    def test_random_straight_shapes_with_gaps(self):
        rng = random.Random(7)
        fillings = []
        for n_rows in range(1, 7):
            for k in range(1, 13):
                fillings += [_random_straight_filling(rng, n_rows, k, rng.randint(0, k)) for _ in range(4)]
        _agrees_with_slides(fillings)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 6), max_size=4), max_size=4))
    def test_returns_only_on_straight_fillings(self, rows):
        # rows of positive integers: evacuate refuses the tableau unless rows
        # are nonempty and strictly increase, columns weakly increase and
        # lengths weakly decrease; then the slides agree
        straight = (
            all(rows)
            and all(a < b for row in rows for a, b in zip(row, row[1:]))
            and all(a <= b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower))
            and all(len(upper) >= len(lower) for upper, lower in zip(rows, rows[1:]))
        )
        try:
            out = evacuate(T(rows))
        except ValueError:
            assert not straight, rows
        else:
            assert straight, rows
            assert list(map(list, out.rows)) == evacuate_rows_by_slides(rows), rows


# --- Greene-Kleitman -------------------------------------------------------

class TestGKProfile:
    def test_paper_fixture(self):
        assert gk_profile((5, 6, 8, 3, 4, 7, 2, 2, 5, 1, 1, 3), 4).values == (3, 6, 9, 12)

    def test_empty_word(self):
        assert gk_profile((), 2).values == (0, 0)

    def test_russell_reading_word(self):
        assert gk_profile((2, 3, 4, 1, 1, 3), 2).values == (3, 6)

    def test_words_of_any_length(self):
        # words past 14 letters used to be refused
        t = random_filling(random.Random(60), 3, 20)
        assert len(reading_word(t)) == 60
        assert gk_profile_of_tableau(t).increments() == column_lengths(Shape((20, 20, 20)))
        assert gk_profile(range(200, 0, -1), 3).values == (1, 2, 3)

    @pytest.mark.parametrize("m", [2.5, True, "2"])
    def test_rejects_non_integer_m(self, m):
        # 2.5 raised TypeError and True ran as 1
        with pytest.raises(ValueError, match=f"bad m {m!r}"):
            gk_profile((1, 2), m)

    def test_rejects_no_chains(self):
        with pytest.raises(ValueError, match="^m must be at least 1$"):
            gk_profile((1, 2), 0)

    def test_profile_invariants_enforced(self):
        with pytest.raises(ValueError):
            GKProfile((2, 3, 5))
        with pytest.raises(ValueError, match="nonnegative"):
            GKProfile((-1, -2))

    def test_rejects_non_integer_letters(self):
        # used to give the profile (3,) of (1, 2, 3)
        with pytest.raises(ValueError, match="bad letter 1.5"):
            gk_profile([1.5, 2.7, "3"], 1)
        with pytest.raises(ValueError, match="bad letter True"):
            gk_profile([True, 2], 1)

    @pytest.mark.parametrize("values, bad", [((1.5, 2.5), 1.5), ((True, 2), True)])
    def test_profile_rejects_non_integer_values(self, values, bad):
        with pytest.raises(ValueError, match=f"bad profile value {bad!r}"):
            GKProfile(values)

    @given(st.lists(st.integers(1, 4), max_size=9), st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_matches_unpruned_search(self, word, chains):
        word = tuple(word)
        assert gk_profile(word, chains).values[-1] == gk_unpruned(word, chains)

    @given(st.lists(st.integers(1, 5), max_size=8), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_subset_oracle(self, word, chains):
        word = tuple(word)
        assert gk_profile(word, chains).values[-1] == gk_by_subsets(word, chains)

    @given(st.lists(st.integers(-3, 3), max_size=8), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_subset_oracle_with_nonpositive_letters(self, word, m):
        # (-3, -2, -1) used to give (0, 0) for m = 2
        word = tuple(word)
        assert gk_profile(word, m).values == tuple(gk_by_subsets(word, i) for i in range(1, m + 1))

    def test_matches_chain_cover_search_on_longer_words(self):
        rng = random.Random(14)
        for _ in range(150):
            word = tuple(rng.randint(1, rng.randint(2, 9)) for _ in range(rng.randint(10, 14)))
            m = rng.randint(1, 6)
            assert gk_profile(word, m).values == tuple(_best_chain_cover(word, i) for i in range(1, m + 1)), word

    def test_column_fact_small(self):
        for shape in [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3)]:
            cols = column_lengths(Shape(shape))
            for t in enumerate_standard(Shape(shape)):
                assert gk_profile_of_tableau(t).increments() == cols

    @given(skew_row_strict())
    @settings(max_examples=50, deadline=None)
    def test_profile_survives_any_slide(self, t):
        if t.size == 0:
            return
        m = t.shape.outer.row(1) + 1
        before = gk_profile(reading_word(t), m)
        for target in slide_targets(t):
            after = gk_profile(reading_word(jdt_slide(t, target)), m)
            assert after == before
