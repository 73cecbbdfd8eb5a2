import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_row_strict_fillings,
    broken_column_by_cells,
    column_word_by_entries,
    enumerate_russell_by_collapse,
    enumerate_standard_by_cells,
    first_fault,
    grow_by_closures,
    random_box_set,
    random_skew_filling,
    random_skew_tableau,
    skew_shape_by_row_scans,
    standardize_cells_by_splitting,
    standardize_rows_by_values,
    standardize_with_pairs_by_splitting,
    tableau_gate_by_cells,
)
from webweave.tableau import (
    EMPTY_SHAPE,
    NotRussellError,
    RowStrictTableau,
    Shape,
    SkewShape,
    _broken_column,
    _column_word,
    _grow,
    _int_of,
    _russell_fillings,
    _standardize,
    count_standard,
    enumerate_russell,
    enumerate_standard,
    format_tableau,
    is_standard,
    parse_tableau,
    rotate_complement,
    russell_repetition,
    skew_shape_from_cells,
    standardize,
    standardize_with_pairs,
    tableau_from_cells,
    tableau_from_json,
    tableau_to_json,
)
from webweave.verify import _SHARD_DEPTH

T = RowStrictTableau.from_rows


class TestShapes:
    def test_shape_rejects_increase(self):
        with pytest.raises(ValueError):
            Shape((2, 3))

    def test_shape_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Shape((2, 0))

    @pytest.mark.parametrize("parts, bad", [((2.7, 1.2), 2.7), ((2, True), True)])
    def test_shape_rejects_non_integer_parts(self, parts, bad):
        # (2.7, 1.2) used to become (2, 1)
        with pytest.raises(ValueError, match=f"bad shape part {bad!r}"):
            Shape(parts)

    def test_skew_containment(self):
        with pytest.raises(ValueError):
            SkewShape(Shape((2, 2)), Shape((3,)))

    def test_conjugate(self):
        assert Shape((3, 2)).conjugate() == Shape((2, 2, 1))
        assert Shape(()).conjugate() == Shape(())

    def test_cells(self):
        assert SkewShape(Shape((2, 2)), Shape((1,))).cells() == [(1, 2), (2, 1), (2, 2)]


class TestTableauValidation:
    def test_row_must_strictly_increase(self):
        with pytest.raises(ValueError):
            T([[1, 1]])

    def test_column_must_weakly_increase(self):
        with pytest.raises(ValueError):
            T([[2, 3], [1, 4]])

    def test_repeats_down_column_allowed(self):
        t = T([[1, 2], [1, 3], [3, 4]])
        assert t.values() == [1, 2, 1, 3, 3, 4]

    def test_from_cells_roundtrip(self):
        t = T([[1, 2], [1, 3], [3, 4]])
        assert tableau_from_cells(t.entries) == t

    @pytest.mark.parametrize("rows, bad", [([[1.5, 2.9], [3.2, 4]], 1.5), ([[True, 2], [3, 4]], True)])
    def test_rejects_non_integer_entries(self, rows, bad):
        # [[1.5, 2.9], [3.2, 4]] used to become ((1, 2), (3, 4))
        with pytest.raises(ValueError, match=f"bad entry {bad!r}"):
            T(rows)

    def test_from_cells_rejects_ragged(self):
        with pytest.raises(ValueError):
            tableau_from_cells({(1, 1): 1, (1, 3): 2})

    def test_from_cells_keeps_row_offsets(self):
        t = tableau_from_cells({(2, 1): 1, (2, 2): 2})
        assert t.shape.outer == Shape((2, 2))
        assert t.shape.inner == Shape((2,))

    def test_rows_must_fit_the_shape(self):
        shape = SkewShape(Shape((2, 1)))
        with pytest.raises(ValueError, match="^expected 2 rows, got 1$"):
            RowStrictTableau(shape, ((1, 2),))
        with pytest.raises(ValueError, match="^row 1 has 1 entries, shape wants 2$"):
            RowStrictTableau(shape, ((1,), (2,)))

    def test_skew_shape_of_cells(self):
        assert skew_shape_from_cells(()) == SkewShape(EMPTY_SHAPE, EMPTY_SHAPE)
        with pytest.raises(ValueError, match="^boxes must have positive coordinates$"):
            skew_shape_from_cells({(0, 1)})


def _shape_or_message(infer, cells):
    """The skew shape infer gives the boxes, or its ValueError's message."""
    try:
        return infer(cells)
    except ValueError as exc:
        return str(exc)


class TestSkewShapeOfCells:
    """skew_shape_from_cells groups the boxes by row in one pass; the scan of
    every box for each row, which it replaced, is the oracle."""

    def test_matches_row_scans(self):
        rng = random.Random(23)
        outcomes = set()
        for _ in range(4000):
            cells = random_box_set(rng)
            want = _shape_or_message(skew_shape_by_row_scans, cells)
            assert _shape_or_message(skew_shape_from_cells, cells) == want, sorted(cells)
            outcomes.add(want.split()[0] if isinstance(want, str) else "shape")
        assert outcomes == {"shape", "boxes", "row", "cells"}

    def test_names_a_box_below_1_first(self):
        with pytest.raises(ValueError, match="^boxes must have positive coordinates$"):
            skew_shape_from_cells({(1, 1), (1, 3), (2, 0)})

    def test_names_a_row_that_is_not_contiguous(self):
        with pytest.raises(ValueError, match=re.escape("row 2 is not contiguous: [1, 2, 4]")):
            skew_shape_from_cells({(1, 1), (1, 2), (1, 3), (1, 4), (2, 4), (2, 1), (2, 2)})

    def test_names_the_top_row_that_is_not_contiguous(self):
        with pytest.raises(ValueError, match=re.escape("row 2 is not contiguous: [1, 3]")):
            skew_shape_from_cells({(1, 1), (2, 1), (2, 3), (3, 1), (3, 4), (3, 6)})

    def test_names_cells_that_form_no_skew_diagram(self):
        with pytest.raises(ValueError, match="^cells do not form a skew diagram$"):
            skew_shape_from_cells({(1, 1), (2, 1), (2, 2)})

    @pytest.mark.parametrize("cells, bad", [
        ({(1, 1): 1, (1.5, 1): 5, (2, 1): 2}, "1.5"),
        ({(True, 1): 1, (2, 1): 2}, "True"),
        ({(1, 1): 1, (1, 2.0): 2}, "2.0"),
    ])
    def test_refuses_a_coordinate_that_is_not_an_integer(self, cells, bad):
        with pytest.raises(ValueError, match=f"^bad box coordinate {re.escape(bad)}; expected an integer$"):
            tableau_from_cells(cells)


def _faulty_rows(rng, t):
    """t's rows with up to three seeded faults: entries that are floats, bools
    or strs, non-positive, moved up or down by two, or two neighbors swapped
    within a row."""
    rows = [list(row) for row in t.rows]
    boxes = [(r, j) for r, row in enumerate(rows) for j in range(len(row))]
    for r, j in rng.sample(boxes, min(len(boxes), rng.randint(0, 3))):
        v = rows[r][j]
        if j + 1 < len(rows[r]) and not rng.randrange(4):
            rows[r][j], rows[r][j + 1] = rows[r][j + 1], v
        elif isinstance(v, int):
            rows[r][j] = rng.choice((float(v), v + 0.5, True, str(v), 0, -v, v - 2, v + 2))
    return tuple(map(tuple, rows))


class TestColumnScan:
    """RowStrictTableau and evacuation share one rows-level column scan; the
    probe of the (row, column) -> entry map it replaced is the oracle."""

    def test_matches_cell_probe(self):
        # strict rows with no column condition, so columns break often
        rng = random.Random(21)
        broken = 0
        for _ in range(10000):
            t = random_skew_filling(rng)
            rows = [sorted(rng.sample(range(1, 12), len(row))) for row in t.rows]
            inner = t.shape.inner.parts
            want = broken_column_by_cells(rows, inner)
            assert _broken_column(rows, inner) == want, (rows, inner)
            broken += want is not None
        assert broken > 2500

    def test_construction_matches_cell_gate(self):
        # outcome and first message: an entry that is not an integer is named
        # before any other fault
        rng = random.Random(22)
        messages = set()
        for _ in range(30000):
            t = random_skew_filling(rng)
            rows = _faulty_rows(rng, t)
            want = first_fault(tableau_gate_by_cells, t.shape, rows)
            assert first_fault(T, rows, t.shape.inner.parts) == want, (rows, t.shape)
            messages.add(want and want[1].split()[0])
        assert messages == {None, "bad", "entries", "row", "column"}

    def test_construction_reads_no_cell_map(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the cell map was built")

        monkeypatch.setattr(RowStrictTableau, "entries", property(refuse))
        t = T([[2, 3], [1, 4]], (1,))
        assert t.rows == ((2, 3), (1, 4))
        with pytest.raises(ValueError, match="^column 2 not weakly increasing at row 2$"):
            T([[3, 4], [1, 2]], (1,))


class TestColumnWord:
    def test_matches_entries_oracle(self):
        rng = random.Random(10)
        tableaux = [t for shape in ((2, 2, 1), (3, 2), (3, 2, 1)) for t in all_row_strict_fillings(shape, sum(shape))]
        tableaux += [random_skew_tableau(rng) for _ in range(300)]
        for t in tableaux:
            assert _column_word(t.rows, t.shape.inner.parts) == column_word_by_entries(t), t
        assert _column_word(()) == ()


class TestIsStandard:
    def test_standardization_example_is_standard(self):
        assert is_standard(T([[1, 3], [2, 4], [5, 6]]))

    def test_russell_tableau_is_not_standard(self):
        assert not is_standard(T([[1, 2], [1, 3], [3, 4]]))

    def test_single_box(self):
        assert is_standard(T([[1]]))


class TestRussellRepetition:
    def test_two_row_example(self):
        assert russell_repetition(T([[1, 2], [1, 3], [3, 4]])) == 2

    def test_standard_has_repetition_zero(self):
        assert russell_repetition(T([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0

    def test_three_row_example(self):
        assert russell_repetition(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])) == 2

    def test_rejects_two_row_shape(self):
        with pytest.raises(NotRussellError):
            russell_repetition(T([[1, 2], [3, 4]]))

    def test_rejects_missing_value(self):
        with pytest.raises(NotRussellError):
            russell_repetition(T([[1, 3], [2, 4], [4, 6]]))

    def test_rejects_skew_shape(self):
        with pytest.raises(NotRussellError, match=r"^shape \(2, 2, 2\) is not a 3-row rectangle$"):
            russell_repetition(T([[2], [1, 3], [2, 4]], (1,)))


class TestStandardize:
    def test_small_example(self):
        assert standardize(T([[1, 2], [1, 3], [3, 4]])) == T([[1, 3], [2, 4], [5, 6]])

    def test_bijections_example(self):
        assert standardize(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])) == T(
            [[1, 3, 4], [2, 6, 7], [5, 8, 9]]
        )

    def test_fixed_point_on_standard(self):
        t = T([[1, 2], [3, 4], [5, 6]])
        assert standardize(t) == t

    def test_pair_starts(self):
        _, pairs = standardize_with_pairs(T([[1, 2], [1, 3], [3, 4]]))
        assert pairs == (1, 4)
        _, pairs = standardize_with_pairs(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]]))
        assert pairs == (1, 4)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_splitting_oracle(self, k):
        for h in range(3 * k // 2 + 1):
            for t in enumerate_russell(k, h):
                assert standardize_with_pairs(t) == standardize_with_pairs_by_splitting(t), t.rows

    def test_rejects_like_splitting_oracle(self):
        def outcome(fn, t):
            try:
                return fn(t)
            except NotRussellError:
                return NotRussellError

        fillings = all_row_strict_fillings((2, 2, 2), 5)
        public = [outcome(standardize_with_pairs, t) for t in fillings]
        assert public == [outcome(standardize_with_pairs_by_splitting, t) for t in fillings]
        assert NotRussellError in public and any(out is not NotRussellError for out in public)

        def oracle_kernel(t):
            cells, starts = standardize_cells_by_splitting(t)
            return tableau_from_cells(cells), tuple(sorted(starts.values()))

        def kernel_tableau(t):
            # the kernel's plain rows must make a valid tableau unchecked
            rows, starts = _standardize(t.rows)
            return RowStrictTableau(t.shape, rows), starts

        # the kernel makes the repetition checks on the rows, so it refuses
        # a value that appears three times as the oracle does; gapped
        # fillings are compared through the public function above
        gapless = [t for t in fillings if set(t.values()) == set(range(1, t.max_entry + 1))]
        kernel = [outcome(kernel_tableau, t) for t in gapless]
        assert kernel == [outcome(oracle_kernel, t) for t in gapless]
        assert NotRussellError in kernel

    def test_refuses_and_ranks_like_the_value_walk(self):
        # the sort must give the dict walk's rows and pair starts, or its
        # refusal word for word: the missing value, the count of a value
        # that appears three times, the shape
        rng = random.Random(32)

        def outcome(fn, rows):
            try:
                return fn(rows)
            except NotRussellError as e:
                return str(e)

        seen = set()
        for _ in range(20000):
            k = rng.randint(0, 4)
            top = rng.randint(k, 3 * k + 2)
            lengths = [k, k, k]
            if rng.random() < 0.1:
                lengths[rng.randrange(3)] = rng.randint(0, k + 1)
            rows = [sorted(rng.sample(range(1, top + 1), min(n, top))) for n in lengths]
            if rng.random() < 0.05:
                del rows[rng.randrange(3)]
            got = outcome(_standardize, rows)
            assert got == outcome(standardize_rows_by_values, rows), rows
            seen.add(re.sub(r"\d+|\(.*\)", "#", got) if isinstance(got, str) else "ranked")
        assert seen == {"ranked", "value # is missing", "value # appears # times", "shape # is not a #-row rectangle"}


class TestRotateComplement:
    def test_lemma_example(self):
        t = T([[1, 2, 3, 5], [1, 2, 4, 6], [3, 5, 7, 8]])
        assert rotate_complement(t, 8) == T([[1, 2, 4, 6], [3, 5, 7, 8], [4, 6, 7, 8]])

    def test_single_box(self):
        assert rotate_complement(T([[1]]), 1) == T([[1]])

    def test_two_row(self):
        assert rotate_complement(T([[1, 2, 5], [3, 4, 6]]), 6) == T([[1, 3, 4], [2, 5, 6]])

    def test_rejects_non_rectangle(self):
        with pytest.raises(ValueError):
            rotate_complement(T([[1, 2], [3]]), 3)

    def test_rejects_small_alphabet(self):
        with pytest.raises(ValueError):
            rotate_complement(T([[1, 2], [3, 4]]), 3)

    @pytest.mark.parametrize("n", [True, 4.5])
    def test_rejects_an_alphabet_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=f"^bad alphabet size {re.escape(str(n))}; expected an integer$"):
            rotate_complement(T([[1, 2], [3, 4]]), n)

    @given(st.sampled_from([(2, 2), (3, 3), (2, 2, 2)]), st.integers(0, 3))
    def test_involution(self, shape, extra):
        for t in enumerate_standard(Shape(shape)):
            n = t.max_entry + extra
            assert rotate_complement(rotate_complement(t, n), n) == t


class TestCounting:
    def test_catalan_column(self):
        assert count_standard(Shape((4, 4))) == 14

    def test_empty(self):
        assert count_standard(Shape(())) == 1

    def test_three_by_four(self):
        assert count_standard(Shape((4, 4, 4))) == 462

    @pytest.mark.parametrize(
        "shape,expected", [((2, 2), 2), ((3, 3), 5), ((3, 3, 3), 42), ((3, 2, 1), 16)]
    )
    def test_enumeration_matches_hook_count(self, shape, expected):
        tableaux = enumerate_standard(Shape(shape))
        assert count_standard(Shape(shape)) == expected
        assert len(tableaux) == expected
        assert len(set(tableaux)) == expected
        assert all(is_standard(t) for t in tableaux)

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
            lambda parts: tuple(sorted(parts, reverse=True))
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_enumeration_count_property(self, parts):
        shape = Shape(parts)
        if shape.size > 10:
            return
        assert len(enumerate_standard(shape)) == count_standard(shape)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2, 1), (4, 3, 3, 1), (3, 3, 3)])
    def test_enumeration_matches_cell_growth_oracle(self, shape):
        assert enumerate_standard(Shape(shape)) == enumerate_standard_by_cells(Shape(shape))

    def test_dropped_family_is_freed_without_gc(self):
        gc.disable()
        try:
            family = enumerate_standard(Shape((3, 3)))
            ref = weakref.ref(family[0])
            del family
            assert ref() is None
        finally:
            gc.enable()


_GROWN = (
    [(n, n) for n in range(1, 9)]
    + [(k, k, k) for k in range(1, 5)]
    + [(3, 2, 1), (4, 2, 2), (5, 3)]
)


class TestGrowthOrder:
    # --jobs deals shards by position and the enumeration oracles compare
    # sorted sets, so the order of growth is checked on its own

    @pytest.mark.parametrize("shape", _GROWN)
    def test_matches_closure_growth_in_order(self, shape):
        assert list(_grow(Shape(shape))) == grow_by_closures(Shape(shape), 0)

    @pytest.mark.parametrize("shape", [shape for shape in _GROWN if len(shape) > 1 and shape[0] == shape[-1]])
    def test_cut_trees_and_their_shards_match_closure_growth(self, shape):
        for depth in (5, _SHARD_DEPTH):
            prefixes = list(_grow(Shape(shape), (), depth))
            assert prefixes == grow_by_closures(Shape(shape), 0, (), depth)
            for prefix in prefixes:
                assert list(_grow(Shape(shape), prefix)) == grow_by_closures(Shape(shape), 0, prefix)


_FILLED = [(k, h) for k in range(1, 5) for h in range(3 * k // 2 + 1)]


class TestRussellFillings:
    """`_russell_fillings` from every standard (k,k,k) tableau, k <= 4,
    against the doubled-value growth `grow_by_closures`, which grew the
    Russell families before."""

    @pytest.mark.parametrize("k,h", _FILLED)
    def test_each_filling_standardizes_back_with_its_merged_starts(self, k, h):
        # the starts are each set of h values j, j+1 in a lower row than j,
        # no two consecutive, in the order of itertools.combinations
        for t in _grow(Shape((k, k, k))):
            row_of = {v: r for r, row in enumerate(t) for v in row}
            mergeable = [starts for starts in itertools.combinations(range(1, 3 * k), h)
                         if all(row_of[j] < row_of[j + 1] for j in starts)
                         and all(b - a > 1 for a, b in zip(starts, starts[1:]))]
            merged = []
            for filling in _russell_fillings(t, h):
                rows, starts = _standardize(filling)
                assert tuple(map(tuple, rows)) == t, filling
                merged.append(starts)
            assert merged == mergeable, t

    @pytest.mark.parametrize("k,h", _FILLED)
    def test_fillings_are_the_doubled_growth(self, k, h):
        shape = Shape((k, k, k))
        grown = [filling for t in _grow(shape) for filling in _russell_fillings(t, h)]
        assert sorted(grown) == sorted(grow_by_closures(shape, h))

    def test_descents_with_a_shared_value_are_not_both_merged(self):
        # 1, 2 and 3 each sit a row lower than the one before, so (1, 2) and
        # (2, 3) are descents, but merging both would triple a value
        column = ((1,), (2,), (3,))
        assert list(_russell_fillings(column, 1)) == [((1,), (1,), (2,)), ((1,), (2,), (2,))]
        assert list(_russell_fillings(column, 2)) == []
        assert list(_russell_fillings(column, 0)) == [column]


class TestEnumerateRussell:
    def test_single_column_standard(self):
        assert enumerate_russell(1, 0) == [T([[1], [2], [3]])]

    def test_single_column_one_double(self):
        got = set(enumerate_russell(1, 1))
        assert got == {T([[1], [1], [2]]), T([[1], [2], [2]])}

    def test_contains_bijections_example(self):
        assert T([[1, 2, 3], [1, 4, 5], [3, 6, 7]]) in enumerate_russell(3, 2)

    def test_zero_repetition_is_standard_enumeration(self):
        assert set(enumerate_russell(2, 0)) == set(enumerate_standard(Shape((2, 2, 2))))

    @pytest.mark.parametrize("k", [1, 2])
    def test_against_brute_force_filter(self, k):
        by_h = {}
        for t in all_row_strict_fillings((k,) * 3, 3 * k):
            try:
                h = russell_repetition(t)
            except NotRussellError:
                continue
            by_h.setdefault(h, set()).add(t)
        assert max(by_h) <= 3 * k // 2  # no filling doubles more values
        for h in range(3 * k // 2 + 1):
            assert set(enumerate_russell(k, h)) == by_h.get(h, set()), f"h={h}"

    @pytest.mark.parametrize("h", [1.5, True])
    def test_rejects_non_integer_repetition(self, h):
        # 1.5 used to give 13 tableaux, and True those of h=1
        with pytest.raises(ValueError, match=f"bad repetition {h!r}"):
            enumerate_russell(2, h)

    def test_rejects_k_or_repetition_out_of_range(self):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            enumerate_russell(0, 0)
        with pytest.raises(ValueError, match="^repetition 2 out of range 0..1 for k=1$"):
            enumerate_russell(1, 2)
        with pytest.raises(ValueError, match="^repetition -1 out of range 0..1 for k=1$"):
            enumerate_russell(1, -1)
        with pytest.raises(ValueError, match="^repetition 4 out of range 0..3 for k=2$"):
            enumerate_russell(2, 4)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_rejects_non_integer_k(self, k):
        # 2.5 used to give the 15 tableaux of k=2, and True those of k=1
        with pytest.raises(ValueError, match=f"bad k {k!r}"):
            enumerate_russell(k, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_collapse_oracle(self, k):
        for h in range(3 * k // 2 + 1):
            assert enumerate_russell(k, h) == enumerate_russell_by_collapse(k, h), f"h={h}"

    def test_standardization_closure(self):
        for h in range(4):
            for t in enumerate_russell(2, h):
                u = standardize(t)
                assert is_standard(u)
                assert u.shape == t.shape


class TestTextAndJson:
    def test_parse_format_roundtrip(self):
        text = "1 2 3\n1 4 5\n3 6 7"
        t = parse_tableau(text)
        assert format_tableau(t) == text

    def test_parse_error_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_tableau("1 2\nx 3")

    @pytest.mark.parametrize("token", ["1_0", "+11", "\u0661\u0662", "011"])
    def test_parse_refuses_other_integer_spellings(self, token):
        # int() read each of these, so they used to give a tableau
        with pytest.raises(ValueError, match=re.escape(f"line 2: bad entry {token!r}")):
            parse_tableau(f"1 2\n{token} 13")

    def test_one_spelling_of_an_integer(self):
        for text in ["0", "7", "-7", "10", "-120"]:
            assert _int_of(text, "value") == int(text)
        for text in ["", "-", "-0", "00", "07", "+7", " 7", "7 ", "1_0", "\u0663", "\uff13", "\u00b2", "7.0"]:
            with pytest.raises(ValueError, match="bad value"):
                _int_of(text, "value")

    def test_json_roundtrip(self):
        t = T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])
        assert tableau_from_json(tableau_to_json(t)) == t

    def test_json_from_text(self):
        assert tableau_from_json('{"rows": [[2], [1, 3]], "inner": [1]}') == T([[2], [1, 3]], (1,))

    def test_json_rejects_non_integer_entries(self):
        # used to give ((1, 2), (3, 4))
        with pytest.raises(ValueError, match="bad entry 1.7"):
            tableau_from_json({"rows": [[1.7, "2"], [3, 4]]})
        with pytest.raises(ValueError, match="bad entry '2'"):
            tableau_from_json({"rows": [[1, "2"], [3, 4]]})

    @pytest.mark.parametrize(
        "doc, says",
        [
            ([1], "a tableau document must be an object"),
            ({}, "a tableau document has no 'rows' field"),
            ({"rows": 5}, "rows must be an array"),
            ({"rows": [5]}, "each entry of rows must be an array"),
            ({"rows": [[1, 2]], "inner": "ab"}, "inner must be an array"),
            ({"rows": [[1, 2]], "inner": [1.5]}, "each entry of inner must be an integer"),
        ],
    )
    def test_json_malformed_document_names_the_field(self, doc, says):
        # these raised TypeError or KeyError, and inner [1.5] "bad shape part 3.5"
        with pytest.raises(ValueError, match=re.escape(says)):
            tableau_from_json(doc)

    @pytest.mark.parametrize("inner, bad", [([0, 1], 0), ([-1], -1), ([1, 0, 1], 0), ([-5], -5)])
    def test_inner_that_is_not_a_partition_is_refused_as_such(self, inner, bad):
        # each used to be refused for a row's length: [0, 1] and [-1] as
        # "row 1 has 2 entries, shape wants 1", [1, 0, 1] as "row 2 has 1
        # entries, shape wants 0"
        says = f"^shape parts must be positive, got {bad}$"
        with pytest.raises(ValueError, match=says):
            T([[1, 2], [3]], inner)
        with pytest.raises(ValueError, match=says):
            tableau_from_json({"rows": [[1, 2], [3]], "inner": inner})

    @pytest.mark.parametrize("inner, parts", [([1, 0], (1,)), ([0], ()), ([1, 0, 0], (1,)), ([], ())])
    def test_trailing_zeros_of_inner_are_dropped(self, inner, parts):
        t = T([[1, 2], [3]], inner)
        assert t.shape.inner == Shape(parts)
        assert tableau_from_json({"rows": [[1, 2], [3]], "inner": inner}) == t

    def test_json_skew(self):
        t = tableau_from_cells({(1, 2): 1, (2, 1): 1, (2, 2): 2})
        doc = tableau_to_json(t)
        assert doc["inner"] == [1]
        assert tableau_from_json(doc) == t

    @given(st.sampled_from(list(itertools.chain(*(enumerate_standard(Shape(s)) for s in [(2, 2), (3, 3), (2, 2, 2)])))))
    def test_roundtrip_property(self, t):
        assert parse_tableau(format_tableau(t)) == t
        assert tableau_from_json(tableau_to_json(t)) == t
