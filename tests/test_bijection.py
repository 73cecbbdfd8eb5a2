import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    canonicalize_by_bfs,
    contract_pairs_one_by_one,
    defects_by_face_lists,
    expand_white,
    find_crossings_by_fraction,
    m_diagram_by_pairing,
    pairing_bottom_first,
    pairing_top_first,
    pairs_key_by_reflection,
    random_filling,
    russell_parts_by_diagram,
    tableau_of_web_by_table,
    tableau_rows_by_face_lists,
    turn_or_recolor,
    tymoczko_parts_by_diagram,
    with_float_bar,
    without_last_vertex,
)
from test_webcore import square_face_web, tripod
from webweave import bijection
from webweave.bijection import (
    Arc,
    ArcDiagram,
    Crossing,
    SL2,
    SL3_RUSSELL,
    _arc_ends,
    _catalan_pairs,
    _crossings,
    _russell_parts,
    _tableau_rows,
    _tymoczko_parts,
    catalan_pairing,
    find_crossings,
    m_diagram,
    russell_web,
    tableau_of_web,
    tymoczko_web,
    web_of_2row,
)
from webweave.jdt import evacuate
from webweave.tableau import (
    RowStrictTableau,
    Shape,
    _standardize,
    enumerate_russell,
    enumerate_standard,
    is_standard,
    standardize_with_pairs,
)
from webweave.verify import Family
from webweave.webcore import (
    BLACK,
    WHITE,
    Matching,
    Web,
    _canonical,
    _check_structure,
    _defects,
    _fields,
    _reflect_parts,
    canonicalize,
    contract_pair,
    reflect_matching,
    reflect_web,
    validate_web,
    web_to_json,
    webs_equal,
)

T = RowStrictTableau.from_rows

BIJ_RUSSELL = T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])
BIJ_STANDARD = T([[1, 3, 4], [2, 6, 7], [5, 8, 9]])

# webs outside every family: boundary vertex 1 has two edges, to vertices 2
# and 3, so the face after it is two edges deep; two black boundary vertices
# joined by an edge read as the rows (1), (), (2); and a web without boundary
FAN = Web((BLACK,) * 3, (), ((0, 1), (0, 2)), ((0, 1), (0,), (1,)))
JOINED_BLACKS = Web((BLACK, BLACK), (), ((0, 1),), ((0,), (0,)))
NO_BOUNDARY = Web((), (BLACK, WHITE), ((0, 1),), ((0,), (0,)))


def bigon_beside_square(backwards=False) -> Web:
    """The square face web with its first leg replaced by a white and a
    black joined by two edges, so a bigon sits beside the square; backwards
    numbers the edges in reverse, giving the bigon the least half-edge."""
    edges = ((9, 0), (5, 1), (6, 2), (7, 3), (4, 5), (5, 6), (6, 7), (7, 4), (4, 8), (8, 9), (8, 9))
    rotation = ((0,), (1,), (2,), (3,), (4, 7, 8), (1, 5, 4), (2, 6, 5), (3, 7, 6), (8, 9, 10), (0, 10, 9))
    if backwards:
        edges, rotation = edges[::-1], tuple(tuple(10 - e for e in rot) for rot in rotation)
    return Web((BLACK, WHITE, BLACK, WHITE), (WHITE, BLACK, WHITE, BLACK, BLACK, WHITE), edges, rotation)


def cyclic_equal(a, b):
    return len(a) == len(b) and any(
        tuple(a[i:] + a[:i]) == tuple(b) for i in range(max(1, len(a)))
    )


def webs_isomorphic_bruteforce(a, b):
    """Explicit isomorphism search: boundary fixed pointwise, internal
    vertices permuted color-consistently, edges and rotations (up to cyclic
    phase) preserved."""
    if a.boundary_colors != b.boundary_colors:
        return False
    if sorted(a.internal_colors) != sorted(b.internal_colors):
        return False
    if len(a.edges) != len(b.edges):
        return False
    nb = a.n_boundary
    a_int = list(range(nb, a.n_vertices))
    b_int = list(range(nb, b.n_vertices))

    def neighbors(web, v, mapping=None):
        out = []
        for e in web.rotation[v]:
            x, y = web.edges[e]
            other = y if x == v else x
            out.append(mapping[other] if mapping else other)
        return out

    b_edges = {frozenset(e) for e in b.edges}
    for perm in itertools.permutations(b_int):
        mapping = {v: v for v in range(nb)}
        mapping.update(dict(zip(a_int, perm)))
        if any(a.color(v) != b.color(mapping[v]) for v in a_int):
            continue
        if any(frozenset((mapping[x], mapping[y])) not in b_edges for x, y in a.edges):
            continue
        if all(
            cyclic_equal(neighbors(a, v, mapping), neighbors(b, mapping[v]))
            for v in range(a.n_vertices)
        ):
            return True
    return False


class TestCatalanPairing:
    def test_top_rows_of_example(self):
        assert catalan_pairing([1, 3, 4], [2, 6, 7]) == ((1, 2), (3, 7), (4, 6))

    def test_bottom_rows_of_example(self):
        assert catalan_pairing([2, 6, 7], [5, 8, 9]) == ((2, 5), (6, 9), (7, 8))

    def test_single_pair(self):
        assert catalan_pairing([1], [2]) == ((1, 2),)

    def test_rejects_unpairable(self):
        with pytest.raises(ValueError, match="precedes"):
            catalan_pairing([3, 4], [1, 2])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            catalan_pairing([1, 2], [2, 3])

    def test_rejects_rows_that_are_no_rows(self):
        with pytest.raises(ValueError, match=r"^row \(2, 1\) is not strictly increasing$"):
            catalan_pairing([2, 1], [3, 4])
        with pytest.raises(ValueError, match="^rows differ in length$"):
            catalan_pairing([1, 2], [3])

    @pytest.mark.parametrize("top, bottom, bad", [([1.9], [2.2], 1.9), ([1], [True], True)])
    def test_rejects_non_integer_values(self, top, bottom, bad):
        # ([1.9], [2.2]) used to give ((1, 2),)
        with pytest.raises(ValueError, match=f"bad value {bad!r}"):
            catalan_pairing(top, bottom)

    def test_noncrossing_and_order_independent(self):
        for n in range(1, 7):
            for t in enumerate_standard(Shape((n, n))):
                top, bottom = t.rows
                pairs = catalan_pairing(top, bottom)
                assert pairs == pairing_bottom_first(top, bottom)
                assert pairs == pairing_top_first(top, bottom)
                for (i, j), (k, l) in itertools.combinations(pairs, 2):
                    assert not (i < k < j < l) and not (k < i < l < j)


class TestCatalanPairsOfRows:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_plain_and_mirrored_keys_equal(self, n):
        for t in enumerate_standard(Shape((n, n))):
            pairs = _catalan_pairs(t.rows)
            m = web_of_2row(t)
            assert pairs == m.pairs == catalan_pairing(*t.rows)
            assert SL2.key(pairs) == pairs_key_by_reflection(m), t.rows
            assert SL2.key(SL2.reflect(pairs)) == pairs_key_by_reflection(m, mirror=True), t.rows

    def test_lists_and_tuples_give_one_key(self):
        rows = ((1, 2, 4), (3, 5, 6))
        reflected = SL2.key(SL2.reflect(_catalan_pairs(rows)))
        assert SL2.key(SL2.reflect(_catalan_pairs([list(r) for r in rows]))) == reflected
        assert SL2.key(_catalan_pairs(rows)) == "((1, 6), (2, 3), (4, 5))"

    @pytest.mark.parametrize("rows", [((2, 3), (1, 4)), ((1, 4), (2, 3)), ((3, 4), (1, 2))])
    def test_rejects_non_lattice(self, rows):
        with pytest.raises(ValueError, match="precedes"):
            _catalan_pairs(rows)


class TestWebOf2Row:
    def test_nested(self):
        assert web_of_2row(T([[1, 2], [3, 4]])) == Matching(2, ((2, 3), (1, 4)))

    def test_disjoint(self):
        assert web_of_2row(T([[1, 3], [2, 4]])) == Matching(2, ((1, 2), (3, 4)))

    def test_single_column(self):
        assert web_of_2row(T([[1], [2]])) == Matching(1, ((1, 2),))

    def test_rejects_three_rows(self):
        with pytest.raises(ValueError):
            web_of_2row(T([[1], [2], [3]]))

    def test_rejects_skew_shape(self):
        with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(n, n\)$"):
            web_of_2row(T([[2], [1, 3]], (1,)))

    @pytest.mark.parametrize("rows", [((1, 2), (2, 3)), ((1, 3), (2, 5)), ((1, 2), (3,)), ((1,), (2,), (3,))])
    def test_rejects_non_standard(self, rows):
        with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(n, n\)$"):
            web_of_2row(T(rows))


class TestMDiagram:
    def test_bijections_example(self):
        d = m_diagram(BIJ_STANDARD)
        got = {(a.left, a.right) for a in d.arcs}
        assert got == {(1, 2), (2, 5), (4, 6), (6, 9), (3, 7), (7, 8)}
        assert all(a.middle in (2, 6, 7) for a in d.arcs)

    def test_single_column(self):
        d = m_diagram(T([[1], [2], [3]]))
        assert {(a.left, a.right) for a in d.arcs} == {(1, 2), (2, 3)}
        assert {a.middle for a in d.arcs} == {2}

    @pytest.mark.parametrize(
        "t",
        [
            T([[1, 2, 3], [4, 5, 6], [7, 8, 10]]),  # a gap in the values
            T([[1, 2], [2, 3], [3, 4]]),  # doubled values
            T([[1, 2], [3, 4], [5, 6]], (1, 1, 1)),  # skew (3,3,3)/(1,1,1): equal rows of 1..6
            T([[1, 2], [3, 4]]),  # two rows
        ],
    )
    def test_rejects_what_is_not_standard_k_k_k(self, t):
        with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(k, k, k\)$"):
            m_diagram(t)

    def test_arcs_are_checked(self):
        with pytest.raises(ValueError, match=r"^arc endpoints out of order: \(3, 1\)$"):
            Arc(3, 1, 3)
        with pytest.raises(ValueError, match="^middle must be one of the endpoints$"):
            Arc(1, 3, 2)
        with pytest.raises(ValueError, match="exceeds 2 points$"):
            ArcDiagram(2, (Arc(1, 3, 1),))
        with pytest.raises(ValueError, match="^middle point 2 carries 1 designated ends, expected 2$"):
            ArcDiagram(3, (Arc(1, 2, 2),))

    @pytest.mark.parametrize("fields, bad", [((1.5, 3, 1.5), 1.5), ((True, 3, True), True), ((1, 3.5, 1), 3.5),
                                             ((1, 3, "1"), "'1'")])
    def test_arc_ends_that_are_not_integers_are_refused(self, fields, bad):
        # each used to make an Arc; 3.5 then made find_crossings raise TypeError
        with pytest.raises(ValueError, match=f"^bad point {bad}; expected an integer$"):
            Arc(*fields)

    @pytest.mark.parametrize("left", [-1, 0])
    def test_arc_left_end_below_1_is_refused(self, left):
        # ArcDiagram(2, (Arc(-1, 2, 2), Arc(0, 2, 2))) used to be made
        with pytest.raises(ValueError, match=f"^arc left end {left} is below 1$"):
            Arc(left, 2, 2)

    @pytest.mark.parametrize("points", [True, 2.0])
    def test_diagram_point_count_that_is_not_an_integer_is_refused(self, points):
        with pytest.raises(ValueError, match=f"^bad number of points {points}; expected an integer$"):
            ArcDiagram(points, ())

    def test_two_column(self):
        # hand-run of both pairings: top pairs (2,3),(1,4); bottom (3,6),(4,5)
        d = m_diagram(T([[1, 2], [3, 4], [5, 6]]))
        got = {(a.left, a.right) for a in d.arcs}
        assert got == {(2, 3), (1, 4), (3, 6), (4, 5)}


class TestGeometryAgainstOracle:
    @pytest.mark.parametrize("k", [3, 4])
    def test_m_diagram_and_crossings_match_fraction_oracle(self, k):
        for t in enumerate_standard(Shape((k, k, k))):
            diagram = m_diagram(t)
            assert diagram == m_diagram_by_pairing(t)
            assert find_crossings(diagram) == find_crossings_by_fraction(diagram)

    @pytest.mark.parametrize("k", [4, 5, 12])
    def test_windowed_crossings_match_fraction_oracle(self, k):
        # _crossings scans only the windows of arcs of the other pairing;
        # every (4,4,4) and (5,5,5) tableau, and 200 random (12,12,12) ones
        if k < 12:
            tableaux = enumerate_standard(Shape((k, k, k)))
        else:
            rng = random.Random(12)
            tableaux = [random_filling(rng, 3, k) for _ in range(200)]
        for t in tableaux:
            got = [Crossing(a, b, Fraction(num, den)) for a, b, num, den in _crossings(_arc_ends(t.rows))]
            assert tuple(got) == find_crossings_by_fraction(m_diagram(t))

    def test_m_diagram_keeps_its_checks(self):
        skew = T([[1], [2], [3]], inner=(1, 1, 1))
        for bad in (T([[1, 2], [3, 4]]), T([[1], [2], [4]]), T([[1, 2], [3], [4]]), T([[1], [1], [2]]), skew):
            with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(k, k, k\)$"):
                m_diagram(bad)
            with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(k, k, k\)$"):
                tymoczko_web(bad)


def _fillings(shape, largest):
    """Every tableau of the straight shape with entries in 1..largest."""
    out = []
    for rows in itertools.product(*(itertools.combinations(range(1, largest + 1), p) for p in shape)):
        try:
            out.append(T(rows))
        except ValueError:  # a column that decreases
            pass
    return out


class TestStandardnessAtTheBoundary:
    """web_of_2row, m_diagram and tymoczko_web check standardness once, with
    is_standard; the row kernels behind them trust their rows."""

    TWO_ROWS = _fillings((2, 2), 5) + _fillings((3, 3), 7) + _fillings((2, 1), 4)
    THREE_ROWS = _fillings((1, 1, 1), 4) + _fillings((2, 2, 2), 7) + _fillings((2, 2, 1), 6)

    def test_two_row_map_refuses_exactly_what_is_not_standard(self):
        standard = 0
        for t in self.TWO_ROWS + self.THREE_ROWS:
            if len(t.rows) == 2 and t.is_rectangular and is_standard(t):
                standard += 1
                assert web_of_2row(t) == Matching(len(t.rows[0]), catalan_pairing(*t.rows)), t.rows
            else:
                with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(n, n\)$"):
                    web_of_2row(t)
        assert standard == 2 + 5

    def test_three_row_maps_refuse_exactly_what_is_not_standard(self):
        standard = 0
        for t in self.THREE_ROWS + self.TWO_ROWS:
            if len(t.rows) == 3 and t.is_rectangular and is_standard(t):
                standard += 1
                assert m_diagram(t) == m_diagram_by_pairing(t), t.rows
                assert tymoczko_web(t) == Web(*tymoczko_parts_by_diagram(t)), t.rows
                continue
            for build in (m_diagram, tymoczko_web):
                with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(k, k, k\)$"):
                    build(t)
        assert standard == 1 + 5

    def test_the_check_is_is_standard(self, monkeypatch):
        # a standard tableau that is_standard refuses is refused by all three
        monkeypatch.setattr(bijection, "is_standard", lambda t: False)
        with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(n, n\)$"):
            web_of_2row(T([[1, 2], [3, 4]]))
        for build in (m_diagram, tymoczko_web):
            with pytest.raises(ValueError, match=r"^expected a standard tableau of shape \(k, k, k\)$"):
                build(BIJ_STANDARD)


def _as_tuples(parts):
    boundary_colors, internal_colors, edges, rotation = parts
    return tuple(boundary_colors), tuple(internal_colors), tuple(map(tuple, edges)), tuple(map(tuple, rotation))


def _builder_inputs():
    """Every SYT with k <= 4, and every Russell tableau with k <= 3 at every h."""
    standard = [(t, False) for k in range(1, 5) for t in enumerate_standard(Shape((k, k, k)))]
    russell = [(t, True) for k in range(1, 4) for h in range(3 * k // 2 + 1) for t in enumerate_russell(k, h)]
    return standard + russell


class TestIntegerBuilderAgainstOracle:
    def test_parts_equal(self):
        for t, is_russell in _builder_inputs():
            u = standardize_with_pairs(t)[0] if is_russell else t
            assert _as_tuples(_tymoczko_parts(u.rows)) == _as_tuples(tymoczko_parts_by_diagram(u)), t.rows
            if is_russell:
                assert _as_tuples(_russell_parts(t.rows)) == _as_tuples(russell_parts_by_diagram(t)), t.rows

    def test_no_contraction_without_doubled_values(self, monkeypatch):
        # a filling without doubled values has the Tymoczko web, and no
        # identity remap is made to get it
        def refuse(parts, positions):
            raise AssertionError("contracted no pairs")

        monkeypatch.setattr(bijection, "_contract", refuse)
        for t in enumerate_russell(3, 0):
            assert _russell_parts(t.rows) == _tymoczko_parts(t.rows), t.rows

    def test_plain_and_mirrored_keys_equal(self):
        for t, is_russell in _builder_inputs():
            parts = _russell_parts(t.rows) if is_russell else _tymoczko_parts(t.rows)
            old = Web(*(russell_parts_by_diagram(t) if is_russell else tymoczko_parts_by_diagram(t)))
            assert _canonical(parts) == canonicalize(old) == canonicalize_by_bfs(old), t.rows
            mirrored = canonicalize_by_bfs(reflect_web(old))
            assert _canonical(_reflect_parts(parts)) == canonicalize(reflect_web(old)) == mirrored, t.rows

    def test_web_json_equal(self):
        for t, is_russell in _builder_inputs():
            if is_russell:
                assert web_to_json(russell_web(t)) == web_to_json(Web(*russell_parts_by_diagram(t))), t.rows
            else:
                assert web_to_json(tymoczko_web(t)) == web_to_json(Web(*tymoczko_parts_by_diagram(t))), t.rows

    def test_rejects_a_non_lattice_filling(self):
        # each of 1..3 once, but a value precedes every unpaired entry of the row above
        with pytest.raises(ValueError, match="precedes"):
            _tymoczko_parts(((2,), (1,), (3,)))
        with pytest.raises(ValueError, match="precedes"):
            _tymoczko_parts(((1,), (3,), (2,)))


class TestFindCrossings:
    def test_bijections_example_has_three(self):
        d = m_diagram(BIJ_STANDARD)
        crossings = find_crossings(d)
        involved = {
            tuple(sorted(((d.arcs[c.arc_a].left, d.arcs[c.arc_a].right), (d.arcs[c.arc_b].left, d.arcs[c.arc_b].right))))
            for c in crossings
        }
        assert involved == {
            ((2, 5), (4, 6)),
            ((2, 5), (3, 7)),
            ((3, 7), (6, 9)),
        }

    def test_disjoint_arcs_do_not_cross(self):
        d = ArcDiagram(4, (Arc(1, 2, 2), Arc(2, 3, 2), Arc(3, 4, 3), Arc(2, 3, 3)))
        del d  # middles need two ends each; build a legal one instead
        diagram = m_diagram(T([[1, 2], [3, 5], [4, 6]]))
        for c in find_crossings(diagram):
            a, b = diagram.arcs[c.arc_a], diagram.arcs[c.arc_b]
            assert a.left < b.left < a.right < b.right

    def test_exact_abscissa(self):
        d = ArcDiagram(6, (Arc(2, 5, 5), Arc(4, 6, 4), Arc(5, 6, 5), Arc(3, 4, 4)))
        (c,) = [c for c in find_crossings(d) if {c.arc_a, c.arc_b} == {0, 1}]
        assert c.x == Fraction(14, 3)


class TestTymoczkoWeb:
    def test_single_tripod(self):
        web = tymoczko_web(T([[1], [2], [3]]))
        assert web.boundary_colors == (BLACK,) * 3
        assert web.internal_colors == (WHITE,)
        assert validate_web(web) == []

    def test_bijections_example_web(self):
        web = tymoczko_web(BIJ_STANDARD)
        assert web.boundary_colors == (BLACK,) * 9
        # one tripod white per middle entry, plus a black and a white per crossing
        assert web.internal_colors.count(WHITE) == 3 + 3
        assert web.internal_colors.count(BLACK) == 3
        assert validate_web(web) == []

    def test_k2_family_distinct_and_valid(self):
        webs = [tymoczko_web(t) for t in enumerate_standard(Shape((2, 2, 2)))]
        assert len(webs) == 5
        assert all(validate_web(w) == [] for w in webs)
        assert len({canonicalize(w) for w in webs}) == 5

    def test_strand_chains_alternate_colors(self):
        web = tymoczko_web(BIJ_STANDARD)
        for x, y in web.edges:
            assert {web.color(x), web.color(y)} == {BLACK, WHITE}


class TestRussellWeb:
    def test_bijections_example_colors(self):
        web = russell_web(BIJ_RUSSELL)
        assert web.boundary_colors == (WHITE, BLACK, WHITE, BLACK, BLACK, BLACK, BLACK)
        assert validate_web(web) == []

    def test_expansion_records_the_pairs(self):
        exp = expand_white(russell_web(BIJ_RUSSELL))
        assert len(exp.web.boundary_colors) == 9
        assert exp.contractible == (1, 4)

    def test_standard_input_matches_tymoczko(self):
        for t in enumerate_standard(Shape((2, 2, 2))):
            assert webs_equal(russell_web(t), tymoczko_web(t))

    def test_smallest_contraction(self):
        web = russell_web(T([[1], [1], [2]]))
        assert web.boundary_colors == (WHITE, BLACK)
        assert validate_web(web) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_one_by_one_contraction_oracle(self, k):
        for h in range(3 * k // 2 + 1):
            for t in enumerate_russell(k, h):
                u, starts = standardize_with_pairs(t)
                want = web_to_json(contract_pairs_one_by_one(tymoczko_web(u), starts))
                assert web_to_json(russell_web(t)) == want, t.rows


class TestBatchMemo:
    """_russell_parts with a campaign batch's memo of the Tymoczko webs of
    the last two standardizations (see Pipeline.batch), against the build
    without one, which is the oracle."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_memo_build_equals_the_build(self, k):
        # every filling at every h, in growth order: a standardization is
        # built the first time it is met, at h = 0, and read at every other h
        family, webs = Family((k, k, k), "all"), {}
        for shard in family.shards():
            for rows in family.grow(shard):
                assert _as_tuples(_russell_parts(rows, webs)) == _as_tuples(_russell_parts(rows)), rows
                assert tuple(itertools.chain(*_standardize(rows)[0])) in webs and len(webs) <= 2

    def test_memo_keeps_the_last_two_webs_as_tuples(self):
        # no caller can change what another reads, and a third
        # standardization drops the first built
        webs = {}
        first, second, third = enumerate_standard(Shape((3, 3, 3)))[:3]
        for t in (first, second, first, third):
            _russell_parts(t.rows, webs)
        assert list(webs) == [tuple(itertools.chain(*t.rows)) for t in (second, third)]
        for parts in webs.values():
            assert type(parts) is tuple and all(type(field) is tuple for field in parts)
            assert all(type(item) is tuple for field in parts[2:] for item in field)

    def test_a_raise_is_not_remembered(self, monkeypatch):
        real, calls = bijection._tymoczko_parts, []

        def refused_once(rows):
            calls.append(rows)
            if len(calls) == 1:
                raise ValueError("seeded fault")
            return real(rows)

        monkeypatch.setattr(bijection, "_tymoczko_parts", refused_once)
        webs = {}
        with pytest.raises(ValueError, match="^seeded fault$"):
            _russell_parts(BIJ_RUSSELL.rows, webs)
        assert webs == {}
        assert _russell_parts(BIJ_RUSSELL.rows, webs) == _russell_parts(BIJ_RUSSELL.rows)
        assert _russell_parts(BIJ_RUSSELL.rows, webs) == _russell_parts(BIJ_RUSSELL.rows)
        assert len(webs) == 1 and len(calls) == 4  # refused, built once, and twice without the memo

    @pytest.mark.parametrize("memo", [False, True])
    @pytest.mark.parametrize("fault", ["float id", "dropped vertex"])
    def test_fault_is_named_through_the_contraction(self, fault, memo, monkeypatch):
        # the contraction reads the built fields before the gate does; when
        # it fails on fields the gate refuses, the gate's refusal is raised,
        # where the remap raised TypeError or IndexError
        real = bijection._tymoczko_parts
        a = real(BIJ_STANDARD.rows)[2][-1][0]
        assert a >= 3 * 3 and len(real(BIJ_STANDARD.rows)[1]) > 3  # the last edge is an H bar
        if fault == "float id":
            seeded, says = with_float_bar(real), rf"bad id {a}\.0; expected an integer"
        else:
            seeded, says = without_last_vertex(real), r"edge \d+ endpoint out of range"
        with pytest.raises(ValueError, match=f"^{says}$") as gate:
            _check_structure(seeded(BIJ_STANDARD.rows))
        monkeypatch.setattr(bijection, "_tymoczko_parts", seeded)
        webs = ({},) if memo else ()
        for rows in (BIJ_RUSSELL.rows, BIJ_STANDARD.rows):
            with pytest.raises(ValueError) as refused:
                SL3_RUSSELL.check(_russell_parts(rows, *webs))
            assert str(refused.value) == str(gate.value), rows
        if memo and fault == "float id":
            assert type(webs[0][tuple(itertools.chain(*BIJ_STANDARD.rows))][2][-1][0]) is float


class TestTableauOfWeb:
    def test_matching_roundtrip(self):
        t = T([[1, 3], [2, 4]])
        assert tableau_of_web(web_of_2row(t)) == t

    def test_russell_roundtrip(self):
        assert tableau_of_web(russell_web(BIJ_RUSSELL)) == BIJ_RUSSELL

    def test_tripod(self):
        assert tableau_of_web(tymoczko_web(T([[1], [2], [3]]))) == T([[1], [2], [3]])

    def test_one_call_recovers_every_family(self):
        # the rows say which family the input is in; the old signature
        # refused each of these whenever the shape passed was another's
        russell = enumerate_russell(2, 1)[0]
        assert russell.shape.outer.parts == (2, 2, 2) and russell.max_entry == 5
        one, two, two_rows = T([[1], [2], [3]]), T([[1, 3], [2, 5], [4, 6]]), T([[1, 2, 4], [3, 5, 6]])
        for obj, t in ((tymoczko_web(one), one), (tymoczko_web(two), two), (russell_web(russell), russell),
                       (web_of_2row(two_rows), two_rows)):
            assert tableau_of_web(obj) == t, t.rows

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matching_matches_table_oracle(self, n):
        for t in enumerate_standard(Shape((n, n))):
            m = web_of_2row(t)
            assert tableau_of_web(m) == tableau_of_web_by_table(m, (n, n)) == t

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_standard_matches_table_oracle(self, k):
        for t in enumerate_standard(Shape((k, k, k))):
            web = tymoczko_web(t)
            assert tableau_of_web(web) == tableau_of_web_by_table(web, (k, k, k)) == t

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_russell_matches_table_oracle(self, k):
        for h in range(3 * k // 2 + 1):
            for t in enumerate_russell(k, h):
                web = russell_web(t)
                assert tableau_of_web(web) == tableau_of_web_by_table(web, (k, k, k)) == t, t.rows

    def test_web_outside_family_raises_lookup_error(self):
        # its states give the (2,2,2) filling 1 2 / 2 4 / 3 4, whose web has
        # no square face, so only the round trip refuses it
        with pytest.raises(LookupError, match="^not in the image of a rectangular family$"):
            tableau_of_web(square_face_web())
        with pytest.raises(LookupError, match="boundary vertex 1 has state 2"):
            tableau_of_web(FAN)

    def test_rows_that_are_no_rectangle_raise_lookup_error(self):
        # the tripod with label 3 recolored white: its states give rows of
        # lengths 1, 2, 1, which no rectangular family has
        web = Web((BLACK, BLACK, WHITE), (WHITE,), tripod().edges, tripod().rotation)
        assert bijection.SL3_RUSSELL.inverse(_fields(web)) == ((1,), (2, 3), (3,))
        with pytest.raises(LookupError, match="^not in the image of a rectangular family$"):
            tableau_of_web(web)

    def test_web_without_boundary_raises_lookup_error(self):
        with pytest.raises(LookupError, match="without boundary vertices"):
            tableau_of_web(NO_BOUNDARY)

    def test_rows_no_tableau_has_raise_lookup_error(self):
        # RowStrictTableau.from_rows refuses the rows (1), (), (2)
        assert bijection.SL3_RUSSELL.inverse(_fields(JOINED_BLACKS)) == ((1,), (), (2,))
        with pytest.raises(LookupError, match="^not in the image of a rectangular family$"):
            tableau_of_web(JOINED_BLACKS)

    def test_round_trip_meets_lists_and_tuples(self):
        # a Web's fields are tuples, and the pipeline builds lists when it
        # contracts no pair (h = 0) and tuples when it does: the round trip
        # compares them by value
        contracted = enumerate_russell(3, 2)[7]
        for t in (*enumerate_russell(3, 0), contracted):
            web, built = russell_web(t), bijection.SL3_RUSSELL.parts(t.rows)
            assert isinstance(built[0], list if t != contracted else tuple), t.rows
            assert bijection.SL3_RUSSELL.same(built, _fields(web)), t.rows
            assert tableau_of_web(web) == t

    def test_result_is_checked_by_round_trip(self, monkeypatch):
        t, other = T([[1, 3], [2, 5], [4, 6]]), T([[1, 2], [3, 4], [5, 6]])
        wrong = bijection.SL3_RUSSELL._replace(inverse=lambda parts: other.rows)
        monkeypatch.setattr(bijection, "SL3_RUSSELL", wrong)
        with pytest.raises(LookupError):
            tableau_of_web(tymoczko_web(t))
        assert tableau_of_web(tymoczko_web(other)) == other

    def test_round_trip_beyond_the_desk_scale(self):
        # the table inverse refused k = 6 and n = 12 as beyond its bounds
        rng = random.Random(12)
        for _ in range(3):
            t = random_filling(rng, 3, 6)
            assert tableau_of_web(tymoczko_web(t)) == t
            t = random_filling(rng, 3, 6, doubled=5)
            assert tableau_of_web(russell_web(t)) == t
            t = random_filling(rng, 2, 12)
            assert tableau_of_web(web_of_2row(t)) == t


def _outcome(fn, parts):
    """What fn gives on parts: its value, or its exception's type and message."""
    try:
        return fn(parts)
    except Exception as exc:
        return type(exc), str(exc)


class TestInverseByOneFaceWalk:
    """_tableau_rows reads the depths of webcore._depths_after_labels, which
    traces each face when its search by depth takes it, and _defects traces
    each face from its least half-edge, both off _face_successors; the
    bodies they replace, which list every face first, are the oracles.
    Each pair gives equal rows or reports, or raises one exception with one
    message."""

    @staticmethod
    def assert_agree(parts):
        assert _outcome(_tableau_rows, parts) == _outcome(tableau_rows_by_face_lists, parts)
        assert _outcome(_defects, parts) == _outcome(defects_by_face_lists, parts)

    @pytest.mark.parametrize(
        "family", [*(Family((k, k, k)) for k in range(1, 6)), *(Family((k, k, k), "all") for k in range(1, 5))],
        ids=Family.describe,
    )
    def test_every_web_and_its_reflection(self, family, family_webs):
        p = family.pipeline
        for _, parts in family_webs(family):
            self.assert_agree(parts)
            self.assert_agree(p.reflect(parts))

    @pytest.mark.parametrize(
        "web",
        [tripod(), contract_pair(tripod(), 1), square_face_web(), bigon_beside_square(),
         bigon_beside_square(backwards=True), FAN, JOINED_BLACKS, NO_BOUNDARY],
        ids=["tripod", "contracted tripod", "square face", "bigon beside square",
             "bigon beside square backwards", "fan", "joined blacks", "no boundary"],
    )
    def test_webs_outside_every_family(self, web):
        self.assert_agree(_fields(web))
        self.assert_agree(_fields(reflect_web(web)))

    def test_short_faces_in_the_order_of_their_least_half_edges(self):
        square, bigon = "internal face of size 4 < 6", "internal face of size 2 < 6"
        assert _defects(_fields(square_face_web())) == [square]
        assert _defects(_fields(bigon_beside_square())) == [square, bigon]
        assert _defects(_fields(bigon_beside_square(backwards=True))) == [bigon, square]

    @pytest.mark.parametrize(
        "family",
        [Family((4, 4, 4)), Family((3, 3, 3), "all"), Family((5, 5, 5)), Family((4, 4, 4), "all")],
        ids=Family.describe,
    )
    def test_seeded_gate_passing_mutations(self, family, family_webs):
        # a reversed or turned rotation, or a flipped color, passes the gate
        # and may break planarity or join two vertices of one color
        rng, said = random.Random(24), set()
        for _, parts in family_webs(family):
            parts = turn_or_recolor(rng, parts)
            _check_structure(parts)
            self.assert_agree(parts)
            said.update(_defects(parts))
        assert any(line.startswith("rotation system is not a planar") for line in said)
        assert any("joins two" in line for line in said)


class TestMainTheoremSmall:
    def test_sl2_small(self):
        for n in range(1, 6):
            for t in enumerate_standard(Shape((n, n))):
                assert reflect_matching(web_of_2row(t)) == web_of_2row(evacuate(t))

    def test_sl3_standard_small(self):
        for k in (1, 2, 3):
            for t in enumerate_standard(Shape((k, k, k))):
                lhs = canonicalize(reflect_web(tymoczko_web(t)))
                rhs = canonicalize(tymoczko_web(evacuate(t)))
                assert lhs == rhs, f"theorem fails at {t.rows}"

    def test_sl3_russell_small(self):
        for k in (1, 2):
            for h in range(3 * k // 2 + 1):
                for t in enumerate_russell(k, h):
                    lhs = canonicalize(reflect_web(russell_web(t)))
                    rhs = canonicalize(russell_web(evacuate(t)))
                    assert lhs == rhs, f"theorem fails at {t.rows} (h={h})"

    def test_final_example(self):
        lhs = reflect_web(russell_web(BIJ_RUSSELL))
        rhs = russell_web(T([[1, 2, 5], [3, 4, 7], [5, 6, 7]]))
        assert webs_equal(lhs, rhs)

    def test_reflection_involution_on_example_web(self):
        web = russell_web(BIJ_RUSSELL)
        assert webs_equal(reflect_web(reflect_web(web)), web)

    def test_reflection_reverses_boundary_colors_and_stays_valid(self):
        web = russell_web(BIJ_RUSSELL)
        reflected = reflect_web(web)
        assert reflected.boundary_colors == tuple(reversed(web.boundary_colors))
        assert validate_web(reflected) == []


class TestCanonicalAgainstBruteForce:
    def test_consistency_on_k2_family(self):
        webs = [tymoczko_web(t) for t in enumerate_standard(Shape((2, 2, 2)))]
        webs += [russell_web(t) for t in enumerate_russell(1, 1)]
        for a, b in itertools.combinations_with_replacement(webs, 2):
            same_canon = canonicalize(a) == canonicalize(b)
            if a.n_vertices <= 12 and b.n_vertices <= 12:
                assert same_canon == webs_isomorphic_bruteforce(a, b)

    def test_reflection_against_bruteforce(self):
        for t in enumerate_standard(Shape((2, 2, 2))):
            lhs = reflect_web(tymoczko_web(t))
            rhs = tymoczko_web(evacuate(t))
            if lhs.n_vertices <= 12:
                assert webs_isomorphic_bruteforce(lhs, rhs)
