import io
import itertools
import json
import random
import re

import pytest

from oracles import (
    all_perfect_matchings,
    check_pairs_by_all_pairs,
    contract_pairs_one_by_one,
    expand_white,
    first_fault,
    mutate_web_parts,
    reflect_web_by_expansion,
    renumber_web_parts,
    seeded_web_mutations,
    turn_or_recolor,
    typed_items_by_items,
    web_from_json_by_items,
    web_gate_by_passes,
)
from webweave import bijection, cli, tableau, webcore
from webweave.bijection import (
    SL2,
    SL3_RUSSELL,
    SL3_STANDARD,
    russell_web,
    tableau_of_web,
    tymoczko_web,
    web_of_2row,
)
from webweave.jdt import _evacuate_rows
from webweave.tableau import RowStrictTableau, Shape, enumerate_russell, enumerate_standard, format_tableau
from webweave.verify import Family
from webweave.webcore import (
    BLACK,
    WHITE,
    Matching,
    Web,
    WebStructureError,
    _canonical,
    _check_pairs,
    _defects,
    _fields,
    _reflect_parts,
    _same_web,
    canonicalize,
    contract_pair,
    contract_pairs,
    matching_from_json,
    matching_to_json,
    reflect_matching,
    reflect_web,
    validate_web,
    web_from_json,
    web_to_json,
    webs_equal,
)


def tripod(order=(0, 1, 2)) -> Web:
    """White center joined to three black boundary vertices; `order` permutes
    edge construction order without changing the map."""
    edges = [None, None, None]
    for slot, b in enumerate(order):
        edges[b] = (3, b)
    ids = {b: order.index(b) for b in range(3)}
    return Web(
        (BLACK, BLACK, BLACK),
        (WHITE,),
        tuple(edges[b] for b in sorted(ids, key=ids.get)),
        (
            (ids[0],),
            (ids[1],),
            (ids[2],),
            (ids[0], ids[1], ids[2]),
        ),
    )


def square_face_web() -> Web:
    """Two whites and two blacks in a 4-cycle, each with a leg to the boundary."""
    w1, k1, w2, k2 = 4, 5, 6, 7
    edges = (
        (w1, 0),  # 0 leg
        (k1, 1),  # 1 leg
        (w2, 2),  # 2 leg
        (k2, 3),  # 3 leg
        (w1, k1),  # 4
        (k1, w2),  # 5
        (w2, k2),  # 6
        (k2, w1),  # 7
    )
    rotation = (
        (0,),
        (1,),
        (2,),
        (3,),
        (0, 4, 7),  # w1: leg, toward k1, toward k2
        (4, 1, 5),  # k1: toward w1, leg, toward w2
        (6, 5, 2),  # w2: toward k2, toward k1, leg
        (3, 7, 6),  # k2: leg, toward w1, toward w2
    )
    return Web((BLACK, WHITE, BLACK, WHITE), (WHITE, BLACK, WHITE, BLACK), edges, rotation)


class TestMatching:
    def test_rejects_crossing(self):
        with pytest.raises(ValueError, match="cross"):
            Matching(2, ((1, 3), (2, 4)))

    def test_rejects_bad_cover(self):
        with pytest.raises(ValueError):
            Matching(2, ((1, 2), (3, 3)))

    @pytest.mark.parametrize("n, pairs, bad", [(1, ((1.0, 2.0),), 1.0), (1, ((1, True),), True)])
    def test_rejects_non_integer_points(self, n, pairs, bad):
        # ((1.0, 2.0),) used to raise TypeError from list indexing
        with pytest.raises(ValueError, match=f"^bad point {bad!r}; expected an integer$"):
            Matching(n, pairs)

    @pytest.mark.parametrize("n, pairs", [(True, ((1, 2),)), (2.5, ()), (1.0, ((1, 2),)), ("1", ((1, 2),))])
    def test_rejects_a_number_of_pairs_that_is_not_an_integer(self, n, pairs):
        # (True, ((1, 2),)) and (2.5, ()) used to be called a bad point
        with pytest.raises(ValueError, match=f"^bad number of pairs {re.escape(repr(n))}; expected an integer$"):
            Matching(n, pairs)

    def test_json_number_of_pairs_keeps_its_refusal(self):
        with pytest.raises(ValueError, match="^n must be an integer$"):
            matching_from_json({"n": 2.5, "pairs": []})

    def test_empty_is_valid_and_reflection_fixed(self):
        m = Matching(0, ())
        assert reflect_matching(m) == m

    def test_reflect_symmetric_singleton(self):
        m = Matching(1, ((1, 2),))
        assert reflect_matching(m) == m

    def test_reflect_example(self):
        m = Matching(3, ((2, 3), (1, 4), (5, 6)))
        assert reflect_matching(m) == Matching(3, ((4, 5), (3, 6), (1, 2)))

    def test_reflect_fixed_pair(self):
        m = Matching(2, ((1, 2), (3, 4)))
        assert reflect_matching(m) == m

    def test_reflect_involution(self):
        m = Matching(3, ((1, 6), (2, 3), (4, 5)))
        assert reflect_matching(reflect_matching(m)) == m

    def test_json_roundtrip(self):
        m = Matching(3, ((2, 3), (1, 4), (5, 6)))
        assert matching_from_json(matching_to_json(m)) == m

    def test_json_from_text(self):
        assert matching_from_json('{"n": 2, "pairs": [[2, 3], [1, 4]]}') == Matching(2, ((2, 3), (1, 4)))

    @pytest.mark.parametrize("pair", [[1], [1, 2, 3]])
    def test_json_pair_has_two_points(self, pair):
        with pytest.raises(ValueError, match="each pair must have two points"):
            matching_from_json({"n": 1, "pairs": [pair]})


def _rejects(check, n, pairs) -> bool:
    try:
        check(n, pairs)
    except ValueError:
        return False
    return True


class TestOnePassMatchingCheck:
    @pytest.mark.parametrize("points", range(0, 11, 2))
    def test_rejects_what_all_pairs_rejects(self, points):
        n = points // 2
        verdicts = []
        for pairs in all_perfect_matchings(points):
            verdict = _rejects(_check_pairs, n, pairs)
            assert verdict == _rejects(check_pairs_by_all_pairs, n, pairs), pairs
            verdicts.append(verdict)
        # exactly the Catalan number of them is noncrossing
        assert verdicts.count(True) == [1, 1, 2, 5, 14, 42][n]

    @pytest.mark.parametrize(
        "n, pairs",
        [(2, ((1, 2),)), (1, ((1, 2), (3, 4))), (2, ((1, 2), (3, 3))), (2, ((1, 2), (2, 4))), (2, ((0, 1), (2, 3))),
         (2, ((1, 2), (3, 5))), (-1, ()), (0, ()), (3, ((1, 3), (2, 6), (4, 5)))],
    )
    def test_rejects_what_all_pairs_rejects_off_partitions(self, n, pairs):
        assert _rejects(_check_pairs, n, pairs) == _rejects(check_pairs_by_all_pairs, n, pairs)

    def test_names_a_crossing_pair(self):
        with pytest.raises(ValueError, match=r"pairs \(1,3\) and \(2,6\) cross"):
            _check_pairs(3, ((1, 3), (2, 6), (4, 5)))

    def test_huge_n_is_refused_before_allocating(self):
        with pytest.raises(ValueError, match="partition"):
            Matching(10**12, ((1, 2),))


class TestValidateWeb:
    def test_tripod_is_valid(self):
        assert validate_web(tripod()) == []

    def test_square_face_flagged(self):
        report = validate_web(square_face_web())
        assert any("size 4" in line for line in report)

    def test_boundary_strand_is_legal(self):
        web = Web((WHITE, BLACK), (), ((0, 1),), ((0,), (0,)))
        assert validate_web(web) == []

    def test_bipartite_violation_flagged(self):
        web = Web((WHITE, WHITE), (), ((0, 1),), ((0,), (0,)))
        assert any("joins two white" in line for line in validate_web(web))

    def test_boundary_degree_flagged(self):
        web = Web(
            (BLACK, BLACK, BLACK, BLACK),
            (WHITE,),
            ((4, 0), (4, 1), (4, 2)),
            ((0,), (1,), (2,), (), (0, 1, 2)),
        )
        assert any("boundary vertex 4 has degree 0" in line for line in validate_web(web))

    def test_web_without_boundary_flagged(self):
        web = Web((), (BLACK, WHITE), ((0, 1),), ((0,), (0,)))
        assert "web without boundary vertices is not embeddable in the disk model" in validate_web(web)

    def test_internal_degree_flagged(self):
        web = Web((BLACK,), (WHITE,), ((0, 1),), ((0,), (0,)))
        assert any("degree 1, expected 3" in line for line in validate_web(web))

    def test_structure_error_on_loop(self):
        with pytest.raises(WebStructureError):
            validate_web(Web((BLACK,), (), ((0, 0),), ((0, 0),)))

    def test_nonplanar_wiring_flagged(self):
        nested = Web(
            (BLACK, WHITE, WHITE, BLACK),
            (),
            ((0, 1), (2, 3)),
            ((0,), (0,), (1,), (1,)),
        )
        # chords 1-3 and 2-4 interleave: no disk embedding has this boundary order
        crossed = Web(
            (BLACK, BLACK, WHITE, WHITE),
            (),
            ((0, 2), (1, 3)),
            ((0,), (1,), (0,), (1,)),
        )
        assert validate_web(nested) == []
        assert any("planar" in line for line in validate_web(crossed))


class TestCanonicalize:
    def test_relabeling_invariance(self):
        encodings = {canonicalize(tripod(order)) for order in itertools.permutations(range(3))}
        assert len(encodings) == 1

    def test_mirror_differs(self):
        base = tripod()
        mirrored = Web(
            base.boundary_colors,
            base.internal_colors,
            base.edges,
            base.rotation[:3] + (tuple(reversed(base.rotation[3])),),
        )
        assert canonicalize(base) != canonicalize(mirrored)

    def test_unreachable_vertex_rejected(self):
        # structurally fine, but the internal theta component floats free
        web = Web(
            (BLACK, WHITE),
            (WHITE, BLACK),
            ((0, 1), (2, 3), (2, 3), (2, 3)),
            ((0,), (0,), (1, 2, 3), (1, 3, 2)),
        )
        with pytest.raises(ValueError, match="unreachable"):
            canonicalize(web)
        with pytest.raises(ValueError, match="unreachable"):
            _same_web(_fields(web), _fields(web))


class TestSameAgainstKeys:
    """A pipeline's `same` says two builds are equal exactly when their
    keys are; the keys are the oracle."""

    @pytest.mark.parametrize("family", [Family((5, 5, 5)), Family((4, 4, 4), "all")], ids=Family.describe)
    def test_same_web_is_key_equality(self, family, family_webs):
        # every reflected web against its evacuation's web, as the theorem
        # check compares them, and near misses: the next member's web, a
        # copy with one vertex turned or recolored, and that copy renumbered
        rng = random.Random(family.describe())
        p, members = family.pipeline, family_webs(family)
        web_of = dict(members)
        outcomes = set()
        for (rows, parts), (_, after) in zip(members, members[1:] + members[:1]):
            reflected = p.reflect(parts)
            near = turn_or_recolor(rng, parts)
            pairs = [(reflected, web_of[tuple(map(tuple, _evacuate_rows(rows)))]), (reflected, after),
                     (parts, after), (parts, near), (renumber_web_parts(rng, near), parts)]
            for a, b in pairs:
                same = _same_web(a, b)
                assert same == (_canonical(a) == _canonical(b)), rows
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_small_webs(self):
        # a vertex of another degree (one edge against two parallel ones), a
        # mirror image, a web against itself, webs of other sizes, and the
        # theta web of test_unreachable_vertex_rejected against each of them
        # (a path among them has its size): same and webs_equal raise exactly
        # when a key does
        one = ((BLACK, WHITE), (), ((0, 1),), ((0,), (0,)))
        two = ((BLACK, WHITE), (), ((0, 1), (0, 1)), ((0, 1), (1, 0)))
        path = ((BLACK, WHITE), (WHITE, BLACK), ((0, 2), (2, 3), (3, 1)), ((0,), (2,), (0, 1), (1, 2)))
        theta = ((BLACK, WHITE), (WHITE, BLACK), ((0, 1), (2, 3), (2, 3), (2, 3)), ((0,), (0,), (1, 2, 3), (1, 3, 2)))
        tri, square = _fields(tripod()), _fields(square_face_web())
        webs = [one, two, path, theta, tri, _reflect_parts(tri), _fields(contract_pair(tripod(), 1)), square]
        outcomes = set()
        for a, b in itertools.product(webs, repeat=2):
            try:
                keys_equal = _canonical(a) == _canonical(b)
            except ValueError:
                for equal in (_same_web, lambda a, b: webs_equal(Web(*a), Web(*b))):
                    with pytest.raises(ValueError, match="unreachable"):
                        equal(a, b)
                outcomes.add("raises")
                continue
            same = _same_web(a, b)
            assert same == keys_equal, (a, b)
            assert webs_equal(Web(*a), Web(*b)) == (canonicalize(Web(*a)) == canonicalize(Web(*b))), (a, b)
            outcomes.add(same)
        assert outcomes == {True, False, "raises"}

    def test_sl2_same_is_string_equality(self, family_webs):
        p, members = SL2, family_webs(Family((8, 8)))
        web_of = dict(members)
        outcomes = set()
        for (rows, pairs), (_, after) in zip(members, members[1:] + members[:1]):
            reflected = p.reflect(pairs)
            for a, b in ((reflected, web_of[tuple(map(tuple, _evacuate_rows(rows)))]), (reflected, after),
                         (pairs, after), (pairs, pairs)):
                same = p.same(a, b)
                assert same == (str(a) == str(b)), rows
                outcomes.add(same)
        assert outcomes == {True, False}


class TestPartsKey:
    def test_refuses_what_web_and_canonicalize_refuse(self):
        # a pipeline's parts checks what its builder gives, as Web does
        base = tripod()
        bad_color = ((BLACK, BLACK, "red"), base.internal_colors, base.edges, base.rotation)
        loop = ((BLACK,), (), ((0, 0),), ((0, 0),))
        unknown_edge = (base.boundary_colors, base.internal_colors, base.edges, ((5,),) + base.rotation[1:])
        rows = enumerate_standard(Shape((1, 1, 1)))[0].rows
        for pipeline in (SL3_STANDARD, SL3_RUSSELL):
            with pytest.raises(ValueError, match="bad color"):
                pipeline._replace(build=lambda rows: bad_color).parts(rows)
            for parts in (loop, unknown_edge):
                with pytest.raises(WebStructureError):
                    pipeline._replace(build=lambda rows, parts=parts: parts).parts(rows)
                with pytest.raises(WebStructureError):
                    canonicalize(Web(*parts))

    def test_mirror_is_the_key_of_the_reflection(self):
        for web in (tripod(), contract_pair(tripod(), 1), square_face_web()):
            parts = (web.boundary_colors, web.internal_colors, web.edges, web.rotation)
            assert _canonical(parts) == canonicalize(web)
            assert _canonical(_reflect_parts(parts)) == canonicalize(reflect_web(web))


class TestExpandContract:
    def test_all_black_expands_to_itself(self):
        exp = expand_white(tripod())
        assert exp.contractible == ()
        assert webs_equal(exp.web, tripod())

    def test_tripod_contract_then_expand_roundtrip(self):
        contracted = contract_pair(tripod(), 1)
        assert contracted.boundary_colors == (WHITE, BLACK)
        exp = expand_white(contracted)
        assert exp.contractible == (1,)
        assert exp.web.boundary_colors == (BLACK, BLACK, BLACK)
        assert webs_equal(contract_pairs(exp.web, exp.contractible), contracted)
        assert webs_equal(exp.web, tripod())

    def test_contract_requires_common_white(self):
        # vertices 2 and 3 hang from different whites
        web = Web(
            (BLACK, BLACK, BLACK, BLACK),
            (WHITE, WHITE),
            ((4, 0), (4, 1), (5, 2), (5, 3), (4, 5)),
            ((0,), (1,), (2,), (3,), (0, 1, 4), (4, 2, 3)),
        )
        with pytest.raises(ValueError, match="common white"):
            contract_pair(web, 2)

    @pytest.mark.parametrize("position", [True, 1.0, "1"])
    def test_position_that_is_not_an_integer_is_refused(self, position):
        # True was read as label 1, and 1.0 and "1" raised TypeError
        web = tymoczko_web(RowStrictTableau.from_rows(((1, 2), (3, 4), (5, 6))))
        for contract in (lambda: contract_pair(web, position), lambda: contract_pairs(web, (1, position))):
            with pytest.raises(ValueError, match=f"^bad position {position!r}; expected an integer$"):
                contract()

    def test_contract_seam_position(self):
        contracted = contract_pair(tripod(), 3)
        assert contracted.boundary_colors == (BLACK, WHITE)

    def test_one_pass_matches_one_by_one_oracle(self):
        def refusal(fn, web, positions):
            try:
                return web_to_json(fn(web, positions))
            except ValueError:
                return ValueError

        # structurally sound webs that each break a condition of a contraction
        odd = (
            Web((BLACK,) * 3, (WHITE,), ((3, 0), (3, 1), (3, 2)), ((0,), (1,), (2,), (0, 2, 1))),  # clockwise
            Web((BLACK,) * 3, (BLACK,), ((3, 0), (3, 1), (3, 2)), ((0,), (1,), (2,), (0, 1, 2))),  # black center
            Web((WHITE, BLACK), (WHITE,), ((2, 0), (2, 1)), ((0,), (1,), (0, 1))),  # white leg
            Web((BLACK, BLACK, WHITE), (), ((2, 0), (2, 1)), ((0,), (1,), (1, 0))),  # white on the boundary
            Web((BLACK, BLACK), (WHITE,), ((2, 0), (2, 1), (2, 0)), ((0, 2), (1,), (0, 1, 2))),  # double leg
            Web((BLACK,), (WHITE,), ((1, 0),), ((0,), (0,))),  # one boundary vertex, paired with itself
            # a white of degree 4, shared by the pairs (1,2) and (3,4)
            Web((BLACK,) * 4, (WHITE,), tuple((4, v) for v in range(4)), ((0,), (1,), (2,), (3,), (0, 1, 2, 3))),
        )
        for web in (tripod(), contract_pair(tripod(), 1), square_face_web(), *odd):
            labels = range(web.n_boundary + 2)
            for size in range(4):
                for positions in itertools.combinations_with_replacement(labels, size):
                    want = refusal(contract_pairs_one_by_one, web, positions)
                    assert refusal(contract_pairs, web, positions) == want, positions


class TestReflectWeb:
    def test_tripod_is_self_symmetric(self):
        assert webs_equal(reflect_web(tripod()), tripod())

    def test_reflection_is_involution_on_contracted_tripod(self):
        web = contract_pair(tripod(), 1)
        assert webs_equal(reflect_web(reflect_web(web)), web)

    def test_reflection_reverses_boundary_colors(self):
        web = contract_pair(tripod(), 1)  # (W, B)
        reflected = reflect_web(web)
        assert reflected.boundary_colors == (BLACK, WHITE)

    def test_direct_mirror_matches_expansion_oracle(self):
        webs = [russell_web(t) for k in (1, 2, 3) for h in range(3 * k // 2 + 1) for t in enumerate_russell(k, h)]
        assert len(webs) == 612  # 3 + 33 + 576 over k = 1, 2, 3
        webs += [tymoczko_web(t) for k in (3, 4) for t in enumerate_standard(Shape((k, k, k)))]
        for web in webs:
            mirrored = reflect_web(web)
            assert canonicalize(mirrored) == canonicalize(reflect_web_by_expansion(web))
            assert validate_web(mirrored) == []


class TestWebJson:
    def test_roundtrip(self):
        for web in (tripod(), contract_pair(tripod(), 1), square_face_web()):
            doc = web_to_json(web)
            assert webs_equal(web_from_json(doc), web) or web_from_json(doc) == web

    def test_rejects_bad_half_edge(self):
        doc = web_to_json(tripod())
        doc["rotation"][0] = [5]
        with pytest.raises(WebStructureError):
            web_from_json(doc)

    @pytest.mark.parametrize("name", ["b3", "i1", "x0", "b", 0, None, ["b0"]])
    def test_endpoints_are_the_names_the_writer_gives(self, name):
        # the tripod's vertices are b0, b1, b2 and i0
        doc = web_to_json(tripod())
        doc["edges"][1][1] = name
        with pytest.raises(WebStructureError, match=f"^bad endpoint {re.escape(repr(name))}$"):
            web_from_json(doc)

    @pytest.mark.parametrize("half", [-1, 0, 3, 6, 99])
    def test_half_edges_sit_where_the_writer_starts_them(self, half):
        # of the tripod's half-edges 0..5, only 1 starts at vertex 0
        doc = web_to_json(tripod())
        assert doc["rotation"][0] == [1]
        doc["rotation"][0] = [half]
        with pytest.raises(WebStructureError, match=f"^half-edge {half} does not sit at vertex 0$"):
            web_from_json(doc)

    def test_rejects_an_edge_without_two_endpoints(self):
        doc = web_to_json(tripod())
        doc["edges"][1] = ["i0"]
        with pytest.raises(WebStructureError, match="each edge must have two endpoints"):
            web_from_json(doc)

    def test_rejects_count_mismatch(self):
        doc = web_to_json(tripod())
        doc["internal_count"] = 2
        with pytest.raises(WebStructureError):
            web_from_json(doc)

    @pytest.mark.parametrize(
        "ends", [["i0", "b 1"], ["i0", "b+1"], ["i0", "b\u0661"], ["i0", "b01"], ["i 0", "b1"], ["i00", "b1"]]
    )
    def test_rejects_other_integer_spellings(self, ends):
        # int() read each of these, so they used to name i0 and b1
        doc = web_to_json(tripod())
        assert doc["edges"][1] == ["i0", "b1"]
        doc["edges"][1] = ends
        with pytest.raises(WebStructureError, match="bad endpoint"):
            web_from_json(doc)


def russell_documents() -> list[dict]:
    """The to-web document of every Russell filling with k <= 3, at every h."""
    return [web_to_json(russell_web(t))
            for k in (1, 2, 3) for h in range(3 * k // 2 + 1) for t in enumerate_russell(k, h)]


def read_outcome(reader, doc):
    """What a reader gives for a document: the Web, or its exception's type and text."""
    try:
        return reader(doc)
    except Exception as exc:  # any refusal, so that two readers' refusals compare
        return type(exc), str(exc)


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


class TestWebJsonByItems:
    """The bulk reader gives what the item-by-item reader gives: the same
    Web, or the same refusal, whose text names the first fault in document
    order."""

    def test_every_russell_document_reads_back(self):
        docs = russell_documents()
        assert len(docs) == 612
        for doc in docs:
            web = web_from_json(doc)
            assert web == web_from_json_by_items(doc) and web_to_json(web) == doc

    def test_seeded_mutations_read_as_item_by_item(self):
        rng, refusals, seen = random.Random(37), 0, 0
        for doc in russell_documents():
            for mutated in seeded_web_mutations(rng, doc, 20):
                got = read_outcome(web_from_json, mutated)
                assert got == read_outcome(web_from_json_by_items, mutated), mutated
                # as text too, as the CLI gives it
                text = json.dumps(mutated)
                assert read_outcome(web_from_json, text) == got
                refusals += isinstance(got, tuple)
                seen += 1
        assert seen == 12240 and refusals > seen // 2

    @pytest.mark.parametrize("convert", [
        lambda doc: {**doc, "edges": [[_Str(x), y] for x, y in doc["edges"]]},
        lambda doc: {**doc, "rotation": [[_Int(h) for h in halves] for halves in doc["rotation"]]},
        lambda doc: {**doc, "rotation": [_List(halves) for halves in doc["rotation"]]},
        lambda doc: {**doc, "edges": _List(map(_List, doc["edges"])), "boundary": [_Dict(c) for c in doc["boundary"]]},
        lambda doc: {**doc, "rotation": [[True if h == 1 else h for h in halves] for halves in doc["rotation"]]},
        lambda doc: {**doc, "rotation": [*doc["rotation"][:-1], [doc["rotation"][-1][0]] * 3]},
        lambda doc: {**doc, "rotation": [*doc["rotation"][:-1], doc["rotation"][0]]},
        lambda doc: {**doc, "rotation": [[h - 2 * len(doc["edges"]) for h in halves] for halves in doc["rotation"]]},
        lambda doc: {**doc, "rotation": [*doc["rotation"], "ab"]},
        lambda doc: {**doc, "rotation": [*doc["rotation"][:-1], {}]},
        lambda doc: {**doc, "edges": [*doc["edges"], ["b0", "b1", "b2"]]},
        lambda doc: {**doc, "edges": [doc["edges"][0][:1], [doc["edges"][0][1], *doc["edges"][1]], *doc["edges"][2:]]},
        lambda doc: {**doc, "edges": [*doc["edges"], [["b0"], "b0"]]},
        lambda doc: _Dict(doc),
    ], ids=["str endpoint subclass", "int half subclass", "list rotation subclass", "list and dict subclasses",
            "bool half-edge", "half listed thrice", "rotation of vertex 0 repeated last", "negative halves",
            "string rotation entry", "object rotation entry", "three endpoints", "one and three endpoints",
            "unhashable endpoint", "dict document subclass"])
    def test_subclasses_and_other_types_read_as_item_by_item(self, convert):
        docs = [web_to_json(russell_web(t)) for t in enumerate_russell(3, 2)[:12]]
        for doc in docs:
            doc = convert(doc)
            assert read_outcome(web_from_json, doc) == read_outcome(web_from_json_by_items, doc)

    def test_typed_items_reads_as_item_by_item(self):
        pool = [0, 7, -1, True, False, 1.0, "a", "", None, [], [1], {}, {"a": 1}, _Int(3), _Str("x"), _List(), _Dict()]
        rng = random.Random(5)
        for _ in range(3000):
            kind = rng.choice([int, str, list, dict])
            value = rng.choice([[rng.choice(pool) for _ in range(rng.randrange(4))], rng.choice(pool), _List([1, 2])])
            got = read_outcome(lambda v: tableau._typed_items(v, kind, "x"), value)
            assert got == read_outcome(lambda v: typed_items_by_items(v, kind, "x"), value), (kind, value)


def _refuse_every_web(parts) -> None:
    raise ValueError("seeded")


def _pass_every_web(parts) -> None:
    pass


class TestOneGate:
    """A Web is checked once, by its constructor, and the plain fields of a
    pipeline once, by its parts; the functions that take a Web trust it, and
    a pipeline's key, reflection, defects and inverse trust what parts
    gives."""

    @pytest.fixture
    def gate_calls(self, monkeypatch):
        # the pipelines hold the gate itself, so their copies are counted too
        calls = []
        real = webcore._check_structure
        assert SL3_STANDARD.check is SL3_RUSSELL.check is real

        def counted(parts):
            calls.append(parts)
            return real(parts)

        monkeypatch.setattr(webcore, "_check_structure", counted)
        for name in ("SL3_STANDARD", "SL3_RUSSELL"):
            monkeypatch.setattr(bijection, name, getattr(bijection, name)._replace(check=counted))
        return calls

    @pytest.fixture
    def pairs_calls(self, monkeypatch):
        calls = []
        real = webcore._check_pairs

        def counted(n, pairs):
            calls.append(pairs)
            return real(n, pairs)

        for module in (webcore, bijection):
            monkeypatch.setattr(module, "_check_pairs", counted)
        return calls

    def test_each_built_web_is_checked_once(self, gate_calls):
        standard, russell = enumerate_standard(Shape((3, 3, 3)))[5], enumerate_russell(3, 2)[7]
        web, tri = russell_web(russell), tripod()
        doc = web_to_json(web)
        builds = {
            "russell_web": lambda: russell_web(russell),
            "tymoczko_web": lambda: tymoczko_web(standard),
            "web_from_json": lambda: web_from_json(doc),
            "reflect_web": lambda: reflect_web(web),
            "contract_pairs": lambda: contract_pairs(tri, (1,)),
        }
        for name, build in builds.items():
            gate_calls.clear()
            built = build()
            assert gate_calls == [_fields(built)], name

    def test_functions_that_take_a_web_check_nothing(self, gate_calls):
        web = russell_web(enumerate_russell(3, 2)[7])
        gate_calls.clear()
        canonicalize(web)
        assert validate_web(web) == []
        assert webs_equal(web, web)
        assert gate_calls == []

    def test_kernels_on_plain_fields_check_once(self, gate_calls, pairs_calls, monkeypatch, capsys):
        # each pipeline's parts checks once; its key, reflection, defects and
        # inverse check nothing; to-web --canonical checks its matching once,
        # when the Matching is made
        standard, russell = enumerate_standard(Shape((3, 3, 3)))[5], enumerate_russell(3, 2)[7]
        two_row = enumerate_standard(Shape((4, 4)))[5]
        cases = [(bijection.SL3_STANDARD, standard, gate_calls), (bijection.SL3_RUSSELL, russell, gate_calls),
                 (bijection.SL2, two_row, pairs_calls)]
        for p, t, calls in cases:
            calls.clear()
            parts = p.parts(t.rows)
            assert calls == [parts], p
            calls.clear()
            p.key(parts)
            p.key(p.reflect(parts))
            assert p.defects(parts) == []
            assert p.inverse(parts) == t.rows
            assert calls == [], p
        pairs_calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(format_tableau(two_row)))
        assert cli.main(["to-web", "--canonical"]) == 0
        assert capsys.readouterr().out == SL2.key(SL2.build(two_row.rows)) + "\n"
        assert pairs_calls == [SL2.build(two_row.rows)]

    def test_tableau_of_web_checks_its_web_once(self, gate_calls):
        # the input web was checked when it was made; the one check is of
        # the round trip's fields, and no second Web is built
        t = enumerate_russell(3, 2)[7]
        web = russell_web(t)
        gate_calls.clear()
        tableau_of_web(web)
        assert gate_calls == [bijection._russell_parts(t.rows)]

    def test_tableau_of_web_checks_its_matching_once(self, pairs_calls):
        # likewise, the one check is of the round trip's pairs
        m = web_of_2row(enumerate_standard(Shape((4, 4)))[5])
        pairs_calls.clear()
        tableau_of_web(m)
        assert pairs_calls == [m.pairs]

    @pytest.mark.parametrize("seeded, outcome", [(_refuse_every_web, (ValueError, "seeded")), (_pass_every_web, None)])
    def test_web_and_pipelines_hold_one_gate(self, seeded, outcome, monkeypatch):
        # a gate seeded to refuse every web, or to pass every web, float ids
        # included, decides for a Web and for both sl3 pipelines: no other
        # check runs beside it
        assert SL3_STANDARD.check is SL3_RUSSELL.check is webcore._check_structure
        sound = _fields(tripod())
        (a, b), *edges = sound[2]
        float_id = (*sound[:2], ((float(a), b), *edges), sound[3])
        monkeypatch.setattr(webcore._check_structure, "__code__", seeded.__code__)
        for fields in (sound, float_id):
            for gate in (lambda f: Web(*f), SL3_STANDARD.check, SL3_RUSSELL.check):
                assert first_fault(gate, fields) == outcome

    @pytest.mark.parametrize("family", [Family((5, 5, 5)), Family((4, 4, 4), "all")], ids=Family.describe)
    def test_one_gate_matches_the_passes_oracle(self, family, family_webs):
        # every web of the family, each also with one seeded fault and every
        # fourth with a second, so that the first of two faults is named:
        # Web and the family's pipeline check give the oracle's outcome and
        # message (both pipelines hold the one gate)
        rng = random.Random(family.describe())
        p, faults = family.pipeline, set()
        for _, parts in family_webs(family):
            variants = [parts, mutate_web_parts(rng, parts)]
            if not rng.randrange(4):
                variants.append(mutate_web_parts(rng, variants[-1]))
            for fields in variants:
                want = first_fault(web_gate_by_passes, fields)
                for gate in (lambda f: Web(*f), p.check):
                    assert first_fault(gate, fields) == want, fields
                faults.add(want and " ".join(want[1].split()[:2]))
        assert {None, "bad id", "bad color", "rotation lists"} <= faults

    def test_web_defects_is_validate_web_on_plain_fields(self):
        webs = [tripod(), contract_pair(tripod(), 1), square_face_web()]
        webs += [russell_web(t) for t in enumerate_russell(2, 1)]
        for web in webs:
            assert SL3_RUSSELL.defects(_fields(web)) == _defects(_fields(web)) == validate_web(web)

    def test_structure_refusals(self):
        # the gate's refusals that no builder of the library can reach
        base = tripod()
        with pytest.raises(WebStructureError, match="rotation lists 3 vertices, web has 4"):
            Web(base.boundary_colors, base.internal_colors, base.edges, base.rotation[:3])
        with pytest.raises(WebStructureError, match="edge 0 endpoint out of range"):
            Web(base.boundary_colors, base.internal_colors, ((0, 4),) + base.edges[1:], base.rotation)
        swapped = (base.rotation[1], base.rotation[0]) + base.rotation[2:]
        with pytest.raises(WebStructureError, match=r"edge 0 incidences \[1, 3\] disagree with endpoints \(3, 0\)"):
            Web(base.boundary_colors, base.internal_colors, base.edges, swapped)

    def test_malformed_web_is_refused_at_construction(self):
        base = tripod()
        with pytest.raises(WebStructureError, match="loop"):
            Web((BLACK,), (), ((0, 0),), ((0, 0),))
        with pytest.raises(WebStructureError, match="unknown edge"):
            Web(base.boundary_colors, base.internal_colors, base.edges, ((5,),) + base.rotation[1:])
        with pytest.raises(ValueError, match="bad color 'red'"):
            Web((BLACK, BLACK, "red"), base.internal_colors, base.edges, base.rotation)

    @pytest.mark.parametrize(
        "edges, rotation, bad",
        [
            (((0.6, 1.2),), ((0.4,), (0,)), 0.6),  # used to become edge (0, 1)
            (((0, 1),), ((0.0,), (0,)), 0.0),
            (((False, True),), ((0,), (0,)), False),
            (((0, 1),), ((0,), (False,)), False),
            (((0.0, 1),), ((0,), (0,)), 0.0),
        ],
    )
    def test_non_integer_ids_are_refused(self, edges, rotation, bad):
        with pytest.raises(ValueError, match=f"bad id {bad!r}"):
            Web((BLACK, WHITE), (), edges, rotation)
