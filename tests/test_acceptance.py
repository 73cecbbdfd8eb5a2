"""Acceptance suite: exact worked-example reproduction plus exhaustive
property verification at desk scale.  One pass/fail line prints per criterion
(run with -s to see them)."""
import json
import random
import time

from oracles import all_row_strict_fillings, random_skew_tableau, rectify_random_order

from webweave.bijection import (
    catalan_pairing,
    find_crossings,
    m_diagram,
    russell_web,
    tymoczko_web,
    web_of_2row,
)
from webweave.cli import main
from webweave.jdt import (
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
    RowStrictTableau,
    Shape,
    count_standard,
    enumerate_russell,
    enumerate_standard,
    format_tableau,
    parse_tableau,
    standardize,
    rotate_complement,
    tableau_from_cells,
)
from webweave.webcore import (
    BLACK,
    WHITE,
    canonicalize,
    reflect_matching,
    reflect_web,
    validate_web,
    web_from_json,
    webs_equal,
)

T = RowStrictTableau.from_rows


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def families_2_to_4():
    """The verification families of criteria 2-4, keyed for reporting."""
    fams = [(("standard", (n, n)), enumerate_standard(Shape((n, n)))) for n in range(1, 9)]
    fams += [(("standard", (k, k, k)), enumerate_standard(Shape((k, k, k)))) for k in range(1, 5)]
    for k in range(1, 4):
        for h in range(3 * k // 2 + 1):
            family = enumerate_russell(k, h)
            assert family, f"russell k={k} h={h} grows no filling"
            fams.append((("russell", (k, k, k), h), family))
    return fams


def test_criterion_1_worked_examples():
    start = time.monotonic()
    skew = tableau_from_cells

    jdt_in = skew({(1, 2): 1, (1, 3): 3, (2, 1): 1, (2, 2): 2, (2, 3): 3, (3, 1): 3})
    jdt_out = skew({(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 1, (2, 2): 3, (3, 1): 3})
    assert jdt_slide(jdt_in, (1, 1)) == jdt_out

    t = T([[1, 3, 4], [2, 3], [4, 5]])
    d1 = delta(t)
    d2 = delta(d1)
    d3 = delta(d2)
    d4 = delta(d3)
    assert d1 == T([[1, 2, 3], [2, 4], [3]])
    assert d2 == T([[1, 2], [1, 3], [2]])
    assert d3 == T([[1, 2], [1]])
    assert d4 == T([[1]])
    assert evacuate(t) == T([[1, 2, 4], [2, 3], [3, 5]])

    assert standardize(T([[1, 2], [1, 3], [3, 4]])) == T([[1, 3], [2, 4], [5, 6]])

    lemma_t = T([[1, 2, 3, 5], [1, 2, 4, 6], [3, 5, 7, 8]])
    assert rotate_complement(lemma_t, 8) == T([[1, 2, 4, 6], [3, 5, 7, 8], [4, 6, 7, 8]])
    assert evacuate(lemma_t) == rotate_complement(lemma_t, 8)

    u = standardize(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]]))
    assert u == T([[1, 3, 4], [2, 6, 7], [5, 8, 9]])
    assert catalan_pairing(u.rows[0], u.rows[1]) == ((1, 2), (3, 7), (4, 6))
    assert catalan_pairing(u.rows[1], u.rows[2]) == ((2, 5), (6, 9), (7, 8))
    diagram = m_diagram(u)
    assert {(a.left, a.right) for a in diagram.arcs} == {
        (1, 2), (2, 5), (4, 6), (6, 9), (3, 7), (7, 8),
    }
    assert len(find_crossings(diagram)) == 3
    web = russell_web(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]]))
    assert web.boundary_colors == (WHITE, BLACK, WHITE, BLACK, BLACK, BLACK, BLACK)

    assert evacuate(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])) == T([[1, 2, 5], [3, 4, 7], [5, 6, 7]])

    elapsed = time.monotonic() - start
    report(1, elapsed < 1.0, f"worked examples bit-exact in {elapsed:.3f}s (< 1s)")


def test_criterion_2_theorem_sl2():
    start = time.monotonic()
    total = failures = 0
    for n in range(1, 9):
        for t in enumerate_standard(Shape((n, n))):
            total += 1
            if reflect_matching(web_of_2row(t)) != web_of_2row(evacuate(t)):
                failures += 1
    elapsed = time.monotonic() - start
    report(
        2,
        failures == 0 and elapsed < 10.0,
        f"sl2 reflection=evacuation on {total} tableaux, {failures} failures, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_theorem_sl3_standard():
    start = time.monotonic()
    total = failures = 0
    for k in range(1, 5):
        for t in enumerate_standard(Shape((k, k, k))):
            total += 1
            if canonicalize(reflect_web(tymoczko_web(t))) != canonicalize(tymoczko_web(evacuate(t))):
                failures += 1
    elapsed = time.monotonic() - start
    report(
        3,
        failures == 0 and total == 1 + 5 + 42 + 462 and elapsed < 60.0,
        f"sl3 standard theorem on {total} tableaux, {failures} failures, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_4_theorem_russell():
    start = time.monotonic()
    total = failures = 0
    for k in range(1, 4):
        for h in range(3 * k // 2 + 1):
            for t in enumerate_russell(k, h):
                total += 1
                if canonicalize(reflect_web(russell_web(t))) != canonicalize(russell_web(evacuate(t))):
                    failures += 1
    elapsed = time.monotonic() - start
    report(
        4,
        failures == 0 and elapsed < 60.0,
        f"Russell theorem on {total} tableaux over every repetition, {failures} failures, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_5_lemma():
    failures = total = 0
    for _, tableaux in families_2_to_4():
        for t in tableaux:
            total += 1
            if evacuate(t) != rotate_complement(t, t.max_entry):
                failures += 1
    for shape in [(2, 2), (2, 2, 2)]:
        for t in all_row_strict_fillings(shape, 4):
            total += 1
            if evacuate(t) != rotate_complement(t, t.max_entry):
                failures += 1
    report(5, failures == 0, f"evacuation = rotate+complement on {total} rectangular tableaux, {failures} failures")


def test_criterion_6_involution():
    failures = total = 0
    for _, tableaux in families_2_to_4():
        for t in tableaux:
            total += 1
            if evacuate(evacuate(t)) != t:
                failures += 1
    report(6, failures == 0, f"evacuation involution on {total} tableaux, {failures} failures")


def test_criterion_7_jdt_properties():
    rng = random.Random(20250811)
    samples = [random_skew_tableau(rng) for _ in range(100)]

    order_failures = 0
    for t in samples:
        reference = rectify(t)
        if any(rectify_random_order(t, rng) != reference for _ in range(20)):
            order_failures += 1

    slide_failures = 0
    for t in samples:
        m = t.shape.outer.row(1) + 1
        before = gk_profile(reading_word(t), m)
        for target in slide_targets(t):
            if gk_profile(reading_word(jdt_slide(t, target)), m) != before:
                slide_failures += 1

    column_failures = checked = 0
    for _, tableaux in families_2_to_4():
        for t in tableaux:
            checked += 1
            if gk_profile_of_tableau(t).increments() != column_lengths(t.shape.outer):
                column_failures += 1

    ok = order_failures == 0 and slide_failures == 0 and column_failures == 0
    report(
        7,
        ok,
        "rectification order-independence (100 tableaux x 20 orders), slide-invariant "
        f"profiles, column fact on {checked} tableaux: "
        f"{order_failures}+{slide_failures}+{column_failures} failures",
    )


def test_criterion_8_validity_and_injectivity():
    failures = []
    for key, tableaux in families_2_to_4():
        kind = key[0]
        shape = key[1]
        seen = set()
        for t in tableaux:
            if len(shape) == 2:
                web = web_of_2row(t)
                encoding = str(web.pairs)
            else:
                web = russell_web(t) if kind == "russell" else tymoczko_web(t)
                bad = validate_web(web)
                if bad:
                    failures.append(f"{key}: invalid web for {t.rows}: {bad}")
                encoding = canonicalize(web)
            if encoding in seen:
                failures.append(f"{key}: duplicate web for {t.rows}")
            seen.add(encoding)
        if kind == "standard" and len(seen) != count_standard(Shape(shape)):
            failures.append(f"{key}: {len(seen)} webs vs hook count {count_standard(Shape(shape))}")
        if kind == "russell" and len(seen) != len(tableaux):
            failures.append(f"{key}: {len(seen)} webs vs {len(tableaux)} tableaux")
    report(8, not failures, f"validity + injectivity across families: {len(failures)} failures")


def test_criterion_9_gk_fixture():
    got = gk_profile((5, 6, 8, 3, 4, 7, 2, 2, 5, 1, 1, 3), 4).values
    report(9, got == (3, 6, 9, 12), f"gk_profile(568347225113, 4) = {got}")


def test_criterion_10_cli_contract(capsys, monkeypatch):
    fixtures = []
    fixtures += enumerate_standard(Shape((3, 3)))          # 5
    fixtures += enumerate_standard(Shape((2, 2, 2)))       # 5
    fixtures += enumerate_standard(Shape((4, 4)))[:10]     # 10
    for h in range(0, 4):
        fixtures += enumerate_russell(2, h)
    fixtures = fixtures[:50]
    assert len(fixtures) == 50

    roundtrip_failures = 0
    for t in fixtures:
        if parse_tableau(format_tableau(t)) != t:
            roundtrip_failures += 1
            continue
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(format_tableau(t)))
        code = main(["to-web"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        if len(t.rows) == 2:
            rebuilt = web_of_2row(t)
            if doc != {"n": rebuilt.n, "pairs": [list(p) for p in rebuilt.pairs]}:
                roundtrip_failures += 1
        else:
            web = russell_web(t) if russell_needed(t) else tymoczko_web(t)
            if code != 0 or not webs_equal(web_from_json(out), web):
                roundtrip_failures += 1

    code = main(["verify", "--shape", "3,3,3", "--check", "theorem"])
    out = capsys.readouterr().out
    verify_ok = code == 0 and "total 42" in out

    ok = roundtrip_failures == 0 and verify_ok
    report(
        10,
        ok,
        f"50 fixture round trips ({roundtrip_failures} failures); "
        f"verify --shape 3,3,3 --check theorem exit {code} with {out.strip()!r}",
    )


def russell_needed(t):
    return any(v for v in t.values() if t.values().count(v) == 2)
