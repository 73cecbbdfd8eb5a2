import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evacuate_by_cells, random_filling, seeded_web_mutations, web_from_json_by_items
from test_webcore import russell_documents, square_face_web
from webweave import cli, verify
from webweave.cli import main
from webweave.render import render_matching_svg
from webweave.tableau import RowStrictTableau, Shape, enumerate_standard, format_tableau, parse_tableau
from webweave.webcore import canonicalize, matching_to_json, web_from_json, web_to_json, webs_equal
from webweave.bijection import russell_web, web_of_2row
from webweave.verify import Family

T = RowStrictTableau.from_rows


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args, stdin=""):
    """Run a fresh interpreter on the library in ./src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def run_process(argv, stdin):
    """Run the CLI in a fresh interpreter, so an escaping exception would show
    as a traceback on stderr rather than fail the test process."""
    return run_python(["-m", "webweave.cli", *argv], stdin)


def call_main(argv, stdin=""):
    """One in-process main call with stdin, stdout and stderr swapped."""
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = real_stdin
    return code, out.getvalue(), err.getvalue()


class TestEvacuateCommand:
    def test_paper_example(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["evacuate"], "1 3 4\n2 3\n4 5", monkeypatch)
        assert code == 0
        assert out.strip() == "1 2 4\n2 3\n3 5"

    def test_single_box(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["evacuate"], "1", monkeypatch)
        assert code == 0
        assert out.strip() == "1"

    def test_final_example(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["evacuate"], "1 2 3\n1 4 5\n3 6 7", monkeypatch)
        assert code == 0
        assert out.strip() == "1 2 5\n3 4 7\n5 6 7"

    def test_parse_error_exits_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["evacuate"], "1 x", monkeypatch)
        assert code == 2
        assert "line 1" in err


class TestIntegerSpellings:
    """Each integer on the command line is spelled one way: int() alone would
    also read '_', '+', spaces and non-ASCII digits, and so did the CLI."""

    @pytest.mark.parametrize("shape", ["1_0,1", " 2,+2", "\u0663,\u0663", "03,3"])
    def test_shape(self, capsys, monkeypatch, shape):
        code, _, err = run(capsys, ["verify", "--shape", shape, "--check", "lemma"], monkeypatch=monkeypatch)
        assert code == 2
        assert f"bad shape {shape!r}" in err

    @pytest.mark.parametrize("repetition", ["+1", "01", "\u0661", "0_1"])
    def test_repetition(self, capsys, monkeypatch, repetition):
        argv = ["verify", "--shape", "2,2,2", "--repetition", repetition, "--check", "lemma"]
        code, _, err = run(capsys, argv, monkeypatch=monkeypatch)
        assert code == 2
        assert f"bad repetition {repetition!r}" in err

    @pytest.mark.parametrize("jobs", ["+1", "01", "\u0661", "0_1"])
    def test_jobs(self, capsys, monkeypatch, jobs):
        argv = ["verify", "--shape", "2,2", "--check", "lemma", "--jobs", jobs]
        code, _, err = run(capsys, argv, monkeypatch=monkeypatch)
        assert code == 2
        assert f"bad jobs {jobs!r}" in err

    @pytest.mark.parametrize("seconds", ["inf", "1e400", "1_0", " +1", "\u0661", "-0"])
    def test_max_seconds(self, capsys, monkeypatch, seconds):
        # float() read each of these; 'inf' lifted the size bounds with no budget
        argv = ["verify", "--shape", "3,3", "--check", "lemma", "--max-seconds", seconds]
        code, out, err = run(capsys, argv, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert f"bad max_seconds {seconds!r}" in err

    def test_max_seconds_past_the_largest_float(self, capsys, monkeypatch):
        # spelled as the rule asks, but float() reads it as inf
        argv = ["verify", "--shape", "3,3", "--check", "lemma", "--max-seconds", "1" + "0" * 400]
        code, out, err = run(capsys, argv, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "error: max_seconds must be a number of seconds >= 0, got inf\n"

    def test_tableau_entry(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["evacuate"], "1_0 11", monkeypatch)
        assert code == 2 and out == ""
        assert err == "error: line 1: bad entry '1_0'; expected an integer\n"

    def test_spaces_around_shape_parts(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["verify", "--shape", " 3, 3 ", "--check", "lemma"], monkeypatch=monkeypatch)
        assert code == 0
        assert "total 5" in out


class TestStandardizeCommand:
    def test_example(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["standardize"], "1 2\n1 3\n3 4", monkeypatch)
        assert code == 0
        assert out.strip() == "1 3\n2 4\n5 6"

    def test_rejects_non_russell(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["standardize"], "1 2\n3 4", monkeypatch)
        assert code == 2
        assert "3-row" in err


class TestToWebCommand:
    def test_two_row_matching_json(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["to-web"], "1 3\n2 4", monkeypatch)
        assert code == 0
        assert json.loads(out) == {"n": 2, "pairs": [[1, 2], [3, 4]]}

    def test_russell_web_boundary_colors(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["to-web"], "1 2 3\n1 4 5\n3 6 7", monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert [b["color"] for b in doc["boundary"]] == [
            "white", "black", "white", "black", "black", "black", "black",
        ]

    def test_single_column_pair(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["to-web"], "1\n2", monkeypatch)
        assert code == 0
        assert json.loads(out) == {"n": 1, "pairs": [[1, 2]]}

    def test_canonical_flag(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["to-web", "--canonical"], "1\n2\n3", monkeypatch)
        assert code == 0
        assert out.startswith("BBB|")

    @pytest.mark.parametrize("family", [Family((4, 4)), Family((2, 2, 2), "all")], ids=Family.describe)
    def test_canonical_is_the_pipeline_key(self, family, capsys, monkeypatch):
        # one key format: the CLI prints what the family's pipeline keys
        p = family.pipeline
        for t in family.tableaux():
            code, out, _ = run(capsys, ["to-web", "--canonical"], format_tableau(t), monkeypatch)
            assert code == 0
            assert out == p.key(p.parts(t.rows)) + "\n"

    def test_roundtrip_through_json(self, capsys, monkeypatch):
        t = T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])
        code, out, _ = run(capsys, ["to-web"], "1 2 3\n1 4 5\n3 6 7", monkeypatch)
        assert code == 0
        assert webs_equal(web_from_json(out), russell_web(t))


class TestReflectCommand:
    def test_matching(self, capsys, monkeypatch):
        doc = json.dumps({"n": 3, "pairs": [[2, 3], [1, 4], [5, 6]]})
        code, out, _ = run(capsys, ["reflect"], doc, monkeypatch)
        assert code == 0
        assert json.loads(out)["pairs"] == [[1, 2], [3, 6], [4, 5]]

    def test_web_roundtrip_involution(self, capsys, monkeypatch):
        t = T([[1, 2, 3], [1, 4, 5], [3, 6, 7]])
        web = russell_web(t)
        doc = json.dumps(web_to_json(web))
        code, out, _ = run(capsys, ["reflect"], doc, monkeypatch)
        assert code == 0
        code, out2, _ = run(capsys, ["reflect"], out, monkeypatch)
        assert code == 0
        assert webs_equal(web_from_json(out2), web)

    def test_invalid_web_exits_2(self):
        doc = {"boundary": [{"color": "black"}], "internal_count": 0, "internal_colors": [], "edges": [],
               "rotation": [[]]}
        code, _, err = run_process(["reflect"], json.dumps(doc))
        assert code == 2
        assert err.startswith("error:") and "degree 0" in err
        assert "Traceback" not in err

    def test_valid_structure_invalid_web_exits_2(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["reflect"], json.dumps(web_to_json(square_face_web())), monkeypatch)
        assert code == 2 and out == ""
        assert err == "error: cannot reflect an invalid web: internal face of size 4 < 6\n"

    @pytest.mark.parametrize(
        "doc, says",
        [
            pytest.param(doc, says, id=doc)
            for doc, says in (
                ('{"n":2,"pairs":5}', "pairs must be an array"),
                ("[1,2]", "must be an object"),
                ("null", "must be an object"),
                ('{"boundary":3}', "boundary must be an array"),
                ('{"n":2}', "no 'boundary' field"),
                ('{"pairs":[[1,2]]}', "no 'n' field"),
                ('{"boundary":[{}]}', "no 'color' field"),
                ('{"boundary":[{"color":"black"}],"internal_count":0,"internal_colors":[],"edges":[["","b0"]]}',
                 "bad endpoint ''"),
                ('{"boundary":[{"color":"black"}],"internal_count":0,"internal_colors":[],"edges":[["b","b0"]]}',
                 "bad endpoint 'b'"),
                ('{"boundary":[{"color":"black"}],"internal_count":0,"internal_colors":[],"edges":[["b01","b0"]]}',
                 "bad endpoint 'b01'"),
                ('{"boundary":[{"color":"black"}],"internal_count":0,"internal_colors":[],"edges":[["b01","b0"]],'
                 '"rotation":[[0]]}', "bad endpoint 'b01'"),
                ('{"boundary":[{"color":"black"}],"internal_count":0,"internal_colors":[],"edges":[["b0"]]}',
                 "each edge must have two endpoints"),
                ('{"n":-1,"pairs":[]}', "pairs do not partition"),
                ('{"n":1,"pairs":[[1]]}', "each pair must have two points"),
            )
        ],
    )
    def test_malformed_document_exits_2(self, doc, says):
        code, _, err = run_process(["reflect"], doc)
        assert code == 2
        assert err.startswith("error:") and says in err
        assert "Traceback" not in err

    def test_reflect_answers_as_with_the_item_by_item_reader(self, monkeypatch):
        # every Russell document of k <= 3 as written, and one seeded
        # mutation of each: exit code, stdout and stderr
        rng, texts = random.Random(11), []
        for doc in russell_documents():
            texts += [json.dumps(doc), *map(json.dumps, seeded_web_mutations(rng, doc, 1))]
        got = [call_main(["reflect"], text) for text in texts]
        monkeypatch.setattr(cli, "web_from_json", web_from_json_by_items)
        assert [call_main(["reflect"], text) for text in texts] == got
        codes = [code for code, _, _ in got]
        assert len(codes) == 1224 and codes.count(0) >= 612 and codes.count(2) > 300 and set(codes) == {0, 2}


class TestEnumerateCommand:
    def test_count_on_stderr(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["enumerate", "--shape", "3,3"], monkeypatch=monkeypatch)
        assert code == 0
        assert "total 5" in err
        blocks = [b for b in out.strip().split("\n\n") if b]
        assert len(blocks) == 5
        assert all(parse_tableau(b) in enumerate_standard(Shape((3, 3))) for b in blocks)

    def test_non_rectangular_standard_shape(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["enumerate", "--shape", "3,2"], monkeypatch=monkeypatch)
        assert code == 0
        assert "total 5" in err

    def test_all_repetitions_match_family(self, capsys, monkeypatch):
        argv = ["enumerate", "--shape", "2,2,2", "--repetition", "all"]
        code, _, err = run(capsys, argv, monkeypatch=monkeypatch)
        assert code == 0
        assert f"total {len(Family((2, 2, 2), 'all').tableaux())}" in err

    def test_russell_json(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["enumerate", "--shape", "1,1,1", "--repetition", "1", "--json"], monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out) == [{"rows": [[1], [1], [2]]}, {"rows": [[1], [2], [2]]}]


class TestVerifyCommand:
    def test_theorem_3x3(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["verify", "--shape", "3,3", "--check", "theorem"], monkeypatch=monkeypatch
        )
        assert code == 0
        assert "total 5" in out

    def test_json_report(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["verify", "--shape", "2,2,2", "--repetition", "all", "--check", "involution", "--json"],
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == []
        assert doc["total"] > 5

    @pytest.mark.parametrize("command", [["verify", "--check", "theorem"], ["enumerate"]])
    def test_impossible_repetition_exits_2(self, capsys, monkeypatch, command):
        argv = command + ["--shape", "3,3,3", "--repetition", "8"]
        code, out, err = run(capsys, argv, monkeypatch=monkeypatch)
        assert code == 2
        assert "out of range" in err and "total" not in out + err

    def test_out_of_bounds_family_refused(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, ["verify", "--shape", "9,9", "--check", "theorem"], monkeypatch=monkeypatch
        )
        assert code == 2
        assert "bounded" in err

    def test_no_doubled_value_runs_as_standard(self, capsys, monkeypatch):
        # h = 0 holds the standard tableaux, so it has their bound and report
        docs = []
        for repetition in ([], ["--repetition", "0"]):
            argv = ["verify", "--shape", "5,5,5", *repetition, "--check", "theorem", "--json"]
            code, out, _ = run(capsys, argv, monkeypatch=monkeypatch)
            assert code == 0
            docs.append(json.loads(out))
            del docs[-1]["elapsed_ms"]
        assert [doc.pop("family") for doc in docs] == ["standard(5,5,5)", "russell(5,5,5, h=0)"]
        assert docs[0] == docs[1] and docs[0]["total"] == 6006

    def test_no_doubled_value_keeps_the_standard_bound(self, capsys, monkeypatch):
        argv = ["verify", "--shape", "6,6,6", "--repetition", "0", "--check", "theorem"]
        code, out, err = run(capsys, argv, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "error: russell(6,6,6, h=0): its kind is bounded at side <= 5 without a time budget\n"

    def test_nan_budget_exits_2(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["verify", "--shape", "9,9", "--check", "lemma", "--max-seconds", "nan"],
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "nan" in err

    def test_negative_budget_exits_2(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["verify", "--shape", "10,10", "--check", "theorem", "--max-seconds", "-1"],
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "max_seconds" in err and "enumeration" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_budget_covers_growing(self, jobs):
        # (12,12) has 208,012 tableaux; the budget trips while they are grown
        start = time.monotonic()
        code, out, err = run_process(
            ["verify", "--shape", "12,12", "--check", "involution", "--max-seconds", "0.2", "--jobs", jobs], ""
        )
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert "exceeded 0.2s" in err and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, monkeypatch, jobs):
        code, out, err = run(
            capsys, ["verify", "--shape", "3,3", "--check", "theorem", "--jobs", jobs], monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err == f"error: jobs must be at least 1, got {jobs}\n"

    def test_failures_print_fail_lines_and_exit_1(self, capsys, monkeypatch):
        # one tableau's build is seeded to cross; the summary goes to stdout
        # and each record to stderr
        victim = T([[1, 2, 3], [4, 5, 6]])
        crossing, kind = ((1, 3), (2, 5), (4, 6)), verify._KINDS[2, False]

        def build(rows):
            return crossing if rows == victim.rows else kind.pipeline.build(rows)

        monkeypatch.setitem(verify._KINDS, (2, False), kind._replace(pipeline=kind.pipeline._replace(build=build)))
        code, out, err = run(capsys, ["verify", "--shape", "3,3", "--check", "validity"], monkeypatch=monkeypatch)
        assert code == 1
        assert out.startswith("check validity over standard(3,3): total 5, 1 FAILURES, ")
        record = {"tableau": "1 2 3\n4 5 6", "reading_word": [3, 6, 2, 5, 1, 4], "expected": "",
                  "actual": "pairs (1,3) and (2,5) cross"}
        assert err == f"FAIL {record}\n"

    def test_bad_check_name(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, ["verify", "--shape", "2,2", "--check", "nonsense"], monkeypatch=monkeypatch
        )
        assert code == 2


class TestRenderCommand:
    def test_tripod_svg(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["render"], "1\n2\n3", monkeypatch)
        assert code == 0
        assert out.startswith("<svg")
        assert out.count("<circle") >= 4  # 3 boundary dots + internal white + frame

    def test_mdiagram_stage(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["render", "--stage", "mdiagram"], "1 3 4\n2 6 7\n5 8 9", monkeypatch)
        assert code == 0
        assert out.count("<path") == 6

    def test_deterministic_bytes(self, capsys, monkeypatch):
        _, first, _ = run(capsys, ["render"], "1 2 3\n1 4 5\n3 6 7", monkeypatch)
        _, second, _ = run(capsys, ["render"], "1 2 3\n1 4 5\n3 6 7", monkeypatch)
        assert first == second

    def test_well_formed_xml(self, capsys, monkeypatch):
        import xml.etree.ElementTree as ET

        _, out, _ = run(capsys, ["render"], "1 2\n3 4", monkeypatch)
        ET.fromstring(out)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matching_is_drawn_as_an_all_black_web(self, n):
        import xml.etree.ElementTree as ET

        svg = ET.fromstring(render_matching_svg(web_of_2row(enumerate_standard(Shape((n, n)))[-1])))
        ns = "{http://www.w3.org/2000/svg}"
        assert len(svg.findall(ns + "line")) == n
        frame, *dots = svg.findall(ns + "circle")
        assert frame.get("fill") == "none"
        assert [dot.get("fill") for dot in dots] == ["#000000"] * (2 * n)
        assert sorted(int(label.text) for label in svg.findall(ns + "text")) == list(range(1, 2 * n + 1))

    def test_input_and_output_files(self, capsys, monkeypatch, tmp_path):
        # --input reads the file, not stdin; --output writes the file, not stdout
        source, target = tmp_path / "t.txt", tmp_path / "t.svg"
        source.write_text("1 2 3\n1 4 5\n3 6 7", encoding="utf-8")
        _, want, _ = run(capsys, ["render"], "1 2 3\n1 4 5\n3 6 7", monkeypatch)
        code, out, err = run(capsys, ["render", "--input", str(source), "--output", str(target)], "", monkeypatch)
        assert (code, out, err) == (0, "", "")
        assert target.read_text(encoding="utf-8") == want
        code, out, _ = run(capsys, ["to-web", "--canonical", "--input", str(source)], "", monkeypatch)
        assert code == 0 and out == canonicalize(russell_web(T([[1, 2, 3], [1, 4, 5], [3, 6, 7]]))) + "\n"

    def test_missing_input_file_exits_2(self, capsys, monkeypatch, tmp_path):
        code, out, err = run(capsys, ["evacuate", "--input", str(tmp_path / "absent")], "", monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "absent" in err

    def test_bad_format_rejected(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["render", "--format", "png"], "1\n2", monkeypatch)
        assert code == 2
        assert "format" in err


# --- the CLI contract on any input -------------------------------------------

def _text_of_rows(rows) -> str:
    return "\n".join(" ".join(map(str, row)) for row in rows)


@st.composite
def row_lists(draw):
    """Rows of small integers, tableaux or not."""
    return draw(st.lists(st.lists(st.integers(-2, 14), max_size=5), max_size=4))


@st.composite
def straight_fillings(draw):
    """Row-strict, column-weak fillings of a random straight shape, gaps and
    values repeated down a column included: what evacuate accepts."""
    parts = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)), reverse=True)
    rows: list[list[int]] = []
    for r, length in enumerate(parts):
        row: list[int] = []
        for c in range(length):
            least = max(row[-1] + 1 if row else 1, rows[r - 1][c] if r else 1)
            row.append(least + draw(st.integers(0, 2)))
        rows.append(row)
    return rows


@st.composite
def web_documents(draw):
    """The JSON of the web or matching of a random filling, possibly with one
    field, item or value replaced by arbitrary JSON."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        doc = matching_to_json(web_of_2row(random_filling(rng, 2, draw(st.integers(1, 5)))))
    else:
        k = draw(st.integers(1, 3))
        doc = web_to_json(russell_web(random_filling(rng, 3, k, draw(st.integers(0, k)))))
    if draw(st.booleans()):
        junk = st.recursive(
            st.none() | st.booleans() | st.integers(-3, 30) | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        )
        key = draw(st.sampled_from(sorted(doc)))
        value = doc[key]
        if isinstance(value, list) and value and draw(st.booleans()):
            value = list(value)
            index = draw(st.integers(0, len(value) - 1))
            item = value[index]
            if isinstance(item, list) and item and draw(st.booleans()):
                item = list(item)
                item[draw(st.integers(0, len(item) - 1))] = draw(junk)
                value[index] = item
            else:
                value[index] = draw(junk)
        else:
            value = draw(junk)
        doc = {**doc, key: value}
    return json.dumps(doc)


_FUZZED_COMMANDS = (
    ["evacuate"], ["standardize"], ["to-web"], ["to-web", "--canonical"], ["reflect"], ["render"],
    ["render", "--stage", "mdiagram"],
)


class TestCliContract:
    @given(
        st.sampled_from(_FUZZED_COMMANDS),
        st.one_of(
            st.text(max_size=40),
            row_lists().map(_text_of_rows),
            straight_fillings().map(_text_of_rows),
            web_documents(),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_any_input_exits_0_1_or_2_without_a_traceback(self, argv, stdin):
        # in-process, so an escaping exception fails the example outright
        code, _, err = call_main(argv, stdin)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert (code == 0) == (err == "")

    def test_broken_pipe_exits_0(self, monkeypatch):
        # a reader that closed the pipe early is not an error
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n3 4\n"))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["evacuate"]) == 0

    @given(st.text(alphabet="0123456789,_+ \u0663\uff13\u00b2", max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_any_shape_text_exits_0_1_or_2_without_a_traceback(self, shape):
        # families beyond the bounds are refused without a budget, so each
        # example stays short
        code, _, err = call_main(["verify", "--check", "lemma", "--shape", shape])
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @given(straight_fillings())
    @settings(max_examples=150, deadline=None)
    def test_evacuate_matches_the_cell_map_oracle(self, rows):
        code, out, _ = call_main(["evacuate"], _text_of_rows(rows))
        assert code == 0
        assert parse_tableau(out) == evacuate_by_cells(T(rows))


# --- one parser per process ---------------------------------------------------

_SYT = "1 2 4\n3 5 7\n6 8 9\n"
_TWO_ROW = "1 2 4\n3 5 6\n"
_RUSSELL = "1 2 3\n1 4 5\n3 6 7\n"
_VERIFY = ["verify", "--shape", "3,3,3", "--check", "theorem"]

# each command with the exit code it gives: usage errors, --help, and pairs in
# which the second call gives none of the options that the first one gave
_CALL_SEQUENCE = [
    (["evacuate"], _SYT, 0),
    (["standardize"], _RUSSELL, 0),
    (["to-web", "--canonical"], _SYT, 0),
    (["to-web"], _SYT, 0),
    (["to-web", "--canonical"], _TWO_ROW, 0),
    (["to-web"], _TWO_ROW, 0),
    (["to-web", "--canonical"], _RUSSELL, 0),
    (["to-web"], _RUSSELL, 0),
    (["reflect"], json.dumps(matching_to_json(web_of_2row(parse_tableau(_TWO_ROW)))), 0),
    (["reflect"], json.dumps(web_to_json(russell_web(parse_tableau(_RUSSELL)))), 0),
    (["enumerate", "--shape", "2,2", "--json"], "", 0),
    (["enumerate", "--shape", "2,2"], "", 0),
    (["enumerate", "--shape", "2,2,2", "--repetition", "all"], "", 0),
    (_VERIFY + ["--jobs", "2", "--json"], "", 0),
    (_VERIFY, "", 0),
    (_VERIFY + ["--repetition", "all", "--max-seconds", "30"], "", 0),
    (_VERIFY, "", 0),
    (["render", "--stage", "mdiagram"], _SYT, 0),
    (["render"], _SYT, 0),
    (["render", "--format", "pdf"], _SYT, 2),
    (["verify", "--check", "theorem"], "", 2),
    (["verify", "--shape", "3,3", "--check", "rotation"], "", 2),
    (["transpose"], "", 2),
    ([], "", 2),
    (["--help"], "", 0),
    (["verify", "--help"], "", 0),
    (["evacuate"], "1 2\n2 1\n", 2),
    (["evacuate"], _SYT, 0),
]


_STILL_CLOCK_MAIN = (
    "import sys\n"
    "from types import SimpleNamespace\n"
    "from webweave import cli, verify\n"
    "verify.time = SimpleNamespace(monotonic=lambda: 0.0)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


class TestSharedParser:
    @pytest.fixture(autouse=True)
    def still_clock(self, monkeypatch):
        # every campaign reports 0 ms, and help is wrapped at one width in
        # this process and in a child, so two runs print the same bytes
        monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: 0.0))
        monkeypatch.setenv("COLUMNS", "80")

    def test_repeated_calls_match_a_fresh_process(self):
        # each reference call runs alone in its interpreter, so no state that
        # main keeps between calls can reach it
        shared = [call_main(argv, stdin) for argv, stdin, _ in _CALL_SEQUENCE]
        fresh = [run_python(["-c", _STILL_CLOCK_MAIN, *argv], stdin) for argv, stdin, _ in _CALL_SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [code for _, _, code in _CALL_SEQUENCE]
        for (argv, _, _), (code, out, err) in zip(_CALL_SEQUENCE, shared):
            if "--help" in argv:
                assert out.startswith("usage: webweave") and err == ""
            elif code == 2 and argv[:1] != ["evacuate"]:
                assert out == "" and err.startswith("usage: webweave")

    def test_options_do_not_carry_over(self, monkeypatch):
        seen = []
        real = cli.run_verification

        def recording(family, check, jobs=1, max_seconds=None):
            seen.append((jobs, max_seconds, family.repetition))
            return real(family, check, jobs=1, max_seconds=max_seconds)

        monkeypatch.setattr(cli, "run_verification", recording)
        for argv in (_VERIFY + ["--jobs", "2"], _VERIFY, _VERIFY + ["--repetition", "all", "--max-seconds", "9"],
                     _VERIFY):
            assert call_main(argv)[0] == 0
        assert seen == [(2, None, None), (1, None, None), (1, 9.0, "all"), (1, None, None)]

    def test_main_builds_the_parser_once(self, monkeypatch):
        built = []
        real = cli.build_parser

        def counting_build():
            built.append(1)
            return real()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for argv, stdin, code in _CALL_SEQUENCE:
            assert call_main(argv, stdin)[0] == code
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestImports:
    def test_cli_loads_no_process_pool(self):
        # nor does a serial campaign or a single-tableau command; the parser
        # is built on the first call, not at import
        _, out, _ = run_python([
            "-c",
            "import sys, webweave, webweave.cli as cli\n"
            "built = cli._parser.cache_info().currsize\n"
            "codes = [cli.main(['verify', '--shape', '3,3,3', '--check', 'theorem']),\n"
            "         cli.main(['enumerate', '--shape', '2,2'])]\n"
            "pool = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
            "print(built, codes, pool)\n",
        ])
        assert out.splitlines()[-1] == "0 [0, 0] []"

    def test_forking_campaign_loads_the_pool(self):
        _, out, _ = run_python([
            "-c",
            "import sys, webweave.cli as cli\n"
            "code = cli.main(['verify', '--shape', '4,4,4', '--check', 'theorem', '--jobs', '2'])\n"
            "print(code, 'concurrent.futures' in sys.modules)\n",
        ])
        assert out.splitlines()[-1] == "0 True"


class TestDeepInput:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["reflect"], "[" * 100000),
            (["render"], '{"pairs": ' + "[" * 100000),
        ],
        ids=["reflect", "render"],
    )
    def test_recursion_limit_is_a_usage_error(self, argv, stdin):
        code, out, err = run_process(argv, stdin)
        assert (code, out) == (2, "")
        assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["enumerate", "--shape", "1200"], (0, " ".join(map(str, range(1, 1201))) + "\n", "total 1\n")),
            (["verify", "--shape", "600,600", "--check", "theorem", "--max-seconds", "0.5"],
             (2, "", "error: exceeded 0.5s\n")),
        ],
        ids=["enumerate", "verify"],
    )
    def test_growth_has_no_depth_limit(self, argv, expected):
        # growing used to recurse once per value, so both exited 2 with
        # "maximum recursion depth exceeded" at once
        assert run_process(argv, "") == expected
