import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from webweave.cli import main
from webweave.tableau import RowStrictTableau, Shape, enumerate_standard, parse_tableau
from webweave.webcore import web_from_json, web_to_json, webs_equal
from webweave.bijection import russell_web
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


def run_process(argv, stdin):
    """Run the CLI in a fresh interpreter, so an escaping exception would show
    as a traceback on stderr rather than fail the test process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "webweave.cli", *argv], input=stdin, capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


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
            )
        ],
    )
    def test_malformed_document_exits_2(self, doc, says):
        code, _, err = run_process(["reflect"], doc)
        assert code == 2
        assert err.startswith("error:") and says in err
        assert "Traceback" not in err


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

    def test_bad_format_rejected(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["render", "--format", "png"], "1\n2", monkeypatch)
        assert code == 2
        assert "format" in err
