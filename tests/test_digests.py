"""Every family up to the desk-scale bounds grows and builds what
`digests.json` records (see `digests.py`, which regenerates it)."""
import io
import json
import sys

import pytest

from digests import FAMILIES, PATH, digest, document
from webweave import cli
from webweave.tableau import _format_rows
from webweave.verify import Family

RECORDED = json.loads(PATH.read_text())


def test_every_family_is_recorded():
    assert list(RECORDED) == [family.describe() for family in FAMILIES]


@pytest.mark.parametrize("family", FAMILIES, ids=Family.describe)
def test_growth_and_builds_match_the_digest(family):
    got, want = digest(family), RECORDED[family.describe()]
    first = next((i for i, pair in enumerate(zip(got["shards"], want["shards"])) if pair[0] != pair[1]), None)
    assert got == want, f"{len(got['shards'])} shards against {len(want['shards'])}; the first that differs: {first}"


@pytest.mark.parametrize("family", [Family((4, 4)), Family((3, 3, 3)), Family((2, 2, 2), "all")],
                         ids=Family.describe)
def test_the_digested_document_is_what_to_web_writes(family, monkeypatch):
    p = family.pipeline
    for shard in family.shards():
        for rows in family.grow(shard):
            monkeypatch.setattr(sys, "stdin", io.StringIO(_format_rows(rows)))
            monkeypatch.setattr(sys, "stdout", io.StringIO())
            assert cli.main(["to-web"]) == 0
            assert sys.stdout.getvalue() == document(family, p.parts(rows)) + "\n"
