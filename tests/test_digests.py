"""Every family up to the desk-scale bounds grows and builds what
`digests.json` records (see `digests.py`, which regenerates it)."""
import json

import pytest

from digests import FAMILIES, PATH, digest
from webweave.verify import Family

RECORDED = json.loads(PATH.read_text())


def test_every_family_is_recorded():
    assert list(RECORDED) == [family.describe() for family in FAMILIES]


@pytest.mark.parametrize("family", FAMILIES, ids=Family.describe)
def test_growth_and_builds_match_the_digest(family):
    got, want = digest(family), RECORDED[family.describe()]
    first = next((i for i, pair in enumerate(zip(got["shards"], want["shards"])) if pair[0] != pair[1]), None)
    assert got == want, f"{len(got['shards'])} shards against {len(want['shards'])}; the first that differs: {first}"
