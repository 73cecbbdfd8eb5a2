import functools

import pytest

from webweave.verify import Family


def _frozen(value):
    """A deep copy of a build's output in tuples, so no test can change
    what another test reads."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


@functools.cache
def _grown_and_built(family):
    p = family.pipeline
    return tuple((rows, _frozen(p.parts(rows))) for shard in family.shards() for rows in family.grow(shard))


@pytest.fixture(scope="session")
def family_webs():
    """Every member of a family, in growth order, as (rows, parts): its plain
    rows and the checked, unmodified output of the family's pipeline build.
    Each family is grown and built once per session, so the oracle
    comparisons that walk (5,5,5) or Russell (4,4,4) at every h share that
    work.  A test that patches a pipeline, evacuation or insertion grows
    its own members instead."""
    return _grown_and_built


@functools.cache
def _tableaux(family):
    if family.repetition == "all":  # h by h, as Family.tableaux() lists them
        return tuple(t for h in family.repetitions for t in _tableaux(Family(family.shape, h)))
    return tuple(family.tableaux())


@pytest.fixture(scope="session")
def family_tableaux():
    """Every tableau of a family, validated, as Family.tableaux() lists
    them, in a tuple.  Each family is enumerated once per session, and a
    family at every h is read from its families at each h, so the oracle
    comparisons that walk Russell (4,4,4) at every h share that work."""
    return _tableaux
