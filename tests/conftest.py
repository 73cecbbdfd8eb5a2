import functools

import pytest


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
