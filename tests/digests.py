"""Digests of what each family grows and builds, up to the desk-scale bounds.

For every family (n,n) with n <= 8, (k,k,k) with k <= 5 and Russell
(k,k,k) with k <= 4 at every h, the sha256 of the growth-order stream of
each member's rows and its build's canonical key, and the first 8 hex
digits of the same digest over each shard, so that a mismatch says in
which shard the difference starts.  `test_digests.py` compares them with
`digests.json`.  A change that alters these outputs on purpose regenerates
the file, from the root of the repository, with

    PYTHONPATH=src python tests/digests.py

and says which families changed, and why.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from webweave.verify import Family

PATH = Path(__file__).with_name("digests.json")
FAMILIES = (
    [Family((n, n)) for n in range(1, 9)]
    + [Family((k, k, k)) for k in range(1, 6)]
    + [Family((k, k, k), "all") for k in range(1, 5)]
)


def digest(family: Family) -> dict:
    """The family's digest and its shards' short digests, in growth order."""
    p = family.pipeline.batch()
    whole, shards = hashlib.sha256(), []
    for shard in family.shards():
        part = hashlib.sha256()
        for rows in family.grow(shard):
            line = f"{rows} {p.key(p.parts(rows))}\n".encode()
            whole.update(line)
            part.update(line)
        shards.append(part.hexdigest()[:8])
    return {"sha256": whole.hexdigest(), "shards": shards}


if __name__ == "__main__":  # one family a line
    lines = (f" {json.dumps(f.describe())}: {json.dumps(digest(f))}" for f in FAMILIES)
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
