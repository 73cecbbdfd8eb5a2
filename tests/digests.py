"""Digests of what each family grows and builds, up to the desk-scale bounds.

For every family (n,n) with n <= 8, (k,k,k) with k <= 5 and Russell
(k,k,k) with k <= 4 at every h, the sha256 of the growth-order stream of
each member's rows and its build's canonical key, and the first 8 hex
digits of the same digest over each shard, so that a mismatch says in
which shard the difference starts; and, as `json`, the sha256 of the
stream of each build's JSON document, one line each, written as `to-web`
writes it.  `test_digests.py` compares them with `digests.json`.  A change
that alters these outputs on purpose regenerates the file, from the root
of the repository, with

    PYTHONPATH=src python tests/digests.py

and says which families changed, and why.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from webweave.verify import Family
from webweave.webcore import Matching, Web, matching_to_json, web_to_json

PATH = Path(__file__).with_name("digests.json")
FAMILIES = (
    [Family((n, n)) for n in range(1, 9)]
    + [Family((k, k, k)) for k in range(1, 6)]
    + [Family((k, k, k), "all") for k in range(1, 5)]
)


def document(family: Family, parts) -> str:
    """The JSON document of a build, as `to-web` writes it."""
    doc = matching_to_json(Matching(len(parts), parts)) if family.rows == 2 else web_to_json(Web(*parts))
    return json.dumps(doc, separators=(",", ":"))


def digest(family: Family) -> dict:
    """The family's digests and its shards' short digests, in growth order."""
    p = family.pipeline.batch()
    whole, shards, documents = hashlib.sha256(), [], hashlib.sha256()
    for shard in family.shards():
        part = hashlib.sha256()
        for rows in family.grow(shard):
            parts = p.parts(rows)
            line = f"{rows} {p.key(parts)}\n".encode()
            whole.update(line)
            part.update(line)
            documents.update(f"{document(family, parts)}\n".encode())
        shards.append(part.hexdigest()[:8])
    return {"sha256": whole.hexdigest(), "shards": shards, "json": documents.hexdigest()}


if __name__ == "__main__":  # one family a line
    lines = (f" {json.dumps(f.describe())}: {json.dumps(digest(f))}" for f in FAMILIES)
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
