"""Spans recorded around the benchmark's own calls into webweave, and the
replays that make those calls.

The program is not instrumented.  Instead a replay calls, from outside, the
same public functions a campaign or a CLI request calls, in the same order,
and a span wraps each call.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

from speed import SAMPLE_EVERY_S, SpeedProbe
from webweave.bijection import find_crossings, m_diagram, tymoczko_web, web_of_2row
from webweave.jdt import evacuate
from webweave.tableau import RowStrictTableau, format_tableau, parse_tableau, standardize, standardize_with_pairs
from webweave.webcore import (
    canonicalize,
    contract_pairs,
    matching_from_json,
    matching_to_json,
    reflect_matching,
    reflect_web,
    web_from_json,
    web_to_json,
)

# span name -> layer it belongs to; the root spans "tableau" and "query"
# hold the replay's own glue
LAYER_OF = {
    "Family.tableaux": "tableau.enumerate",
    "standardize_with_pairs": "tableau.standardize",
    "standardize": "tableau.standardize",
    "parse_tableau": "tableau.parse",
    "format_tableau": "tableau.format",
    "evacuate": "jdt.evacuate",
    "tymoczko_web": "bijection.forward",
    "web_of_2row": "bijection.forward",
    "reflect_web": "webcore.reflect",
    "reflect_matching": "webcore.reflect",
    "canonicalize": "webcore.canonicalize",
    "contract_pairs": "webcore.contract",
    "web_to_json": "webcore.json",
    "web_from_json": "webcore.json",
    "matching_to_json": "webcore.json",
    "matching_from_json": "webcore.json",
}


# every PAIR_EVERY-th replayed operation also runs untraced, to measure the
# tracing overhead at a quarter of the cost of a second full replay
PAIR_EVERY = 4


class Tracer:
    """Records name, start, end, parent index and op id of every call.

    The fields live in flat arrays rather than one object per span, so the
    garbage collector, which scans every live container, is not slowed by
    them while the replay runs.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        idx = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its children."""
        out = [end - start for start, end in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def layer_self_ns(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, own in zip(self.names, self.self_ns()):
            totals[LAYER_OF.get(name, name)] += own
        return dict(totals)

    def calls(self, name: str) -> int:
        return self.names.count(name)

    def dump(self, path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "op")
        columns = (self.names, self.start, self.end, self.parent, self.op_of)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": [list(span) for span in zip(*columns)]}, handle)


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced replay."""

    def open(self, name: str) -> int:
        return -1

    def close(self, idx: int) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)


class Replay:
    """Makes the per-tableau and per-request library calls under a tracer,
    remembering the rows of each tymoczko_web input so crossings can be
    counted after the timed replay."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.forward_inputs: list = []
        self.seen: set[str] = set()

    def sl3_web(self, t):
        """russell_web split into its three public steps (h = 0 included)."""
        call = self.tracer.call
        u, starts = call("standardize_with_pairs", standardize_with_pairs, t)
        self.forward_inputs.append(u.rows)
        return call("contract_pairs", contract_pairs, call("tymoczko_web", tymoczko_web, u), starts)

    def standard_web(self, t):
        self.forward_inputs.append(t.rows)
        return self.tracer.call("tymoczko_web", tymoczko_web, t)

    # --- campaigns: the same calls verify's per-tableau checks make -----

    def enumerate(self, family) -> list:
        return self.tracer.call("Family.tableaux", family.tableaux)

    def tableau(self, op: int, family, check: str, t) -> bool:
        """Replay one tableau of a theorem or injectivity campaign; True if it passes."""
        tr = self.tracer
        tr.op = op
        root = tr.open("tableau")
        if check == "theorem":
            ok = self._theorem(family, t)
        elif check == "injectivity":
            key = self._forward_key(family, t)
            ok = key not in self.seen
            self.seen.add(key)
        else:
            raise ValueError(f"no replay for check {check!r}")
        tr.close(root)
        return ok

    def _theorem(self, family, t) -> bool:
        call = self.tracer.call
        if family.rows == 2:
            actual = call("reflect_matching", reflect_matching, call("web_of_2row", web_of_2row, t))
            return actual == call("web_of_2row", web_of_2row, call("evacuate", evacuate, t))
        build = self.sl3_web if family.is_russell else self.standard_web
        actual = call("canonicalize", canonicalize, call("reflect_web", reflect_web, build(t)))
        return actual == call("canonicalize", canonicalize, build(call("evacuate", evacuate, t)))

    def _forward_key(self, family, t) -> str:
        if family.rows == 2:
            return str(self.tracer.call("web_of_2row", web_of_2row, t).pairs)
        build = self.sl3_web if family.is_russell else self.standard_web
        return self.tracer.call("canonicalize", canonicalize, build(t))

    # --- requests: the same calls webweave.cli's handlers make -----------

    def query(self, op: int, command: str, stdin: str) -> str:
        tr = self.tracer
        call = tr.call
        tr.op = op
        root = tr.open("query")
        if command == "reflect":
            doc = json.loads(stdin)
            if "pairs" in doc:
                m = call("matching_from_json", matching_from_json, doc)
                out = call("matching_to_json", matching_to_json, call("reflect_matching", reflect_matching, m))
            else:
                web = call("web_from_json", web_from_json, doc)
                out = call("web_to_json", web_to_json, call("reflect_web", reflect_web, web))
            text = json.dumps(out, separators=(",", ":"))
        else:
            t = call("parse_tableau", parse_tableau, stdin)
            if command == "evacuate":
                text = call("format_tableau", format_tableau, call("evacuate", evacuate, t))
            elif command == "standardize":
                text = call("format_tableau", format_tableau, call("standardize", standardize, t))
            elif len(t.rows) == 2:
                m = call("web_of_2row", web_of_2row, t)
                if command == "to-web --canonical":
                    text = str(m.pairs)
                else:
                    text = json.dumps(call("matching_to_json", matching_to_json, m), separators=(",", ":"))
            else:
                web = self.sl3_web(t)
                if command == "to-web --canonical":
                    text = call("canonicalize", canonicalize, web)
                else:
                    text = json.dumps(call("web_to_json", web_to_json, web), separators=(",", ":"))
        tr.close(root)
        return text

    def crossings(self) -> int:
        """Total crossings over every m-diagram the replay sent to tymoczko_web."""
        return sum(len(find_crossings(m_diagram(RowStrictTableau.from_rows(rows)))) for rows in self.forward_inputs)


def _timed(fn, args) -> tuple[object, int]:
    start = perf_counter_ns()
    out = fn(*args)
    return out, perf_counter_ns() - start


def replay_all(traced: Replay, untraced: Replay, method: str, calls, probe: SpeedProbe) -> tuple[list, int, float]:
    """Make every call on the traced replay; return its results, its total
    time and the estimated tracing overhead, both in nanoseconds.

    Every PAIR_EVERY-th call is also made untraced, right before or right
    after the traced one in turn, so that drift in machine speed and the
    second call's warm caches cancel from the difference.  The overhead is
    that difference scaled up to all calls.  Between calls, outside every
    span, the speed probe takes a sample every SAMPLE_EVERY_S.
    """
    spanned, plain = getattr(traced, method), getattr(untraced, method)
    results, total, difference, pairs = [], 0, 0, 0
    next_sample = perf_counter_ns()
    for n, args in enumerate(calls):
        if perf_counter_ns() >= next_sample:
            probe.sample()
            next_sample = perf_counter_ns() + int(SAMPLE_EVERY_S * 1e9)
        paired = n % PAIR_EVERY == 0
        if paired and pairs % 2:
            difference -= _timed(plain, args)[1]
        out, took = _timed(spanned, args)
        results.append(out)
        total += took
        if paired:
            if not pairs % 2:
                difference -= _timed(plain, args)[1]
            difference += took
            pairs += 1
    return results, total, difference * len(results) / pairs if pairs else 0.0
