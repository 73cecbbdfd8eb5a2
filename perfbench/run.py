"""The webweave benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sl3_theorem --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  With
--trace 0 it times the workload untraced and prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it replays the workload's library calls under
spans and prints the per-layer metrics.  Every output is checked, untimed.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Full results, and the spans of a traced run, go to .bench_out/.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

if __name__ == "__main__" and not (SRC / "webweave" / "__init__.py").is_file():
    sys.exit(f"error: no webweave package under {SRC}; run from the root of a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

from queries import check_output, make_queries  # noqa: E402
from spans import PAIR_EVERY, NullTracer, Replay, Tracer, replay_all  # noqa: E402
from speed import NOMINAL_PROBE_S, SpeedProbe  # noqa: E402
from webweave import cli  # noqa: E402
from webweave.tableau import Shape, count_standard  # noqa: E402
from webweave.verify import Family, TimeBudgetExceeded, run_verification  # noqa: E402

SETUP_RUNS = 7
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import webweave, webweave.cli; took = time.perf_counter() - t; "
    "import speed; p = speed.SpeedProbe(); [p.sample() for _ in range(10)]; print(took / p.slowdown)"
)
PROBE_EVERY_QUERIES = 8
PROBE_WINDOW = 4
CLI_COMMANDS = ("to-web", "to-web --canonical", "evacuate", "standardize", "reflect")


def log(line: str) -> None:
    print(line, flush=True)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup() -> float:
    """Median, over fresh interpreters, of the time to import webweave and its
    CLI, at nominal speed by probes taken right after the import.

    One extra interpreter runs first, untimed, so compiled bytecode exists.
    """
    paths = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    samples = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


def peak_rss_mb() -> float:
    """Highest RSS of this process and of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# --- campaigns ----------------------------------------------------------------


class Campaign:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.family = Family(tuple(spec["shape"]), spec["repetition"])
        self.expected = spec["expected_total"]
        if spec["repetition"] is None and count_standard(Shape(self.family.shape)) != self.expected:
            raise ValueError(f"expected_total {self.expected} is not count_standard{self.family.shape}")

    def run(self, jobs: int) -> tuple[float, float, int]:
        """One run_verification call: (seconds at nominal speed, wall
        seconds less probing, failed tableaux).

        A tripped budget, an exception, a report that is not ok or a total
        that is not the family's size all count against the campaign.
        """
        probe = SpeedProbe()
        start = perf_counter()
        report = None
        try:
            with probe.during():
                report = run_verification(self.family, self.spec["check"], jobs, self.spec["max_seconds"])
        except TimeBudgetExceeded as exc:
            print(f"time budget tripped, all {self.expected} tableaux count as failed: {exc}", file=sys.stderr)
        except Exception:
            traceback.print_exc()
        wall = perf_counter() - start - probe.spent_ns / 1e9
        failed = self.expected
        if report is not None and report.total != self.expected:
            print(f"campaign total {report.total} != expected {self.expected}", file=sys.stderr)
        elif report is not None:
            for failure in report.failures[:3]:
                print(f"check failure: {failure}", file=sys.stderr)
            failed = len(report.failures)
        return wall / probe.slowdown, wall, failed

    def shipped_bytes(self, tableaux, jobs: int) -> int:
        """Bytes pickled to workers by run_verification's parallel path."""
        check = self.spec["check"]
        if jobs == 1 or check == "injectivity" or len(tableaux) < 4 * jobs:
            return 0
        return sum(len(pickle.dumps((check, self.family, tableaux[i::jobs]))) for i in range(jobs))


def campaign_untraced(campaign: Campaign, seconds: float) -> dict:
    nominal, walls, failed = [], [], 0
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        at_nominal, wall, bad = campaign.run(campaign.spec["jobs"])
        nominal.append(at_nominal)
        walls.append(wall)
        failed += bad
    rss = peak_rss_mb()
    log(f"campaigns: {len(walls)} x {campaign.family.describe()} {campaign.spec['check']} jobs={campaign.spec['jobs']}:"
        f" wall {' '.join(f'{w:.3f}' for w in walls)} s, at nominal speed {' '.join(f'{n:.3f}' for n in nominal)} s")
    return {
        "attempted": campaign.expected * len(walls),
        "failed": failed,
        "metrics": {
            "ops_per_s": statistics.median(campaign.expected / n for n in nominal),
            "latency_p50_ms": statistics.median(nominal) * 1e3,
            "latency_p99_ms": percentile(nominal, 99) * 1e3,
            "peak_rss_mb": rss,
        },
        "aliases": {"tableaux_per_s": "ops_per_s"},
    }


def campaign_traced(campaign: Campaign) -> dict:
    jobs = campaign.spec["jobs"]
    nominal, wall, failed = campaign.run(jobs)
    attempted = campaign.expected
    serial_nominal, serial_wall, serial_failed = nominal, wall, failed
    if jobs > 1:
        serial_nominal, serial_wall, serial_failed = campaign.run(1)
        attempted += campaign.expected
        failed += serial_failed

    family, check = campaign.family, campaign.spec["check"]
    tracer = Tracer()
    replay, untraced = Replay(tracer), Replay(NullTracer())
    probe = SpeedProbe()
    probe.sample()
    start = perf_counter_ns()
    tableaux = replay.enumerate(family)
    enumerate_ns = perf_counter_ns() - start
    passed, traced_ns, overhead_ns = replay_all(
        replay, untraced, "tableau", ((i, family, check, t) for i, t in enumerate(tableaux)), probe
    )
    slowdown = probe.slowdown
    traced_wall, overhead = (enumerate_ns + traced_ns) / 1e9 / slowdown, overhead_ns / 1e9 / slowdown
    replay_failed = passed.count(False)

    consistent = len(tableaux) == campaign.expected and replay_failed == serial_failed
    if not consistent:
        print(f"replay disagrees: total {len(tableaux)}, {replay_failed} failed", file=sys.stderr)
    layers = tracer.layer_self_ns()
    layer_sum = sum(v for k, v in layers.items() if "." in k) / 1e9 / slowdown
    metrics = layer_metrics(tracer, layers, queries=0, slowdown=slowdown)
    metrics.update({
        "tableau.enumerated": len(tableaux),
        "bijection.crossings": replay.crossings(),
        "verify.parallel_speedup": serial_nominal / nominal if jobs > 1 else 0.0,
        "verify.shipped_bytes": campaign.shipped_bytes(tableaux, jobs),
        "verify.self_s": serial_nominal - layer_sum,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
    })
    log(f"traced replay: wall {(enumerate_ns + traced_ns) / 1e9:.3f} s, machine slowdown {slowdown:.3f};"
        " times below are at nominal speed")
    log(f"accounting: traced wall {traced_wall:.3f} s = layer self {layer_sum:.3f} s"
        f" + replay glue {traced_wall - layer_sum:.3f} s")
    log(f"accounting: run_verification serial {serial_nominal:.3f} s = layer self {layer_sum:.3f} s"
        f" + verify.self_s {serial_nominal - layer_sum:.3f} s")
    log_overhead(overhead, traced_wall)
    return {"attempted": attempted, "failed": failed, "consistent": consistent, "metrics": metrics, "tracer": tracer}


# --- queries ------------------------------------------------------------------


def call_cli(argv: list[str], text: str) -> tuple[int, str, str, int]:
    """One in-process webweave.cli.main call with stdin/stdout/stderr swapped
    for memory buffers: (exit code, stdout, stderr, nanoseconds)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        start = perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception:
            elapsed = perf_counter_ns() - start
            traceback.print_exc()
            code = -1
        else:
            elapsed = perf_counter_ns() - start
        return code, sys.stdout.getvalue(), sys.stderr.getvalue(), elapsed
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def query_loop(spec: dict, seed: int, seconds: float):
    """Closed loop, one client, over the seeded stream, then the untimed gate.

    Returns (queries, executed indices, latencies in ns, wall s less
    probing, failed, first response per distinct query, peak RSS MB, the
    speed probe).
    """
    queries = make_queries(spec, seed)
    order, latencies, first = [], [], {}
    failed = 0
    probe = SpeedProbe()
    start = perf_counter()
    while len(order) < spec["min_queries"] or perf_counter() - start < seconds:
        if len(order) % PROBE_EVERY_QUERIES == 0:
            probe.sample()  # between requests, so no latency includes it
        i = len(order) % len(queries)
        q = queries[i]
        code, out, err, elapsed = call_cli(q.argv, q.stdin)
        order.append(i)
        latencies.append(elapsed)
        if i not in first:
            first[i] = (code, out, err)
        elif first[i] != (code, out, err):
            failed += 1  # the same request must get the same bytes back
    wall = perf_counter() - start - probe.spent_ns / 1e9
    rss = peak_rss_mb()
    runs = [0] * len(queries)
    for i in order:
        runs[i] += 1
    for i, response in first.items():
        reason = check_output(queries[i], *response)
        if reason is not None:
            print(f"query {queries[i].command} on {queries[i].klass} size {queries[i].size}: {reason}", file=sys.stderr)
            failed += runs[i]
    return queries, order, latencies, wall, failed, first, rss, probe


def local_slowdowns(samples: list[int], count: int) -> list[float]:
    """Machine slowdown around each request: the mean of the probe samples
    taken within PROBE_WINDOW samples of it (one sample per PROBE_EVERY_QUERIES
    requests), over the nominal probe time."""
    prefix = [0]
    for ns in samples:
        prefix.append(prefix[-1] + ns)
    out = []
    for j in range(count):
        k = j // PROBE_EVERY_QUERIES
        lo, hi = max(0, k - PROBE_WINDOW), min(len(samples), k + PROBE_WINDOW + 1)
        out.append((prefix[hi] - prefix[lo]) / (hi - lo) / 1e9 / NOMINAL_PROBE_S)
    return out


def queries_untraced(spec: dict, seed: int, seconds: float) -> dict:
    _, order, latencies, wall, failed, _, rss, probe = query_loop(spec, seed, seconds)
    log(f"queries: {len(order)} requests in {wall:.3f} s wall, machine slowdown {probe.slowdown:.3f}")
    nominal = [lat / 1e6 / slow for lat, slow in zip(latencies, local_slowdowns(probe.samples, len(order)))]
    # the loop's slowdown, weighted like its time: by each request's latency
    slowdown = sum(latencies) / 1e6 / sum(nominal)
    return {
        "attempted": len(order),
        "failed": failed,
        "metrics": {
            "ops_per_s": len(order) / (wall / slowdown),
            "latency_p50_ms": statistics.median(nominal),
            "latency_p99_ms": percentile(nominal, 99),
            "peak_rss_mb": rss,
        },
        "aliases": {"queries_per_s": "ops_per_s", "query_p50_ms": "latency_p50_ms", "query_p99_ms": "latency_p99_ms"},
    }


def queries_traced(spec: dict, seed: int, seconds: float) -> dict:
    queries, order, latencies, _, failed, first, _, loop_probe = query_loop(spec, seed, seconds)
    nominal_ms = [lat / 1e6 / slow for lat, slow in zip(latencies, local_slowdowns(loop_probe.samples, len(order)))]

    tracer = Tracer()
    replay, untraced = Replay(tracer), Replay(NullTracer())
    probe = SpeedProbe()
    texts, traced_ns, overhead_ns = replay_all(
        replay, untraced, "query", ((op, queries[i].command, queries[i].stdin) for op, i in enumerate(order)), probe
    )
    slowdown = probe.slowdown
    traced_wall, overhead = traced_ns / 1e9 / slowdown, overhead_ns / 1e9 / slowdown
    consistent = all(text == first[i][1].rstrip("\n") for text, i in zip(texts, order))
    if not consistent:
        print("replay output differs from cli.main output", file=sys.stderr)
    own = tracer.self_ns()
    library_ms = [
        (tracer.end[idx] - tracer.start[idx] - own[idx]) / 1e6 / slowdown
        for idx, name in enumerate(tracer.names)
        if name == "query"
    ]
    layers = tracer.layer_self_ns()
    layer_sum = sum(v for k, v in layers.items() if "." in k) / 1e9 / slowdown
    metrics = layer_metrics(tracer, layers, queries=len(order), slowdown=slowdown)
    metrics.update({
        "tableau.enumerated": 0,
        "bijection.crossings": replay.crossings(),
        "verify.parallel_speedup": 0.0,
        "verify.shipped_bytes": 0,
        "verify.self_s": 0.0,
        "cli.overhead_ms": statistics.median(lat - lib for lat, lib in zip(nominal_ms, library_ms)),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
    })
    for command in CLI_COMMANDS:
        mine = [lat for lat, i in zip(nominal_ms, order) if queries[i].command == command]
        metrics[cli_metric(command)] = statistics.median(mine) if mine else 0.0
    total_latency = sum(nominal_ms) / 1e3
    log(f"traced replay: wall {traced_ns / 1e9:.3f} s, machine slowdown {slowdown:.3f}; times below are at nominal speed")
    log(f"accounting: cli.main total {total_latency:.3f} s = layer self {layer_sum:.3f} s"
        f" + cli overhead {total_latency - layer_sum:.3f} s (p50 {metrics['cli.overhead_ms']:.3f} ms per request)")
    log(f"accounting: traced wall {traced_wall:.3f} s = layer self {layer_sum:.3f} s"
        f" + replay glue {traced_wall - layer_sum:.3f} s")
    log_overhead(overhead, traced_wall)
    return {"attempted": len(order), "failed": failed, "consistent": consistent, "metrics": metrics, "tracer": tracer}


def log_overhead(overhead: float, traced_wall: float) -> None:
    log(f"tracing overhead: {overhead:.3f} s of the {traced_wall:.3f} s traced wall"
        f" (traced minus untraced time of every {PAIR_EVERY}th replayed operation, scaled to all)")


def cli_metric(command: str) -> str:
    return "cli." + command.replace("--", "").replace("-", "_").replace(" ", "_") + "_ms"


def layer_metrics(tracer, layers: dict[str, int], queries: int, slowdown: float) -> dict:
    """Self time per layer at nominal speed: `_s` metrics are totals in
    seconds, `_ms` metrics are mean milliseconds per request; cli metrics
    default to 0."""

    def seconds(layer: str) -> float:
        return layers.get(layer, 0) / 1e9 / slowdown

    def per_query_ms(layer: str) -> float:
        return seconds(layer) * 1e3 / queries if queries else 0.0

    metrics = {
        "tableau.enumerate_s": seconds("tableau.enumerate"),
        "tableau.standardize_s": seconds("tableau.standardize"),
        "tableau.parse_ms": per_query_ms("tableau.parse"),
        "tableau.format_ms": per_query_ms("tableau.format"),
        "jdt.evacuate_s": seconds("jdt.evacuate"),
        "jdt.evacuate_calls": tracer.calls("evacuate"),
        "bijection.forward_s": seconds("bijection.forward"),
        "bijection.forward_calls": tracer.calls("tymoczko_web") + tracer.calls("web_of_2row"),
        "webcore.reflect_s": seconds("webcore.reflect"),
        "webcore.canonicalize_s": seconds("webcore.canonicalize"),
        "webcore.contract_s": seconds("webcore.contract"),
        "webcore.json_ms": per_query_ms("webcore.json"),
        "cli.overhead_ms": 0.0,
    }
    for command in CLI_COMMANDS:
        metrics[cli_metric(command)] = 0.0
    return metrics


# --- driver -------------------------------------------------------------------


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    # the workload fixes its own worker count
    os.environ.pop("WEBWEAVE_THREADS", None)

    env = environment()
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    log("environment " + json.dumps(env))

    setup_s = measure_setup() if args.trace == 0 else None

    if spec["kind"] == "campaign":
        campaign = Campaign(spec)
        result = campaign_traced(campaign) if args.trace else campaign_untraced(campaign, args.seconds)
    else:
        if args.trace:
            result = queries_traced(spec, args.seed, args.seconds)
        else:
            result = queries_untraced(spec, args.seed, args.seconds)
    if setup_s is not None:
        result["metrics"]["setup_s"] = setup_s

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for alias, name in result.get("aliases", {}).items():
        log(f"{alias} = {metrics[name]['value']:.6g} {metrics[name]['unit']}  (same as {name})")
    log(f"failed_fraction = {result['failed'] / result['attempted']:.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} operations)")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "tracer" in result:
        result["tracer"].dump(OUT_DIR / f"{stem}-spans.json")
    summary = {
        "correct": result["failed"] == 0 and result.get("consistent", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, definition=spec)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
