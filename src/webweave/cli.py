"""Command-line surface: parse tableaux and webs, run the transforms, drive
exhaustive verification campaigns, and emit SVG diagrams.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Machine output is JSON on stdout; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .bijection import SL2, m_diagram, russell_web, web_of_2row
from .jdt import evacuate
from .render import render_matching_svg, render_mdiagram_svg, render_web_svg
from .tableau import (
    _int_of,
    enumerate_standard,
    format_tableau,
    parse_tableau,
    standardize,
    Shape,
    tableau_to_json,
)
from .verify import CHECK_NAMES, Family, TimeBudgetExceeded, run_verification
from .webcore import (
    Matching,
    canonicalize,
    matching_from_json,
    matching_to_json,
    reflect_matching,
    reflect_web,
    validate_web,
    web_from_json,
    web_to_json,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def _read_input(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int_of(part.strip(), "shape part") for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad shape {text!r}; expected comma-separated integers") from None


def _parse_repetition(text: str | None) -> int | str | None:
    if text is None or text == "all":
        return text
    try:
        return _int_of(text.strip(), "repetition")
    except ValueError:
        raise ValueError(f"bad repetition {text!r}; expected an integer or 'all'") from None


def _parse_seconds(text: str) -> float:
    """A time budget: an integer as _int_of reads it, then optionally '.' and
    ASCII digits, where float() also takes 'inf', '1e400', '1_0' and ' +1'."""
    if not re.fullmatch(r"(0|-?[1-9][0-9]*)(\.[0-9]+)?", text):
        raise argparse.ArgumentTypeError(f"bad max_seconds {text!r}; expected a number of seconds")
    return float(text)


def _emit(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_transform(args) -> int:
    t = parse_tableau(_read_input(args.input))
    _emit(format_tableau(args.transform(t)), None)
    return 0


def _object_from_tableau(t):
    if len(t.rows) == 2:
        return web_of_2row(t)
    if len(t.rows) == 3:
        return russell_web(t)
    raise ValueError(f"tableaux with {len(t.rows)} rows have no web family")


def _cmd_to_web(args) -> int:
    t = parse_tableau(_read_input(args.input))
    obj = _object_from_tableau(t)
    if args.canonical:
        _emit(SL2.key(obj.pairs) if isinstance(obj, Matching) else canonicalize(obj), None)
        return 0
    doc = matching_to_json(obj) if isinstance(obj, Matching) else web_to_json(obj)
    _emit(json.dumps(doc, separators=(",", ":")), None)
    return 0


def _load_web_or_matching(text: str):
    doc = json.loads(text)
    if isinstance(doc, dict) and "pairs" in doc:
        return matching_from_json(doc)
    return web_from_json(doc)


def _cmd_reflect(args) -> int:
    obj = _load_web_or_matching(_read_input(args.input))
    if isinstance(obj, Matching):
        doc = matching_to_json(reflect_matching(obj))
    else:
        report = validate_web(obj)
        if report:
            raise ValueError("cannot reflect an invalid web: " + "; ".join(report))
        doc = web_to_json(reflect_web(obj))
    _emit(json.dumps(doc, separators=(",", ":")), None)
    return 0


def _cmd_enumerate(args) -> int:
    shape = _parse_shape(args.shape)
    repetition = _parse_repetition(args.repetition)
    if repetition is None:
        tableaux = enumerate_standard(Shape(shape))
    else:
        tableaux = Family(shape, repetition).tableaux()
    if args.json:
        _emit(json.dumps([tableau_to_json(t) for t in tableaux], separators=(",", ":")), None)
    else:
        _emit("\n\n".join(format_tableau(t) for t in tableaux), None)
    print(f"total {len(tableaux)}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    family = Family(_parse_shape(args.shape), _parse_repetition(args.repetition))
    jobs = _int_of(args.jobs, "jobs")
    report = run_verification(family, args.check, jobs=jobs, max_seconds=args.max_seconds)
    if args.json:
        _emit(json.dumps(report.to_json(), separators=(",", ":")), None)
    else:
        _emit(report.summary(), None)
        for failure in report.failures:
            print(f"FAIL {failure}", file=sys.stderr)
    return 0 if report.ok else VERIFY_FAILURE


def _cmd_render(args) -> int:
    text = _read_input(args.input)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = _load_web_or_matching(text)
        if args.stage == "mdiagram":
            raise ValueError("the m-diagram stage needs a tableau input")
    else:
        t = parse_tableau(text)
        if args.stage == "mdiagram":
            _emit(render_mdiagram_svg(m_diagram(standardize(t) if len(t.rows) == 3 else t)), args.output)
            return 0
        obj = _object_from_tableau(t)
    svg = render_matching_svg(obj) if isinstance(obj, Matching) else render_web_svg(obj)
    _emit(svg, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webweave",
        description="Tableau transforms, tableau-web bijections, and exhaustive checks "
        "that web reflection matches tableau evacuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, **defaults):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, **defaults)
        return p

    def with_input(p):
        p.add_argument("--input", default=None, help="input file (default: stdin)")
        return p

    with_input(command("evacuate", _cmd_transform, "evacuate a straight-shape tableau", transform=evacuate))
    with_input(command("standardize", _cmd_transform, "standardize a Russell tableau", transform=standardize))

    to_web = with_input(command("to-web", _cmd_to_web, "map a tableau to its web or matching"))
    to_web.add_argument("--canonical", action="store_true", help="emit the canonical encoding")

    with_input(command("reflect", _cmd_reflect, "reflect a web or matching (JSON in, JSON out)"))

    enum = command("enumerate", _cmd_enumerate, "list a tableau family")
    enum.add_argument("--shape", required=True, help="comma-separated parts, e.g. 3,3,3")
    enum.add_argument("--repetition", default=None, help="Russell repetition h, or 'all'")
    enum.add_argument("--json", action="store_true")

    verify = command("verify", _cmd_verify, "run a property exhaustively over a family")
    verify.add_argument("--shape", required=True)
    verify.add_argument("--repetition", default=None)
    verify.add_argument("--check", required=True, choices=CHECK_NAMES)
    verify.add_argument("--jobs", default="1",
                        help="worker processes; a family with under 4 shards per worker runs in-process")
    verify.add_argument("--max-seconds", type=_parse_seconds, default=None,
                        help="time budget, e.g. 30 or 0.5; also lifts the size bounds")
    verify.add_argument("--json", action="store_true")

    render = with_input(command("render", _cmd_render, "draw a tableau, web, or matching"))
    render.add_argument("--stage", default="web", choices=("web", "mdiagram"))
    render.add_argument("--output", default=None, help="output file (default: stdout)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` shares across calls, built on the first one.  Parsing
    keeps no state in it, and argparse looks sys.stdout and sys.stderr up
    when it prints, so swapped streams see every message."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.run(args)
    except BrokenPipeError:
        return 0
    # a deeply nested JSON document outruns the recursion limit
    except (ValueError, LookupError, OSError, TimeBudgetExceeded, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
