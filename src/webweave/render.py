"""Deterministic SVG pictures of matchings, webs, and arc diagrams.

Layout is cosmetic only: boundary vertices sit on a circle, internal vertices
relax to the barycenter of their neighbors (Tutte-style, from the rotation
system's adjacency).  Identical input yields identical bytes.
"""
from __future__ import annotations

import math

from .bijection import ArcDiagram
from .webcore import BLACK, Matching, Web

_SIZE = 420
_CENTER = _SIZE / 2
_RADIUS = 160
_ITERATIONS = 300


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(elements: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">'
    )
    return "\n".join([head, *elements, "</svg>"]) + "\n"


def _on_circle(count: int, radius: float) -> list[tuple[float, float]]:
    """count points evenly spaced around the center at this radius, the
    first just counterclockwise of the top: where labels 1..count go."""
    angles = (math.pi / 2 + 2 * math.pi * (i + 0.5) / count for i in range(count))
    return [(_CENTER + radius * math.cos(theta), _CENTER - radius * math.sin(theta)) for theta in angles]


def _dot(x: float, y: float, color: str) -> str:
    fill = "#000000" if color == BLACK else "#ffffff"
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="{fill}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )


def _label(x: float, y: float, text: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" font-family="monospace" '
        f'text-anchor="middle" dominant-baseline="middle">{text}</text>'
    )


def _disk_svg(b: int, colors, edges) -> str:
    """Draw vertices 0..b-1 on the circle in label order and the rest inside,
    vertex v colored colors[v], with a line for each edge (x, y)."""
    pos = _on_circle(b, _RADIUS)
    # internal vertices start just off-center (distinct seeds keep degenerate
    # configurations from stacking) and relax to neighbor barycenters
    internal = len(colors) - b
    for i in range(internal):
        angle = 2 * math.pi * (i + 1) / (internal + 1)
        pos.append((_CENTER + 10 * math.cos(angle), _CENTER + 10 * math.sin(angle)))

    neighbors: list[list[int]] = [[] for _ in colors]
    for x, y in edges:
        neighbors[x].append(y)
        neighbors[y].append(x)
    for _ in range(_ITERATIONS):
        for v in range(b, len(colors)):
            nbrs = neighbors[v]
            if nbrs:
                pos[v] = (
                    sum(pos[w][0] for w in nbrs) / len(nbrs),
                    sum(pos[w][1] for w in nbrs) / len(nbrs),
                )

    elements = [
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_RADIUS)}" '
        f'fill="none" stroke="#bbbbbb" stroke-dasharray="4 3"/>'
    ]
    for x, y in edges:
        (x1, y1), (x2, y2) = pos[x], pos[y]
        elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#000000" stroke-width="1.5"/>'
        )
    elements += [_dot(*p, color) for p, color in zip(pos, colors)]
    elements += [_label(*p, str(i)) for i, p in enumerate(_on_circle(b, _RADIUS + 16), start=1)]
    return _svg(elements)


def render_matching_svg(m: Matching) -> str:
    """A matching drawn as the all-black sl2 web it is: its 2n points on the
    circle, one edge per pair."""
    return _disk_svg(2 * m.n, [BLACK] * (2 * m.n), [(i - 1, j - 1) for i, j in m.pairs])


def render_web_svg(web: Web) -> str:
    return _disk_svg(web.n_boundary, web.boundary_colors + web.internal_colors, web.edges)


def render_mdiagram_svg(diagram: ArcDiagram) -> str:
    margin = 40.0
    baseline = _SIZE - 80.0
    m = diagram.points
    step = (_SIZE - 2 * margin) / (m - 1) if m > 1 else 0.0
    xs = [margin + (i - 1) * step if m > 1 else _CENTER for i in range(1, m + 1)]
    elements = [
        f'<line x1="{_fmt(margin - 15)}" y1="{_fmt(baseline)}" x2="{_fmt(_SIZE - margin + 15)}" '
        f'y2="{_fmt(baseline)}" stroke="#bbbbbb"/>'
    ]
    for arc in diagram.arcs:
        x1, x2 = xs[arc.left - 1], xs[arc.right - 1]
        r = (x2 - x1) / 2
        elements.append(
            f'<path d="M {_fmt(x1)} {_fmt(baseline)} A {_fmt(r)} {_fmt(r)} 0 0 1 '
            f'{_fmt(x2)} {_fmt(baseline)}" fill="none" stroke="#000000" stroke-width="1.5"/>'
        )
    for i, x in enumerate(xs, start=1):
        elements.append(_dot(x, baseline, BLACK))
        elements.append(_label(x, baseline + 20, str(i)))
    return _svg(elements)
