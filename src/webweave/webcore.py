"""Webs as combinatorial maps: noncrossing matchings and colored trivalent
planar maps with labeled boundary.

A web is stored purely combinatorially: vertices 0..B-1 are the boundary in
cyclic label order (label i is vertex i-1), then internal vertices.  Each
vertex carries the counterclockwise cyclic order of its incident edges, which
pins the embedding up to isotopy fixing the boundary.  Nothing here ever
touches coordinates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import chain, count, repeat

from .tableau import _check_ints, _field, _is_int, _typed, _typed_items

BLACK = "black"
WHITE = "white"
_MARK = {BLACK: "B", WHITE: "W"}  # a color's letter in canonical keys


class WebStructureError(ValueError):
    """The half-edge data is malformed (as opposed to an invariant violation)."""


@dataclass(frozen=True)
class Matching:
    """A noncrossing perfect matching on 2n cyclically numbered points."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_ints((self.n,), "number of pairs")
        _check_ints((point for pair in self.pairs for point in pair), "point")
        norm = tuple(sorted((min(i, j), max(i, j)) for i, j in self.pairs))
        object.__setattr__(self, "pairs", norm)
        _check_pairs(self.n, norm)


def _check_pairs(n: int, pairs) -> None:
    """Raise ValueError unless the pairs (i, j), i < j, partition 1..2n and
    no two cross.  One pass over the points with a stack of open pairs: a
    pair must close the one opened last."""
    if len(pairs) != n:
        raise ValueError(f"pairs do not partition 1..{2 * n}")
    partner = [0] * (2 * n + 1)
    for i, j in pairs:
        if not 0 < i < j <= 2 * n or partner[i] or partner[j]:
            raise ValueError(f"pairs do not partition 1..{2 * n}")
        partner[i], partner[j] = j, i
    opened: list[int] = []
    for v, i in enumerate(partner):
        if i > v:
            opened.append(v)
        elif v:
            k = opened.pop()
            if k != i:
                raise ValueError(f"pairs ({i},{v}) and ({k},{partner[k]}) cross")


def _reflect_pairs(pairs):
    """The sorted pairs of a matching's reflection across the diameter
    through the midpoint of the arc (2n, 1): the pair (i, j) of the 2n
    points given by n pairs becomes (2n+1-j, 2n+1-i)."""
    size = 2 * len(pairs) + 1
    return tuple(sorted((size - j, size - i) for i, j in pairs))


def reflect_matching(m: Matching) -> Matching:
    """Reflect across the diameter through the midpoint of the arc (2n, 1)."""
    return Matching(m.n, _reflect_pairs(m.pairs))


@dataclass(frozen=True)
class Web:
    """An sl3 web diagram, sound by construction, as a Matching is.

    boundary_colors[i] is the color at boundary label i+1; internal_colors
    follow.  Each edge joins two vertex ids; rotation[v] lists v's incident
    edge ids counterclockwise.  Construction refuses ids that are not ints and
    checks the fields once (_check_structure); what takes a Web trusts it.
    """

    boundary_colors: tuple[str, ...]
    internal_colors: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundary_colors", tuple(self.boundary_colors))
        object.__setattr__(self, "internal_colors", tuple(self.internal_colors))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        object.__setattr__(self, "rotation", tuple(tuple(rot) for rot in self.rotation))
        _check_structure(_fields(self))

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_colors)

    @property
    def n_vertices(self) -> int:
        return len(self.boundary_colors) + len(self.internal_colors)

    def color(self, v: int) -> str:
        if v < self.n_boundary:
            return self.boundary_colors[v]
        return self.internal_colors[v - self.n_boundary]

    def is_boundary(self, v: int) -> bool:
        return v < self.n_boundary


def _fields(web: Web):
    """The four fields of a Web, in the order Web takes them."""
    return web.boundary_colors, web.internal_colors, web.edges, web.rotation


def _check_structure(parts) -> None:
    """The one gate of a web's plain fields, which Web and the sl3 pipelines
    run: every id is an integer, every color is black or white (else
    ValueError), the rotation lists one entry per vertex, and each edge
    appears exactly at its two distinct, existing endpoints.  An id that is
    not an integer is named before any other fault, the edges' first."""
    boundary_colors, internal_colors, edges, rotation = parts
    try:
        for colors in (boundary_colors, internal_colors):
            for c in colors:
                if c not in (BLACK, WHITE):
                    raise ValueError(f"bad color {c!r}")
        nv, ne = len(boundary_colors) + len(internal_colors), len(edges)
        if len(rotation) != nv:
            raise WebStructureError(f"rotation lists {len(rotation)} vertices, web has {nv}")
        seen_at: list[list[int]] = [[] for _ in edges]  # filled in vertex order, so sorted
        for v, rot in enumerate(rotation):
            for e in rot:
                if type(e) is not int and not _is_int(e) or not 0 <= e < ne:
                    raise WebStructureError(f"vertex {v} lists unknown edge {e}")
                seen_at[e].append(v)
        for e, (a, b) in enumerate(edges):
            ints = type(a) is type(b) is int or _is_int(a) and _is_int(b)
            if not (ints and 0 <= a < nv and 0 <= b < nv):
                raise WebStructureError(f"edge {e} endpoint out of range")
            if a == b:
                raise WebStructureError(f"edge {e} is a loop")
            if seen_at[e] != ([a, b] if a < b else [b, a]):
                raise WebStructureError(f"edge {e} incidences {seen_at[e]} disagree with endpoints {(a, b)}")
    except ValueError:
        # the fault found may be an id that is not an integer, or follow one
        _check_ints((v for ids in (*edges, *rotation) for v in ids), "id")
        raise


def _other(edges, e: int, v: int) -> int:
    a, b = edges[e]
    return b if v == a else a


def _face_successors(parts) -> list[int]:
    """The face permutation of the map augmented with the boundary circle,
    given the plain fields of a structurally sound web: succ[h] follows the
    half-edge h around its face.  Half-edge 2e starts at edges[e][0] and
    2e+1 at edges[e][1]; with E edges, arc i from boundary vertex i to i+1
    (mod b) has the halves 2E+2i and 2E+2i+1.  The even arc halves make the
    face outside the disk; the odd half of arc i lies in the disk face
    between labels i+1 and i+2."""
    boundary_colors, _, edges, rotation = parts
    b = len(boundary_colors)
    arc_base = 2 * len(edges)
    # succ[h] is the half-edge after h's twin, ccw at the twin's start.
    # Half-edges are named, not found by their endpoints, so parallel arcs
    # (b == 2) and the arc loop (b == 1) stay well-formed.
    succ = [0] * (arc_base + 2 * b)
    for v, rot in enumerate(rotation):
        if v < b:
            # ccw at a boundary vertex: arc toward the next label, the web
            # edges into the disk, arc back toward the previous label
            back = arc_base + 2 * ((v - 1) % b) + 1
            prev = arc_base + 2 * v
            succ[back ^ 1] = prev
        elif rot:
            e = rot[-1]
            prev = 2 * e + (edges[e][0] != v)
        for e in rot:
            h = 2 * e + (edges[e][0] != v)
            succ[prev ^ 1] = h
            prev = h
        if v < b:
            succ[prev ^ 1] = back
    return succ


def _depths_after_labels(parts) -> list[int]:
    """The depth of the disk face after each boundary label of a sound web
    with a boundary: the number of web edges crossed on a shortest way to it
    from the disk face between labels b and 1.  A breadth-first search queues
    a half-edge of each face reached across a web edge, and traces the face
    at one more than its twin's depth when it takes it; no face is listed."""
    arc_base = 2 * len(parts[2])
    succ = _face_successors(parts)
    depth = [-1] * len(succ)
    queue = [len(succ) - 1]  # the odd half of arc b-1: its twin, outside the disk, stays at depth -1
    for h in queue:
        d = depth[h ^ 1] + 1
        while depth[h] < 0:
            depth[h] = d
            if h < arc_base:
                queue.append(h ^ 1)
            h = succ[h]
    return depth[arc_base + 1 :: 2]


def validate_web(web: Web) -> list[str]:
    """The violations of the web invariants that construction leaves open
    (empty iff the web is a valid non-elliptic diagram)."""
    return _defects(_fields(web))


def _defects(parts) -> list[str]:
    """The violations of the plain fields of a structurally sound web."""
    boundary_colors, internal_colors, edges, rotation = parts
    report: list[str] = []
    b = len(boundary_colors)
    colors = (*boundary_colors, *internal_colors)
    for v, rot in enumerate(rotation):
        want = 1 if v < b else 3
        if len(rot) != want:
            where = f"boundary vertex {v + 1}" if v < b else f"internal vertex {v - b}"
            report.append(f"{where} has degree {len(rot)}, expected {want}")
    for e, (x, y) in enumerate(edges):
        if colors[x] == colors[y]:
            report.append(f"edge {e} joins two {colors[x]} vertices")
    if b == 0:
        if colors or edges:
            report.append("web without boundary vertices is not embeddable in the disk model")
        return report
    # trace each face from its least half-edge: count it, and note the size
    # of each short internal one (no arc half), in the order of those halves
    succ = _face_successors(parts)
    arc_base = 2 * len(edges)
    seen = [False] * len(succ)
    faces, short = 0, []
    for start in range(len(succ)):
        if not seen[start]:
            faces += 1
            size, inside, h = 0, True, start
            while not seen[h]:
                seen[h] = True
                size += 1
                inside = inside and h < arc_base
                h = succ[h]
            if inside and size < 6:
                short.append(size)
    euler = len(colors) - (len(edges) + b) + faces
    if euler != 2:
        report.append(f"rotation system is not a planar disk embedding (V-E+F = {euler}, expected 2)")
        return report
    report.extend(f"internal face of size {size} < 6" for size in short)
    return report


def _walk(parts) -> list:
    """The word of a structurally sound web, equal for two webs exactly when
    they are isotopic with the boundary fixed: one breadth-first walk from
    the boundary in label order names each vertex by its place in the walk
    and reads its rotation counterclockwise from the edge it was reached by.
    The word is the numbers of boundary vertices and of vertices, then each
    vertex's color, degree and neighbors' names, in walk order, one field at
    a time.  An unreachable vertex raises ValueError."""
    boundary_colors, internal_colors, edges, rotation = parts
    b = len(boundary_colors)
    colors = (*boundary_colors, *internal_colors)
    name = [*range(b), *[-1] * len(internal_colors)]
    order = list(range(b))  # vertex of each name
    reading = list(rotation[:b])
    names = []
    for v, rot in zip(order, reading):  # both grow as vertices are reached
        for e in rot:
            x, y = edges[e]
            w = y if x == v else x
            n = name[w]
            if n < 0:
                n = name[w] = len(order)
                order.append(w)
                r = rotation[w]
                i = r.index(e)
                reading.append(r[i:] + r[:i])
            names.append(n)
    if len(order) != len(colors):
        raise ValueError("web has vertices unreachable from the boundary")
    return [b, len(order), *[colors[v] for v in order], *map(len, reading), *names]


@cache
def _chunk(color: str, degree: int) -> str:
    """The key's format for a vertex of this color and degree."""
    return f"{_MARK[color]}({','.join(['%d'] * degree)})"


def canonicalize(web: Web) -> str:
    """Deterministic encoding, equal for isotopic webs with the same boundary:
    the word of _walk printed as the boundary's color marks, then one
    `mark(neighbor names)` chunk per vertex, all joined by '|'."""
    return _canonical(_fields(web))


def _canonical(parts) -> str:
    """canonicalize on plain fields, printed from the word alone."""
    word = _walk(parts)
    b, n = word[0], word[1]
    colors = word[2:n + 2]
    form = "|".join(["".join([_MARK[c] for c in colors[:b]]), *map(_chunk, colors, word[n + 2:2 * n + 2])])
    return form % tuple(word[2 * n + 2:])


def _same_web(a, b) -> bool:
    """_canonical(a) == _canonical(b) for sound webs, raising alike, without the strings."""
    return _walk(a) == _walk(b)


def webs_equal(a: Web, b: Web) -> bool:
    """Whether two webs are isotopic with the boundary fixed, as their keys say."""
    return _same_web(_fields(a), _fields(b))


def _contract(parts, positions):
    """Contract the black boundary pairs (p, p+1) at the recorded positions p,
    given as labels of the uncontracted web (p == b pairs the last label with
    the first), in one remap of plain color, edge and rotation sequences.

    Each pair's shared white neighbor takes the pair's place on the boundary;
    the other vertices and the edges keep their relative order, so the result
    equals contracting the pairs one at a time, lowest first.  Returns
    (boundary colors, internal colors, edges, rotation) as tuples.
    """
    boundary_colors, internal_colors, edges, rotation = parts
    b = len(boundary_colors)
    color = (*boundary_colors, *internal_colors)
    white_of: dict[int, int] = {}  # first vertex of each pair -> its white
    dropped: set[int] = set()  # second vertex of each pair
    gone_edges: set[int] = set()
    for p in positions:
        if not 1 <= p <= b:
            raise ValueError(f"position {p} out of range 1..{b}")
        vp, vq = p - 1, p % b
        for v in (vp, vq):
            if color[v] != BLACK:
                raise ValueError(f"boundary vertex {v + 1} is not black")
            if len(rotation[v]) != 1:
                raise ValueError(f"boundary vertex {v + 1} does not have degree 1")
        ep, eq = rotation[vp][0], rotation[vq][0]
        u = _other(edges, ep, vp)
        if _other(edges, eq, vq) != u or color[u] != WHITE:
            raise ValueError(f"boundary vertices {p} and {p % b + 1} have no common white neighbor")
        if u < b:
            raise ValueError("shared white neighbor already lies on the boundary")
        rot_u = rotation[u]
        if rot_u[(rot_u.index(ep) + 1) % len(rot_u)] != eq:
            raise ValueError("contraction pair edges are not adjacent in the white vertex's rotation")
        # overlapping pairs share a boundary vertex of degree 1, hence its white
        if u in white_of.values():
            raise ValueError(f"two contraction pairs overlap or share the white vertex {u}")
        white_of[vp] = u
        dropped.add(vq)
        gone_edges.update((ep, eq))

    whites = set(white_of.values())
    # each pair's white takes its first vertex's slot, and its second leaves
    order = [white_of.get(v, v) for v in range(b) if v in white_of or v not in dropped]
    nb = len(order)
    order += [v for v in range(b, len(color)) if v not in whites]
    remap = [0] * len(color)
    for new_v, v in enumerate(order):
        remap[v] = new_v
    edge_remap: list[int | None] = [None] * len(edges)
    kept = []
    for e, (x, y) in enumerate(edges):
        if e not in gone_edges:
            edge_remap[e] = len(kept)
            kept.append((remap[x], remap[y]))
    new_rotation = tuple(tuple([edge_remap[e] for e in rotation[v] if e not in gone_edges]) for v in order)
    colors = tuple(color[v] for v in order)
    return colors[:nb], colors[nb:], tuple(kept), new_rotation


def contract_pair(web: Web, p: int) -> Web:
    """Delete the black boundary pair (p, p+1) and move their shared white
    neighbor onto the boundary in their place."""
    return contract_pairs(web, (p,))


def contract_pairs(web: Web, positions) -> Web:
    """Contract the black boundary pairs at several positions, all given as
    labels of this web, in one pass; the result equals contracting them one
    at a time, lowest first, each earlier contraction shifting the later
    positions down by one.  A position that is not an integer, overlapping
    pairs, and two pairs with the same white neighbor raise ValueError.  No
    positions return the web itself."""
    positions = tuple(positions)
    _check_ints(positions, "position")
    if not positions:
        return web
    return Web(*_contract(_fields(web), positions))


def _reflect_parts(parts):
    """The plain fields of a web's reflection, given its plain fields.

    Combinatorially a mirror: boundary label i becomes b+1-i, so the boundary
    colors reverse, internal vertices keep their ids, and every rotation
    reverses (a mirror image reverses orientation).
    """
    boundary_colors, internal_colors, edges, rotation = parts
    b = len(boundary_colors)
    remap = [*range(b - 1, -1, -1), *range(b, b + len(internal_colors))]  # its own inverse
    edges = [(remap[x], remap[y]) for x, y in edges]
    rotation = [rotation[v][::-1] for v in remap]
    return boundary_colors[::-1], internal_colors, edges, rotation


def reflect_web(web: Web) -> Web:
    """Reflect across the diameter through the midpoint of the boundary arc
    between the last and first labels (see _reflect_parts)."""
    return Web(*_reflect_parts(_fields(web)))


# --- JSON forms -------------------------------------------------------------

def matching_to_json(m: Matching) -> dict:
    return {"n": m.n, "pairs": [list(p) for p in m.pairs]}


def matching_from_json(doc: dict | str) -> Matching:
    if isinstance(doc, str):
        doc = json.loads(doc)
    doc = _typed(doc, dict, "a matching document")
    pair_docs = _typed_items(_field(doc, "pairs", "a matching document"), list, "pairs")
    pairs = tuple(tuple(_typed_items(p, int, "each pair")) for p in pair_docs)
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("each pair must have two points")
    return Matching(_typed(_field(doc, "n", "a matching document"), int, "n"), pairs)


def _endpoint_names(b: int, nv: int) -> list[str]:
    """The document's names of the nv vertices of a web with b boundary vertices."""
    return [*map("b{}".format, range(b)), *map("i{}".format, range(nv - b))]


def web_to_json(web: Web) -> dict:
    name, edges = _endpoint_names(web.n_boundary, web.n_vertices), web.edges
    return {
        "boundary": [{"color": c} for c in web.boundary_colors],
        "internal_count": len(web.internal_colors),
        "internal_colors": list(web.internal_colors),
        "edges": [[name[x], name[y]] for x, y in edges],
        # half-edge 2e starts at edges[e][0] and 2e+1 at edges[e][1]
        "rotation": [[2 * e + (edges[e][0] != v) for e in rot] for v, rot in enumerate(web.rotation)],
    }


def web_from_json(doc: dict | str) -> Web:
    """Read a web document.  Endpoints and half-edges are read only as
    web_to_json writes them: an endpoint is one of the names _endpoint_names
    gives, and a half-edge 2e + side sits where edge e's side starts.

    Each array is checked in bulk: one pass over the exact types of its
    items, one lookup per endpoint, and one comparison of the listed
    half-edges' starts with the vertices that list them.  Where a bulk pass
    does not accept, the items are read one by one, which names the first
    fault in document order, or accepts what the bulk pass could not vouch
    for, such as a subclass of str or int."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    doc = _typed(doc, dict, "a web document")
    boundary_docs = _typed_items(_field(doc, "boundary", "a web document"), dict, "boundary")
    try:
        boundary_colors = tuple([item["color"] for item in boundary_docs])
    except KeyError:
        boundary_colors = tuple(_field(item, "color", "each entry of boundary") for item in boundary_docs)
    internal_colors = tuple(_typed(_field(doc, "internal_colors", "a web document"), list, "internal_colors"))
    if len(internal_colors) != _typed(_field(doc, "internal_count", "a web document"), int, "internal_count"):
        raise WebStructureError("internal_count disagrees with internal_colors")
    nv = len(boundary_colors) + len(internal_colors)
    vertex_of = dict(zip(_endpoint_names(len(boundary_colors), nv), range(nv)))

    edge_docs = _typed_items(_field(doc, "edges", "a web document"), list, "edges")
    if not {*map(len, edge_docs)} <= {2}:
        raise WebStructureError("each edge must have two endpoints")
    # the endpoints in document order, so starts[h] is where half-edge h starts
    names = [*chain.from_iterable(edge_docs)]
    starts = [*map(vertex_of.get, names)] if {*map(type, names)} <= {str} else None
    if starts is None or None in starts:
        for name in names:
            if not isinstance(name, str) or vertex_of.get(name) is None:
                raise WebStructureError(f"bad endpoint {name!r}")
        starts = [vertex_of[name] for name in names]
    edges = tuple(zip(starts[::2], starts[1::2]))

    rotation_docs = _typed_items(_field(doc, "rotation", "a web document"), list, "rotation")
    start_of = dict(enumerate(starts))
    listed = [*chain.from_iterable(rotation_docs)]
    # the vertex that lists each of those half-edges: v, once per entry of rotation[v]
    listed_at = [*chain.from_iterable(map(repeat, count(), map(len, rotation_docs)))]
    if not ({*map(type, listed)} <= {int} and [*map(start_of.get, listed)] == listed_at):
        for v, halves in enumerate(rotation_docs):
            for h in _typed_items(halves, int, f"rotation[{v}]"):
                if start_of.get(h) != v:
                    raise WebStructureError(f"half-edge {h} does not sit at vertex {v}")
    return Web(boundary_colors, internal_colors, edges, [[h // 2 for h in halves] for halves in rotation_docs])
