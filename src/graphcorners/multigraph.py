"""Finite directed multigraphs with named vertices and edges.

The graph file format is line oriented (UTF-8):

    # comment lines and blank lines are ignored
    vertex NAME
    edge NAME SRC DST [LABEL]

Names match ``[A-Za-z0-9_@.-]+``.  Edge endpoints must be declared before
the edge line that uses them.  The optional LABEL column is kept verbatim
on the edge; it is interpreted by the labelling module.

A graph is integer indexed inside; the library's algorithms run on the
indices, and names appear only at the boundary: parsing, printing,
errors and the public API.
"""

from __future__ import annotations

import re
from typing import Container, Iterable, NamedTuple, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9_@.-]+")


class GraphFormatError(ValueError):
    """Raised for malformed graph files or inconsistent graph data."""


class Edge(NamedTuple):
    name: str
    src: str
    dst: str
    label: str | None = None


class Path:
    """A finite path: a start vertex plus a sequence of edge names.

    The empty edge sequence is the length-0 path at ``start``.  A path is
    not a tuple: its length is its edge count.
    """

    __slots__ = ("start", "edges")

    def __init__(self, start: str, edges: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot change field {name!r} of a Path")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.edges) == (other.start, other.edges)

    def __hash__(self) -> int:
        return hash((self.start, self.edges))

    def __repr__(self) -> str:
        return f"Path(start={self.start!r}, edges={self.edges!r})"

    def __reduce__(self) -> tuple:  # copy and pickle go through __init__
        return Path, (self.start, self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def is_prefix_of(self, other: "Path") -> bool:
        """Initial-subpath order: same start, edge sequence a prefix."""
        return (
            self.start == other.start
            and self.edges == other.edges[: len(self.edges)]
        )


class DirectedMultigraph:
    """Immutable directed multigraph; parallel edges and loops allowed.

    Vertices and edges are indices in the insertion order of their
    source, and all queries iterate in that order, so downstream
    constructions are deterministic.  ``vertices`` holds the names, edge
    columns hold each edge's name, source index, range index and label,
    and ``_out[v]``/``_in[v]`` list the edges leaving and entering v.  The
    library works on indices; ``Edge`` objects are made on request only.
    The public constructor checks every item in one pass (names,
    endpoints, each edge item's shape and label); ``parse_graph``, which
    checks each line as it reads it, and graphs derived from a valid
    graph build through the trusted ``_from_indices``, which checks
    nothing.  The name indexes are built on first use.
    """

    __slots__ = ("vertices", "_index", "_names", "_src", "_dst", "_labels",
                 "_edge_index", "_out", "_in")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Edge | tuple | list] = (),
    ) -> None:
        self.vertices: tuple[str, ...] = tuple(vertices)
        self._index, rows = _check_items(self.vertices, list(edges))
        self._names, self._labels = [r[0] for r in rows], [r[3] for r in rows]
        self._src = [self._index[r[1]] for r in rows]
        self._dst = [self._index[r[2]] for r in rows]

    @classmethod
    def _from_indices(cls, vertices, names, src, dst, labels=None):
        """The trusted constructor: endpoints are vertex indices, and names
        are unchecked.  ``parse_graph`` and ``relabelled`` check theirs; the
        library's own are unique by construction: a skew name ``v@g`` or
        ``e@g`` splits uniquely at its last '@', since no element encoding
        holds one, corner edge names go through ``corner._unclash``, and
        the CLI's ``--relabel`` names ``v{i}``/``e{k}`` are positional."""
        g = cls.__new__(cls)
        g.vertices, g._names, g._src, g._dst = tuple(vertices), names, src, dst
        g._labels = labels or [None] * len(names)
        return g

    def __getattr__(self, name: str) -> dict[str, int] | list[list[int]]:
        # The name indexes and adjacency lists are each built on first use:
        # a printed graph needs none of them, and a skew product only _out.
        if name in ("_index", "_edge_index"):
            items = self.vertices if name == "_index" else self._names
            value = dict(zip(items, range(len(items))))
        elif name in ("_out", "_in"):
            value = [[] for _ in self.vertices]
            for k, v in enumerate(self._src if name == "_out" else self._dst):
                value[v].append(k)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedMultigraph):
            return NotImplemented
        return self._columns() == other._columns()

    def _columns(self) -> tuple:
        return self.vertices, self._names, self._src, self._dst, self._labels

    def __repr__(self) -> str:
        return (
            f"DirectedMultigraph({len(self.vertices)} vertices, "
            f"{len(self._names)} edges)"
        )

    def _edge(self, k: int) -> Edge:
        vs = self.vertices
        return Edge(self._names[k], vs[self._src[k]], vs[self._dst[k]],
                    self._labels[k])

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges, in insertion order."""
        return tuple(map(self._edge, range(len(self._names))))

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def edge(self, name: str) -> Edge:
        k = self._edge_index.get(name)
        if k is None:
            raise GraphFormatError(f"unknown edge {name!r}")
        return self._edge(k)

    def has_edge(self, name: str) -> bool:
        return name in self._edge_index

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """All edges with source v, in insertion order."""
        return tuple(map(self._edge, self._out[self._require_vertex(v)]))

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """All edges with range v, in insertion order."""
        return tuple(map(self._edge, self._in[self._require_vertex(v)]))

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v, out in zip(self.vertices, self._out) if not out)

    def _require_vertex(self, v: str) -> int:
        """The index of vertex v."""
        i = self._index.get(v)
        if i is None:
            raise GraphFormatError(f"unknown vertex {v!r}")
        return i


def _check_item(
    name: str,
    kind: str,
    taken: Container[str],
    endpoints: Iterable[str] = (),
    vertices: Container[str] = (),
) -> None:
    """Check one vertex or edge before it joins a graph: its name is well
    formed and not in ``taken``, and its endpoints are in ``vertices``."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise GraphFormatError(f"invalid {kind} name {name!r}")
    if name in taken:
        raise GraphFormatError(f"duplicate {kind} name {name!r}")
    for endpoint in endpoints:
        if not isinstance(endpoint, str) or endpoint not in vertices:
            raise GraphFormatError(
                f"edge {name!r}: endpoint {endpoint!r} undeclared"
            )


def _row(e: object) -> tuple | None:
    """An edge item as (name, src, dst, label); None if it is not a tuple
    (an ``Edge`` is one) or list of 3 or 4 items."""
    if isinstance(e, (tuple, list)) and 3 <= len(e) <= 4:
        return tuple(e) if len(e) == 4 else (*e, None)
    return None


def _is_label(text: object) -> bool:
    """Whether a label is None or one token of the file format."""
    return text is None or isinstance(text, str) and text.split() == [text]


def _check_items(vertices: Sequence, items: list) -> tuple[dict, list]:
    """Raise for the first bad item: vertices first, then each edge item's
    shape, name, endpoints and label, in order.  Return each vertex's
    index by name, and the edge rows."""
    index: dict[str, int] = {}
    for v in vertices:
        _check_item(v, "vertex", index)
        index[v] = len(index)
    taken: set[str] = set()
    rows = list(map(_row, items))
    for e, row in zip(items, rows):
        if row is None:
            raise GraphFormatError(f"invalid edge item {e!r}: expected "
                                   f"(NAME, SRC, DST[, LABEL])")
        _check_item(row[0], "edge", taken, row[1:3], index)
        if not _is_label(row[3]):
            raise GraphFormatError(
                f"edge {row[0]!r}: invalid label {row[3]!r}")
        taken.add(row[0])
    return index, rows


def parse_graph(text: str) -> DirectedMultigraph:
    """Parse graph-file content; errors report the offending line number."""
    vertices: dict[str, int] = {}
    edges: dict[str, None] = {}
    src, dst, labels = [], [], []
    valid = NAME_RE.fullmatch
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        # A well-formed line passes _check_item's tests, made inline here,
        # and joins the columns for the trusted constructor (a label is one
        # token by construction); any other line goes through the checks
        # below, which raise, naming what is wrong with it.
        if (tokens[0] == "edge" and 4 <= len(tokens) <= 5
                and valid(tokens[1]) and tokens[1] not in edges
                and tokens[2] in vertices and tokens[3] in vertices):
            edges[tokens[1]] = None
            src.append(vertices[tokens[2]])
            dst.append(vertices[tokens[3]])
            labels.append(tokens[4] if len(tokens) == 5 else None)
            continue
        if (tokens[0] == "vertex" and len(tokens) == 2
                and valid(tokens[1]) and tokens[1] not in vertices):
            vertices[tokens[1]] = len(vertices)
            continue
        try:
            if tokens[0] == "vertex":
                if len(tokens) != 2:
                    raise GraphFormatError(
                        f"expected 'vertex NAME', got {raw!r}"
                    )
                _check_item(tokens[1], "vertex", vertices)
            elif tokens[0] == "edge":
                if len(tokens) not in (4, 5):
                    raise GraphFormatError(
                        f"expected 'edge NAME SRC DST [LABEL]', got {raw!r}"
                    )
                _check_item(tokens[1], "edge", edges, tokens[2:4], vertices)
            else:
                raise GraphFormatError(
                    f"unknown declaration {tokens[0]!r}"
                )
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    g = DirectedMultigraph._from_indices(vertices, list(edges), src, dst,
                                         labels)
    g._index = vertices
    return g


def serialize_graph(g: DirectedMultigraph) -> str:
    """Emit the graph file format; parse(serialize(g)) == g."""
    vs = g.vertices
    lines = [f"vertex {v}" for v in vs]
    lines += [
        f"edge {name} {vs[s]} {vs[d]}" if label is None
        else f"edge {name} {vs[s]} {vs[d]} {label}"
        for name, s, d, label in zip(g._names, g._src, g._dst, g._labels)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def to_dot(g: DirectedMultigraph) -> str:
    """DOT export, one arrow per parallel edge, sorted for stable diffs."""
    vs = g.vertices
    lines = ["digraph G {"]
    for v in sorted(vs):
        lines.append(f'  "{v}";')
    for k in sorted(range(len(g._names)), key=g._names.__getitem__):
        lines.append(
            f'  "{vs[g._src[k]]}" -> "{vs[g._dst[k]]}" '
            f'[label="{g._names[k]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _kahn(successors: list[list[int]]) -> list[int]:
    """Kahn's algorithm over the nodes 0..n-1, given their successors.

    Returns the nodes in topological order; on a cycle the list stops
    short of the nodes on or behind it.
    """
    indeg = [0] * len(successors)
    for ws in successors:
        for w in ws:
            indeg[w] += 1
    order = [v for v, d in enumerate(indeg) if d == 0]
    for v in order:
        for w in successors[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order


def _successors(g: DirectedMultigraph) -> list[list[int]]:
    return [[g._dst[k] for k in out] for out in g._out]


def is_acyclic(g: DirectedMultigraph) -> bool:
    """True iff the graph contains no directed cycle."""
    return len(_kahn(_successors(g))) == len(g.vertices)


def _distances(g: DirectedMultigraph, roots: Iterable[str]) -> dict[int, int]:
    """Shortest path length from the root set to each reachable vertex
    index, in breadth-first discovery order."""
    dist = {g._require_vertex(v): 0 for v in roots}
    queue = list(dist)
    for v in queue:
        d = dist[v] + 1
        for k in g._out[v]:
            w = g._dst[k]
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return dist


def bfs_distances(
    g: DirectedMultigraph, roots: Iterable[str]
) -> dict[str, int]:
    """Shortest path length from the root set to each reachable vertex."""
    return {g.vertices[i]: d for i, d in _distances(g, roots).items()}


def _strongly_connected_components(g: DirectedMultigraph) -> list[set[int]]:
    """Strong components as sets of vertex indices (Kosaraju)."""
    finish: list[int] = []
    seen: set[int] = set()
    for v in range(len(g.vertices)):
        if v in seen:
            continue
        seen.add(v)
        stack = [(v, iter(g._out[v]))]
        while stack:
            u, it = stack[-1]
            k = next(it, None)
            if k is None:
                finish.append(u)
                stack.pop()
                continue
            w = g._dst[k]
            if w not in seen:
                seen.add(w)
                stack.append((w, iter(g._out[w])))
    comps: list[set[int]] = []
    assigned: set[int] = set()
    for v in reversed(finish):
        if v in assigned:
            continue
        comp = {v}
        assigned.add(v)
        work = [v]
        while work:
            u = work.pop()
            for k in g._in[u]:
                w = g._src[k]
                if w not in assigned:
                    assigned.add(w)
                    comp.add(w)
                    work.append(w)
        comps.append(comp)
    return comps


def hereditary_closure(g: DirectedMultigraph, X: Iterable[str]) -> set[str]:
    """Smallest hereditary (forward-closed) vertex set containing X."""
    return set(bfs_distances(g, X))


def is_hereditary(g: DirectedMultigraph, X: Iterable[str]) -> bool:
    xs = {g._require_vertex(v) for v in X}
    return all(g._dst[k] in xs for v in xs for k in g._out[v])


def saturate(g: DirectedMultigraph, H: Iterable[str]) -> set[str]:
    """Smallest saturated superset of the hereditary set H.

    A vertex that emits at least one edge, all of whose emitted edges end
    inside the set, is forced into it.  Each vertex counts its edges that
    still leave the set; a vertex joining the set lowers the counts of
    the sources of its in-edges, so every edge is looked at twice.
    """
    start = set(H)
    if not is_hereditary(g, start):
        raise GraphFormatError("input set is not hereditary")
    inside = [v in start for v in g.vertices]
    leaving = [sum(not inside[g._dst[k]] for k in out) for out in g._out]
    work = [v for v, out in enumerate(g._out)
            if out and not inside[v] and not leaving[v]]
    for v in work:
        inside[v] = True
    while work:
        for k in g._in[work.pop()]:
            v = g._src[k]
            if not inside[v]:
                leaving[v] -= 1
                if not leaving[v]:
                    inside[v] = True
                    work.append(v)
    return {v for v, joined in zip(g.vertices, inside) if joined}


def path_range(g: DirectedMultigraph, path: Path) -> str:
    """Range vertex of a path, validating composition along the way."""
    g._require_vertex(path.start)
    at = path.start
    for name in path.edges:
        e = g.edge(name)
        if e.src != at:
            raise GraphFormatError(
                f"path breaks at {name!r}: expected source {at!r}, "
                f"edge has source {e.src!r}"
            )
        at = e.dst
    return at


def relabelled(
    g: DirectedMultigraph,
    vertex_map: dict[str, str],
    edge_map: dict[str, str] | None = None,
) -> DirectedMultigraph:
    """Rename vertices (and optionally edges), preserving order and labels.

    The new names are taken as given, except that the first repeated name
    is rejected: unlike the library's own, they are not unique by
    construction, and the trusted constructor checks nothing.
    """
    emap = edge_map or {}
    h = DirectedMultigraph._from_indices(
        [vertex_map[v] for v in g.vertices],
        [emap.get(name, name) for name in g._names],
        g._src, g._dst, g._labels,
    )
    for kind, items in (("vertex", h.vertices), ("edge", h._names)):
        seen: set[str] = set()
        for x in items:
            if x in seen:
                raise GraphFormatError(f"duplicate {kind} name {x!r}")
            seen.add(x)
    return h
