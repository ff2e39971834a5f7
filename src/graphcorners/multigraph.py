"""Finite directed multigraphs with named vertices and edges.

The graph file format is line oriented (UTF-8):

    # comment lines and blank lines are ignored
    vertex NAME
    edge NAME SRC DST [LABEL]

Names match ``[A-Za-z0-9_@.-]+``.  Edge endpoints must be declared before
the edge line that uses them.  The optional LABEL column is kept verbatim
on the edge; it is interpreted by the labelling module.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9_@.-]+")


class GraphFormatError(ValueError):
    """Raised for malformed graph files or inconsistent graph data."""


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str
    label: str | None = None


@dataclass(frozen=True)
class Path:
    """A finite path: a start vertex plus a sequence of edge names.

    The empty edge sequence is the length-0 path at ``start``.
    """

    start: str
    edges: tuple[str, ...] = ()

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

    Vertices and edges keep the insertion order of their source, and all
    queries iterate in that order, so downstream constructions are
    deterministic.
    """

    __slots__ = ("vertices", "edges", "_edge_by_name", "_out", "_in")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Edge | Sequence[str]] = (),
    ) -> None:
        out: dict[str, list[Edge]] = {}
        for v in vertices:
            _check_item(v, "vertex", out)
            out[v] = []
        self.vertices: tuple[str, ...] = tuple(out)

        es: list[Edge] = []
        by_name: dict[str, Edge] = {}
        inc: dict[str, list[Edge]] = {v: [] for v in out}
        for item in edges:
            e = item if isinstance(item, Edge) else Edge(*item)
            _check_item(e.name, "edge", by_name, (e.src, e.dst), out)
            by_name[e.name] = e
            out[e.src].append(e)
            inc[e.dst].append(e)
            es.append(e)
        self.edges: tuple[Edge, ...] = tuple(es)
        self._edge_by_name = by_name
        self._out = {v: tuple(lst) for v, lst in out.items()}
        self._in = {v: tuple(lst) for v, lst in inc.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedMultigraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return (
            f"DirectedMultigraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )

    def has_vertex(self, v: str) -> bool:
        return v in self._out

    def edge(self, name: str) -> Edge:
        try:
            return self._edge_by_name[name]
        except KeyError:
            raise GraphFormatError(f"unknown edge {name!r}") from None

    def has_edge(self, name: str) -> bool:
        return name in self._edge_by_name

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """All edges with source v, in insertion order."""
        self._require_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """All edges with range v, in insertion order."""
        self._require_vertex(v)
        return self._in[v]

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    def _require_vertex(self, v: str) -> None:
        if v not in self._out:
            raise GraphFormatError(f"unknown vertex {v!r}")


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
        if endpoint not in vertices:
            raise GraphFormatError(
                f"edge {name!r}: endpoint {endpoint!r} undeclared"
            )


def parse_graph(text: str) -> DirectedMultigraph:
    """Parse graph-file content; errors report the offending line number."""
    vertices: dict[str, None] = {}
    edges: dict[str, Edge] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] == "vertex":
                if len(tokens) != 2:
                    raise GraphFormatError(
                        f"expected 'vertex NAME', got {raw!r}"
                    )
                _check_item(tokens[1], "vertex", vertices)
                vertices[tokens[1]] = None
            elif tokens[0] == "edge":
                if len(tokens) not in (4, 5):
                    raise GraphFormatError(
                        f"expected 'edge NAME SRC DST [LABEL]', got {raw!r}"
                    )
                e = Edge(*tokens[1:])
                _check_item(e.name, "edge", edges, (e.src, e.dst), vertices)
                edges[e.name] = e
            else:
                raise GraphFormatError(
                    f"unknown declaration {tokens[0]!r}"
                )
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    return DirectedMultigraph(vertices, edges.values())


def serialize_graph(g: DirectedMultigraph) -> str:
    """Emit the graph file format; parse(serialize(g)) == g."""
    lines = [f"vertex {v}" for v in g.vertices]
    for e in g.edges:
        if e.label is None:
            lines.append(f"edge {e.name} {e.src} {e.dst}")
        else:
            lines.append(f"edge {e.name} {e.src} {e.dst} {e.label}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_dot(g: DirectedMultigraph) -> str:
    """DOT export, one arrow per parallel edge, sorted for stable diffs."""
    lines = ["digraph G {"]
    for v in sorted(g.vertices):
        lines.append(f'  "{v}";')
    for e in sorted(g.edges, key=lambda e: e.name):
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _kahn(successors: Mapping[str, Iterable[str]]) -> list[str]:
    """Kahn's algorithm over the nodes (the mapping's keys, in order).

    Returns the nodes in topological order; on a cycle the list stops
    short of the nodes on or behind it.
    """
    indeg = dict.fromkeys(successors, 0)
    for ws in successors.values():
        for w in ws:
            indeg[w] += 1
    queue = deque(v for v, d in indeg.items() if d == 0)
    order: list[str] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in successors[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order


def _successors(g: DirectedMultigraph) -> dict[str, list[str]]:
    return {v: [e.dst for e in g.out_edges(v)] for v in g.vertices}


def is_acyclic(g: DirectedMultigraph) -> bool:
    """True iff the graph contains no directed cycle."""
    return len(_kahn(_successors(g))) == len(g.vertices)


def topological_order(g: DirectedMultigraph) -> tuple[str, ...]:
    """Vertices in an order compatible with the edges; g must be acyclic."""
    order = _kahn(_successors(g))
    if len(order) != len(g.vertices):
        raise GraphFormatError("graph has a cycle")
    return tuple(order)


def bfs_distances(
    g: DirectedMultigraph, roots: Iterable[str]
) -> dict[str, int]:
    """Shortest path length from the root set to each reachable vertex."""
    dist: dict[str, int] = {}
    queue: deque[str] = deque()
    for v in roots:
        g._require_vertex(v)
        if v not in dist:
            dist[v] = 0
            queue.append(v)
    while queue:
        v = queue.popleft()
        for e in g.out_edges(v):
            if e.dst not in dist:
                dist[e.dst] = dist[v] + 1
                queue.append(e.dst)
    return dist


def hereditary_closure(g: DirectedMultigraph, X: Iterable[str]) -> set[str]:
    """Smallest hereditary (forward-closed) vertex set containing X."""
    return set(bfs_distances(g, X))


def is_hereditary(g: DirectedMultigraph, X: Iterable[str]) -> bool:
    xs = set(X)
    for v in xs:
        g._require_vertex(v)
    return all(e.dst in xs for v in xs for e in g.out_edges(v))


def saturate(g: DirectedMultigraph, H: Iterable[str]) -> set[str]:
    """Smallest saturated superset of the hereditary set H.

    A vertex that emits at least one edge, all of whose emitted edges end
    inside the set, is forced into it; iterate to a fixed point.
    """
    sat = set(H)
    if not is_hereditary(g, sat):
        raise GraphFormatError("input set is not hereditary")
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v in sat:
                continue
            out = g.out_edges(v)
            if out and all(e.dst in sat for e in out):
                sat.add(v)
                changed = True
    return sat


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
    """Rename vertices (and optionally edges), preserving order and labels."""
    emap = edge_map or {}
    return DirectedMultigraph(
        (vertex_map[v] for v in g.vertices),
        (
            Edge(emap.get(e.name, e.name), vertex_map[e.src],
                 vertex_map[e.dst], e.label)
            for e in g.edges
        ),
    )
