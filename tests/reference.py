"""Reference definitions the tests check the library against.

No command runs these, so they live with the tests: the path model and
path labels, hereditary and saturated vertex sets, root paths in a
subtree, the edge multiplicity matrix, the rank over the rationals,
Kosaraju's strong components and a subtree's descendants level by level.
They read the library's index columns directly.
"""

from __future__ import annotations

from typing import Iterable

from graphcorners import (
    DirectedMultigraph,
    DirectedSubtree,
    GraphFormatError,
    IntegerMatrix,
    Labelling,
)
from graphcorners.labelling import Element
from graphcorners.multigraph import _order_key


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


def path_label(c: Labelling, mu: Path) -> Element:
    """Ordered product of the edge labels along a path; identity if empty."""
    path_range(c.host, mu)
    acc = c.group.identity
    for name in mu.edges:
        acc = c.group.op(acc, c.label(name))
    return acc


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


def root_path(tree: DirectedSubtree, v: str) -> Path:
    """The unique tree path from a root down to v; empty path for roots."""
    if v not in tree.tree_vertices:
        raise GraphFormatError(f"vertex {v!r} not in the subtree")
    host = tree.host
    names: list[str] = []
    at = host._index[v]
    while (k := tree.parent_edge[at]) >= 0:
        names.append(host._names[k])
        at = host._src[k]
    names.reverse()
    return Path(start=host.vertices[at], edges=tuple(names))


def rational_rank(M: IntegerMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    A = [list(r) for r in M.entries]
    m, n = M.rows, M.cols
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = next(
            (i for i in range(rank, m) if A[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        A[rank], A[pivot_row] = A[pivot_row], A[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                num = A[rank][col] * A[i][j] - A[i][col] * A[rank][j]
                q, r = divmod(num, prev)
                assert r == 0, "fraction-free step not exact"
                A[i][j] = q
            A[i][col] = 0
        prev = A[rank][col]
        rank += 1
    return rank


def vertex_matrix(g: DirectedMultigraph) -> IntegerMatrix:
    """Edge multiplicity matrix: entry (v, w) counts the edges v -> w."""
    n = len(g.vertices)
    rows = [[0] * n for _ in range(n)]
    for v, w in zip(g._src, g._dst):
        rows[v][w] += 1
    return IntegerMatrix.from_rows(rows, g.vertices, g.vertices)


def strongly_connected_components(g: DirectedMultigraph) -> list[set[int]]:
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


def level_descendants(tree: DirectedSubtree, v: str) -> tuple[str, ...]:
    """Vertices reachable from v along tree edges, v included, by tree
    distance from v, then by vertex name: a walk down the tree's child
    lists a level at a time, each level sorted by the host's name key."""
    host = tree.host
    if v not in tree.tree_vertices:
        raise GraphFormatError(f"vertex {v!r} not in the subtree")
    children: list[list[int]] = [[] for _ in tree.parent_edge]
    for u, k in enumerate(tree.parent_edge):
        if k >= 0:
            children[host._src[k]].append(u)
    key = _order_key(host.vertices)
    order = [host._index[v]]
    frontier = order[:]
    while frontier:
        frontier = [w for u in frontier for w in children[u]]
        frontier.sort(key=key.__getitem__)
        order += frontier
    return tuple(map(host.vertices.__getitem__, order))
