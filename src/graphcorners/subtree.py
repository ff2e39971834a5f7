"""Directed subtrees: validation, root paths, descendants, BFS construction.

A directed subtree of a host graph is an acyclic edge subset in which every
vertex receives at most one tree edge.  The subtrees handled here always
span the hereditary closure of their root set, which is the shape the
corner construction requires.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    Path,
    _distances,
    _kahn,
    bfs_distances,  # noqa: F401  (re-exported)
)


class SubtreeValidationError(ValueError):
    """Carries the full list of violated subtree invariants."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DirectedSubtree(NamedTuple("DirectedSubtree", [
    ("host", DirectedMultigraph), ("parent_edge", list[int]),
    ("spanned_indices", list[int]),
])):
    """A validated subtree, held on host indices: ``parent_edge[v]`` is the
    tree edge entering vertex v (-1 for roots and unspanned vertices), and
    ``spanned_indices`` is sorted; the roots are the spanned vertices with
    no tree edge.  The name views ``tree_edges``, ``tree_vertices``,
    ``roots`` and ``parent`` (non-root spanned vertex -> its tree edge) are
    built on first use and kept in the instance ``__dict__``, which this
    subclass has for want of ``__slots__``.  Instances come from
    :func:`validate_subtree` or :func:`build_spanning_subtree` and always
    satisfy the invariants.
    """

    @cached_property
    def tree_edges(self) -> frozenset[str]:
        return frozenset(self.parent.values())

    @cached_property
    def tree_vertices(self) -> frozenset[str]:
        return frozenset(self.host.vertices[v] for v in self.spanned_indices)

    @cached_property
    def roots(self) -> frozenset[str]:
        return frozenset(self.host.vertices[v] for v in self.spanned_indices
                         if self.parent_edge[v] < 0)

    @cached_property
    def parent(self) -> dict[str, str]:
        vs, names = self.host.vertices, self.host._names
        return {vs[v]: names[k]
                for v, k in enumerate(self.parent_edge) if k >= 0}

    def is_tree_edge(self, name: str) -> bool:
        k = self.host._edge_index.get(name)
        return k is not None and self.parent_edge[self.host._dst[k]] == k

    @cached_property
    def _children(self) -> list[list[int]]:
        """The tree children of each host vertex, by index."""
        src = self.host._src
        children: list[list[int]] = [[] for _ in self.parent_edge]
        for v, k in enumerate(self.parent_edge):
            if k >= 0:
                children[src[k]].append(v)
        return children


def validate_subtree(
    host: DirectedMultigraph,
    tree_edges: Iterable[str],
    roots: Iterable[str],
) -> DirectedSubtree:
    """Check the subtree invariants; raise with every violation found.

    The spanned vertex set is always the hereditary closure of the roots:
    the root set must be exactly the vertices receiving no tree edge, every
    other spanned vertex must receive exactly one, and the tree edges must
    stay inside the closure and form no cycle.
    """
    vs, names, src, dst = host.vertices, host._names, host._src, host._dst
    given = list(dict.fromkeys(tree_edges))
    edges = list(map(host._edge_index.get, given))
    if None in edges:
        raise GraphFormatError(f"unknown edge {given[edges.index(None)]!r}")
    # The roots are at distance 0.
    closure = _distances(host, map(host._require_vertex, roots))
    violations: list[str] = []

    incoming: dict[int, list[str]] = {}
    children: list[list[int]] = [[] for _ in vs]
    for k in edges:
        outside = [w for w in (src[k], dst[k]) if w not in closure]
        for w in outside:
            violations.append(
                f"tree edge {names[k]!r} has endpoint {vs[w]!r} outside the "
                f"spanned vertex set"
            )
        if not outside:
            children[src[k]].append(dst[k])
        incoming.setdefault(dst[k], []).append(names[k])

    for v in sorted(incoming, key=vs.__getitem__):
        received = incoming[v]
        if len(received) > 1:
            violations.append(
                f"in-degree violation: vertex {vs[v]!r} receives "
                f"{len(received)} tree edges ({', '.join(sorted(received))})"
            )

    spanned = sorted(closure, key=vs.__getitem__)
    for v in spanned:
        if not closure[v] and v in incoming:
            violations.append(
                f"root-set mismatch: root {vs[v]!r} receives tree edge "
                f"{incoming[v][0]!r}"
            )
    for v in spanned:
        if closure[v] and v not in incoming:
            violations.append(
                f"root-set mismatch: non-root vertex {vs[v]!r} receives no "
                f"tree edge"
            )

    # No child list holds a vertex outside the closure: Kahn passes them.
    if len(_kahn(children)) != len(vs):
        violations.append("cycle among tree edges")

    if violations:
        raise SubtreeValidationError(violations)

    parent_edge = [-1] * len(vs)
    for k in edges:
        parent_edge[dst[k]] = k
    return DirectedSubtree(host, parent_edge, sorted(closure))


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


def descendants(
    tree: DirectedSubtree, v: str | int, indices: bool = False
) -> tuple[str, ...] | list[int]:
    """Vertices reachable from v along tree edges, v included.

    Ordered by tree distance from v, then by vertex name, which is the
    order the corner construction enumerates targets in; it calls this
    once per root and ranks the kept vertices by it.  With ``indices``,
    v (which must be spanned) and the result are host vertex indices.
    """
    names = tree.host.vertices
    if not indices:
        if v not in tree.tree_vertices:
            raise GraphFormatError(f"vertex {v!r} not in the subtree")
        v = tree.host._index[v]
    children = tree._children
    order = [v]
    frontier = order[:]
    while frontier:
        frontier = [w for u in frontier for w in children[u]]
        frontier.sort(key=names.__getitem__)
        order += frontier
    return order if indices else tuple([names[i] for i in order])


def build_spanning_subtree(
    host: DirectedMultigraph, roots: Iterable[str] | Iterable[int],
    indices: bool = False,
) -> DirectedSubtree:
    """BFS spanning subtree of the hereditary closure of the root set.

    Each non-root vertex at distance n gets one incoming edge from a
    vertex at distance n-1, choosing the lexicographically smallest
    qualifying edge name, so the result is reproducible.  The result
    satisfies the subtree invariants by construction.  With ``indices``,
    the roots are host vertex indices, and no name is looked up.
    """
    dist = _distances(
        host, roots if indices else map(host._require_vertex, roots))
    if not dist:
        raise GraphFormatError("root set must be non-empty")
    depth = [-2] * len(host.vertices)  # -2 + 1 is no vertex's depth
    for v, d in dist.items():
        depth[v] = d
    names = host._names
    parent_edge = [-1] * len(host.vertices)
    for k, (v, w) in enumerate(zip(host._src, host._dst)):
        if depth[w] == depth[v] + 1:
            j = parent_edge[w]
            if j < 0 or names[k] < names[j]:
                parent_edge[w] = k
    return DirectedSubtree(host, parent_edge, sorted(dist))
