"""Directed subtrees: validation, descendants, BFS construction.

A directed subtree of a host graph is an acyclic edge subset in which every
vertex receives at most one tree edge.  The subtrees handled here always
span the hereditary closure of their root set, which is the shape the
corner construction requires.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    _distances,
    _kahn,
    _order_key,
)


class SubtreeValidationError(ValueError):
    """Carries the full list of violated subtree invariants."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DirectedSubtree(NamedTuple("DirectedSubtree", [
    ("host", DirectedMultigraph), ("parent_edge", list[int]),
    ("spanned_indices", Sequence[int]),
])):
    """A validated subtree, held on host indices: ``parent_edge[v]`` is the
    tree edge entering vertex v (-1 for roots and unspanned vertices), and
    ``spanned_indices`` is sorted; the roots are the spanned vertices with
    no tree edge.  The name views ``tree_edges``, ``tree_vertices``,
    ``roots`` and ``parent`` (non-root spanned vertex -> its tree edge),
    and the parents-first order ``_order``, are built on first use and
    kept in the instance ``__dict__``, which this subclass has for want
    of ``__slots__``.  Instances come from :func:`validate_subtree`,
    :func:`build_spanning_subtree` or the skew walk of the fixed-point
    pipeline (one range for ``spanned_indices`` and ``_order``), and
    always satisfy the invariants.
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
    def _vertex_key(self) -> Sequence:
        """Keys in the str order of the host's vertex names, for
        ``descendants``: the corner makes its own for the call."""
        return _order_key(self.host.vertices)

    @cached_property
    def _children(self) -> list[list[int]]:
        """The tree children of each host vertex, by index."""
        src = self.host._src
        children: list[list[int]] = [[] for _ in self.parent_edge]
        for v, k in enumerate(self.parent_edge):
            if k >= 0:
                children[src[k]].append(v)
        return children

    @cached_property
    def _order(self) -> list[int]:
        """The spanned vertices, each after its tree parent.  A tree from
        :func:`build_spanning_subtree` or the skew walk keeps its BFS order
        here; otherwise the roots, then the rest breadth first."""
        children = self._children
        order = [v for v in self.spanned_indices if self.parent_edge[v] < 0]
        for v in order:
            order += children[v]
        return order


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
    child_edges: list[list[int]] = [[] for _ in vs]
    for k in edges:
        outside = [w for w in (src[k], dst[k]) if w not in closure]
        for w in outside:
            violations.append(
                f"tree edge {names[k]!r} has endpoint {vs[w]!r} outside the "
                f"spanned vertex set"
            )
        if not outside:
            child_edges[src[k]].append(k)
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

    # No child edge ends outside the closure: Kahn passes those vertices.
    if len(_kahn(child_edges, dst)) != len(vs):
        violations.append("cycle among tree edges")

    if violations:
        raise SubtreeValidationError(violations)

    parent_edge = [-1] * len(vs)
    for k in edges:
        parent_edge[dst[k]] = k
    return DirectedSubtree(host, parent_edge, sorted(closure))


def descendants(tree: DirectedSubtree, v: str) -> tuple[str, ...]:
    """Vertices reachable from v along tree edges, v included.

    Ordered by tree distance from v, then by vertex name: the order of
    the whole tree by (depth, name), kept to v's subtree.  The corner
    construction takes its kept vertices once in that order and gives
    each to every range above it, so each range's targets come in this
    order with no sort.
    """
    if v not in tree.tree_vertices:
        raise GraphFormatError(f"vertex {v!r} not in the subtree")
    children, key = tree._children, tree._vertex_key
    order = [tree.host._index[v]]
    frontier = order[:]
    while frontier:
        frontier = [w for u in frontier for w in children[u]]
        frontier.sort(key=key.__getitem__)
        order += frontier
    return tuple(map(tree.host.vertices.__getitem__, order))


def build_spanning_subtree(host: DirectedMultigraph,
                           roots: Iterable[str]) -> DirectedSubtree:
    """BFS spanning subtree of the hereditary closure of the root set.

    Each non-root vertex at distance n gets one incoming edge from a
    vertex at distance n-1, choosing the lexicographically smallest
    qualifying edge name, so the result is reproducible.  The result
    satisfies the subtree invariants by construction.
    """
    out, dst = host._out, host._dst
    order = list(dict.fromkeys(map(host._require_vertex, roots)))
    if not order:
        raise GraphFormatError("root set must be non-empty")
    key = _order_key(host._names)
    depth = [-1] * len(host.vertices)
    parent_edge = [-1] * len(host.vertices)
    for v in order:
        depth[v] = 0
    # The first edge to reach a vertex sets its depth; a later one from
    # the same level takes its place when its name is smaller.
    for v in order:
        d = depth[v] + 1
        for k in out[v]:
            w = dst[k]
            if depth[w] < 0:
                depth[w] = d
                parent_edge[w] = k
                order.append(w)
            elif depth[w] == d and key[k] < key[parent_edge[w]]:
                parent_edge[w] = k
    tree = DirectedSubtree(host, parent_edge, sorted(order))
    tree.__dict__["_order"] = order
    return tree
