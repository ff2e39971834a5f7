"""Directed subtrees: validation, root paths, descendants, BFS construction.

A directed subtree of a host graph is an acyclic edge subset in which every
vertex receives at most one tree edge.  The subtrees handled here always
span the hereditary closure of their root set, which is the shape the
corner construction requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    Path,
    _distances,
    _kahn,
    bfs_distances,  # noqa: F401  (re-exported)
    hereditary_closure,
)


class SubtreeValidationError(ValueError):
    """Carries the full list of violated subtree invariants."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class DirectedSubtree:
    """A validated subtree: host graph, tree edges, spanned vertices, roots.

    ``parent`` maps each non-root spanned vertex to its unique incoming
    tree edge name.  Instances are produced by :func:`validate_subtree`
    or :func:`build_spanning_subtree` and always satisfy the invariants.
    """

    host: DirectedMultigraph
    tree_edges: frozenset[str]
    tree_vertices: frozenset[str]
    roots: frozenset[str]
    parent: Mapping[str, str]

    def is_tree_edge(self, name: str) -> bool:
        return name in self.tree_edges

    @cached_property
    def _children(self) -> list[list[int]]:
        """The tree children of each host vertex, by index."""
        host = self.host
        children: list[list[int]] = [[] for _ in host.vertices]
        for v, name in self.parent.items():
            children[host._src[host._edge_index[name]]].append(host._index[v])
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
    edges = [host.edge(name) for name in dict.fromkeys(tree_edges)]
    root_list = list(dict.fromkeys(roots))
    for v in root_list:
        host._require_vertex(v)
    root_set = set(root_list)

    closure = hereditary_closure(host, root_list)
    violations: list[str] = []

    incoming: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {v: [] for v in closure}
    for e in edges:
        outside = [w for w in (e.src, e.dst) if w not in closure]
        for w in outside:
            violations.append(
                f"tree edge {e.name!r} has endpoint {w!r} outside the "
                f"spanned vertex set"
            )
        if not outside:
            children[e.src].append(e.dst)
        incoming.setdefault(e.dst, []).append(e.name)

    for v in sorted(incoming):
        names = incoming[v]
        if len(names) > 1:
            violations.append(
                f"in-degree violation: vertex {v!r} receives "
                f"{len(names)} tree edges ({', '.join(sorted(names))})"
            )

    for v in sorted(root_set):
        if v in incoming:
            violations.append(
                f"root-set mismatch: root {v!r} receives tree edge "
                f"{incoming[v][0]!r}"
            )
    for v in sorted(closure - root_set):
        if v not in incoming:
            violations.append(
                f"root-set mismatch: non-root vertex {v!r} receives no "
                f"tree edge"
            )

    if len(_kahn(children)) != len(closure):
        violations.append("cycle among tree edges")

    if violations:
        raise SubtreeValidationError(violations)

    parent = {e.dst: e.name for e in edges}
    return DirectedSubtree(
        host=host,
        tree_edges=frozenset(parent.values()),
        tree_vertices=frozenset(closure),
        roots=frozenset(root_set),
        parent=parent,
    )


def root_path(tree: DirectedSubtree, v: str) -> Path:
    """The unique tree path from a root down to v; empty path for roots."""
    if v not in tree.tree_vertices:
        raise GraphFormatError(f"vertex {v!r} not in the subtree")
    names: list[str] = []
    at = v
    while at not in tree.roots:
        edge_name = tree.parent[at]
        names.append(edge_name)
        at = tree.host.edge(edge_name).src
    names.reverse()
    return Path(start=at, edges=tuple(names))


def descendants(tree: DirectedSubtree, v: str) -> tuple[str, ...]:
    """Vertices reachable from v along tree edges, v included.

    Ordered by tree distance from v, then by vertex name, which is the
    order the corner construction enumerates targets in.
    """
    if v not in tree.tree_vertices:
        raise GraphFormatError(f"vertex {v!r} not in the subtree")
    names = tree.host.vertices
    children = tree._children
    frontier = [tree.host._index[v]]
    order = frontier[:]
    while frontier:
        frontier = [w for u in frontier for w in children[u]]
        frontier.sort(key=names.__getitem__)
        order += frontier
    return tuple([names[i] for i in order])


def build_spanning_subtree(
    host: DirectedMultigraph, roots: Iterable[str]
) -> DirectedSubtree:
    """BFS spanning subtree of the hereditary closure of the root set.

    Each non-root vertex at distance n gets one incoming edge from a
    vertex at distance n-1, choosing the lexicographically smallest
    qualifying edge name, so the result is reproducible.  The result
    satisfies the subtree invariants by construction.
    """
    root_list = list(dict.fromkeys(roots))
    if not root_list:
        raise GraphFormatError("root set must be non-empty")
    dist = _distances(host, root_list)
    names, src = host._names, host._src
    parent = {}
    children: list[list[int]] = [[] for _ in host.vertices]
    for v in sorted(dist):
        d = dist[v] - 1
        if d >= 0:
            name = parent[host.vertices[v]] = min(
                names[k] for k in host._in[v] if dist.get(src[k]) == d
            )
            children[src[host._edge_index[name]]].append(v)
    tree = DirectedSubtree(
        host=host,
        tree_edges=frozenset(parent.values()),
        tree_vertices=frozenset(host.vertices[v] for v in dist),
        roots=frozenset(root_list),
        parent=parent,
    )
    vars(tree)["_children"] = children  # fills the cached property
    return tree
