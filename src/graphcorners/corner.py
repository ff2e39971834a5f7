"""The corner graph of a host graph compressed along a directed subtree.

Given a subtree spanning the hereditary closure of a root set, the corner
graph keeps the spanned vertices that either are sinks or emit some
non-tree edge, and replaces each non-tree edge e by one edge per kept
tree-descendant of its range.  The corner graph presents the compression
of the host graph algebra by the sum of the root projections.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .multigraph import _BLOCK, DirectedMultigraph, _Names
from .subtree import (
    DirectedSubtree,
    descendants,  # noqa: F401  (bench/tracing.py wraps it here)
)


class CornerGraph(NamedTuple("CornerGraph", [
    ("graph", DirectedMultigraph), ("host", DirectedMultigraph),
    ("origin", list[int]),
])):
    """The corner graph plus the provenance of each of its edges.

    Corner edge i came from the host edge with index ``origin[i]``.
    ``provenance`` maps each corner edge name back to the pair (host edge
    e, target vertex u) it came from; it is built on first use and kept in
    the instance ``__dict__``, which this subclass has for want of
    ``__slots__``.
    """

    @cached_property
    def provenance(self) -> dict[str, tuple[str, str]]:
        g, host_names = self.graph, self.host._names
        vs = list(g.vertices)
        return {
            name: (host_names[k], vs[u])
            for name, k, u in zip(g._names, self.origin, g._dst)
        }


def corner_graph(host: DirectedMultigraph, tree: DirectedSubtree) -> CornerGraph:
    """Build the corner graph of ``host`` along the subtree ``tree``.

    Kept vertices: spanned vertices except those whose (non-empty) set of
    outgoing host edges lies entirely inside the tree.  For every host
    edge e outside the tree with source in the spanned set, one corner
    edge ``e@u`` from s(e) to u is emitted for each kept vertex u that is
    a tree-descendant of r(e).  Should two such names coincide, each later
    one gets the suffix ``.j`` with the least j >= 1 that leaves it unique.
    """
    if tree.host is not host and tree.host != host:
        raise ValueError("subtree belongs to a different graph")
    vs, names, src, dst = host.vertices, host._names, host._src, host._dst
    parent_edge, children = tree.parent_edge, tree._children
    # The corner index of each host vertex, -1 where it is not kept.
    kept = [-1] * len(vs)
    kept_indices: list[int] = []
    for v in tree.spanned_indices:
        out = host._out[v]
        if not (out and len(children[v]) == len(out)):
            kept[v] = len(kept_indices)
            kept_indices.append(v)

    # A preorder lists the kept vertices below v as pre[first[v]:last[v]];
    # ~v on the stack marks the end of v's subtree.
    pre: list[int] = []
    first, last, depth = [0] * len(vs), [0] * len(vs), [0] * len(vs)
    stack = [v for v in tree.spanned_indices if parent_edge[v] < 0]
    while stack:
        v = stack.pop()
        if v < 0:
            last[~v] = len(pre)
            continue
        first[v] = len(pre)
        if kept[v] >= 0:
            pre.append(v)
        stack.append(~v)
        for w in children[v]:
            depth[w] = depth[v] + 1
        stack += children[v]
    # Below any vertex, the kept vertices come by (depth, name), as in
    # descendants(): one order of them all.  Ranked in it, each edge's
    # targets sort without a key.
    order = sorted(kept_indices, key=tree._vertex_key.__getitem__)
    order.sort(key=depth.__getitem__)
    rank = [0] * len(vs)
    for r, v in enumerate(order):
        rank[v] = r
    pre = [rank[v] for v in pre]

    origin: list[int] = []
    edge_src: list[int] = []
    edge_dst: list[int] = []
    for k, (s, d) in enumerate(zip(src, dst)):
        # A spanned source of a non-tree edge is always kept.
        if kept[s] < 0 or parent_edge[d] == k:
            continue
        ids = pre[first[d]:last[d]]
        ids.sort()
        origin += [k] * len(ids)
        edge_src += [kept[s]] * len(ids)
        edge_dst += ids
    # Ranks back to corner indices, a block at a time, in place.
    by_rank = [kept[v] for v in order]
    for b in range(0, len(edge_dst), _BLOCK):
        edge_dst[b:b + _BLOCK] = [by_rank[r] for r in edge_dst[b:b + _BLOCK]]
    kept_names = _Names((vs, kept_indices))
    edge_names = _Names((names, origin), (kept_names, edge_dst))
    # Distinct pairs (e, u) give distinct names e@u when all kept names
    # hold the same number b of '@': u is what follows the (b+1)-th last.
    if len(kept_names.at_counts()) > 1:
        edge_names = list(edge_names)
        _unclash(edge_names)
    graph = DirectedMultigraph._from_indices(
        kept_names, edge_names, edge_src, edge_dst
    )
    return CornerGraph(graph, host, origin)


def _unclash(names: list[str]) -> None:
    """Keep the first use of each name and rename each later one, in
    place, to ``name.j`` with the least j >= 1 that no other name takes."""
    taken = set(names)
    seen: set[str] = set()
    for i, name in enumerate(names):
        if name in seen:
            j = 1
            while f"{name}.{j}" in taken:
                j += 1
            names[i] = name = f"{name}.{j}"
            taken.add(name)
        seen.add(name)
