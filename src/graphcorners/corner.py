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
    parent_edge, order = tree.parent_edge, tree._order
    # Each vertex's tree parent, -1 at a root, whose entries at the end
    # of the lists below stand for the roots' common parent.  Parents
    # first: each vertex's depth and number of tree children.
    parent = [src[k] if k >= 0 else -1 for k in parent_edge]
    depth, fan = [0] * len(vs) + [-1], [0] * (len(vs) + 1)
    for v in order:
        p = parent[v]
        depth[v] = depth[p] + 1
        fan[p] += 1
    # The corner index of each host vertex, -1 where it is not kept.
    kept = [-1] * len(vs)
    kept_indices: list[int] = []
    for v in tree.spanned_indices:
        out = host._out[v]
        if not (out and fan[v] == len(out)):
            kept[v] = len(kept_indices)
            kept_indices.append(v)
    # Below any vertex, the kept vertices come by (depth, name), as in
    # descendants(): one order of them all.  Ranked in it, each edge's
    # targets sort without a key.
    ranked = sorted(kept_indices, key=tree._vertex_key.__getitem__)
    ranked.sort(key=depth.__getitem__)
    rank = [0] * len(vs)
    for r, v in enumerate(ranked):
        rank[v] = r
    # Children first: the number of kept vertices below each vertex.
    size = [k >= 0 for k in kept] + [0]
    for v in reversed(order):
        size[parent[v]] += size[v]
    # Parents first: each subtree takes the next free slots of its
    # parent's range, and a kept vertex the first slot of its own, so
    # pre[first[v]:first[v] + size[v]] ranks the kept vertices below v.
    pre = [0] * len(kept_indices)
    first, free = [0] * len(vs), [0] * (len(vs) + 1)
    for v in order:
        p = parent[v]
        first[v] = at = free[p]
        free[p] += size[v]
        if kept[v] >= 0:
            pre[at] = rank[v]
            at += 1
        free[v] = at

    origin: list[int] = []
    edge_src: list[int] = []
    edge_dst: list[int] = []
    for k, (s, d) in enumerate(zip(src, dst)):
        # A spanned source of a non-tree edge is always kept.
        if kept[s] < 0 or parent_edge[d] == k:
            continue
        at, n = first[d], size[d]
        if n == 1:
            origin.append(k)
            edge_src.append(kept[s])
            edge_dst.append(pre[at])
            continue
        ids = pre[at:at + n]
        ids.sort()
        origin += [k] * n
        edge_src += [kept[s]] * n
        edge_dst += ids
    # Ranks back to corner indices, a block at a time, in place.
    by_rank = [kept[v] for v in ranked]
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
