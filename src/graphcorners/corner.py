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

from .multigraph import DirectedMultigraph, _Names, _order_key
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


def corner_graph(tree: DirectedSubtree) -> CornerGraph:
    """Build the corner graph of the subtree's host along it.

    Kept vertices: spanned vertices except those whose (non-empty) set of
    outgoing host edges lies entirely inside the tree.  For every host
    edge e outside the tree with source in the spanned set, one corner
    edge ``e@u`` from s(e) to u is emitted for each kept vertex u that is
    a tree-descendant of r(e).  Should two such names coincide, each later
    one gets the suffix ``.j`` with the least j >= 1 that leaves it unique.
    """
    host = tree.host
    vs, names, src, dst = host.vertices, host._names, host._src, host._dst
    ks, kept, kept_indices, targets = _targets(tree)
    origin: list[int] = []
    edge_dst: list[int] = []
    for k in ks:
        ids = targets[dst[k]]
        if ids.__class__ is int:
            origin.append(k)
            edge_dst.append(ids)
        else:
            origin += [k] * len(ids)
            edge_dst += ids
    # Filled apart from the loop: three lists growing in turn leave
    # holes in the heap that raise the peak RSS.
    edge_src = [kept[src[k]] for k in origin]
    kept_names = _Names((vs, kept_indices))
    edge_names = _Names((names, origin), (kept_names, edge_dst))
    # Distinct pairs (e, u) give distinct names e@u when all kept names
    # hold one number b of '@', as they do when each table of their parts
    # does: u is what follows the (b+1)-th last '@'.
    if any(len({s.count("@") for s in t}) > 1 for t, _ in kept_names._parts):
        edge_names = list(edge_names)
        _unclash(edge_names)
    graph = DirectedMultigraph._from_indices(
        kept_names, edge_names, edge_src, edge_dst
    )
    return CornerGraph(graph, host, origin)


def _targets(tree: DirectedSubtree) -> tuple[list, list, list, list]:
    """The non-tree edges with a spanned source, each host vertex's corner
    index (-1 if not kept), the kept vertices and each range's targets as
    corner indices (an int for one); the scratch dies before emission."""
    host = tree.host
    vs, src, dst = host.vertices, host._src, host._dst
    parent_edge, order = tree.parent_edge, tree._order
    # Each vertex's tree parent, -1 at a root, whose entries at the end
    # of the lists below stand for the roots' common parent.  Parents
    # first: each depth (-1 off the tree) and number of tree children.
    parent = [src[k] if k >= 0 else -1 for k in parent_edge]
    depth, fan = [-1] * (len(vs) + 1), [0] * (len(vs) + 1)
    for v in order:
        p = parent[v]
        depth[v] = depth[p] + 1
        fan[p] += 1
    # The non-tree edges with a spanned source, each marking its range r
    # as up[r] = r and zeroing its source's fan: a spanned vertex is kept
    # when it emits a non-tree edge or has no tree child, that is, when
    # its fan ends at 0.  Then, parents first, up[v] is the nearest range
    # at or above v, -1 where there is none.
    ks: list[int] = []
    up = [-1] * (len(vs) + 1)
    for k, (s, d) in enumerate(zip(src, dst)):
        if depth[s] >= 0 and parent_edge[d] != k:
            ks.append(k)
            up[d] = d
            fan[s] = 0
    for v in order:
        if up[v] < 0:
            up[v] = up[parent[v]]
    kept = [-1] * len(vs)
    kept_indices: list[int] = []
    for v in tree.spanned_indices:
        if not fan[v]:
            kept[v] = len(kept_indices)
            kept_indices.append(v)
    # Below any vertex, the kept vertices come by (depth, name), as in
    # descendants(): taken once in that order, each kept vertex joins
    # the targets of every range on its tree path, so each range's
    # targets come out in order, as corner indices.  A range holds its
    # first target bare and makes a list only at its second, so that
    # one-target ranges give the collector no list to track.
    ranked = sorted(kept_indices, key=_order_key(vs).__getitem__)
    ranked.sort(key=depth.__getitem__)
    targets: list = [None] * len(vs)
    for v in ranked:
        i, d = kept[v], up[v]
        while d >= 0:
            t = targets[d]
            if t is None:
                targets[d] = i
            elif t.__class__ is int:
                targets[d] = [t, i]
            else:
                t.append(i)
            d = up[parent[d]]
    return ks, kept, kept_indices, targets


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
