"""The corner graph of a host graph compressed along a directed subtree.

Given a subtree spanning the hereditary closure of a root set, the corner
graph keeps the spanned vertices that either are sinks or emit some
non-tree edge, and replaces each non-tree edge e by one edge per kept
tree-descendant of its range.  The corner graph presents the compression
of the host graph algebra by the sum of the root projections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import DirectedMultigraph
from .subtree import DirectedSubtree, descendants


@dataclass(frozen=True)
class CornerGraph:
    """The corner graph plus the provenance of each of its edges.

    ``provenance`` maps each corner edge name ``e@u`` back to the pair
    (host edge e, target vertex u) it came from.
    """

    graph: DirectedMultigraph
    provenance: dict[str, tuple[str, str]]


def corner_graph(host: DirectedMultigraph, tree: DirectedSubtree) -> CornerGraph:
    """Build the corner graph of ``host`` along the subtree ``tree``.

    Kept vertices: spanned vertices except those whose (non-empty) set of
    outgoing host edges lies entirely inside the tree.  For every host
    edge e outside the tree with source in the spanned set, one corner
    edge ``e@u`` from s(e) to u is emitted for each kept vertex u that is
    a tree-descendant of r(e).
    """
    spanned = tree.tree_vertices
    vs, names, src, dst = host.vertices, host._names, host._src, host._dst
    index: dict[str, int] = {}
    for v, out, children in zip(vs, host._out, tree._children):
        if v in spanned and not (out and len(children) == len(out)):
            index[v] = len(index)

    # The corner indices of the kept descendants of each range vertex,
    # walked once per distinct range.
    targets: dict[int, list[int]] = {}
    origin: list[str] = []
    edge_src: list[int] = []
    edge_dst: list[int] = []
    for k, name in enumerate(names):
        s = vs[src[k]]
        if name in tree.tree_edges or s not in spanned:
            continue
        ids = targets.get(dst[k])
        if ids is None:
            ids = targets[dst[k]] = [
                index[u] for u in descendants(tree, vs[dst[k]]) if u in index
            ]
        origin += [name] * len(ids)
        edge_src += [index[s]] * len(ids)
        edge_dst += ids
    kept = list(index)
    us = [kept[i] for i in edge_dst]
    edge_names = [f"{e}@{u}" for e, u in zip(origin, us)]
    graph = DirectedMultigraph._from_indices(
        kept, edge_names, edge_src, edge_dst
    )
    return CornerGraph(graph, dict(zip(edge_names, zip(origin, us))))
