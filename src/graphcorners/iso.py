"""Exact isomorphism of small directed multigraphs.

Two multigraphs are isomorphic when some vertex bijection carries the
edge multiplicity matrix of one onto the other's; edge names carry no
identity.  Backtracking with degree-signature pruning is plenty at the
sizes this library works with.
"""

from __future__ import annotations

from typing import NamedTuple

from .multigraph import DirectedMultigraph


class IsoResult(NamedTuple):
    isomorphic: bool
    witness: dict[str, str] | None = None


def _multiplicities(g: DirectedMultigraph) -> dict[str, dict[str, int]]:
    mult: dict[str, dict[str, int]] = {v: {} for v in g.vertices}
    for e in g.edges:
        mult[e.src][e.dst] = mult[e.src].get(e.dst, 0) + 1
    return mult


def _signature(g: DirectedMultigraph, v: str) -> tuple[int, int, int]:
    loops = sum(1 for e in g.out_edges(v) if e.dst == v)
    return len(g.out_edges(v)), len(g.in_edges(v)), loops


def are_isomorphic(
    g1: DirectedMultigraph,
    g2: DirectedMultigraph,
    max_vertices: int = 12,
) -> IsoResult:
    """Decide multigraph isomorphism; on success the witness maps g1's
    vertices onto g2's."""
    n = len(g1.vertices)
    if n > max_vertices or len(g2.vertices) > max_vertices:
        raise ValueError(
            f"isomorphism size guard exceeded ({max_vertices} vertices)"
        )
    if n != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return IsoResult(False)

    sig1 = {v: _signature(g1, v) for v in g1.vertices}
    sig2 = {v: _signature(g2, v) for v in g2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return IsoResult(False)

    mult1 = _multiplicities(g1)
    mult2 = _multiplicities(g2)
    candidates = {
        v: [w for w in g2.vertices if sig2[w] == sig1[v]]
        for v in g1.vertices
    }
    order = sorted(g1.vertices, key=lambda v: (len(candidates[v]), v))

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v: str, w: str) -> bool:
        for u, x in mapping.items():
            if mult1[v].get(u, 0) != mult2[w].get(x, 0):
                return False
            if mult1[u].get(v, 0) != mult2[x].get(w, 0):
                return False
        return mult1[v].get(v, 0) == mult2[w].get(w, 0)

    def search(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if search(idx + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    if search(0):
        return IsoResult(True, dict(mapping))
    return IsoResult(False)
