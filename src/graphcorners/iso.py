"""Exact isomorphism of small directed multigraphs.

Two multigraphs are isomorphic when some vertex bijection carries the
edge multiplicity matrix of one onto the other's; edge names carry no
identity.  Backtracking with degree-signature pruning, over the index
columns and on one explicit stack, is plenty at the sizes this library
works with.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .multigraph import DirectedMultigraph


class IsoResult(NamedTuple):
    isomorphic: bool
    witness: dict[str, str] | None = None


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
    if n != len(g2.vertices) or len(g1._names) != len(g2._names):
        return IsoResult(False)

    mult1 = Counter(zip(g1._src, g1._dst))
    mult2 = Counter(zip(g2._src, g2._dst))
    # A vertex's signature: its out-degree, in-degree and loop count.
    sig1 = [(len(g1._out[v]), len(g1._in[v]), mult1[v, v]) for v in range(n)]
    sig2 = [(len(g2._out[w]), len(g2._in[w]), mult2[w, w]) for w in range(n)]
    if sorted(sig1) != sorted(sig2):
        return IsoResult(False)

    candidates = [[w for w in range(n) if sig2[w] == s] for s in sig1]
    order = [v for _, _, v in sorted(zip(map(len, candidates), g1.vertices,
                                         range(n)))]
    # The search maps order[i] to image[i]; stack[i] iterates order[i]'s
    # untried candidates.  A candidate has the same loop count, so it is
    # checked against the mapped prefix only, both ways.
    image, stack = [], []
    while len(image) < n:
        v = order[len(image)]
        if len(stack) == len(image):
            stack.append(iter(candidates[v]))
        for w in stack[-1]:
            if w not in image and all(
                    mult1[v, u] == mult2[w, x] and mult1[u, v] == mult2[x, w]
                    for u, x in zip(order, image)):
                image.append(w)
                break
        else:
            stack.pop()
            if not stack:
                return IsoResult(False)
            image.pop()
    return IsoResult(True, {g1.vertices[v]: g2.vertices[w]
                            for v, w in zip(order, image)})
