"""Shared fixture graphs, random generators, and independent oracles.

The oracle helpers here (path enumeration, brute-force run search) are
deliberately written against the definitions, not against the library
code they cross-check.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterator

from graphcorners import (
    DirectedMultigraph,
    DirectedSubtree,
    Labelling,
    validate_subtree,
)
from graphcorners.subtree import bfs_distances


def rose2() -> DirectedMultigraph:
    """One vertex, two loops e and f (labelled 2 and 1 for z3 tests)."""
    return DirectedMultigraph(
        ["v"], [("e", "v", "v", "2"), ("f", "v", "v", "1")]
    )


def edge1() -> DirectedMultigraph:
    """Single edge u -> v, labelled 1 for gauge-labelling tests."""
    return DirectedMultigraph(["u", "v"], [("e", "u", "v", "1")])


def cyc6() -> DirectedMultigraph:
    """Two opposite 3-cycles on v0, v1, v2."""
    return DirectedMultigraph(
        ["v0", "v1", "v2"],
        [
            ("e1", "v0", "v1"),
            ("e2", "v1", "v2"),
            ("e0", "v2", "v0"),
            ("f2", "v0", "v2"),
            ("f1", "v2", "v1"),
            ("f0", "v1", "v0"),
        ],
    )


def pqr(p: int, q: int, r: int) -> DirectedMultigraph:
    """Loops at u, v, w; p edges u->v, q edges v->w, r edges u->w.

    The distinguished parallel edges are named e, f, g; the rest e2..,
    f2.., g2...
    """

    def bundle(stem: str, count: int, src: str, dst: str):
        names = [stem] + [f"{stem}{i}" for i in range(2, count + 1)]
        return [(n, src, dst) for n in names]

    edges = [("lu", "u", "u"), ("lv", "v", "v"), ("lw", "w", "w")]
    edges += bundle("e", p, "u", "v")
    edges += bundle("f", q, "v", "w")
    edges += bundle("g", r, "u", "w")
    return DirectedMultigraph(["u", "v", "w"], edges)


def single_vertex() -> DirectedMultigraph:
    return DirectedMultigraph(["u"])


def single_loop(label: str | None = None) -> DirectedMultigraph:
    return DirectedMultigraph(["v"], [("l", "v", "v", label)])


def parallel_edges(n: int) -> DirectedMultigraph:
    return DirectedMultigraph(
        ["u", "v"], [(f"p{i}", "u", "v") for i in range(n)]
    )


def random_multigraph(
    rng: random.Random, max_v: int = 6, max_e: int = 10
) -> DirectedMultigraph:
    n = rng.randint(1, max_v)
    vs = [f"v{i}" for i in range(n)]
    m = rng.randint(0, max_e)
    edges = [
        (f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(m)
    ]
    return DirectedMultigraph(vs, edges)


def random_dag(
    rng: random.Random, max_v: int = 8, max_e: int = 14
) -> DirectedMultigraph:
    n = rng.randint(1, max_v)
    vs = [f"v{i}" for i in range(n)]
    m = rng.randint(0, max_e) if n >= 2 else 0
    edges = []
    for k in range(m):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        edges.append((f"e{k}", vs[i], vs[j]))
    return DirectedMultigraph(vs, edges)


def random_vertex_subset(
    rng: random.Random, g: DirectedMultigraph
) -> list[str]:
    k = rng.randint(1, len(g.vertices))
    return rng.sample(list(g.vertices), k)


def random_bfs_tree(
    g: DirectedMultigraph, roots: list[str], rng: random.Random
) -> DirectedSubtree:
    """A random valid spanning subtree among the BFS parent choices."""
    dist = bfs_distances(g, roots)
    root_set = set(roots)
    chosen = []
    for v in g.vertices:
        if v not in dist or v in root_set:
            continue
        candidates = sorted(
            e.name for e in g.in_edges(v) if dist.get(e.src) == dist[v] - 1
        )
        chosen.append(rng.choice(candidates))
    return validate_subtree(g, chosen, root_set)


def enumerate_paths(
    g: DirectedMultigraph, start: str
) -> Iterator[tuple[str, tuple[str, ...]]]:
    """All finite paths from start in an acyclic graph, as (range, edges);
    includes the length-0 path."""

    def walk(v: str, acc: tuple[str, ...]):
        yield v, acc
        for e in g.out_edges(v):
            yield from walk(e.dst, acc + (e.name,))

    yield from walk(start, ())


def enumerated_dimension_vector(
    g: DirectedMultigraph, roots: list[str]
) -> tuple[int, ...]:
    """Block sizes of the compression of an acyclic graph algebra at
    ``roots``: for each sink some root reaches, the number of paths from
    the root set ending there, counted by enumerating every path."""
    arrivals = Counter(
        end for r in dict.fromkeys(roots) for end, _ in enumerate_paths(g, r)
    )
    return tuple(sorted(arrivals[s] for s in g.sinks() if arrivals[s]))


def enumerate_simple_cycles(
    g: DirectedMultigraph,
) -> Iterator[tuple[str, ...]]:
    """All vertex-simple directed cycles, as edge-name tuples.

    Each cycle is produced once per starting vertex; callers treating
    rotations as equal should dedupe.  Fine for the small graphs tested.
    """
    for start in g.vertices:
        stack = [(start, (), {start})]
        while stack:
            v, acc, visited = stack.pop()
            for e in g.out_edges(v):
                if e.dst == start:
                    yield acc + (e.name,)
                elif e.dst not in visited:
                    stack.append(
                        (e.dst, acc + (e.name,), visited | {e.dst})
                    )


def weak_component_count(g: DirectedMultigraph) -> int:
    parent = {v: v for v in g.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        a, b = find(e.src), find(e.dst)
        if a != b:
            parent[a] = b
    return len({find(v) for v in g.vertices})


def multiplicity_map(g: DirectedMultigraph) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for e in g.edges:
        counts[(e.src, e.dst)] = counts.get((e.src, e.dst), 0) + 1
    return counts


def brute_force_kirchhoff_fails(
    g: DirectedMultigraph, c: Labelling
) -> bool:
    """Independent exhaustive decision for finite groups.

    The voltage condition fails iff some run avoids the identity label at
    every step >= 1 forever; over the finite state space (vertex, label)
    that happens iff an avoiding run longer than the state count exists.
    """
    group = c.group
    ident = group.identity
    states = {(v, ident) for v in g.vertices}
    limit = len(g.vertices) * group.order + 1
    frontier = set(states)
    for _ in range(limit):
        nxt = set()
        for v, acc in frontier:
            for e in g.out_edges(v):
                acc2 = group.op(acc, c.label(e.name))
                if acc2 != ident:
                    nxt.add((e.dst, acc2))
        if not nxt:
            return False
        frontier = nxt
    return True


def simulate_kirchhoff_certificate(g, c, result, repeats: int = 3) -> None:
    """Assert a FAIL certificate really gives an identity-avoiding run."""
    group = c.group
    assert result.status == "FAIL"
    assert result.prefix, "certificate prefix must be non-empty"
    at = result.start
    acc = group.identity
    for name in result.prefix:
        e = g.edge(name)
        assert e.src == at
        at = e.dst
        acc = group.op(acc, c.label(name))
        assert acc != group.identity
    loop_entry = (at, acc)
    for _ in range(repeats):
        for name in result.cycle:
            e = g.edge(name)
            assert e.src == at
            at = e.dst
            acc = group.op(acc, c.label(name))
            assert acc != group.identity
        assert (at, acc) == loop_entry
