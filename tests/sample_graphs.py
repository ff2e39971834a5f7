"""Shared fixture graphs, random generators, and independent oracles.

The oracle helpers here (path enumeration, brute-force run search) are
deliberately written against the definitions, not against the library
code they cross-check.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Iterator, Sequence

from graphcorners import (
    DirectedMultigraph,
    DirectedSubtree,
    Labelling,
    relabelled,
    validate_subtree,
)
from graphcorners.multigraph import bfs_distances


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


def cycles(*lengths: int) -> DirectedMultigraph:
    """Disjoint directed cycles of the given lengths, on vertices c{i}_{j}
    (cycle i, place j): every vertex has one edge in and one out, so
    cycles(3, 3) and cycles(6) agree on every vertex's degrees."""
    vs, edges = [], []
    for i, length in enumerate(lengths):
        ring = [f"c{i}_{j}" for j in range(length)]
        vs += ring
        edges += [(f"e{u[1:]}", u, w)
                  for u, w in zip(ring, ring[1:] + ring[:1])]
    return DirectedMultigraph(vs, edges)


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


def shuffled_copy(g: DirectedMultigraph, rng: random.Random,
                  rewire: bool = False) -> DirectedMultigraph:
    """An isomorph of g: its vertices renamed w0, w1, ... at random, and
    its vertices and edges reordered.  With ``rewire``, the first edge
    then takes a random range, which may break the isomorphism."""
    names = [f"w{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    h = relabelled(g, dict(zip(g.vertices, names)))
    vertices, edges = list(h.vertices), list(h.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    if rewire and edges:
        edges[0] = edges[0]._replace(dst=rng.choice(vertices))
    return DirectedMultigraph(vertices, edges)


def odd_names(seed, count: int) -> list[str]:
    """count distinct names spelt with x, y, '@' and '.', such as x@y,
    @ or x.@: a corner edge name e@u may then be read in two ways."""
    rng, names = random.Random(seed), {}
    while len(names) < count:
        names["".join(rng.choices("xy@.", k=rng.randint(1, 6)))] = None
    return list(names)


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


def grown_tree(
    g: DirectedMultigraph, roots: list[str], take: Callable[[list], int]
) -> DirectedSubtree:
    """The subtree a search from the roots grows, validated: it follows
    the out-edge frontier.pop(take(frontier)) next, and each edge that
    reaches a new vertex joins the tree."""
    seen, tree = set(roots), []
    frontier = [e for v in roots for e in g.out_edges(v)]
    while frontier:
        e = frontier.pop(take(frontier))
        if e.dst not in seen:
            seen.add(e.dst)
            tree.append(e.name)
            frontier += g.out_edges(e.dst)
    return validate_subtree(g, tree, roots)


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


def big_dag_text(n: int = 1200, window: int = 40) -> str:
    """A random DAG labelled in z5 whose corner at v0 and fixed-point
    graph over z5 each print to more than 1 MB."""
    rng = random.Random(0)
    lines = [f"vertex v{i}" for i in range(n)]
    for i in range(n - 1):
        if i and rng.random() < 0.05:
            continue
        for _ in range(3):
            j = rng.randint(i + 1, min(n - 1, i + window))
            label = rng.randrange(5)
            lines.append(f"edge e{len(lines) - n} v{i} v{j} {label}")
    return "\n".join(lines) + "\n"


def layered_potential_text(layers: int = 6, width: int = 120) -> str:
    """A cyclic layered graph labelled in z by potential differences:
    each layer has a potential, every edge runs from one layer to the
    next (the last back to the first) and is labelled with the change of
    potential, so every cycle has label 0 and the reachable skew is
    finite."""
    rng = random.Random(0)
    level = rng.sample(range(-30, 31), layers)
    lines = [f"vertex v{i}" for i in range(layers * width)]
    for u in range(layers * width):
        layer, nxt = u // width, (u // width + 1) % layers
        for _ in range(3):
            w = nxt * width + rng.randrange(width)
            lines.append(f"edge e{len(lines) - layers * width} v{u} v{w} "
                         f"{level[nxt] - level[layer]}")
    return "\n".join(lines) + "\n"


def random_sparse_text(n: int, labels: int = 0) -> str:
    """A random multigraph on ``v0..v{n-1}`` with 3n edges ``e{j}``, each
    drawing its source, then its range, uniformly: at n in the thousands
    the unit stage of ``invariant_factors`` takes hundreds of pivots and
    leaves a dense rest about a tenth of n on a side.  With ``labels``,
    each edge then draws a label in ``range(labels)``: under z5 at
    n=3000 the voltage law fails, with a certificate of hundreds of
    edges."""
    rng = random.Random(0)
    lines = [f"vertex v{i}" for i in range(n)]
    for j in range(3 * n):
        v = rng.randrange(n)
        lines.append(f"edge e{j} v{v} v{rng.randrange(n)}"
                     + (f" {rng.randrange(labels)}" if labels else ""))
    return "\n".join(lines) + "\n"


def rose_chain(petals: Sequence[int], links: int = 1) -> DirectedMultigraph:
    """Roses r0, r1, ... in a row: r_i carries ``petals[i]`` loops and
    emits ``links`` edges to r_{i+1}.  A rose with p loops alone has
    K0 = Z/(p-1); two or more links make the torsion split."""
    vs = [f"r{i}" for i in range(len(petals))]
    edges = [(f"l{i}_{j}", v, v)
             for i, (v, p) in enumerate(zip(vs, petals)) for j in range(p)]
    edges += [(f"s{i}_{j}", a, b)
              for i, (a, b) in enumerate(zip(vs, vs[1:]))
              for j in range(links)]
    return DirectedMultigraph(vs, edges)
