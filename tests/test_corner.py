import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import graphcorners
from graphcorners import (
    DirectedMultigraph,
    are_isomorphic,
    build_spanning_subtree,
    corner_graph,
    hereditary_closure,
    is_acyclic,
    parse_graph,
    serialize_graph,
    validate_subtree,
)

from sample_graphs import (
    cyc6,
    edge1,
    grown_tree,
    multiplicity_map,
    odd_names,
    pqr,
    random_bfs_tree,
    random_dag,
    random_multigraph,
    random_vertex_subset,
    rose2,
)


def test_two_cycle_corner_exact():
    t = validate_subtree(cyc6(), ["e1", "f2"], ["v0"])
    result = corner_graph(t)
    assert result.graph.vertices == ("v1", "v2")
    got = {(e.name, e.src, e.dst) for e in result.graph.edges}
    assert got == {
        ("e0@v1", "v2", "v1"),
        ("e0@v2", "v2", "v2"),
        ("e2@v2", "v1", "v2"),
        ("f0@v1", "v1", "v1"),
        ("f0@v2", "v1", "v2"),
        ("f1@v1", "v2", "v1"),
    }
    assert result.provenance["e0@v1"] == ("e0", "v1")


def test_single_edge_collapses_to_range():
    t = validate_subtree(edge1(), ["e"], ["u"])
    result = corner_graph(t)
    assert result.graph.vertices == ("v",)
    assert result.graph.edges == ()


def test_pqr_tree1_reproduces_host():
    for p, q, r in [(1, 1, 1), (2, 3, 1), (3, 2, 2)]:
        g = pqr(p, q, r)
        t = validate_subtree(g, ["e", "g"], ["u"])
        assert are_isomorphic(corner_graph(t).graph, g).isomorphic


def test_pqr_tree2_multiplicities():
    p, q, r = 2, 3, 1
    g = pqr(p, q, r)
    t = validate_subtree(g, ["e", "f"], ["u"])
    result = corner_graph(t)
    assert set(result.graph.vertices) == {"u", "v", "w"}
    assert multiplicity_map(result.graph) == {
        ("u", "u"): 1,
        ("v", "v"): 1,
        ("w", "w"): 1,
        ("u", "v"): p,
        ("v", "w"): q,
        ("u", "w"): p + r,
    }


def test_hereditary_roots_give_restriction():
    g = cyc6()
    t = validate_subtree(g, [], ["v0", "v1", "v2"])
    result = corner_graph(t)
    assert result.graph.vertices == g.vertices
    assert [(e.name, e.src, e.dst) for e in result.graph.edges] == [
        (f"{e.name}@{e.dst}", e.src, e.dst) for e in g.edges
    ]


def _random_instance(seed, acyclic=False):
    rng = random.Random(seed)
    g = (
        random_dag(rng, max_v=7, max_e=12)
        if acyclic
        else random_multigraph(rng, max_v=7, max_e=12)
    )
    roots = random_vertex_subset(rng, g)
    return g, roots, random_bfs_tree(g, roots, rng)


def test_edge_count_formula():
    for seed in range(40):
        g, roots, t = _random_instance(seed)
        result = corner_graph(t)
        from graphcorners.subtree import descendants

        kept = set(result.graph.vertices)
        expected = sum(
            len([u for u in descendants(t, e.dst) if u in kept])
            for e in g.edges
            if e.src in t.tree_vertices and not t.is_tree_edge(e.name)
        )
        assert len(result.graph.edges) == expected


def test_every_non_tree_edge_contributes():
    # Each host edge outside the tree with spanned source must leave a
    # trace: at least one corner edge with the same source.
    for seed in range(40):
        g, roots, t = _random_instance(seed)
        result = corner_graph(t)
        sources_seen = {}
        for name, (host_edge, _) in result.provenance.items():
            sources_seen.setdefault(host_edge, 0)
            sources_seen[host_edge] += 1
        for e in g.edges:
            if e.src in t.tree_vertices and not t.is_tree_edge(e.name):
                assert sources_seen.get(e.name, 0) >= 1


def test_sink_preservation():
    for seed in range(40):
        g, roots, t = _random_instance(seed)
        result = corner_graph(t)
        for v in result.graph.vertices:
            if not g.out_edges(v):
                assert not result.graph.out_edges(v)


def test_acyclicity_preserved():
    for seed in range(40):
        g, roots, t = _random_instance(seed, acyclic=True)
        assert is_acyclic(corner_graph(t).graph)


def test_deterministic_output():
    for seed in range(10):
        g, roots, t = _random_instance(seed)
        a = corner_graph(t)
        b = corner_graph(t)
        assert a.graph == b.graph and a.provenance == b.provenance


def test_kept_vertices_rule():
    # A spanned vertex is dropped exactly when it emits edges and all of
    # them are tree edges.
    for seed in range(40):
        g, roots, t = _random_instance(seed)
        kept = set(corner_graph(t).graph.vertices)
        for v in t.tree_vertices:
            out = g.out_edges(v)
            dropped = bool(out) and all(
                t.is_tree_edge(e.name) for e in out
            )
            assert (v not in kept) == dropped


def test_corner_after_bfs_tree_round_trips_through_closure():
    g = DirectedMultigraph(
        ["x", "a", "w"],
        [("t1", "x", "a"), ("t2", "a", "w"), ("h", "x", "w")],
    )
    t = build_spanning_subtree(g, ["x"])
    assert t.tree_edges == {"t1", "h"}
    assert hereditary_closure(g, ["x"]) == {"x", "a", "w"}
    result = corner_graph(t)
    assert set(result.graph.vertices) == {"a", "w"}


def test_clashing_names_take_the_least_free_suffix():
    # a: r -> b@c and a@b: r -> m (whose kept tree descendants are c and
    # c.1) name three corner edges a@b@c, a@b@c, a@b@c.1; the duplicate
    # takes .2, since .1 is already the name of another corner edge.
    g = DirectedMultigraph(
        ["r", "b@c", "m", "c", "c.1"],
        [("0t", "r", "b@c"), ("0m", "r", "m"), ("0c", "m", "c"),
         ("0d", "m", "c.1"), ("a", "r", "b@c"), ("a@b", "r", "m")],
    )
    t = validate_subtree(g, ["0t", "0m", "0c", "0d"], ["r"])
    result = corner_graph(t)
    assert [(e.name, e.dst) for e in result.graph.edges] == [
        ("a@b@c", "b@c"), ("a@b@c.2", "c"), ("a@b@c.1", "c.1"),
    ]
    assert result.provenance == {
        "a@b@c": ("a", "b@c"), "a@b@c.2": ("a@b", "c"),
        "a@b@c.1": ("a@b", "c.1"),
    }


def test_subtree_of_another_graph_is_rejected():
    # corner_graph takes no host beside the tree, so no tree can be read
    # on another graph's indices: each tree gives its own host's corner.
    # Three vertices each, so a tree read on the wrong host would not
    # fail on an index.
    host = DirectedMultigraph(
        ["x", "y", "z"],
        [("s", "z", "x"), ("p", "x", "y"), ("q", "y", "z"), ("r", "x", "z")],
    )
    cycle = DirectedMultigraph(
        ["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")]
    )
    own = corner_graph(build_spanning_subtree(host, ["x"]))
    assert own.host is host
    assert [e.name for e in own.graph.edges] == ["s@y", "s@z", "q@z"]
    result = corner_graph(build_spanning_subtree(cycle, ["a"]))
    assert result.host is cycle
    assert result.graph == DirectedMultigraph(["c"], [("ca@c", "c", "c")])
    assert result.provenance == {"ca@c": ("ca", "c")}


def test_subtree_of_an_equal_graph_is_accepted():
    text = serialize_graph(cyc6())
    first, second = parse_graph(text), parse_graph(text)
    assert first is not second and first == second
    a, b = (validate_subtree(g, ["e1", "f2"], ["v0"]) for g in (first, second))
    assert corner_graph(a).graph == corner_graph(b).graph


CHAIN_PROBE = """
import sys, time
from graphcorners import DirectedMultigraph, build_spanning_subtree, corner_graph

n = int(sys.argv[1])
vs = ["r", *(f"v{i}" for i in range(n)), "x"]
edges = [(f"t{i}", a, b) for i, (a, b) in enumerate(zip(vs, vs[1:]))]
edges += [(f"b{i}", "x", f"v{i}") for i in range(n)]
g = DirectedMultigraph(vs, edges)
start = time.perf_counter()
result = corner_graph(build_spanning_subtree(g, ["r"]))
elapsed = time.perf_counter() - start
print(len(result.graph.vertices), len(result.graph.edges), elapsed)
"""


COMB_PROBE = """
import sys, time
from graphcorners import DirectedMultigraph, build_spanning_subtree, corner_graph

n = int(sys.argv[1])
chain = [f"v{i}" for i in range(n)]
vs = ["r", *chain, *(f"s{i}" for i in range(n)), "y"]
edges = [("a", "r", "v0"), ("b", "r", "v0")]
edges += [(f"t{i}", a, b) for i, (a, b) in enumerate(zip(chain, chain[1:]))]
edges += [(f"l{i}", v, f"s{i}") for i, v in enumerate(chain)]
edges += [(f"y{i}", "y", v) for i, v in enumerate(chain)]
start = time.perf_counter()
tree = build_spanning_subtree(DirectedMultigraph(vs, edges), ["r"])
built = time.perf_counter()
result = corner_graph(tree)
elapsed = time.perf_counter() - built
print(len(result.graph.vertices), len(result.graph.edges), elapsed,
      built - start)
"""


def _probe(code, n):
    """Run a probe on n in a fresh interpreter, stopped after 20 s, and
    return the numbers it prints."""
    src = str(Path(graphcorners.__file__).resolve().parent.parent)
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, str(n)],
            env=os.environ | {"PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=20,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"the probe's corner at n={n} took over 20 s")
    return [float(field) for field in done.stdout.split()]


def test_corner_of_a_long_chain_is_linear():
    # r -> v0 -> ... -> v(n-1) -> x with back edges x -> v_i: the corner
    # keeps x alone, with n loops, each range having a whole chain below
    # it.  A walk per range takes about 25 s at this size; the subprocess
    # is stopped well before that.
    n = 8_000
    vertices, edges, elapsed = _probe(CHAIN_PROBE, n)
    assert (vertices, edges) == (1, n)
    assert elapsed < 1.0


def test_corner_of_a_comb_is_linear():
    # r has two edges to v0, one outside the tree, above the chain
    # v0 -> ... -> v(n-1), each v_i with a sink leaf s_i and an edge from
    # y, which lies outside the closure of r.  The corner keeps r and the
    # n leaves, with one edge from r to each leaf.  Marking the ranges of
    # y's edges, or walking every ancestor of each leaf rather than its
    # ranges alone, does about n*n/2 steps here, many times the work of
    # building the graph and its tree, which is linear.
    n = 8_000
    vertices, edges, elapsed, built = _probe(COMB_PROBE, n)
    assert (vertices, edges) == (n + 1, n)
    assert elapsed < 1.0
    assert elapsed < 2 * built


def corner_oracle(g, t):
    """The corner's vertices and ordered (name, source, range) triples,
    from the definition: a spanned vertex is dropped when it emits edges
    and all of them are tree edges, and each non-tree edge e with spanned
    source gives e@u for every kept u below r(e) in the tree, level by
    level, each level in name order.  A name met again is renamed to
    name.j, with the least j >= 1 no other name takes."""
    below = {v: [] for v in t.tree_vertices}
    for name in t.tree_edges:
        e = g.edge(name)
        below[e.src].append(e.dst)
    kept = [
        v for v in g.vertices if v in t.tree_vertices and not (
            g.out_edges(v)
            and all(e.name in t.tree_edges for e in g.out_edges(v)))
    ]
    keep = set(kept)
    edges = []
    for e in g.edges:
        if e.src not in t.tree_vertices or e.name in t.tree_edges:
            continue
        level = [e.dst]
        while level:
            edges += [(f"{e.name}@{u}", e.src, u)
                      for u in sorted(level) if u in keep]
            level = [w for u in level for w in below[u]]
    taken = {name for name, _, _ in edges}
    seen = set()
    for i, (name, src, dst) in enumerate(edges):
        if name in seen:
            name = next(f"{name}.{j}" for j in itertools.count(1)
                        if f"{name}.{j}" not in taken)
            taken.add(name)
            edges[i] = (name, src, dst)
        seen.add(name)
    return kept, edges


@st.composite
def rooted_subtrees(draw):
    """A multigraph on up to 300 vertices with loops and parallel edges,
    its names plain (v0, e0, ...) or holding '@' and '.', up to six
    roots, and a subtree spanning their closure: the one
    build_spanning_subtree returns, which keeps its BFS queue as its
    parents-first order, or one grown by a breadth-first, depth-first or
    random-first search and validated, whose order is rebuilt from its
    child lists.  Under the last two a vertex's tree depth may exceed
    its BFS distance.  A drawn seed drives the rest, which keeps the
    draws few."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 300))
    m = rng.randint(n // 2, 3 * n)
    if draw(st.booleans()):
        vs, es = odd_names(rng.random(), n), odd_names(rng.random(), m)
    else:
        vs, es = [f"v{i}" for i in range(n)], [f"e{k}" for k in range(m)]
    g = DirectedMultigraph(vs, [
        (name, rng.choice(vs), rng.choice(vs)) for name in es
    ])
    roots = rng.sample(vs, rng.randint(1, min(n, 6)))
    search = draw(st.sampled_from(["random", "depth", "breadth", "builder"]))
    if search == "builder":
        return g, build_spanning_subtree(g, roots)
    take = {"breadth": lambda f: 0, "depth": lambda f: -1,
            "random": lambda f: rng.randrange(len(f))}[search]
    return g, grown_tree(g, roots, take)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rooted_subtrees())
def test_corner_matches_the_definition_edge_for_edge(gt):
    _assert_matches_the_definition(*gt)


def test_corner_of_a_deep_tree_matches_the_definition():
    # A chain through 2,000 vertices with names holding '@', plus 600
    # random edges, grown depth-first: a tree some 800 deep, with long
    # runs of vertices between ranges, ranges nested in ranges, and
    # corner edge names that clash and take a suffix.
    rng = random.Random(29)
    n, extra = 2_000, 600
    vs, es = odd_names(rng.random(), n), odd_names(rng.random(), n - 1 + extra)
    ends = [*zip(vs, vs[1:]),
            *((rng.choice(vs), rng.choice(vs)) for _ in range(extra))]
    g = DirectedMultigraph(vs, [(e, a, b) for e, (a, b) in zip(es, ends)])
    _assert_matches_the_definition(g, grown_tree(g, vs[:1], lambda f: -1))


def _assert_matches_the_definition(g, t):
    kept, edges = corner_oracle(g, t)
    result = corner_graph(t).graph
    assert list(result.vertices) == kept
    assert [(e.name, e.src, e.dst) for e in result.edges] == edges
