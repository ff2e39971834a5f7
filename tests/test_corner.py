import random

from graphcorners import (
    DirectedMultigraph,
    are_isomorphic,
    build_spanning_subtree,
    corner_graph,
    hereditary_closure,
    is_acyclic,
    validate_subtree,
)

from sample_graphs import (
    cyc6,
    edge1,
    multiplicity_map,
    pqr,
    random_bfs_tree,
    random_dag,
    random_multigraph,
    random_vertex_subset,
    rose2,
)


def test_two_cycle_corner_exact():
    t = validate_subtree(cyc6(), ["e1", "f2"], ["v0"])
    result = corner_graph(cyc6(), t)
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
    result = corner_graph(edge1(), t)
    assert result.graph.vertices == ("v",)
    assert result.graph.edges == ()


def test_pqr_tree1_reproduces_host():
    for p, q, r in [(1, 1, 1), (2, 3, 1), (3, 2, 2)]:
        g = pqr(p, q, r)
        t = validate_subtree(g, ["e", "g"], ["u"])
        assert are_isomorphic(corner_graph(g, t).graph, g).isomorphic


def test_pqr_tree2_multiplicities():
    p, q, r = 2, 3, 1
    g = pqr(p, q, r)
    t = validate_subtree(g, ["e", "f"], ["u"])
    result = corner_graph(g, t)
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
    result = corner_graph(g, t)
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
        result = corner_graph(g, t)
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
        result = corner_graph(g, t)
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
        result = corner_graph(g, t)
        for v in result.graph.vertices:
            if not g.out_edges(v):
                assert not result.graph.out_edges(v)


def test_acyclicity_preserved():
    for seed in range(40):
        g, roots, t = _random_instance(seed, acyclic=True)
        assert is_acyclic(corner_graph(g, t).graph)


def test_deterministic_output():
    for seed in range(10):
        g, roots, t = _random_instance(seed)
        a = corner_graph(g, t)
        b = corner_graph(g, t)
        assert a.graph == b.graph and a.provenance == b.provenance


def test_kept_vertices_rule():
    # A spanned vertex is dropped exactly when it emits edges and all of
    # them are tree edges.
    for seed in range(40):
        g, roots, t = _random_instance(seed)
        kept = set(corner_graph(g, t).graph.vertices)
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
    result = corner_graph(g, t)
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
    result = corner_graph(g, t)
    assert [(e.name, e.dst) for e in result.graph.edges] == [
        ("a@b@c", "b@c"), ("a@b@c.2", "c"), ("a@b@c.1", "c.1"),
    ]
    assert result.provenance == {
        "a@b@c": ("a", "b@c"), "a@b@c.2": ("a@b", "c"),
        "a@b@c.1": ("a@b", "c.1"),
    }
