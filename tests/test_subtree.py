import random

import pytest

from graphcorners import (
    DirectedMultigraph,
    GraphFormatError,
    GroupSpec,
    Labelling,
    Path,
    SubtreeValidationError,
    build_spanning_subtree,
    descendants,
    fixed_point_pipeline,
    hereditary_closure,
    root_path,
    validate_subtree,
)
from graphcorners.subtree import bfs_distances

from sample_graphs import cyc6, pqr, random_bfs_tree, random_multigraph


class TestValidate:
    def test_cyc6_tree_valid(self):
        t = validate_subtree(cyc6(), ["e1", "f2"], ["v0"])
        assert t.tree_vertices == {"v0", "v1", "v2"}
        assert t.roots == {"v0"}
        assert t.parent == {"v1": "e1", "v2": "f2"}

    # The violation lists below are pinned whole: text and order.  The
    # order is: endpoints outside the closure, per tree edge as given;
    # in-degree faults by vertex name; roots receiving a tree edge, then
    # non-roots receiving none, each by vertex name; a cycle last.

    @staticmethod
    def _violations(g, tree_edges, roots):
        with pytest.raises(SubtreeValidationError) as exc:
            validate_subtree(g, tree_edges, roots)
        assert str(exc.value) == "; ".join(exc.value.violations)
        return exc.value.violations

    def test_double_parent(self):
        assert self._violations(cyc6(), ["e1", "e2", "f2"], ["v0"]) == [
            "in-degree violation: vertex 'v2' receives 2 tree edges (e2, f2)",
        ]

    def test_root_set_mismatch(self):
        assert self._violations(cyc6(), ["e1", "f2"], ["v1"]) == [
            "root-set mismatch: root 'v1' receives tree edge 'e1'",
            "root-set mismatch: non-root vertex 'v0' receives no tree edge",
        ]

    def test_root_names_the_first_given_tree_edge(self):
        assert self._violations(
            cyc6(), ["f0", "e0", "e1", "f2"], ["v0"]
        ) == [
            "in-degree violation: vertex 'v0' receives 2 tree edges (e0, f0)",
            "root-set mismatch: root 'v0' receives tree edge 'f0'",
            "cycle among tree edges",
        ]

    def test_non_roots_receiving_no_tree_edge(self):
        assert self._violations(cyc6(), [], ["v0"]) == [
            "root-set mismatch: non-root vertex 'v1' receives no tree edge",
            "root-set mismatch: non-root vertex 'v2' receives no tree edge",
        ]

    def test_endpoint_outside_spanned_set(self):
        g = DirectedMultigraph(
            ["a", "b", "c"], [("e", "a", "b"), ("f", "c", "a")]
        )
        assert self._violations(g, ["f"], ["a"]) == [
            "tree edge 'f' has endpoint 'c' outside the spanned vertex set",
            "root-set mismatch: root 'a' receives tree edge 'f'",
            "root-set mismatch: non-root vertex 'b' receives no tree edge",
        ]

    def test_loop_outside_is_reported_per_endpoint(self):
        g = DirectedMultigraph(
            ["a", "b", "c"],
            [("e", "a", "b"), ("f", "c", "a"), ("h", "c", "c")],
        )
        outside = "has endpoint 'c' outside the spanned vertex set"
        assert self._violations(g, ["e", "f", "h"], ["a"]) == [
            f"tree edge 'f' {outside}",
            f"tree edge 'h' {outside}",
            f"tree edge 'h' {outside}",
            "root-set mismatch: root 'a' receives tree edge 'f'",
        ]

    def test_cycle_among_tree_edges(self):
        g = DirectedMultigraph(
            ["r", "a", "b"],
            [("p", "r", "a"), ("q", "a", "b"), ("s", "b", "a")],
        )
        assert self._violations(g, ["q", "s"], ["r"]) == [
            "cycle among tree edges",
        ]

    def test_several_faults_in_one_tree(self):
        # Vertex names sort differently from their insertion order, and
        # the tree edges and roots repeat.
        g = DirectedMultigraph(
            ["r", "a", "b", "c", "d", "x", "n", "g"],
            [("p", "r", "a"), ("q", "a", "b"), ("s", "b", "a"),
             ("t", "r", "b"), ("u", "x", "a"), ("w", "b", "c"),
             ("y", "c", "d"), ("z", "d", "r"), ("m", "c", "c"),
             ("o", "d", "n"), ("i", "d", "g")],
        )
        assert self._violations(
            g, ["u", "s", "q", "t", "z", "m", "p", "s"], ["r", "d", "r"]
        ) == [
            "tree edge 'u' has endpoint 'x' outside the spanned vertex set",
            "in-degree violation: vertex 'a' receives 3 tree edges (p, s, u)",
            "in-degree violation: vertex 'b' receives 2 tree edges (q, t)",
            "root-set mismatch: root 'r' receives tree edge 'z'",
            "root-set mismatch: non-root vertex 'g' receives no tree edge",
            "root-set mismatch: non-root vertex 'n' receives no tree edge",
            "cycle among tree edges",
        ]

    def test_unknown_names(self):
        # The first unknown name is reported, tree edges before roots.
        with pytest.raises(GraphFormatError, match="^unknown edge 'zz'$"):
            validate_subtree(cyc6(), ["e1", "zz", "yy"], ["v0"])
        with pytest.raises(GraphFormatError, match="^unknown edge 'zz'$"):
            validate_subtree(cyc6(), ["zz"], ["qq"])
        with pytest.raises(GraphFormatError, match="^unknown vertex 'qq'$"):
            validate_subtree(cyc6(), ["e1"], ["v0", "qq", "pp"])

    def test_empty_tree_for_hereditary_roots(self):
        g = pqr(1, 1, 1)
        t = validate_subtree(g, [], ["u", "v", "w"])
        assert t.tree_edges == frozenset()
        assert t.roots == {"u", "v", "w"}


class TestRootPath:
    def test_cyc6(self):
        t = validate_subtree(cyc6(), ["e1", "f2"], ["v0"])
        assert root_path(t, "v1") == Path("v0", ("e1",))
        assert root_path(t, "v0") == Path("v0", ())

    def test_pqr_chain(self):
        t = validate_subtree(pqr(1, 1, 1), ["e", "f"], ["u"])
        assert root_path(t, "w") == Path("u", ("e", "f"))

    def test_outside_tree(self):
        g = DirectedMultigraph(["a", "b"], [("e", "a", "b")])
        t = validate_subtree(g, [], ["b"])
        with pytest.raises(GraphFormatError):
            root_path(t, "a")


class TestDescendants:
    def test_cyc6(self):
        t = validate_subtree(cyc6(), ["e1", "f2"], ["v0"])
        assert descendants(t, "v0") == ("v0", "v1", "v2")
        assert descendants(t, "v1") == ("v1",)

    def test_pqr_chain(self):
        t = validate_subtree(pqr(1, 1, 1), ["e", "f"], ["u"])
        assert set(descendants(t, "v")) == {"v", "w"}


class TestTreeLaws:
    def _random_tree(self, seed):
        rng = random.Random(seed)
        g = random_multigraph(rng, max_v=7, max_e=12)
        roots = rng.sample(
            list(g.vertices), rng.randint(1, len(g.vertices))
        )
        return g, random_bfs_tree(g, roots, rng)

    def test_reachability_is_prefix_order(self):
        for seed in range(40):
            g, t = self._random_tree(seed)
            for v in t.tree_vertices:
                down = set(descendants(t, v))
                pv = root_path(t, v)
                for u in t.tree_vertices:
                    assert (u in down) == pv.is_prefix_of(root_path(t, u))

    def test_every_vertex_reaches_a_leaf(self):
        for seed in range(40):
            g, t = self._random_tree(seed)
            for v in t.tree_vertices:
                leaves = [
                    u
                    for u in descendants(t, v)
                    if not any(
                        t.is_tree_edge(e.name) for e in g.out_edges(u)
                    )
                ]
                assert leaves

    def test_unique_continuation_edge(self):
        for seed in range(40):
            g, t = self._random_tree(seed)
            for v in t.tree_vertices:
                pv = root_path(t, v)
                for u in descendants(t, v):
                    if u == v:
                        continue
                    pu = root_path(t, u)
                    continuations = [
                        e.name
                        for e in g.out_edges(v)
                        if t.is_tree_edge(e.name)
                        and Path(pv.start, pv.edges + (e.name,)).is_prefix_of(pu)
                    ]
                    assert len(continuations) == 1


class TestBuild:
    def test_cyc6(self):
        t = build_spanning_subtree(cyc6(), ["v0"])
        assert t.tree_edges == {"e1", "f2"}

    def test_all_roots_gives_empty_tree(self):
        g = cyc6()
        t = build_spanning_subtree(g, list(g.vertices))
        assert t.tree_edges == frozenset()

    def test_pqr_variant_lexicographic_choice(self):
        g = DirectedMultigraph(
            ["u", "v", "w"],
            [
                ("lu", "u", "u"),
                ("lv", "v", "v"),
                ("lw", "w", "w"),
                ("a1", "u", "v"),
                ("a2", "u", "v"),
                ("b1", "v", "w"),
                ("b2", "v", "w"),
                ("g1", "u", "w"),
                ("g2", "u", "w"),
            ],
        )
        t = build_spanning_subtree(g, ["u"])
        assert t.tree_edges == {"a1", "g1"}

    def test_empty_roots_rejected(self):
        with pytest.raises(GraphFormatError, match="non-empty"):
            build_spanning_subtree(cyc6(), [])
        with pytest.raises(GraphFormatError, match="non-empty"):
            build_spanning_subtree(cyc6(), range(0), indices=True)

    def test_unknown_root_rejected(self):
        with pytest.raises(GraphFormatError):
            build_spanning_subtree(cyc6(), ["zz"])

    def test_size_depth_and_determinism(self):
        for seed in range(50):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=7, max_e=12)
            roots = rng.sample(
                list(g.vertices), rng.randint(1, len(g.vertices))
            )
            t1 = build_spanning_subtree(g, roots)
            t2 = build_spanning_subtree(g, roots)
            assert t1 == t2
            # Rooted by index, the same tree.
            index = {v: i for i, v in enumerate(g.vertices)}
            assert build_spanning_subtree(
                g, [index[v] for v in roots], indices=True) == t1
            closure = hereditary_closure(g, roots)
            assert len(t1.tree_edges) == len(closure) - len(set(roots))
            dist = bfs_distances(g, roots)
            for v in t1.tree_vertices:
                assert len(root_path(t1, v)) == dist[v]

    def test_validate_accepts_every_built_tree(self):
        # build_spanning_subtree returns its tree without validating it;
        # validate_subtree must accept each one and rebuild it equal.
        rng = random.Random(2026)

        def graph(n, m, dag):
            vs = [f"v{i}" for i in range(n)]
            ends = [sorted(rng.sample(range(n), 2)) if dag else
                    (rng.randrange(n), rng.randrange(n)) for _ in range(m)]
            return DirectedMultigraph(
                vs, [(f"e{k}", vs[i], vs[j]) for k, (i, j) in enumerate(ends)]
            )

        hosts = []
        for _ in range(3):
            hosts += [graph(300, 900, False), graph(300, 900, True)]
            g = graph(80, 240, False)
            c = Labelling.from_map(
                g, GroupSpec.parse("z5"),
                {e.name: rng.randrange(5) for e in g.edges},
            )
            hosts.append(fixed_point_pipeline(g, c).skew)
        assert min(len(g.vertices) for g in hosts) >= 300
        for g in hosts:
            for _ in range(3):
                roots = rng.sample(list(g.vertices), rng.randint(1, 4))
                t = build_spanning_subtree(g, roots)
                assert validate_subtree(g, t.tree_edges, t.roots) == t

    def test_parents_are_least_named_in_edges_at_scale(self):
        # Edge names are shuffled against their indices, so the least
        # name is not the first edge met.
        rng = random.Random(77)
        for trial in range(8):
            n = rng.randint(200, 400)
            vs = [f"v{i}" for i in range(n)]
            m = rng.choice([n + n // 2, 3 * n])
            names = [f"e{k}" for k in range(m)]
            rng.shuffle(names)
            g = DirectedMultigraph(vs, [
                (name, rng.choice(vs), rng.choice(vs)) for name in names
            ])
            roots = rng.sample(vs, rng.randint(1, 5))
            t = build_spanning_subtree(g, roots)
            dist = bfs_distances(g, roots)
            parent = {
                v: min(e.name for e in g.in_edges(v)
                       if dist.get(e.src) == d - 1)
                for v, d in dist.items() if d > 0
            }
            assert t.parent == parent
            assert t.tree_edges == frozenset(parent.values())
            assert t.tree_vertices == frozenset(dist)
            assert t.roots == frozenset(roots)
            assert validate_subtree(g, t.tree_edges, t.roots) == t
