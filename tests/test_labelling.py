import random

import pytest

from graphcorners import (
    CapExceededError,
    DirectedMultigraph,
    GraphFormatError,
    GroupSpec,
    Labelling,
    Path,
    are_isomorphic,
    cycle_labels_trivial,
    fixed_point_pipeline,
    is_acyclic,
    kirchhoff_check,
    path_label,
    reachable_skew,
    skew_product,
)

from sample_graphs import (
    brute_force_kirchhoff_fails,
    cyc6,
    edge1,
    enumerate_simple_cycles,
    random_multigraph,
    rose2,
    simulate_kirchhoff_certificate,
    single_loop,
    weak_component_count,
)


def rose2_z3():
    g = rose2()
    return g, Labelling.from_graph(g, GroupSpec.parse("z3"))


class TestGroupSpec:
    def test_parse(self):
        assert GroupSpec.parse("z").moduli == (0,)
        assert GroupSpec.parse("z3").moduli == (3,)
        assert GroupSpec.parse("z,z2").moduli == (0, 2)
        assert str(GroupSpec.parse("Z12")) == "z12"

    def test_parse_rejects_junk(self):
        for bad in ["", "z0", "q3", "z-1", "z3;z2"]:
            with pytest.raises(ValueError):
                GroupSpec.parse(bad)

    def test_canonical(self):
        g = GroupSpec.parse("z3,z")
        assert g.canonical((-1, -1)) == (2, -1)
        assert g.canonical((5, 7)) == (2, 7)
        with pytest.raises(ValueError):
            g.canonical((1,))

    def test_op_inverse_identity(self):
        g = GroupSpec.parse("z4,z")
        a = g.canonical((3, -2))
        assert g.op(a, g.inverse(a)) == g.identity
        assert g.op(g.identity, a) == a

    def test_elements_enumeration(self):
        g = GroupSpec.parse("z2,z3")
        els = list(g.elements())
        assert len(els) == g.order == 6
        assert els[0] == (0, 0) and els[-1] == (1, 2)
        with pytest.raises(ValueError):
            list(GroupSpec.parse("z").elements())

    def test_encodings(self):
        g = GroupSpec.parse("z,z2")
        a = g.parse_element("-2,1")
        assert a == (-2, 1)
        assert g.encode(a) == "-2,1"
        assert g.name_encode(a) == "-2.1"
        with pytest.raises(ValueError):
            g.parse_element("x,1")


class TestLabelling:
    def test_from_graph_defaults_to_identity(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a")])
        c = Labelling.from_graph(g, GroupSpec.parse("z5"))
        assert c.label("e") == (0,)

    def test_from_graph_bad_label(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a", "x")])
        with pytest.raises(GraphFormatError, match="edge 'e'"):
            Labelling.from_graph(g, GroupSpec.parse("z5"))

    def test_wrong_arity_label(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a", "1,2")])
        with pytest.raises(GraphFormatError):
            Labelling.from_graph(g, GroupSpec.parse("z5"))

    def test_from_map_rejects_unknown_edge(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a")])
        with pytest.raises(GraphFormatError, match="'typo'"):
            Labelling.from_map(g, GroupSpec.parse("z5"), {"e": 1, "typo": 1})


class TestPathLabel:
    def test_rose2_pair_cancels(self):
        g, c = rose2_z3()
        assert path_label(c, Path("v", ("e", "f"))) == (0,)

    def test_empty_path(self):
        g, c = rose2_z3()
        assert path_label(c, Path("v")) == (0,)

    def test_gauge_label_counts_length(self):
        g = cyc6()
        c = Labelling.from_map(
            g, GroupSpec.parse("z"), {e.name: 1 for e in g.edges}
        )
        mu = Path("v0", ("e1", "e2", "e0", "f2"))
        assert path_label(c, mu) == (len(mu.edges),)

    def test_invalid_path(self):
        g, c = rose2_z3()
        with pytest.raises(GraphFormatError):
            path_label(c, Path("v", ("zz",)))


class TestSkewProduct:
    def test_rose2_z3_exact(self):
        g, c = rose2_z3()
        sk = skew_product(g, c)
        assert sk.vertices == ("v@0", "v@1", "v@2")
        assert {(e.name, e.src, e.dst) for e in sk.edges} == {
            ("e@1", "v@0", "v@1"),
            ("e@2", "v@1", "v@2"),
            ("e@0", "v@2", "v@0"),
            ("f@2", "v@0", "v@2"),
            ("f@1", "v@2", "v@1"),
            ("f@0", "v@1", "v@0"),
        }

    def test_rose2_z3_isomorphic_to_cyc6(self):
        g, c = rose2_z3()
        assert are_isomorphic(skew_product(g, c), cyc6()).isomorphic

    def test_source_range_laws_and_counts(self):
        for seed in range(25):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=4, max_e=6)
            group = GroupSpec.parse(rng.choice(["z2", "z3", "z2,z2"]))
            c = Labelling.from_map(
                g,
                group,
                {
                    e.name: [rng.randrange(m) for m in group.moduli]
                    for e in g.edges
                },
            )
            sk = skew_product(g, c)
            assert len(sk.vertices) == len(g.vertices) * group.order
            assert len(sk.edges) == len(g.edges) * group.order
            for s in group.elements():
                for e in g.edges:
                    name = f"{e.name}@{group.name_encode(s)}"
                    ske = sk.edge(name)
                    src_coord = group.op(c.label(e.name), s)
                    assert ske.src == f"{e.src}@{group.name_encode(src_coord)}"
                    assert ske.dst == f"{e.dst}@{group.name_encode(s)}"

    def test_trivial_group_reproduces_host(self):
        for seed in range(10):
            g = random_multigraph(random.Random(seed), max_v=5, max_e=8)
            c = Labelling.from_graph(g, GroupSpec.parse("z1"))
            assert are_isomorphic(skew_product(g, c), g).isomorphic

    def test_identity_labelling_gives_disjoint_copies(self):
        for seed in range(10):
            g = random_multigraph(random.Random(seed), max_v=5, max_e=8)
            c = Labelling.from_map(g, GroupSpec.parse("z2"), {})
            sk = skew_product(g, c)
            assert weak_component_count(sk) == 2 * weak_component_count(g)

    def test_infinite_group_rejected(self):
        g = edge1()
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        with pytest.raises(ValueError, match="reachable_skew"):
            skew_product(g, c)

    def test_cayley_regularity(self):
        # A one-vertex rose labelled by generators skews to a |G|-vertex
        # graph with constant in- and out-degree the petal count.
        group = GroupSpec.parse("z6")
        g = DirectedMultigraph(
            ["v"], [("s1", "v", "v", "1"), ("s2", "v", "v", "2")]
        )
        c = Labelling.from_graph(g, group)
        sk = skew_product(g, c)
        assert len(sk.vertices) == 6
        for v in sk.vertices:
            assert len(sk.out_edges(v)) == 2
            assert len(sk.in_edges(v)) == 2
        assert weak_component_count(sk) == 1

    def test_cayley_single_generator_cycle(self):
        group = GroupSpec.parse("z5")
        g = DirectedMultigraph(["v"], [("s", "v", "v", "2")])
        c = Labelling.from_graph(g, group)
        sk = skew_product(g, c)
        cycle5 = DirectedMultigraph(
            [f"w{i}" for i in range(5)],
            [(f"c{i}", f"w{i}", f"w{(i + 1) % 5}") for i in range(5)],
        )
        assert are_isomorphic(sk, cycle5).isomorphic


class TestReachableSkew:
    def test_finite_group_matches_full_restriction(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=4, max_e=6)
            group = GroupSpec.parse(rng.choice(["z2", "z3"]))
            c = Labelling.from_map(
                g,
                group,
                {e.name: rng.randrange(group.moduli[0]) for e in g.edges},
            )
            reach = reachable_skew(g, c, len(g.vertices) * group.order)
            full = skew_product(g, c)
            kept = set(reach.vertices)
            restricted = [e for e in full.edges if e.src in kept]
            assert sorted(e.name for e in reach.edges) == sorted(
                e.name for e in restricted
            )
            for e in restricted:
                assert e.dst in kept  # closure is hereditary

    def test_rose2_closure_is_everything(self):
        g, c = rose2_z3()
        reach = reachable_skew(g, c, 100)
        assert len(reach.vertices) == 3 and len(reach.edges) == 6
        assert are_isomorphic(reach, skew_product(g, c)).isomorphic

    def test_infinite_group_example(self):
        g = DirectedMultigraph(
            ["u", "v"], [("a", "u", "v", "1"), ("l", "v", "v", "0")]
        )
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        reach = reachable_skew(g, c, 100)
        assert set(reach.vertices) == {"u@0", "v@0", "v@-1"}
        assert {(e.name, e.src, e.dst) for e in reach.edges} == {
            ("a@-1", "u@0", "v@-1"),
            ("l@0", "v@0", "v@0"),
            ("l@-1", "v@-1", "v@-1"),
        }

    def test_cap_exceeded(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        with pytest.raises(CapExceededError):
            reachable_skew(g, c, 50)

    def test_cap_below_vertex_count_rejected(self):
        g = cyc6()
        c = Labelling.from_graph(g, GroupSpec.parse("z2"))
        with pytest.raises(ValueError, match="at least"):
            reachable_skew(g, c, 2)

    def test_finite_group_ignores_cap(self):
        g, c = rose2_z3()
        reach = reachable_skew(g, c, 1)
        assert len(reach.vertices) == 3
        assert fixed_point_pipeline(g, c, 1).skew == reach


class TestKirchhoff:
    def test_acyclic_always_passes(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=5, max_e=7)
            if not is_acyclic(g):
                continue
            c = Labelling.from_map(
                g, GroupSpec.parse("z"), {e.name: 99 for e in g.edges}
            )
            assert kirchhoff_check(g, c, bound=1).status == "PASS"

    def test_rose2_z3_fails_with_valid_certificate(self):
        g, c = rose2_z3()
        result = kirchhoff_check(g, c)
        assert result.status == "FAIL"
        simulate_kirchhoff_certificate(g, c, result)

    def test_loop_z2_passes(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z2"))
        assert kirchhoff_check(g, c).status == "PASS"

    def test_unbalanced_loop_over_z_unknown(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        assert kirchhoff_check(g, c, bound=10).status == "UNKNOWN"

    def test_two_loops_over_z_fail(self):
        g = DirectedMultigraph(
            ["v"], [("up", "v", "v", "1"), ("down", "v", "v", "-1")]
        )
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        result = kirchhoff_check(g, c, bound=10)
        assert result.status == "FAIL"
        simulate_kirchhoff_certificate(g, c, result)

    def test_matches_brute_force_on_finite_groups(self):
        fails = 0
        for seed in range(120):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=4, max_e=6)
            group = GroupSpec.parse(rng.choice(["z2", "z3", "z4"]))
            c = Labelling.from_map(
                g,
                group,
                {
                    e.name: 0 if rng.random() < 0.3
                    else rng.randrange(group.moduli[0])
                    for e in g.edges
                },
            )
            result = kirchhoff_check(g, c)
            assert result.status in ("PASS", "FAIL")
            expected_fail = brute_force_kirchhoff_fails(g, c)
            assert (result.status == "FAIL") == expected_fail
            if expected_fail:
                fails += 1
                simulate_kirchhoff_certificate(g, c, result)
        assert fails > 10  # the sample exercises both outcomes


class TestCycleLabels:
    def test_rose2_z3_nontrivial(self):
        g, c = rose2_z3()
        ok, cycle = cycle_labels_trivial(g, c)
        assert not ok
        acc = c.group.identity
        at = g.edge(cycle[0]).src
        for name in cycle:
            e = g.edge(name)
            assert e.src == at
            at = e.dst
            acc = c.group.op(acc, c.label(name))
        assert at == g.edge(cycle[0]).src
        assert acc != c.group.identity

    def test_balanced_labelling_trivial(self):
        g = cyc6()
        c = Labelling.from_map(
            g,
            GroupSpec.parse("z"),
            {"e1": 1, "e2": 1, "e0": -2, "f2": 2, "f1": -1, "f0": -1},
        )
        assert cycle_labels_trivial(g, c) == (True, None)

    def test_matches_simple_cycle_enumeration(self):
        for seed in range(60):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=5, max_e=7)
            c = Labelling.from_map(
                g,
                GroupSpec.parse("z"),
                {e.name: rng.randint(-2, 2) for e in g.edges},
            )
            expected = all(
                sum(c.label(n)[0] for n in cyc) == 0
                for cyc in enumerate_simple_cycles(g)
            )
            ok, cycle = cycle_labels_trivial(g, c)
            assert ok == expected
            if not ok:
                assert sum(c.label(n)[0] for n in cycle) != 0


class TestFixedPoint:
    def test_rose2_z3_shape(self):
        g, c = rose2_z3()
        result = fixed_point_pipeline(g, c, 100)
        corner = result.corner.graph
        assert len(corner.vertices) == 2
        assert len(corner.edges) == 6
        a, b = corner.vertices
        from sample_graphs import multiplicity_map

        assert multiplicity_map(corner) == {
            (a, a): 1,
            (b, b): 1,
            (a, b): 2,
            (b, a): 2,
        }

    def test_trivial_group_reproduces_host(self):
        for seed in range(10):
            g = random_multigraph(random.Random(seed), max_v=5, max_e=8)
            c = Labelling.from_graph(g, GroupSpec.parse("z1"))
            corner = fixed_point_pipeline(g, c, 100).corner.graph
            assert are_isomorphic(corner, g).isomorphic

    def test_gauge_labelling_on_single_edge(self):
        g = edge1()
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        corner = fixed_point_pipeline(g, c, 100).corner.graph
        assert set(corner.vertices) == {"v@0", "v@-1"}
        assert corner.edges == ()

    def test_gauge_labelling_on_loop_exceeds_cap(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        with pytest.raises(CapExceededError):
            fixed_point_pipeline(g, c, 50).corner

    def test_deterministic(self):
        g, c = rose2_z3()
        r1 = fixed_point_pipeline(g, c, 100)
        r2 = fixed_point_pipeline(g, c, 100)
        assert r1.skew == r2.skew
        assert r1.tree == r2.tree
        assert r1.corner.graph == r2.corner.graph

    def test_pass_guarantees_pipeline_roots(self):
        checked = 0
        for seed in range(60):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=4, max_e=6)
            group = GroupSpec.parse(rng.choice(["z2", "z3"]))
            c = Labelling.from_map(
                g,
                group,
                {
                    e.name: 0 if rng.random() < 0.4
                    else rng.randrange(group.moduli[0])
                    for e in g.edges
                },
            )
            if kirchhoff_check(g, c).status != "PASS":
                continue
            checked += 1
            result = fixed_point_pipeline(
                g, c, len(g.vertices) * group.order
            )
            expected_roots = {f"{v}@0" for v in g.vertices}
            assert set(result.tree.roots) == expected_roots
        assert checked > 5
