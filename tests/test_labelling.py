import random
import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from graphcorners import (
    CapExceededError,
    DirectedMultigraph,
    FixedPointResult,
    GraphFormatError,
    GroupSpec,
    KirchhoffResult,
    Labelling,
    are_isomorphic,
    cycle_labels_trivial,
    fixed_point_pipeline,
    is_acyclic,
    kirchhoff_check,
    parse_graph,
    reachable_skew,
    skew_product,
)

from graphcorners import labelling, multigraph, subtree
from reference import Path, path_label
from sample_graphs import (
    big_dag_text,
    layered_potential_text,
    brute_force_kirchhoff_fails,
    cyc6,
    edge1,
    enumerate_simple_cycles,
    odd_names,
    random_multigraph,
    random_sparse_text,
    rose2,
    simulate_kirchhoff_certificate,
    single_loop,
    weak_component_count,
)


def rose2_z3():
    g = rose2()
    return g, Labelling.from_graph(g, GroupSpec.parse("z3"))


def edge_and_loop_z():
    g = DirectedMultigraph(
        ["u", "v"], [("a", "u", "v", "1"), ("l", "v", "v", "0")]
    )
    return g, Labelling.from_graph(g, GroupSpec.parse("z"))


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
        for text in ("z", "z3,z"):
            with pytest.raises(ValueError, match="group is infinite"):
                GroupSpec.parse(text).order

    def test_encodings(self):
        g = GroupSpec.parse("z,z2")
        a = g.parse_element("-2,1")
        assert a == (-2, 1)
        assert g.encode(a) == "-2,1"
        assert g.name_encode(a) == "-2.1"
        assert g.parse_element("+3,-0") == (3, 0)
        with pytest.raises(ValueError):
            g.parse_element("x,1")

    @pytest.mark.parametrize("text", ["1_0", "\u0663", " 1", "1 ", "1,", ""])
    def test_coordinates_are_plain_decimals(self, text):
        # int() would read '1_0' as 10, the Arabic-Indic digit as 3 and
        # ' 1' as 1.
        with pytest.raises(ValueError) as caught:
            GroupSpec.parse("z").parse_element(text)
        assert str(caught.value) == f"bad group element {text!r}"
        if text.split() == [text]:  # a label the file format can hold
            g = DirectedMultigraph(["a"], [("e", "a", "a", text)])
            with pytest.raises(GraphFormatError) as caught:
                Labelling.from_graph(g, GroupSpec.parse("z"))
            assert str(caught.value) == f"edge 'e': bad group element {text!r}"


class TestLabelling:
    def test_from_graph_defaults_to_identity(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a")])
        c = Labelling.from_graph(g, GroupSpec.parse("z5"))
        assert c.label("e") == (0,)
        with pytest.raises(GraphFormatError, match="^unknown edge 'nope'$"):
            c.label("nope")

    def test_from_graph_bad_label(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a", "x")])
        with pytest.raises(GraphFormatError, match="edge 'e'"):
            Labelling.from_graph(g, GroupSpec.parse("z5"))

    def test_repeated_bad_label_names_the_first_edge(self):
        g = DirectedMultigraph(["a"], [
            ("e", "a", "a", "1"), ("f", "a", "a", "x"),
            ("g", "a", "a", "1"), ("h", "a", "a", "x"),
        ])
        with pytest.raises(GraphFormatError) as caught:
            Labelling.from_graph(g, GroupSpec.parse("z5"))
        assert str(caught.value) == "edge 'f': bad group element 'x'"

    def test_wrong_arity_label(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a", "1,2")])
        with pytest.raises(GraphFormatError):
            Labelling.from_graph(g, GroupSpec.parse("z5"))

    def test_from_map_rejects_unknown_edge(self):
        g = DirectedMultigraph(["a"], [("e", "a", "a")])
        with pytest.raises(GraphFormatError, match="'typo'"):
            Labelling.from_map(g, GroupSpec.parse("z5"), {"e": 1, "typo": 1})


@pytest.mark.parametrize("entry", [
    skew_product, reachable_skew, kirchhoff_check, cycle_labels_trivial,
    fixed_point_pipeline,
], ids=lambda f: f.__name__)
def test_labelling_of_another_graph_is_refused(entry):
    # No entry point takes a host beside the labelling, so none can be
    # handed a labelling of another graph: each answers for the
    # labelling's own host, and reads only its edges.
    z3 = GroupSpec.parse("z3")
    read = {
        host.edges[0].name: edges_read(entry(Labelling.from_graph(host, z3)))
        for host in (rose2(), single_loop("1"))
    }
    assert read["e"] and read["e"] <= {"e", "f"}
    # l, l, l sums to 0 in z3: the loop passes Kirchhoff with no walk.
    assert read["l"] == (set() if entry is kirchhoff_check else {"l"})


def edges_read(result) -> set[str]:
    """The host edge names in a result of a labelling's entry point: the
    first part of each skew or corner edge name, or the walk a check
    returns as its witness."""
    if isinstance(result, DirectedMultigraph):
        return {e.name.split("@")[0] for e in result.edges}
    if isinstance(result, FixedPointResult):
        return edges_read(result.skew) | edges_read(result.corner.graph)
    if isinstance(result, KirchhoffResult):
        return set((result.prefix or ()) + (result.cycle or ()))
    return set(result[1] or ())


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
        sk = skew_product(c)
        assert sk.vertices == ("v@0", "v@1", "v@2")
        assert {(e.name, e.src, e.dst) for e in sk.edges} == {
            ("e@1", "v@0", "v@1"),
            ("e@2", "v@1", "v@2"),
            ("e@0", "v@2", "v@0"),
            ("f@2", "v@0", "v@2"),
            ("f@1", "v@2", "v@1"),
            ("f@0", "v@1", "v@0"),
        }

    def test_order_is_host_edge_then_element(self):
        g = DirectedMultigraph(
            ["v"], [("e", "v", "v", "1"), ("f", "v", "v", "2")]
        )
        sk = skew_product(Labelling.from_graph(g, GroupSpec.parse("z3")))
        assert sk.vertices == ("v@0", "v@1", "v@2")
        assert tuple(e.name for e in sk.edges) == (
            "e@0", "e@1", "e@2", "f@0", "f@1", "f@2"
        )

    def test_rose2_z3_isomorphic_to_cyc6(self):
        g, c = rose2_z3()
        assert are_isomorphic(skew_product(c), cyc6()).isomorphic

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
            sk = skew_product(c)
            assert len(sk.vertices) == len(g.vertices) * group.order
            assert len(sk.edges) == len(g.edges) * group.order
            for s in group.elements():
                for e in g.edges:
                    name = f"{e.name}@{group.name_encode(s)}"
                    ske = sk.edge(name)
                    src_coord = group.op(c.label(e.name), s)
                    assert ske.src == f"{e.src}@{group.name_encode(src_coord)}"
                    assert ske.dst == f"{e.dst}@{group.name_encode(s)}"

    @pytest.mark.parametrize("spec", ["z5", "z2,z3"])
    def test_switching_maps_the_skew_onto_the_switched_skew(self, spec):
        # Switching by phi: V -> G.  The labelling c'(e) = c(e) +
        # phi(s(e)) - phi(r(e)) has a skew isomorphic to c's, through
        # (v, g) -> (v, g + phi(v)) and (e, g) -> (e, g + phi(r(e)))
        # (Gross-Tucker on voltage graphs; Kumjian-Pask).
        host = parse_graph(random_sparse_text(3000))
        group, rng = GroupSpec.parse(spec), random.Random(15)

        def draw():
            return tuple(rng.randrange(m) for m in group.moduli)

        c = Labelling.from_map(host, group,
                               {e.name: draw() for e in host.edges})
        phi = {v: draw() for v in host.vertices}
        switched = Labelling.from_map(host, group, {
            e.name: group.op(group.op(c.label(e.name), phi[e.src]),
                             group.inverse(phi[e.dst]))
            for e in host.edges
        })

        # g + a, name-encoded, by the encoding of g and the element a.
        plus = {(group.name_encode(g), a): group.name_encode(group.op(g, a))
                for g in group.elements() for a in group.elements()}

        def moved(name, by):
            # name is x@g, x a host name (no '@' here).
            x, g = name.split("@")
            return f"{x}@{plus[g, by]}"

        skew, image = skew_product(c), skew_product(switched)
        assert len(skew.vertices) == 3000 * group.order
        to = {v: moved(v, phi[v.split("@")[0]]) for v in skew.vertices}
        assert sorted(to.values()) == sorted(image.vertices)
        ends = {e.name: (e.src, e.dst) for e in image.edges}
        assert len(ends) == len(skew.edges) == 9000 * group.order
        for e in skew.edges:
            by = phi[e.dst.split("@")[0]]
            assert ends.pop(moved(e.name, by)) == (to[e.src], to[e.dst])
        assert not ends

    @pytest.mark.parametrize("spec", ["z1", "z4", "z2,z3", "z3,z1,z2"])
    @pytest.mark.parametrize("shape", ["empty", "point", "rose", "sparse",
                                       "edgeless"])
    def test_matches_definition(self, spec, shape):
        # The skew product whole against one built from its definition
        # through the public constructor: the vertex (v, g) for each v,
        # then g in lexicographic order, and the edge (e, g) from
        # (s(e), c(e)+g) to (r(e), g) for each e, then g.  Labels reach
        # outside [0, m), names hold '@', and edges repeat and loop.
        group = GroupSpec.parse(spec)
        rng = random.Random(f"{spec} {shape}")
        n = {"empty": 0, "point": 1, "rose": 1}.get(shape)
        n = rng.randint(200, 300) if n is None else n
        m = {"empty": 0, "point": 0, "edgeless": 0, "rose": 4}.get(
            shape, 2 * n)
        vs, es = odd_names(rng.random(), n), odd_names(rng.random(), m)
        edges = []
        for name in es:
            if edges and rng.random() < 0.2:  # parallel to the last edge
                src, dst = edges[-1][1:3]
            else:
                src = rng.choice(vs)
                dst = src if rng.random() < 0.1 else rng.choice(vs)
            label = ",".join(str(rng.randint(-9, 9)) for _ in group.moduli)
            if rng.random() < 0.1:  # unlabelled: the identity
                label = None
            edges.append((name, src, dst, label))
        g = DirectedMultigraph(vs, edges)
        c = Labelling.from_graph(g, group)
        at = [group.name_encode(x) for x in group.elements()]
        expected = DirectedMultigraph(
            [f"{v}@{x}" for v in g.vertices for x in at],
            [(f"{e.name}@{at[t]}",
              f"{e.src}@{group.name_encode(group.op(c.label(e.name), x))}",
              f"{e.dst}@{at[t]}")
             for e in g.edges for t, x in enumerate(group.elements())],
        )
        sk = skew_product(c)
        assert tuple(sk.vertices) == expected.vertices
        assert sk.edges == expected.edges
        assert sk == expected

    def test_trivial_group_reproduces_host(self):
        for seed in range(10):
            g = random_multigraph(random.Random(seed), max_v=5, max_e=8)
            c = Labelling.from_graph(g, GroupSpec.parse("z1"))
            assert are_isomorphic(skew_product(c), g).isomorphic

    def test_identity_labelling_gives_disjoint_copies(self):
        for seed in range(10):
            g = random_multigraph(random.Random(seed), max_v=5, max_e=8)
            c = Labelling.from_map(g, GroupSpec.parse("z2"), {})
            sk = skew_product(c)
            assert weak_component_count(sk) == 2 * weak_component_count(g)

    def test_infinite_group_rejected(self):
        g = edge1()
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        with pytest.raises(ValueError, match="reachable_skew"):
            skew_product(c)

    def test_cayley_regularity(self):
        # A one-vertex rose labelled by generators skews to a |G|-vertex
        # graph with constant in- and out-degree the petal count.
        group = GroupSpec.parse("z6")
        g = DirectedMultigraph(
            ["v"], [("s1", "v", "v", "1"), ("s2", "v", "v", "2")]
        )
        c = Labelling.from_graph(g, group)
        sk = skew_product(c)
        assert len(sk.vertices) == 6
        for v in sk.vertices:
            assert len(sk.out_edges(v)) == 2
            assert len(sk.in_edges(v)) == 2
        assert weak_component_count(sk) == 1

    def test_cayley_single_generator_cycle(self):
        group = GroupSpec.parse("z5")
        g = DirectedMultigraph(["v"], [("s", "v", "v", "2")])
        c = Labelling.from_graph(g, group)
        sk = skew_product(c)
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
            reach = reachable_skew(c, len(g.vertices) * group.order)
            full = skew_product(c)
            kept = set(reach.vertices)
            restricted = [e for e in full.edges if e.src in kept]
            assert sorted(e.name for e in reach.edges) == sorted(
                e.name for e in restricted
            )
            for e in restricted:
                assert e.dst in kept  # closure is hereditary

    def test_out_ranges_are_the_adjacency_of_the_edges(self):
        # The walk leaves the skew's adjacency unbuilt: nothing on the
        # fixed-point path reads it.  Built on first use, it must list
        # exactly the edges whose source is the state.
        for seed in range(30):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=6, max_e=12)
            group = GroupSpec.parse(rng.choice(["z2", "z3", "z,z2"]))
            c = Labelling.from_map(g, group, {
                e.name: [rng.randrange(-2, 3) for _ in group.moduli]
                for e in g.edges})
            try:
                reach = reachable_skew(c, 60)
            except CapExceededError:
                continue
            out = [[] for _ in reach.vertices]
            for k, v in enumerate(reach._src):
                out[v].append(k)
            with pytest.raises(AttributeError):
                object.__getattribute__(reach, "_out")
            assert [list(r) for r in reach._out] == out

    def test_rose2_closure_is_everything(self):
        g, c = rose2_z3()
        reach = reachable_skew(c, 100)
        assert len(reach.vertices) == 3 and len(reach.edges) == 6
        assert are_isomorphic(reach, skew_product(c)).isomorphic

    def test_infinite_group_example(self):
        g, c = edge_and_loop_z()
        reach = reachable_skew(c, 100)
        assert reach.vertices == ("u@0", "v@0", "v@-1")
        assert tuple((e.name, e.src, e.dst) for e in reach.edges) == (
            ("a@-1", "u@0", "v@-1"),
            ("l@0", "v@0", "v@0"),
            ("l@-1", "v@-1", "v@-1"),
        )

    def test_cap_is_the_largest_vertex_count_allowed(self):
        g, c = edge_and_loop_z()
        assert len(reachable_skew(c, 3).vertices) == 3
        with pytest.raises(CapExceededError, match="exceeds cap 2"):
            reachable_skew(c, 2)

    def test_cap_exceeded(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        with pytest.raises(CapExceededError):
            reachable_skew(c, 50)

    def test_cap_below_vertex_count_rejected(self):
        g = cyc6()
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        with pytest.raises(ValueError, match="at least"):
            reachable_skew(c, 2)

    def test_finite_group_ignores_cap(self):
        g, c = rose2_z3()
        reach = reachable_skew(c, 1)
        assert len(reach.vertices) == 3
        assert fixed_point_pipeline(c, 1).skew == reach


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
            assert kirchhoff_check(c, bound=1).status == "PASS"

    def test_rose2_z3_fails_with_valid_certificate(self):
        g, c = rose2_z3()
        result = kirchhoff_check(c)
        assert result.status == "FAIL"
        simulate_kirchhoff_certificate(g, c, result)

    def test_loop_z2_passes(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z2"))
        assert kirchhoff_check(c).status == "PASS"

    def test_unbalanced_loop_over_z_unknown(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        assert kirchhoff_check(c, bound=10).status == "UNKNOWN"

    def test_unknown_search_peak_stays_in_budget(self):
        # Loops along the unit vectors of z,z,z: at bound 20 the search
        # colours the 21³ states within it before it answers UNKNOWN.
        # Colours held in one table per host vertex, keyed by element
        # number, peak at about 2.5 MiB here; one table per element takes
        # 4.5 MiB.
        g = DirectedMultigraph(["v"], [("a", "v", "v", "1,0,0"),
                                       ("b", "v", "v", "0,1,0"),
                                       ("c", "v", "v", "0,0,1")])
        c = Labelling.from_graph(g, GroupSpec.parse("z,z,z"))
        tracemalloc.start()
        try:
            result = kirchhoff_check(c, bound=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status == "UNKNOWN"
        assert peak < 3.5 * 2**20

    def test_negative_bound_rejected(self):
        balanced = DirectedMultigraph(
            ["a", "b"], [("e", "a", "b", "1"), ("f", "b", "a", "-1")]
        )
        for g in (balanced, edge1()):
            c = Labelling.from_graph(g, GroupSpec.parse("z"))
            assert kirchhoff_check(c).status == "PASS"
            with pytest.raises(ValueError, match="bound"):
                kirchhoff_check(c, bound=-1)

    def test_two_loops_over_z_fail(self):
        g = DirectedMultigraph(
            ["v"], [("up", "v", "v", "1"), ("down", "v", "v", "-1")]
        )
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        result = kirchhoff_check(c, bound=10)
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
            result = kirchhoff_check(c)
            assert result.status in ("PASS", "FAIL")
            expected_fail = brute_force_kirchhoff_fails(g, c)
            assert (result.status == "FAIL") == expected_fail
            if expected_fail:
                fails += 1
                simulate_kirchhoff_certificate(g, c, result)
        assert fails > 10  # the sample exercises both outcomes

    def test_matches_brute_force_on_product_groups(self):
        # Elements with several coordinates take the generic path of the
        # group operation; each factor is reduced by its own modulus.
        outcomes = {"PASS": 0, "FAIL": 0}
        for seed in range(150):
            rng = random.Random(f"product {seed}")
            g = random_multigraph(rng, max_v=4, max_e=6)
            group = GroupSpec.parse(rng.choice(["z2,z3", "z3,z2", "z4,z2"]))
            c = Labelling.from_map(g, group, {
                e.name: [0 if rng.random() < 0.4 else rng.randrange(-5, 6)
                         for _ in group.moduli]
                for e in g.edges
            })
            result = kirchhoff_check(c)
            expected_fail = brute_force_kirchhoff_fails(g, c)
            assert result.status == ("FAIL" if expected_fail else "PASS")
            outcomes[result.status] += 1
            if expected_fail:
                simulate_kirchhoff_certificate(g, c, result)
        assert min(outcomes.values()) > 20


def walk_label(c, walk):
    return reduce(c.group.op, map(c.label, walk), c.group.identity)


def assert_nontrivial_closed_walk(g, c, walk):
    """``walk`` is a closed walk of g whose label is not the identity."""
    at = g.edge(walk[0]).src
    for name in walk:
        e = g.edge(name)
        assert e.src == at
        at = e.dst
    assert at == g.edge(walk[0]).src
    assert walk_label(c, walk) != c.group.identity


def chorded_cycle(n, seed):
    """The cycle v0 -> v1 -> ... -> v(n-1) -> v0 plus a chord v(i) ->
    v(i-2) at every third vertex, labelled over z by the differences of
    random vertex potentials, so that every cycle has label 0."""
    rng = random.Random(seed)
    pot = [rng.randint(-50, 50) for _ in range(n)]
    ends = [(f"c{i}", i, (i + 1) % n) for i in range(n)]
    ends += [(f"h{i}", i, (i - 2) % n) for i in range(0, n, 3)]
    g = DirectedMultigraph(
        [f"v{i}" for i in range(n)],
        [(name, f"v{i}", f"v{j}", str(pot[j] - pot[i]))
         for name, i, j in ends],
    )
    return g, Labelling.from_graph(g, GroupSpec.parse("z"))


@st.composite
def labelled_multigraphs(draw):
    """A multigraph on at most 5 vertices and 8 edges, labelled in one of
    the finite or mixed groups z3, z,z2 and z2,z3."""
    group = GroupSpec.parse(draw(st.sampled_from(["z3", "z,z2", "z2,z3"])))
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    label = st.tuples(*[st.integers(-3, 3)] * len(group.moduli))
    edges = draw(st.lists(st.tuples(vertex, vertex, label), max_size=8))
    g = DirectedMultigraph(
        [f"v{i}" for i in range(n)],
        [(f"e{k}", f"v{i}", f"v{j}") for k, (i, j, _) in enumerate(edges)],
    )
    labels = {f"e{k}": x for k, (_, _, x) in enumerate(edges)}
    return g, Labelling.from_map(g, group, labels)


class TestCycleLabels:
    def test_rose2_z3_nontrivial(self):
        g, c = rose2_z3()
        ok, cycle = cycle_labels_trivial(c)
        assert not ok
        assert_nontrivial_closed_walk(g, c, cycle)

    def test_balanced_labelling_trivial(self):
        g = cyc6()
        c = Labelling.from_map(
            g,
            GroupSpec.parse("z"),
            {"e1": 1, "e2": 1, "e0": -2, "f2": 2, "f1": -1, "f0": -1},
        )
        assert cycle_labels_trivial(c) == (True, None)

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
            ok, cycle = cycle_labels_trivial(c)
            assert ok == expected
            if not ok:
                assert sum(c.label(n)[0] for n in cycle) != 0

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(labelled_multigraphs())
    def test_matches_simple_cycles_in_finite_and_mixed_groups(self, gc):
        g, c = gc
        expected = all(walk_label(c, cyc) == c.group.identity
                       for cyc in enumerate_simple_cycles(g))
        ok, cycle = cycle_labels_trivial(c)
        assert ok == expected
        if ok:
            assert cycle is None
        else:
            assert_nontrivial_closed_walk(g, c, cycle)

    def test_long_chorded_cycle_passes_in_linear_time(self):
        g, c = chorded_cycle(12_000, seed=5)
        start = time.perf_counter()
        result = cycle_labels_trivial(c)
        elapsed = time.perf_counter() - start
        assert result == (True, None)
        assert elapsed < 1.0

    def test_long_chorded_cycle_with_one_bad_chord_fails(self):
        g, _ = chorded_cycle(12_000, seed=5)
        bad = g.edge("h6000")
        g = DirectedMultigraph(g.vertices, [
            e if e.name != bad.name else (e.name, e.src, e.dst,
                                          str(int(e.label) + 1))
            for e in g.edges
        ])
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        start = time.perf_counter()
        ok, cycle = cycle_labels_trivial(c)
        elapsed = time.perf_counter() - start
        assert not ok
        assert_nontrivial_closed_walk(g, c, cycle)
        assert elapsed < 1.0


class TestFixedPoint:
    def test_one_breadth_first_pass_over_the_skew(self, monkeypatch):
        # The walk that builds the reachable skew records its BFS tree, so
        # the pipeline calls neither the tree builder nor a name key over
        # the skew's edges (a column that reads the host's edge names):
        # each would be a second pass.  The corner's vertex key stays
        # allowed.
        def refuse(*args, **kwargs):
            raise AssertionError("a second pass over the skew")

        real = multigraph._Names.order_key
        for module in (labelling, subtree):
            monkeypatch.setattr(module, "build_spanning_subtree", refuse)
        for text, spec, cap in ((big_dag_text(n=600), "z5", 10_000),
                                (layered_potential_text(), "z", 4320)):
            host = parse_graph(text)
            monkeypatch.setattr(
                multigraph._Names, "order_key", lambda names: refuse()
                if any(t is host._names for t, _ in names._parts)
                else real(names))
            c = Labelling.from_graph(host, GroupSpec.parse(spec))
            result = fixed_point_pipeline(c, cap)
            assert len(result.corner.graph._names) > len(host._names)

    def test_rose2_z3_shape(self):
        g, c = rose2_z3()
        result = fixed_point_pipeline(c, 100)
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
            corner = fixed_point_pipeline(c, 100).corner.graph
            assert are_isomorphic(corner, g).isomorphic

    def test_gauge_labelling_on_single_edge(self):
        g = edge1()
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        corner = fixed_point_pipeline(c, 100).corner.graph
        assert set(corner.vertices) == {"v@0", "v@-1"}
        assert corner.edges == ()

    def test_gauge_labelling_on_loop_exceeds_cap(self):
        g = single_loop("1")
        c = Labelling.from_graph(g, GroupSpec.parse("z"))
        with pytest.raises(CapExceededError):
            fixed_point_pipeline(c, 50).corner

    def test_deterministic(self):
        g, c = rose2_z3()
        r1 = fixed_point_pipeline(c, 100)
        r2 = fixed_point_pipeline(c, 100)
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
            if kirchhoff_check(c).status != "PASS":
                continue
            checked += 1
            result = fixed_point_pipeline(
                c, len(g.vertices) * group.order
            )
            expected_roots = {f"{v}@0" for v in g.vertices}
            assert set(result.tree.roots) == expected_roots
        assert checked > 5

    def test_result_holds_no_name_strings(self):
        # The skew and the corner keep their names as index columns over
        # the host's names: 7,078 skew vertices, 20,109 skew edges and
        # 37,086 corner edges here.  With those names held as strings,
        # the result took 9.7 MB; as columns it takes 6.1 MB.
        host = parse_graph(big_dag_text(n=1500))
        c = Labelling.from_graph(host, GroupSpec.parse("z5"))
        fixed_point_pipeline(c)  # builds the host's adjacency lists
        tracemalloc.start()
        try:
            result = fixed_point_pipeline(c)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.corner.graph._names) == 37_086
        assert live < 7_000_000
        # Nor does it build what no stage reads: the skew's adjacency,
        # and on the tree anything but the walk's parents-first order.
        with pytest.raises(AttributeError):
            object.__getattribute__(result.skew, "_out")
        assert set(result.tree.__dict__) == {"_order"}

    def test_pipeline_peak_stays_in_budget(self):
        # The corner's scratch is gone before its edge columns are built,
        # and each skew state is one int object.  The peak here is about
        # 3.4 MB; holding the scratch, a second int per state, the skew's
        # adjacency and the tree's name key as well takes it to 4.7 MB.
        host = parse_graph(big_dag_text(n=1500))
        c = Labelling.from_graph(host, GroupSpec.parse("z5"))
        fixed_point_pipeline(c)  # builds the host's adjacency lists
        tracemalloc.start()
        try:
            result = fixed_point_pipeline(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.corner.graph._names) == 37_086
        assert peak < 4_000_000
