import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from graphcorners import (
    CapExceededError,
    DirectedMultigraph,
    Edge,
    GraphFormatError,
    GroupSpec,
    Labelling,
    Path,
    build_spanning_subtree,
    corner_graph,
    fixed_point_pipeline,
    hereditary_closure,
    is_acyclic,
    is_hereditary,
    parse_graph,
    path_range,
    reachable_skew,
    relabelled,
    saturate,
    serialize_graph,
    skew_product,
    to_dot,
)
from graphcorners.iso import are_isomorphic

from sample_graphs import (
    cyc6,
    edge1,
    pqr,
    random_multigraph,
    rose2,
    single_vertex,
)


class TestParse:
    def test_rose2_text(self):
        g = parse_graph("vertex v\nedge e v v\nedge f v v")
        assert g.vertices == ("v",)
        assert [(e.name, e.src, e.dst) for e in g.edges] == [
            ("e", "v", "v"),
            ("f", "v", "v"),
        ]

    def test_single_vertex(self):
        g = parse_graph("vertex u")
        assert g.vertices == ("u",)
        assert g.edges == ()

    def test_undeclared_endpoint(self):
        with pytest.raises(GraphFormatError, match="line 1.*'u' undeclared"):
            parse_graph("edge e u v")

    def test_endpoint_declared_later_is_still_an_error(self):
        text = "vertex u\nedge e u v\nvertex v"
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph(text)

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# header\n\nvertex a\n  \n# mid\nvertex b\n")
        assert g.vertices == ("a", "b")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFormatError, match="line 2.*duplicate"):
            parse_graph("vertex a\nvertex a")

    def test_duplicate_edge(self):
        text = "vertex a\nedge e a a\nedge e a a"
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            parse_graph(text)

    def test_bad_declaration(self):
        with pytest.raises(GraphFormatError, match="line 1.*unknown"):
            parse_graph("node a")

    def test_bad_arity(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("vertex a b")

    def test_bad_name(self):
        with pytest.raises(GraphFormatError, match="line 1.*invalid"):
            parse_graph("vertex a,b")

    @pytest.mark.parametrize("text,message", [
        ("  vertex a  \nvertex a\t\n", "line 2: duplicate vertex name 'a'"),
        ("vertex\ta\nedge\te\ta\tb\n",
         "line 2: edge 'e': endpoint 'b' undeclared"),
        ("\t# note\r\nvertex a\r\n  edge e a a 1 2 \r\n",
         "line 3: expected 'edge NAME SRC DST [LABEL]', "
         "got '  edge e a a 1 2 '"),
        ("vertex a\n vertex a b\t\n",
         "line 2: expected 'vertex NAME', got ' vertex a b\\t'"),
        ("vertex a\r\nedge e a a\r\n\tedge e a a\n",
         "line 3: duplicate edge name 'e'"),
        ("   \n\t#\nvertex a\nedge e a x\n",
         "line 4: edge 'e': endpoint 'x' undeclared"),
    ])
    def test_error_text(self, text, message):
        with pytest.raises(GraphFormatError) as caught:
            parse_graph(text)
        assert str(caught.value) == message

    def test_whitespace_around_tokens(self):
        g = parse_graph("\t# c\r\n vertex a\t\r\nvertex\tb \nedge e\ta b 2\r\n")
        assert g == DirectedMultigraph(["a", "b"], [("e", "a", "b", "2")])

    def test_label_kept(self):
        g = parse_graph("vertex v\nedge e v v -2,1")
        assert g.edges[0].label == "-2,1"

    def test_roundtrip_is_identity(self):
        # Parsing fills the label column itself, so labelled and unlabelled
        # edges, parallel ones among them, must come back as they were.
        tokens = ["0", "-1", "2,-3", "x", "#1", "a.b"]
        mixed = 0
        for seed in range(300):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_e=12)
            g = DirectedMultigraph(g.vertices, [
                (e.name, e.src, e.dst, rng.choice(tokens))
                if rng.random() < 0.5 else e
                for e in g.edges
            ])
            assert parse_graph(serialize_graph(g)) == g
            ends = [(e.src, e.dst) for e in g.edges]
            mixed += ({e.label is None for e in g.edges} == {True, False}
                      and len(set(ends)) < len(ends))
        assert mixed >= 100

    def test_roundtrip_with_labels(self):
        g = rose2()
        assert parse_graph(serialize_graph(g)) == g

    def test_parse_never_calls_the_public_constructor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_graph called DirectedMultigraph()")

        monkeypatch.setattr(DirectedMultigraph, "__init__", refuse)
        g = parse_graph(
            "# labelled\r\nvertex a\r\n\tvertex\tb \r\n\r\n"
            "edge e a b -1,2\r\nedge\tf\tb\ta\r\n  # loop\r\n"
            "edge g a a x\r\nedge h a b\r\n"
        )
        assert g._columns() == (
            ("a", "b"), ["e", "f", "g", "h"], [0, 1, 0, 0], [1, 0, 0, 1],
            ["-1,2", None, "x", None],
        )


class TestConstructor:
    """The public constructor's error texts.  Items are checked in order,
    vertices first; within an edge, its name comes before its endpoints."""

    @pytest.mark.parametrize("vertices,edges,message", [
        (["a b"], [], "invalid vertex name 'a b'"),
        ([3], [], "invalid vertex name 3"),
        ([["a"]], [], "invalid vertex name ['a']"),
        (["a", ""], [], "invalid vertex name ''"),
        (["a", "a"], [], "duplicate vertex name 'a'"),
        (["a"], [("e", "a", "a"), ("e", "a", "a")],
         "duplicate edge name 'e'"),
        (["a"], [("e g", "a", "a")], "invalid edge name 'e g'"),
        (["a"], [(3, "a", "a")], "invalid edge name 3"),
        (["a"], [(["e"], "a", "a")], "invalid edge name ['e']"),
        (["a"], [("e", "a", "b")], "edge 'e': endpoint 'b' undeclared"),
        (["a"], [("e", "b", "c")], "edge 'e': endpoint 'b' undeclared"),
        (["a"], [("e", 3, "a")], "edge 'e': endpoint 3 undeclared"),
        (["a"], [Edge("e", "a", "q")], "edge 'e': endpoint 'q' undeclared"),
        # Two errors at once: the first item in order wins.
        (["a", "a", "b b"], [], "duplicate vertex name 'a'"),
        (["a b", 3], [], "invalid vertex name 'a b'"),
        (["a", "a"], [("e b", "x", "y")], "duplicate vertex name 'a'"),
        (["a"], [("e", "a", "x"), ("f g", "a", "a")],
         "edge 'e': endpoint 'x' undeclared"),
        (["a"], [("e g", "a", "x")], "invalid edge name 'e g'"),
        (["a"], [("e", "a", "a"), ("e", "a", "x")],
         "duplicate edge name 'e'"),
    ])
    def test_error_text(self, vertices, edges, message):
        with pytest.raises(GraphFormatError) as caught:
            DirectedMultigraph(vertices, edges)
        assert str(caught.value) == message

    @pytest.mark.parametrize("vertices,edges,message", [
        (["a"], [("e", "a")], "invalid edge item ('e', 'a'): expected "
         "(NAME, SRC, DST[, LABEL])"),
        (["a"], [["e", "a", "a", "1", "2"]], "invalid edge item "
         "['e', 'a', 'a', '1', '2']: expected (NAME, SRC, DST[, LABEL])"),
        (["a", "b"], ["eab"], "invalid edge item 'eab': expected "
         "(NAME, SRC, DST[, LABEL])"),
        (["a"], [3], "invalid edge item 3: expected "
         "(NAME, SRC, DST[, LABEL])"),
        (["a"], [("e", "a", "a", 1)], "edge 'e': invalid label 1"),
        (["a"], [("e", "a", "a", "1 2")], "edge 'e': invalid label '1 2'"),
        (["a"], [("e", "a", "a", "")], "edge 'e': invalid label ''"),
        (["a"], [("e", "a", "a", " 1")], "edge 'e': invalid label ' 1'"),
        (["a"], [("e", "a", "a", ("1",))],
         "edge 'e': invalid label ('1',)"),
        (["a"], [Edge("e", "a", "a", 2)], "edge 'e': invalid label 2"),
        (["a"], [("e", ["a"], "a")], "edge 'e': endpoint ['a'] undeclared"),
        # The same order: vertices first, then per edge item its shape,
        # name, endpoints and label.
        (["a", "a"], [("e",)], "duplicate vertex name 'a'"),
        (["a"], [("e", "a", "x"), ("f",)],
         "edge 'e': endpoint 'x' undeclared"),
        (["a"], [("f",), ("e", "a", "x")],
         "invalid edge item ('f',): expected (NAME, SRC, DST[, LABEL])"),
        (["a"], [("e", "a", "x", 1)], "edge 'e': endpoint 'x' undeclared"),
        (["a"], [("e", "a", "a", 1), ("e", "a", "a")],
         "edge 'e': invalid label 1"),
        (["a"], [("e g", "a", "a", 1)], "invalid edge name 'e g'"),
    ])
    def test_rejected_edge_items(self, vertices, edges, message):
        with pytest.raises(GraphFormatError) as caught:
            DirectedMultigraph(vertices, edges)
        assert str(caught.value) == message

    def test_accepted_labels_round_trip(self):
        rng = random.Random(8)
        tokens = [None, "0", "-1", "2,-3", "x", "#1", "a.b"]
        for _ in range(50):
            g = random_multigraph(rng)
            g = DirectedMultigraph(g.vertices, [
                (e.name, e.src, e.dst, rng.choice(tokens)) for e in g.edges
            ])
            assert parse_graph(serialize_graph(g)) == g

    def test_edge_items_and_labels(self):
        g = DirectedMultigraph(
            ["a", "b"],
            [("e", "a", "b"), ["f", "b", "a", "-1,2"], Edge("g", "a", "a")],
        )
        assert g.edges == (Edge("e", "a", "b"), Edge("f", "b", "a", "-1,2"),
                           Edge("g", "a", "a"))


class TestStructure:
    def test_out_edges_cyc6(self):
        g = cyc6()
        assert [e.name for e in g.out_edges("v0")] == ["e1", "f2"]

    def test_out_edges_isolated(self):
        assert single_vertex().out_edges("u") == ()

    def test_out_edges_rose(self):
        assert [e.name for e in rose2().out_edges("v")] == ["e", "f"]

    def test_in_edges_mirror(self):
        g = cyc6()
        assert [e.name for e in g.in_edges("v0")] == ["e0", "f0"]

    def test_unknown_vertex(self):
        with pytest.raises(GraphFormatError, match="unknown vertex"):
            cyc6().out_edges("nope")

    def test_degree_partition(self):
        for seed in range(30):
            g = random_multigraph(random.Random(seed))
            outs = sum(len(g.out_edges(v)) for v in g.vertices)
            ins = sum(len(g.in_edges(v)) for v in g.vertices)
            assert outs == ins == len(g.edges)

    def test_equality_respects_order(self):
        g = DirectedMultigraph(["a", "b"])
        h = DirectedMultigraph(["b", "a"])
        assert g != h


class TestAcyclic:
    def test_edge1(self):
        assert is_acyclic(edge1())

    def test_rose2(self):
        assert not is_acyclic(rose2())

    def test_cyc6(self):
        assert not is_acyclic(cyc6())

    def test_no_long_vertex_simple_path(self):
        # Every finite graph is path-finite: a vertex-simple path cannot
        # revisit vertices, so its length stays below the vertex count.
        for seed in range(15):
            g = random_multigraph(random.Random(seed), max_v=5, max_e=8)
            longest = 0
            stack = [(v, {v}, 0) for v in g.vertices]
            while stack:
                v, visited, length = stack.pop()
                longest = max(longest, length)
                for e in g.out_edges(v):
                    if e.dst not in visited:
                        stack.append((e.dst, visited | {e.dst}, length + 1))
            assert longest < len(g.vertices)


class TestHereditary:
    def test_cyc6_closure(self):
        assert hereditary_closure(cyc6(), ["v0"]) == {"v0", "v1", "v2"}

    def test_all_vertices(self):
        g = random_multigraph(random.Random(1))
        assert hereditary_closure(g, g.vertices) == set(g.vertices)

    def test_sink(self):
        assert hereditary_closure(edge1(), ["v"]) == {"v"}

    def test_unknown_vertex(self):
        with pytest.raises(GraphFormatError):
            hereditary_closure(edge1(), ["zz"])

    def test_idempotent_monotone_hereditary(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_multigraph(rng)
            xs = rng.sample(list(g.vertices), rng.randint(1, len(g.vertices)))
            h = hereditary_closure(g, xs)
            assert is_hereditary(g, h)
            assert hereditary_closure(g, h) == h
            bigger = hereditary_closure(g, list(set(xs) | {g.vertices[0]}))
            assert h <= bigger
            sub = xs[: max(1, len(xs) - 1)]
            assert hereditary_closure(g, sub) <= h


class TestSaturate:
    def test_pqr_everything(self):
        g = pqr(1, 1, 1)
        assert saturate(g, {"u", "v", "w"}) == {"u", "v", "w"}

    def test_edge1_forces_source(self):
        assert saturate(edge1(), {"v"}) == {"u", "v"}

    def test_cyc6_full(self):
        assert saturate(cyc6(), {"v0", "v1", "v2"}) == {"v0", "v1", "v2"}

    def test_rejects_non_hereditary(self):
        with pytest.raises(GraphFormatError, match="not hereditary"):
            saturate(edge1(), {"u"})

    def test_chain(self):
        g = parse_graph(
            "vertex a\nvertex b\nvertex c\n"
            "edge e a b\nedge f b c"
        )
        assert saturate(g, {"c"}) == {"a", "b", "c"}

    def test_long_chain_is_linear(self):
        # A rescan until nothing changes took 7 s at 4000 vertices.
        n = 20_000
        vs = [f"v{i}" for i in range(n)]
        g = DirectedMultigraph(
            vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
        )
        start = time.perf_counter()
        assert saturate(g, {vs[-1]}) == set(vs)
        assert time.perf_counter() - start < 1.0

    def test_matches_naive_fixed_point(self):
        def naive(g, h):
            sat = set(h)
            changed = True
            while changed:
                changed = False
                for v in g.vertices:
                    out = g.out_edges(v)
                    if v not in sat and out and all(
                        e.dst in sat for e in out
                    ):
                        sat.add(v)
                        changed = True
            return sat

        for seed in range(200):
            rng = random.Random(seed)
            g = random_multigraph(rng, 8, 14)
            xs = rng.sample(list(g.vertices), rng.randint(0, len(g.vertices)))
            h = hereditary_closure(g, xs)
            assert saturate(g, h) == naive(g, h)


class TestPaths:
    def test_prefix(self):
        p = Path("v0", ("e1",))
        q = Path("v0", ("e1", "e2"))
        assert p.is_prefix_of(q)
        assert not q.is_prefix_of(p)
        assert Path("v1").is_prefix_of(Path("v1", ("e2",)))
        assert not Path("v1").is_prefix_of(Path("v2",))

    def test_path_range(self):
        g = cyc6()
        assert path_range(g, Path("v0", ("e1", "e2"))) == "v2"
        assert path_range(g, Path("v0")) == "v0"

    def test_path_range_broken(self):
        with pytest.raises(GraphFormatError, match="breaks"):
            path_range(cyc6(), Path("v0", ("e2",)))


class TestExport:
    def test_dot_shape(self):
        out = to_dot(edge1())
        assert out.startswith("digraph G {")
        assert '"u" -> "v" [label="e"];' in out
        assert out == to_dot(edge1())

    def test_relabelled_preserves_structure(self):
        g = cyc6()
        vmap = {"v0": "a", "v1": "b", "v2": "c"}
        h = relabelled(g, vmap)
        assert are_isomorphic(g, h).isomorphic
        assert [e.name for e in h.edges] == [e.name for e in g.edges]
        # New names are checked as the public constructor checks them, and
        # the first malformed or repeated name is the one fault named.
        with pytest.raises(GraphFormatError) as caught:
            relabelled(DirectedMultigraph(["a", "b"]), {"a": "x", "b": "x"})
        assert str(caught.value) == "duplicate vertex name 'x'"
        loops = DirectedMultigraph(["a"], [("e", "a", "a"), ("f", "a", "a")])
        with pytest.raises(GraphFormatError) as caught:
            relabelled(loops, {"a": "a"}, {"e": "x", "f": "x"})
        assert str(caught.value) == "duplicate edge name 'x'"
        # Names the file format cannot hold are refused, so a relabelled
        # graph always prints as a file that parses and as valid DOT.
        ab = DirectedMultigraph(["a", "b"], [("e", "a", "b")])
        for vmap, emap, fault in [
            ({"a": "x y", "b": ""}, {"e": 'q"r'}, "invalid vertex name 'x y'"),
            ({"a": "a", "b": ""}, {"e": 'q"r'}, "invalid vertex name ''"),
            ({"a": "a", "b": "b"}, {"e": 'q"r'}, "invalid edge name 'q\"r'"),
            ({"a": "a", "b": 1}, None, "invalid vertex name 1"),
            ({"a": "a", "b": "b"}, {"e": ("e",)},
             "invalid edge name ('e',)"),
        ]:
            with pytest.raises(GraphFormatError) as caught:
                relabelled(ab, vmap, emap)
            assert str(caught.value) == fault
        with pytest.raises(GraphFormatError,
                           match="^invalid vertex name 'x y'$"):
            relabelled(DirectedMultigraph(["a", "b", "c"]),
                       {"a": "x", "b": "x y", "c": "x"})
        # The first repeat is named, also against a name kept as it was.
        with pytest.raises(GraphFormatError,
                           match="^duplicate vertex name 'y'$"):
            relabelled(DirectedMultigraph(["a", "b", "c", "d"]),
                       {"a": "x", "b": "y", "c": "y", "d": "x"})
        with pytest.raises(GraphFormatError,
                           match="^duplicate edge name 'e'$"):
            relabelled(loops, {"a": "a"}, {"f": "e"})


def _slot_is_set(g: DirectedMultigraph, slot: str) -> bool:
    """Whether a slot holds a value, read without ``__getattr__``, which
    would build it."""
    try:
        DirectedMultigraph.__dict__[slot].__get__(g)
    except AttributeError:
        return False
    return True


class TestNameIndexes:
    def test_derived_graphs_build_no_name_index(self):
        host = parse_graph("vertex a\nvertex b\nedge e a b 1\nedge f b a 2\n"
                           "edge g a a 1\nedge h b b\n")
        c = Labelling.from_graph(host, GroupSpec.parse("z3"))
        result = fixed_point_pipeline(host, c)
        tree = build_spanning_subtree(host, ["a"])
        graphs = [corner_graph(host, tree).graph, reachable_skew(host, c),
                  skew_product(host, c), result.corner.graph]
        for g in graphs + [result.skew]:
            assert not _slot_is_set(g, "_index")
            assert not _slot_is_set(g, "_edge_index")
        for g in graphs + [result.skew]:
            assert all(map(g.has_vertex, g.vertices))
            assert not g.has_vertex("nope")
            assert [g.edge(e.name) for e in g.edges] == list(g.edges)
            assert all(g.has_edge(e.name) for e in g.edges)
            assert not g.has_edge("nope")
            with pytest.raises(GraphFormatError, match="unknown edge"):
                g.edge("nope")
            assert _slot_is_set(g, "_index") and _slot_is_set(g, "_edge_index")

    def test_checked_constructors_hand_over_their_vertex_index(self):
        text = "vertex b\nvertex a\nvertex c\nedge e a b\n"
        for g in (parse_graph(text), DirectedMultigraph(
                ["b", "a", "c"], [("e", "a", "b")])):
            assert _slot_is_set(g, "_index")
            assert g._index == {"b": 0, "a": 1, "c": 2}


# Names that hold '@', some shaped like derived names (the host vertex
# a@0@1 looks like a skew vertex of a@0), and an edge pair whose corner
# names meet: e@a@b is made both from the edge e, ranging over a@b, and
# from the edge e@a, ranging over b.
AT_VERTICES = ["a", "b", "a@b", "0@a", "a@0@1"]
AT_EDGES = ["e", "e@a", "e@0", "e@1@a", "f"]


@st.composite
def hosts_named_with_at(draw):
    """A multigraph with loops and parallel edges, at least as many edges
    as vertices, whose names come from the pools above; two label
    coordinates per edge; and a root set."""
    vs = draw(st.lists(st.sampled_from(AT_VERTICES), min_size=1,
                       unique=True))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(AT_EDGES), st.sampled_from(vs),
                  st.sampled_from(vs)),
        min_size=len(vs), unique_by=lambda e: e[0]))
    coords = {e[0]: draw(st.tuples(st.integers(-2, 2), st.integers(0, 1)))
              for e in edges}
    roots = draw(st.lists(st.sampled_from(vs), min_size=1, unique=True))
    return DirectedMultigraph(vs, edges), coords, roots


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hosts_named_with_at())
def test_derived_names_stay_unique_on_hosts_named_with_at(drawn):
    host, coords, roots = drawn
    z3, z2z3, z = (
        Labelling.from_map(host, GroupSpec.parse(spec),
                           {k: pick(a, b) for k, (a, b) in coords.items()})
        for spec, pick in (("z3", lambda a, b: a),
                           ("z2,z3", lambda a, b: (b, a)),
                           ("z", lambda a, b: a)))
    derived = [skew_product(host, z3), skew_product(host, z2z3),
               corner_graph(host, build_spanning_subtree(host, roots)).graph]
    for c in (z3, z2z3, z):
        try:
            result = fixed_point_pipeline(host, c, cap=64)
        except CapExceededError:
            continue
        derived += [reachable_skew(host, c, cap=64), result.skew,
                    result.corner.graph]
    for g in derived:
        names = [e.name for e in g.edges]
        assert len(set(g.vertices)) == len(g.vertices)
        assert len(set(names)) == len(names)
        assert parse_graph(serialize_graph(g)) == g
