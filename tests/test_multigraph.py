import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from graphcorners import (
    CapExceededError,
    DirectedMultigraph,
    Edge,
    GraphFormatError,
    GroupSpec,
    Labelling,
    SubtreeValidationError,
    build_spanning_subtree,
    corner_graph,
    fixed_point_pipeline,
    hereditary_closure,
    is_acyclic,
    parse_graph,
    reachable_skew,
    relabelled,
    serialize_graph,
    skew_product,
    to_dot,
    validate_subtree,
)
from graphcorners import linepass, multigraph
from graphcorners.cli import _Positional
from graphcorners.iso import are_isomorphic

from reference import Path, is_hereditary, path_range, saturate
from sample_graphs import (
    big_dag_text,
    cyc6,
    cycles,
    edge1,
    layered_potential_text,
    parallel_edges,
    pqr,
    random_multigraph,
    random_sparse_text,
    rose2,
    rose_chain,
    single_loop,
    single_vertex,
)


def reference_parse_graph(text: str) -> DirectedMultigraph:
    """``parse_graph`` as it was before the column checks, word for word:
    one pass over the lines, checking each as it is read."""
    vertices: dict[str, int] = {}
    edges: dict[str, None] = {}
    src, dst, labels = [], [], []
    valid = multigraph.NAME_RE.fullmatch
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if (tokens[0] == "edge" and 4 <= len(tokens) <= 5
                and valid(tokens[1]) and tokens[1] not in edges
                and tokens[2] in vertices and tokens[3] in vertices):
            edges[tokens[1]] = None
            src.append(vertices[tokens[2]])
            dst.append(vertices[tokens[3]])
            labels.append(tokens[4] if len(tokens) == 5 else None)
            continue
        if (tokens[0] == "vertex" and len(tokens) == 2
                and valid(tokens[1]) and tokens[1] not in vertices):
            vertices[tokens[1]] = len(vertices)
            continue
        try:
            if tokens[0] == "vertex":
                if len(tokens) != 2:
                    raise GraphFormatError(
                        f"expected 'vertex NAME', got {raw!r}"
                    )
                multigraph._check_item(tokens[1], "vertex", vertices)
            elif tokens[0] == "edge":
                if len(tokens) not in (4, 5):
                    raise GraphFormatError(
                        f"expected 'edge NAME SRC DST [LABEL]', got {raw!r}"
                    )
                multigraph._check_item(tokens[1], "edge", edges, tokens[2:4],
                                       vertices)
            else:
                raise GraphFormatError(
                    f"unknown declaration {tokens[0]!r}"
                )
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    g = DirectedMultigraph._from_indices(tuple(vertices), list(edges), src,
                                         dst, labels)
    g._index = vertices
    return g


def parsed(parse, text: str) -> tuple | str:
    """What a parser makes of text: the graph's columns and vertex index,
    or the text of the error it raises."""
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    return g._columns(), g._index


def vertex_lines(n: int) -> str:
    return "".join(f"vertex v{i}\n" for i in range(n))


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
        # Only '\n', '\r\n' and '\r' end a line: a form feed or another
        # break of str.splitlines is whitespace within it.
        ("vertex a\fvertex b\nedge e a c\n",
         "line 1: expected 'vertex NAME', got 'vertex a\\x0cvertex b'"),
        ("vertex a\fvertex b",
         "line 1: expected 'vertex NAME', got 'vertex a\\x0cvertex b'"),
        ("vertex a\rvertex b\x85\u2028\x1d\nedge e a b\x1c1\v2\x1e\n",
         "line 3: expected 'edge NAME SRC DST [LABEL]', "
         "got 'edge e a b\\x1c1\\x0b2\\x1e'"),
        # A one-token edge line among whole ones: its name column holds
        # a gap.
        ("vertex a\nedge e a a\nedge\n",
         "line 3: expected 'edge NAME SRC DST [LABEL]', got 'edge'"),
        # Faults at and across the boundaries of the parser's blocks.
        pytest.param(vertex_lines(1023) + "vertex v0\n",
                     "line 1024: duplicate vertex name 'v0'", id="line-1024"),
        pytest.param(vertex_lines(1024) + "edge e v0 v1024\nvertex v1024\n",
                     "line 1025: edge 'e': endpoint 'v1024' undeclared",
                     id="line-1025"),
        pytest.param(vertex_lines(2048) + "vertex a b\n",
                     "line 2049: expected 'vertex NAME', got 'vertex a b'",
                     id="line-2049"),
        # An endpoint declared two lines after its edge, in one block.
        ("vertex a\nedge e a b\n# b follows\nvertex b\n",
         "line 2: edge 'e': endpoint 'b' undeclared"),
        # An edge name first used in an earlier block.
        pytest.param("vertex a\n" + "".join(f"edge e{k} a a\n"
                                            for k in range(1100))
                     + "edge e7 a a\n", "line 1102: duplicate edge name 'e7'",
                     id="edge-name-of-an-earlier-block"),
    ])
    def test_error_text(self, text, message):
        with pytest.raises(GraphFormatError) as caught:
            parse_graph(text)
        assert str(caught.value) == message

    def test_line_pass_starts_at_the_failing_block(self):
        # The blocks above the failing one passed every check, so the line
        # pass starts there, with the names they declared.
        text = "".join(f"vertex v{i}\nedge e{i} v{i} v{i // 2}\n"
                       for i in range(10000)) + "vertex v0\n"
        whole_file = linepass.line_pass
        given = []

        def record(lines, start, vertices, edges):
            given.append((start, list(vertices), list(edges)))
            whole_file(lines, *given[-1])

        with mock.patch.object(linepass, "line_pass", record), \
                pytest.raises(GraphFormatError) as caught:
            parse_graph(text)
        assert str(caught.value) == "line 20001: duplicate vertex name 'v0'"
        start = 20000 // multigraph._PARSE_BLOCK * multigraph._PARSE_BLOCK
        above = range(start // 2)
        assert given == [(start, [f"v{i}" for i in above],
                          [f"e{i}" for i in above])]

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

    def test_valid_files_never_reach_the_line_pass(self, monkeypatch):
        # The line pass only names a fault: every valid file, in the shape
        # the library writes or with vertex and edge lines alternating
        # across 40,000 lines, is taken by the column checks alone.
        def refuse(lines):
            raise AssertionError("parse_graph ran the line pass")

        monkeypatch.setattr(linepass, "line_pass", refuse)
        alternating = "".join(f"vertex v{i}\nedge e{i} v{i} v{i // 2}\n"
                              for i in range(20000))
        assert alternating.count("\n") == 40000
        texts = [random_sparse_text(3000, labels=5), alternating,
                 big_dag_text(), layered_potential_text(),
                 "# note\r\nvertex a\r\n\tedge e a a 1\r\n\nvertex b\n"]
        texts += map(serialize_graph, [
            rose2(), edge1(), cyc6(), pqr(2, 3, 1), single_vertex(),
            single_loop(), single_loop("-1"), parallel_edges(3),
            cycles(3, 4), rose_chain([2, 3, 1], links=2),
            *(random_multigraph(random.Random(seed)) for seed in range(20)),
        ])
        for text in texts:
            expected = parsed(reference_parse_graph, text)
            assert not isinstance(expected, str)
            assert parsed(parse_graph, text) == expected


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

    def test_repr_and_equality_with_other_objects(self):
        g = cyc6()
        assert repr(g) == "DirectedMultigraph(3 vertices, 6 edges)"
        assert g.__eq__(g.vertices) is NotImplemented
        assert g != "cyc6" and g != g.vertices

    def test_derived_names_slice_and_print_as_tuples(self):
        g = pqr(2, 1, 1)
        skew = skew_product(Labelling.from_graph(g, GroupSpec.parse("z3")))
        names = tuple(skew.vertices)
        for part in (slice(2, 5), slice(None, None, 2), slice(-3, None),
                     slice(4, 1, -1), slice(7, 7)):
            assert skew.vertices[part] == names[part]
            assert tuple(skew.vertices[part]) == names[part]
            assert repr(skew.vertices[part]) == repr(names[part])
        assert skew.vertices[1:][2:4] == names[1:][2:4]
        assert repr(skew.vertices) == repr(names)
        assert repr(skew._names) == repr(tuple(e.name for e in skew.edges))
        assert skew.vertices.__eq__(5) is NotImplemented
        assert skew.vertices != 5 and not skew.vertices == 5


class TestAcyclic:
    def test_edge1(self):
        assert is_acyclic(edge1())

    def test_rose2(self):
        assert not is_acyclic(rose2())

    def test_cyc6(self):
        assert not is_acyclic(cyc6())

    def test_matches_networkx_on_random_multigraphs(self):
        # Loops and parallel edges included.  The tree edges are a random
        # subset of the edges: a cycle among them lies wholly inside the
        # hereditary closure of the roots or wholly outside it, and only
        # one inside is a "cycle among tree edges" (one outside has its
        # endpoints reported instead).
        nx = pytest.importorskip("networkx")
        seen = set()
        for seed in range(400):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=7, max_e=12)
            ref = nx.MultiDiGraph()
            ref.add_nodes_from(g.vertices)
            ref.add_edges_from((e.src, e.dst, e.name) for e in g.edges)
            acyclic = nx.is_directed_acyclic_graph(ref)
            assert is_acyclic(g) == acyclic
            roots = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
            closure = set(roots).union(*(nx.descendants(ref, r)
                                         for r in roots))
            tree = [e for e in g.edges if rng.random() < 0.5]
            inside = nx.MultiDiGraph()
            inside.add_edges_from((e.src, e.dst) for e in tree
                                  if e.src in closure and e.dst in closure)
            cycle = not nx.is_directed_acyclic_graph(inside)
            try:
                validate_subtree(g, [e.name for e in tree], roots)
                violations = []
            except SubtreeValidationError as exc:
                violations = exc.violations
            assert ("cycle among tree edges" in violations) == cycle
            seen.add((acyclic, cycle))
        assert seen == {(True, False), (False, False), (False, True)}

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
        # A vertex the map leaves out is named, the first in vertex order.
        with pytest.raises(GraphFormatError,
                           match="^vertex 'b' has no new name$"):
            relabelled(DirectedMultigraph(["a", "b", "c"]), {"a": "x"})


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
        result = fixed_point_pipeline(c)
        tree = build_spanning_subtree(host, ["a"])
        graphs = [corner_graph(tree).graph, reachable_skew(c),
                  skew_product(c), result.corner.graph]
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
def hosts_named_with_at(draw, edge_names=AT_EDGES):
    """A multigraph with loops and parallel edges, at least as many edges
    as vertices, whose names come from the pools above (or edge_names);
    two label coordinates per edge; and a root set."""
    vs = draw(st.lists(st.sampled_from(AT_VERTICES), min_size=1,
                       unique=True))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(edge_names), st.sampled_from(vs),
                  st.sampled_from(vs)),
        min_size=len(vs), unique_by=lambda e: e[0]))
    coords = {e[0]: draw(st.tuples(st.integers(-2, 2), st.integers(0, 1)))
              for e in edges}
    roots = draw(st.lists(st.sampled_from(vs), min_size=1, unique=True))
    return DirectedMultigraph(vs, edges), coords, roots


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(AT_VERTICES + AT_EDGES + ["a@", "0", "0.1"]),
                unique=True))
def test_nests_is_the_pairwise_prefix_test(table):
    assert multigraph._nests(table) == any(
        s != t and (t + "@").startswith(s + "@") for s in table for t in table)


def _labellings(host, coords):
    """The drawn coordinates as labellings under z3, z2,z3 and z."""
    return [
        Labelling.from_map(host, GroupSpec.parse(spec),
                           {k: pick(a, b) for k, (a, b) in coords.items()})
        for spec, pick in (("z3", lambda a, b: a),
                           ("z2,z3", lambda a, b: (b, a)),
                           ("z", lambda a, b: a))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hosts_named_with_at())
def test_derived_names_stay_unique_on_hosts_named_with_at(drawn):
    host, coords, roots = drawn
    z3, z2z3, z = _labellings(host, coords)
    derived = [skew_product(z3), skew_product(z2z3),
               corner_graph(build_spanning_subtree(host, roots)).graph]
    for c in (z3, z2z3, z):
        try:
            result = fixed_point_pipeline(c, cap=64)
        except CapExceededError:
            continue
        derived += [reachable_skew(c, cap=64), result.skew,
                    result.corner.graph]
    for g in derived:
        names = [e.name for e in g.edges]
        assert len(set(g.vertices)) == len(g.vertices)
        assert len(set(names)) == len(names)
        assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hosts_named_with_at())
def test_derived_names_sort_as_their_strings(drawn):
    # The pipeline's skew keeps its names as columns and orders them by
    # rank keys: its BFS tie-break, its descendant order and the DOT sort
    # use them.  The same skew parsed back holds plain strings, ordered
    # as str.  Some hosts here need the keys' fallback: with the vertices
    # a and a@0@1, the skew names a@0@1@g sort among a@g.
    host, coords, _ = drawn
    for c in _labellings(host, coords):
        try:
            result = fixed_point_pipeline(c, cap=64)
        except CapExceededError:
            continue
        skew = parse_graph(serialize_graph(result.skew))
        tree = build_spanning_subtree(skew, skew.vertices[:len(host.vertices)])
        plain = corner_graph(tree).graph
        for write in (serialize_graph, to_dot):
            assert write(result.corner.graph) == write(plain)
        assert to_dot(result.skew) == to_dot(skew)


@pytest.mark.parametrize("vertices", [["b", "a"], ["a@0@1", "a"]])
def test_dot_sorts_derived_names_as_strings(vertices):
    # Each part is ranked with its '@': e1@g sorts before e@g, though e
    # sorts before e1.  Over a@0@1 and a the ranks of the parts do not
    # order the names, and the keys fall back to the formatted names.
    host = DirectedMultigraph(vertices, [("e", vertices[0], vertices[1], "1"),
                                         ("e1", vertices[1], vertices[0])])
    skew = skew_product(Labelling.from_graph(host, GroupSpec.parse("z2")))
    lines = to_dot(skew).splitlines()
    shown = [line.split('"')[1] for line in lines if line.endswith('";')]
    assert shown == sorted(skew.vertices) != list(skew.vertices)
    labels = [line.split('"')[-2] for line in lines if "->" in line]
    assert labels == sorted(e.name for e in skew.edges)


def _assert_tree_is_the_bfs_builders(result, n):
    bfs = build_spanning_subtree(result.skew, result.skew.vertices[:n])
    tree = result.tree
    assert tree.parent_edge == bfs.parent_edge
    assert list(tree.spanned_indices) == bfs.spanned_indices
    assert list(tree._order) == bfs._order


def _assert_walk_tree_is_the_bfs_builders(drawn):
    host, coords, _ = drawn
    for spec in ("z2", "z3", "z2,z3", "z"):
        group = GroupSpec.parse(spec)
        c = Labelling.from_map(host, group, {
            k: (b, a) if len(group.moduli) == 2 else a
            for k, (a, b) in coords.items()})
        try:
            result = fixed_point_pipeline(c, cap=64)
        except CapExceededError:
            continue
        _assert_tree_is_the_bfs_builders(result, len(host.vertices))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hosts_named_with_at())
def test_walk_tree_is_the_bfs_builders_tree(drawn):
    # The skew walk records the BFS tree of the fixed-point pipeline as it
    # numbers the states; the builder, run over the finished skew, must
    # pick the same parent for every state.  Hosts named like a and
    # a@0@1 need the element encodings to break some ties.
    _assert_walk_tree_is_the_bfs_builders(drawn)


# Edge names that hold '@' but do not nest: none, followed by '@',
# begins another, so the walk compares the host names alone.
UNNESTED_EDGES = ["x@1", "y@2", "x@2", "y@10", "z@1@2", "1@x"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hosts_named_with_at(UNNESTED_EDGES))
def test_walk_tree_is_the_bfs_builders_tree_when_names_do_not_nest(drawn):
    assert not multigraph._nests(UNNESTED_EDGES)
    _assert_walk_tree_is_the_bfs_builders(drawn)
    # Two edges labelled 1 in z2 run from the identity fibre into x@1;
    # y@2, met first, gives way to x@1.
    host = DirectedMultigraph(["u", "w", "x"], [("y@2", "u", "x", "1"),
                                               ("x@1", "w", "x", "1")])
    result = fixed_point_pipeline(
        Labelling.from_graph(host, GroupSpec.parse("z2")))
    x1 = list(result.skew.vertices).index("x@1")
    assert result.skew._names[result.tree.parent_edge[x1]] == "x@1@1"
    _assert_tree_is_the_bfs_builders(result, len(host.vertices))


def test_walk_tree_tie_break_reads_the_element_when_names_nest():
    # Both edges, labelled 1 in z2, run from the identity fibre into the
    # state x@1.  As host names with '@', a@ begins a@0@, so their ranks
    # pick a; the skew names a@1 and a@0@1 pick a@0, as str does.
    host = DirectedMultigraph(["u", "w", "x"], [("a", "u", "x", "1"),
                                               ("a@0", "w", "x", "1")])
    result = fixed_point_pipeline(
        Labelling.from_graph(host, GroupSpec.parse("z2")))
    skew, tree = result.skew, result.tree
    x1 = list(skew.vertices).index("x@1")
    assert skew._names[tree.parent_edge[x1]] == "a@0@1"
    _assert_tree_is_the_bfs_builders(result, len(host.vertices))


def test_derived_graphs_hold_no_label_column():
    # Skews, corners and --relabel copies keep None for their labels and
    # make no list of them, yet compare equal to their parsed-back copies,
    # whose label column is a list of None, and read as unlabelled.
    host = parse_graph(big_dag_text(n=300))
    c = Labelling.from_graph(host, GroupSpec.parse("z5"))
    result = fixed_point_pipeline(c)
    derived = [skew_product(c), reachable_skew(c), result.skew,
               result.corner.graph,
               corner_graph(build_spanning_subtree(host, ["v0"])).graph]

    def relabel(g):
        return DirectedMultigraph._from_indices(
            _Positional("v", len(g.vertices)), _Positional("e", len(g._names)),
            g._src, g._dst, g._labels)

    derived.append(relabel(derived[-1]))
    # Two --relabel copies made apart compare equal as well.
    assert relabel(derived[-2]) == derived[-1]
    for g in derived:
        assert g._labels is None
        back = parse_graph(serialize_graph(g))
        assert back._labels == [None] * len(g._names)
        assert g == back == g
        assert g.edges == back.edges
        assert {e.label for e in g.edges} == {None}
        assert g.edge(g._names[0]).label is None
        assert to_dot(g) == to_dot(back)
    skew = result.skew
    z5 = Labelling.from_graph(skew, GroupSpec.parse("z5"))
    assert z5.by_index == ((0,),) * len(skew._names)
    assert z5 == Labelling.from_graph(parse_graph(serialize_graph(skew)),
                                      GroupSpec.parse("z5"))


def line_by_line(g: DirectedMultigraph) -> str:
    """The graph file format of g, each name read by index, one line at a
    time."""
    vs, names = g.vertices, g._names
    labels = g._labels or [None] * len(names)  # a derived graph holds None
    text = "".join(f"vertex {vs[i]}\n" for i in range(len(vs)))
    for k in range(len(names)):
        tail = "" if labels[k] is None else f" {labels[k]}"
        text += f"edge {names[k]} {vs[g._src[k]]} {vs[g._dst[k]]}{tail}\n"
    return text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hosts_named_with_at(), st.sampled_from([1, 2, 5, 1024]))
def test_graph_blocks_match_a_line_by_line_writer(drawn, block):
    # Plain and labelled hosts (mixed labels, and one label on every
    # edge), full and reachable skews, corners of a host (renamed where
    # their names clash) and of a skew, and the positional names of
    # --relabel; small blocks make every graph span several.
    host, coords, roots = drawn
    z3, _, z = _labellings(host, coords)
    edges = [(e.name, e.src, e.dst) for e in host.edges]
    graphs = [host, DirectedMultigraph(host.vertices, [
        (*e, None if k % 3 else str(coords[e[0]][0]))
        for k, e in enumerate(edges)]),
        DirectedMultigraph(host.vertices, [(*e, "1") for e in edges]),
        skew_product(z3),
        corner_graph(build_spanning_subtree(host, roots)).graph]
    for c in (z3, z):
        try:
            result = fixed_point_pipeline(c, cap=64)
        except CapExceededError:
            continue
        graphs += [result.skew, result.corner.graph]
    graphs += [DirectedMultigraph._from_indices(
        _Positional("v", len(g.vertices)), _Positional("e", len(g._names)),
        g._src, g._dst, g._labels) for g in graphs[-2:]]
    with mock.patch.object(multigraph, "_BLOCK", block):
        for g in graphs:
            assert "".join(multigraph._graph_blocks(g)) == line_by_line(g)


def test_graph_blocks_of_a_renamed_corner():
    # a@b@c is made three times; two of them are renamed, so the corner's
    # edge names are a list, not a column.
    g = DirectedMultigraph(
        ["r", "b@c", "m", "c", "c.1"],
        [("0t", "r", "b@c"), ("0m", "r", "m"), ("0c", "m", "c"),
         ("0d", "m", "c.1"), ("a", "r", "b@c"), ("a@b", "r", "m")],
    )
    corner = corner_graph(build_spanning_subtree(g, ["r"])).graph
    assert isinstance(corner._names, list)
    assert serialize_graph(corner) == line_by_line(corner)


# Whitespace to str.split, and so to the file format (ROADMAP item 12
# decides which of these the format should take).
SPACES = [" ", "\t", "\xa0", "\x1c", "\x85", "\u3000", "\v"]
# Lines that replace one line of a file: 1, 3 and 6 tokens, unknown
# declarations and malformed names.
FAULTY_LINES = {
    "arity": [["vertex"], ["edge"], ["vertex", "a", "b"], ["edge", "x", "v0"],
              ["edge", "x", "v0", "v0", "1", "2"], ["vertex", *"abcde"]],
    "unknown": [["node", "a"], ["Vertex", "a"]],
    "bad_name": [["vertex", "a,b"], ["edge", "\xe9", "v0", "v0"]],
}
MUTATIONS = [*FAULTY_LINES, "forward", "far_duplicate", "keyword_names",
             "spaces", "line_ends", "drop"]


@st.composite
def mutated_files(draw) -> str:
    """A valid graph file, laid out as the library writes it, with vertex
    and edge lines interleaved, or shuffled, with or without comment and
    blank lines, and then mutated by a few of ``MUTATIONS``.  The layout
    and mutations are drawn; the bulk comes from a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([1, 4, 30, 600, 1100]))
    layout = draw(st.sampled_from(["written", "interleaved", "shuffled"]))
    comments = draw(st.sampled_from([0, 0.1, 0.5]))
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=4))
    names = [f"v{i}" for i in range(n)]
    keywords = {}
    if "keyword_names" in mutations:
        names[rng.randrange(n)], names[-1] = "vertex", "edge"
        keywords = {0: "edge", 1: "vertex"}
    ends = sorted((rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randrange(3 * n + 1)))
    edges = [["edge", keywords.get(k, f"e{k}"), names[u], names[w],
              *rng.choice([[], ["1"], ["x"]])]
             for k, (u, w) in enumerate(ends)]
    if layout == "interleaved":
        # Each vertex line is followed by the edges whose later endpoint
        # it declares.
        lines, k = [], 0
        for i, v in enumerate(names):
            lines.append(["vertex", v])
            while k < len(edges) and max(ends[k]) == i:
                lines.append(edges[k])
                k += 1
    else:
        lines = [["vertex", v] for v in names] + edges
        if layout == "shuffled":
            rng.shuffle(lines)
    for _ in range(int(comments * len(lines))):
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice([["#"], ["#", "note"], ["#edge", "x"], []]))
    for mutation in mutations:
        i = rng.randrange(len(lines)) if lines else 0
        if mutation in FAULTY_LINES:
            lines[i:i + 1] = [rng.choice(FAULTY_LINES[mutation])]
        elif mutation == "forward":
            # An endpoint declared two lines after its edge.
            lines[i:i] = [["edge", "fwd", names[0], "late"], ["#"],
                          ["vertex", "late"]]
        elif mutation == "far_duplicate":
            j = rng.randrange(i, len(lines) + 1)
            lines[j:j] = lines[i:i + 1]
        elif mutation == "drop":
            del lines[i:i + 1]
    spaces = SPACES if "spaces" in mutations else [" "]
    breaks = ["\n"] * len(lines)
    if "line_ends" in mutations and lines:
        # A form feed ends no line: it joins two.
        breaks = [rng.choice(["\n", "\r", "\r\n"]) for _ in lines]
        breaks[rng.randrange(len(lines))] = "\f"
    return "".join(
        rng.choice(["", "", *spaces])
        + "".join(token + rng.choice(spaces) for token in line)[:-1] + end
        for line, end in zip(lines, breaks))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_files(),
       st.sampled_from([multigraph._PARSE_BLOCK, 2, 5, 64]))
def test_column_and_line_passes_agree_with_the_reference_parser(text, block):
    # The same columns, or the same first error text, as the line-by-line
    # parser had, with the real block size and with small ones that put
    # many block boundaries in each file; the line pass runs exactly when
    # the file is faulty, and passes a valid file when run on its own.
    expected = parsed(reference_parse_graph, text)
    line_pass = mock.Mock(wraps=linepass.line_pass)
    with mock.patch.object(multigraph, "_PARSE_BLOCK", block), \
            mock.patch.object(linepass, "line_pass", line_pass):
        assert parsed(parse_graph, text) == expected
    assert line_pass.called == isinstance(expected, str)
    if not line_pass.called:
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert linepass.line_pass(lines) is None
