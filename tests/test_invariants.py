import random
from collections import Counter

import pytest

from graphcorners import (
    DirectedMultigraph,
    GraphFormatError,
    IntegerMatrix,
    KTheoryResult,
    corner_dimension_vector,
    corner_graph,
    fd_dimension_vector,
    hereditary_closure,
    k_theory,
    rational_rank,
    relabelled,
    saturate,
    smith_normal_form,
    vertex_matrix,
)

from sample_graphs import (
    cyc6,
    edge1,
    enumerate_paths,
    enumerated_dimension_vector,
    parallel_edges,
    pqr,
    random_bfs_tree,
    random_dag,
    random_multigraph,
    random_vertex_subset,
    rose2,
    single_loop,
    single_vertex,
)


def random_matrix(rng, max_dim=6, span=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntegerMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]
    )


class TestVertexMatrix:
    def test_rose2(self):
        assert vertex_matrix(rose2()).entries == ((2,),)

    def test_edge1(self):
        assert vertex_matrix(edge1()).entries == ((0, 1), (0, 0))

    def test_pqr(self):
        p, q, r = 2, 3, 1
        assert vertex_matrix(pqr(p, q, r)).entries == (
            (1, p, r),
            (0, 1, q),
            (0, 0, 1),
        )
        assert vertex_matrix(pqr(p, q, r)).row_labels == ("u", "v", "w")


class TestSmith:
    def test_identity(self):
        snf = smith_normal_form(IntegerMatrix.identity(2))
        assert snf.factors == (1, 1)
        assert snf.rank == 2

    def test_zero(self):
        snf = smith_normal_form(IntegerMatrix.from_rows([[0] * 3] * 3))
        assert snf.factors == ()
        assert snf.rank == 0

    def test_diag_2_3(self):
        snf = smith_normal_form(
            IntegerMatrix.from_rows([[2, 0], [0, 3]])
        )
        assert snf.factors == (1, 6)
        assert snf.rank == 2

    def test_empty_column_matrix(self):
        snf = smith_normal_form(IntegerMatrix(2, 0, ((), ())))
        assert snf.factors == ()
        assert snf.rank == 0

    def test_reconstruction_chain_and_rank(self):
        for seed in range(100):
            rng = random.Random(seed)
            M = random_matrix(rng)
            snf = smith_normal_form(M)
            product = (snf.left @ M) @ snf.right
            assert product == snf.diagonal
            for i in range(M.rows):
                for j in range(M.cols):
                    expected = (
                        snf.factors[i]
                        if i == j and i < snf.rank
                        else 0
                    )
                    assert snf.diagonal.entries[i][j] == expected
            for a, b in zip(snf.factors, snf.factors[1:]):
                assert b % a == 0
            assert all(d >= 1 for d in snf.factors)
            assert snf.rank == rational_rank(M)


class TestKTheory:
    def test_single_vertex(self):
        assert k_theory(single_vertex()) == KTheoryResult(1, (), 0)

    def test_single_loop(self):
        assert k_theory(single_loop()) == KTheoryResult(1, (), 1)

    def test_rose2_trivial_groups(self):
        assert k_theory(rose2()) == KTheoryResult(0, (), 0)

    def test_rose_n_gives_torsion(self):
        # n loops at one vertex: the defining matrix is [n-1].
        g = DirectedMultigraph(
            ["v"], [(f"l{i}", "v", "v") for i in range(4)]
        )
        assert k_theory(g) == KTheoryResult(0, (3,), 0)

    def test_describe(self):
        assert k_theory(rose2()).describe() == ("K0 = 0", "K1 = 0")
        assert k_theory(single_loop()).describe() == (
            "K0 = Z^1",
            "K1 = Z^1",
        )
        g = DirectedMultigraph(
            ["v"], [(f"l{i}", "v", "v") for i in range(4)]
        )
        assert k_theory(g).describe() == ("K0 = Z/3", "K1 = 0")
        h = DirectedMultigraph(
            ["a", "b"], [(f"l{i}", "a", "a") for i in range(4)]
        )
        assert k_theory(h).describe() == ("K0 = Z^1 (+) Z/3", "K1 = 0")

    def test_invariant_under_relabelling(self):
        for seed in range(25):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=6, max_e=10)
            names = [f"w{i}" for i in range(len(g.vertices))]
            rng.shuffle(names)
            vmap = dict(zip(g.vertices, names))
            h = relabelled(g, vmap)
            # also shuffle insertion order
            perm = list(h.vertices)
            rng.shuffle(perm)
            h2 = DirectedMultigraph(perm, h.edges)
            assert k_theory(g) == k_theory(h) == k_theory(h2)


class TestDimensionVectors:
    def test_single_vertex(self):
        assert fd_dimension_vector(single_vertex()) == (1,)

    def test_edge1(self):
        assert fd_dimension_vector(edge1()) == (2,)

    def test_parallel_pair(self):
        assert fd_dimension_vector(parallel_edges(2)) == (3,)

    def test_rejects_cycles(self):
        with pytest.raises(GraphFormatError, match="cycle"):
            fd_dimension_vector(rose2())
        with pytest.raises(GraphFormatError, match="cycle"):
            corner_dimension_vector(cyc6(), ["v0"])

    def test_corner_dim_edge1(self):
        assert corner_dimension_vector(edge1(), ["u"]) == (1,)

    def test_corner_dim_parallel(self):
        assert corner_dimension_vector(parallel_edges(2), ["u"]) == (2,)

    def test_corner_dim_unknown_vertex(self):
        with pytest.raises(GraphFormatError):
            corner_dimension_vector(edge1(), ["zz"])

    def test_corner_dim_against_enumeration(self):
        for seed in range(50):
            rng = random.Random(seed)
            g = random_dag(rng, max_v=7, max_e=12)
            roots = random_vertex_subset(rng, g)
            assert corner_dimension_vector(g, roots) == (
                enumerated_dimension_vector(g, roots)
            )

    def test_full_roots_match_fd(self):
        for seed in range(50):
            g = random_dag(random.Random(seed))
            assert corner_dimension_vector(g, g.vertices) == (
                fd_dimension_vector(g)
            )

    def test_fd_against_exhaustive_enumeration(self):
        for seed in range(30):
            g = random_dag(random.Random(seed), max_v=6, max_e=10)
            arrivals = Counter()
            for v in g.vertices:
                for end, _ in enumerate_paths(g, v):
                    arrivals[end] += 1
            expected = tuple(sorted(arrivals[s] for s in g.sinks()))
            assert fd_dimension_vector(g) == expected

    def test_sum_of_squares_double_count(self):
        for seed in range(30):
            g = random_dag(random.Random(seed), max_v=6, max_e=10)
            dims = fd_dimension_vector(g)
            per_sink = Counter()
            for v in g.vertices:
                for end, _ in enumerate_paths(g, v):
                    per_sink[end] += 1
            pairs = sum(
                per_sink[s] ** 2 for s in g.sinks()
            )
            assert sum(d * d for d in dims) == pairs


class TestFullCornerKTheory:
    def test_full_corners_share_k_theory(self):
        # When the hereditary closure of the roots saturates to the whole
        # vertex set, the corner is a full compression, so the invariants
        # must agree with the host graph's.
        checked = skipped = 0
        for seed in range(80):
            rng = random.Random(seed)
            g = random_multigraph(rng, max_v=6, max_e=10)
            roots = random_vertex_subset(rng, g)
            closure = hereditary_closure(g, roots)
            if saturate(g, closure) != set(g.vertices):
                skipped += 1
                continue
            checked += 1
            tree = random_bfs_tree(g, roots, rng)
            assert k_theory(corner_graph(g, tree).graph) == k_theory(g)
        print(
            f"\nfull-corner k-theory: {checked} checked, "
            f"{skipped} skipped (guard) of {checked + skipped}"
        )
        assert checked >= 20
