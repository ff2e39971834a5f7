import copy
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcorners import invariants
from graphcorners import (
    BitBudgetExceededError,
    DirectedMultigraph,
    GraphFormatError,
    GroupSpec,
    IntegerMatrix,
    KTheoryResult,
    Labelling,
    build_spanning_subtree,
    corner_dimension_vector,
    corner_graph,
    fd_dimension_vector,
    fixed_point_pipeline,
    hereditary_closure,
    invariant_factors,
    k_theory,
    parse_graph,
    relabelled,
    smith_normal_form,
)

from reference import rational_rank, saturate, vertex_matrix
from sample_graphs import (
    cyc6,
    edge1,
    enumerate_paths,
    enumerated_dimension_vector,
    grown_tree,
    parallel_edges,
    pqr,
    random_bfs_tree,
    random_dag,
    random_multigraph,
    random_sparse_text,
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


def shaped_matrix(rng):
    """A small integer matrix in one of five shapes: plain, without unit
    entries, rank-deficient, with zero rows, or a diagonal with chosen
    factors scrambled by unimodular row and column operations."""
    m, n = rng.randint(1, 7), rng.randint(0, 7)
    span = rng.choice((1, 4, 9))
    rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]
    style = rng.randrange(5)
    if style == 1:
        rows = [[x * rng.choice((2, 3)) for x in r] for r in rows]
    elif style == 2:
        k = rng.randint(0, max(0, min(m, n) - 1))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = [
            [sum(a * b[j] for a, b in zip(row, right)) for j in range(n)]
            for row in left
        ]
    elif style == 3:
        for r in rng.sample(range(m), rng.randint(1, m)):
            rows[r] = [0] * n
    elif style == 4:
        rows = [[0] * n for _ in range(m)]
        for i in range(min(m, n)):
            rows[i][i] = rng.choice((0, 1, 2, 3, 4, 6, 12))
        for _ in range(12):
            if m > 1:
                i, j = rng.sample(range(m), 2)
                q = rng.randint(-2, 2)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            if n > 1:
                i, j = rng.sample(range(n), 2)
                q = rng.randint(-2, 2)
                for row in rows:
                    row[i] += q * row[j]
    return rows


def sparse(rows):
    return {i: dict(enumerate(row)) for i, row in enumerate(rows)}


def nonzero(rows):
    """The sparse form stage 1 takes over: no zero entry, no empty row."""
    return {i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(rows) if any(row)}


def kth_rows(g, monkeypatch):
    """The sparse matrix ``k_theory`` hands to its stage 1 for g, in the
    form stage 1 takes over."""
    got = []
    with monkeypatch.context() as m:
        m.setattr(invariants, "_factors", lambda rows: got.append(rows) or ())
        k_theory(g)
    assert all(row and all(row.values()) for row in got[0].values())
    return got[0]


def random_graph_rows(monkeypatch):
    """``kth_rows`` of 40 random graphs with 100 to 400 vertices and three
    edges per vertex."""
    graphs = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(100, 400)
        vs = [f"v{i}" for i in range(n)]
        graphs.append(kth_rows(DirectedMultigraph(vs, [
            (f"e{k}", rng.choice(vs), rng.choice(vs))
            for k in range(3 * n)
        ]), monkeypatch))
    return graphs


# Stage 1 as it was when each touched row left its bucket and was scanned
# for a unit, kept word for word: the pivot order it fixes is the one
# ``invariants._eliminate_units`` must keep.
def reference_eliminate_units(
    rows: dict[int, dict[int, int]],
) -> tuple[int, list[list[int]]]:
    """Eliminate +-1 pivots, in place, from rows with no zero entry and no
    empty row; return their count and the dense rest, zero rows and
    columns dropped.

    A unit pivot splits off Z/1 and leaves the Schur complement, whose
    invariant factors are the remaining ones.  Rows that hold a unit wait
    in buckets by length.  Each pivot is the unit in the shortest column
    of the first row of the shortest bucket, close to the Markowitz order
    (row nnz - 1) * (column nnz - 1).  A row an update touches leaves its
    bucket first and goes back only if it still holds a unit, so no
    bucket holds a stale row.
    """
    cols: dict[int, set[int]] = {}
    buckets: dict[int, dict[int, None]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
        if 1 in row.values() or -1 in row.values():
            buckets.setdefault(len(row), {})[r] = None
    units = 0
    while buckets:
        n = min(buckets)
        bucket = buckets[n]
        if not bucket:
            del buckets[n]
            continue
        r = next(iter(bucket))
        del bucket[r]
        pivot_row = rows.pop(r)
        c = min((c for c, x in pivot_row.items() if x == 1 or x == -1),
                key=lambda c: len(cols[c]))
        p = pivot_row.pop(c)
        for c2 in pivot_row:
            cols[c2].discard(r)
        touched = cols.pop(c)
        touched.discard(r)
        for r2 in touched:
            row = rows[r2]
            if len(row) in buckets:
                buckets[len(row)].pop(r2, None)
            f = row.pop(c) * p  # p == 1 / p
            for c2, y in pivot_row.items():
                x = row.get(c2, 0)
                z = x - f * y
                if z:
                    if not x:
                        cols[c2].add(r2)
                    row[c2] = z
                elif x:
                    del row[c2]
                    cols[c2].discard(r2)
            if not row:
                del rows[r2]
            elif 1 in row.values() or -1 in row.values():
                buckets.setdefault(len(row), {})[r2] = None
        for c2 in pivot_row:
            if not cols[c2]:
                del cols[c2]
        units += 1
    left = sorted(cols)
    return units, [[row.get(c, 0) for c in left] for row in rows.values()]


def check_unit_stage(rows, expected):
    """Stage 1 on hand-built rows over columns 0 to 9: the expected units
    and rest, as the reference stage gives, and the factors of the
    reference Smith normal form."""
    dense = IntegerMatrix.from_rows([
        [row.get(c, 0) for c in range(10)] for row in rows.values()])
    assert invariant_factors(rows) == smith_normal_form(dense).factors
    got = invariants._eliminate_units(copy.deepcopy(rows))
    assert got == reference_eliminate_units(rows) == expected


def last_bareiss_pivot(rows):
    """|det| of the square submatrix on the pivots that fraction-free
    elimination takes (in each column the first nonzero row left): the
    product of the Gaussian pivots, over the rationals."""
    A = [[Fraction(x) for x in row] for row in rows]
    det, rank = Fraction(1), 0
    for col in range(len(A[0])):
        t = next((i for i in range(rank, len(A)) if A[i][col]), None)
        if t is None:
            continue
        A[rank], A[t] = A[t], A[rank]
        P = A[rank]
        det *= P[col]
        for i in range(rank + 1, len(A)):
            f = A[i][col] / P[col]
            A[i] = [x - f * y for x, y in zip(A[i], P)]
        rank += 1
    return abs(int(det))


def rank_mod_prime(rows, p=(1 << 61) - 1):
    """Rank over Z/p of a sparse matrix, shortest row first.  It is at most
    the rank over the rationals, and equal unless p divides every maximal
    nonzero minor."""
    rows = [{c: x % p for c, x in row.items() if x % p}
            for row in rows.values()]
    rank = 0
    while any(rows):
        P = min(filter(None, rows), key=len)
        c, x = next(iter(P.items()))
        inverse = pow(x, -1, p)
        rows = [row for row in rows if row and row is not P]
        for row in rows:
            f = row.get(c, 0) * inverse % p
            for c2, y in P.items() if f else ():
                z = (row.get(c2, 0) - f * y) % p
                if z:
                    row[c2] = z
                else:
                    del row[c2]
        rank += 1
    return rank


class TestInvariantFactors:
    def test_against_smith_normal_form(self):
        for seed in range(300):
            rows = shaped_matrix(random.Random(seed))
            M = IntegerMatrix.from_rows(rows)
            snf = smith_normal_form(M)
            factors = invariant_factors(sparse(rows))
            assert factors == snf.factors, rows
            assert len(factors) == snf.rank == rational_rank(M)

    def test_against_sympy(self):
        pytest.importorskip("sympy")
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import (
            invariant_factors as sympy_factors,
        )

        for seed in range(60):
            rows = shaped_matrix(random.Random(seed))
            if not rows[0]:
                continue
            expected = sympy_factors(Matrix(rows), domain=ZZ)
            assert invariant_factors(sparse(rows)) == tuple(
                abs(int(d)) for d in expected if d
            ), rows

    def test_zero_and_empty(self):
        assert invariant_factors({}) == ()
        assert invariant_factors({0: {}, 1: {}}) == ()
        assert invariant_factors({0: {0: 0, 1: 0}}) == ()

    def test_torsion_chain(self):
        # diag(4, 6) has factors 2 | 12; no entry is a unit.
        assert invariant_factors({0: {0: 4}, 1: {1: 6}}) == (2, 12)

    def test_modulus(self):
        # No torsion: the modulus is 1, not the last pivot 2.
        assert invariants._rank_and_modulus([[2], [3]], 0) == (1, 1)
        for seed in range(300):
            rows = shaped_matrix(random.Random(seed))
            units, A = invariants._eliminate_units(nonzero(rows))
            if not A:
                continue
            _, g = invariants._rank_and_modulus(A, units)
            assert all(g % d == 0 for d in invariant_factors(sparse(rows)))
            assert last_bareiss_pivot(A) % g == 0, rows

    def test_unit_stage_leaves_no_unit(self, monkeypatch):
        """Stage 1 files every row in a bucket queue by length, files each
        row an update touches again under its new length without scanning
        it, and skips an entry whose row has gone, changed length, been
        filed again or lost its units; the remainder must still hold no
        unit, and lose no rank."""
        cases = []
        for seed in range(300):
            rows = shaped_matrix(random.Random(seed))
            cases.append((nonzero(rows),
                          rational_rank(IntegerMatrix.from_rows(rows))))
        graphs = random_graph_rows(monkeypatch)
        cases += [(rows, rank_mod_prime(rows)) for rows in graphs]
        for rows, rank in cases:
            units, A = invariants._eliminate_units(rows)
            assert not any(x in (1, -1) for row in A for x in row)
            assert units + (
                rational_rank(IntegerMatrix.from_rows(A)) if A else 0
            ) == rank

    def test_unit_stage_keeps_the_reference_pivots(self, monkeypatch):
        # The same unit count and dense rest, entry for entry, as the stage
        # that took each touched row out of its bucket and scanned it.
        cases = [nonzero(shaped_matrix(random.Random(seed)))
                 for seed in range(300)]
        cases += random_graph_rows(monkeypatch)
        cases += [kth_rows(parse_graph(random_sparse_text(n)), monkeypatch)
                  for n in (1000, 1500)]
        rests = []
        for rows in cases:
            units, A = invariants._eliminate_units(copy.deepcopy(rows))
            assert (units, A) == reference_eliminate_units(rows)
            rests.append(A)
        assert [(len(A), len(A[0])) for A in rests[-2:]] == [
            (117, 69), (194, 108)]

    def test_unit_stage_steps_back_to_a_shortened_row(self):
        # The pivot on row 0 (length 3, column 0) leaves row 1 as {3: 1}, of
        # length 1, so row 1 is the next pivot, before row 2 at length 3;
        # it clears column 3 of row 3, which keeps no unit.
        rows = {0: {0: 1, 1: 1, 2: 1}, 1: {0: 1, 1: 1, 2: 1, 3: 1},
                2: {5: 1, 6: 1, 7: 1}, 3: {3: 2, 4: 3}}
        check_unit_stage(rows, (3, [[3]]))

    def test_unit_stage_takes_a_refiled_row_at_its_last_place(self):
        # Row 2 starts at length 3 ahead of row 3.  The pivot on row 0 makes
        # it {1: 1, 2: 1, 8: -2, 9: -2}, the pivot on row 1 brings it back
        # to length 3 as {2: 1, 8: -3, 9: -3}, filed after row 3.  So row 3
        # pivots at column 2 and row 2 is the rest; taking row 2 at its old
        # place, ahead of row 3, would leave row 3, [2, 2, 3, 3].
        rows = {0: {0: 1, 8: 2, 9: 2}, 1: {1: 1, 8: 1, 9: 1},
                2: {0: 1, 1: 1, 2: 1}, 3: {2: 1, 5: 2, 6: 2}}
        check_unit_stage(rows, (3, [[-2, -2, -3, -3]]))

    def test_argument_left_as_it_is(self, monkeypatch):
        cases = [sparse(shaped_matrix(random.Random(seed)))
                 for seed in range(100)]
        cases.append(kth_rows(parse_graph(random_sparse_text(300)),
                              monkeypatch))
        for rows in cases:
            before = copy.deepcopy(rows)
            invariant_factors(rows)
            assert rows == before

    @pytest.mark.parametrize("n,heap_rest", [(1000, (114, 66)),
                                             (1500, (192, 106))])
    def test_unit_stage_remainder(self, monkeypatch, n, heap_rest):
        # The dense rest stays within 1.1x the cells of the rest that a
        # Markowitz heap of unit candidates left on these graphs, so the
        # dense stage is not handed a larger block unnoticed.
        rows = kth_rows(parse_graph(random_sparse_text(n)), monkeypatch)
        _, A = invariants._eliminate_units(rows)
        assert len(A) * len(A[0]) <= 1.1 * heap_rest[0] * heap_rest[1]

    def test_bit_budget(self, monkeypatch):
        monkeypatch.setattr(invariants, "BIT_BUDGET", 1)
        with pytest.raises(BitBudgetExceededError) as caught:
            invariant_factors({0: {0: 1, 1: 1}, 1: {0: 1, 1: 4}})
        assert (caught.value.pivots, caught.value.rows,
                caught.value.cols, caught.value.bits) == (1, 1, 1, 2)
        assert "2 bits exceeds the budget of 1 bits after 1 pivots" in str(
            caught.value
        )
        assert "dense remainder of 1x1" in str(caught.value)


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

    def test_against_dense_smith_normal_form(self):
        for seed in range(60):
            g = random_multigraph(random.Random(seed), max_v=8, max_e=16)
            A = vertex_matrix(g).entries
            regular = [i for i, v in enumerate(g.vertices) if g.out_edges(v)]
            B = IntegerMatrix.from_rows(
                [
                    [A[j][i] - (i == j) for j in regular]
                    for i in range(len(g.vertices))
                ]
            )
            snf = smith_normal_form(B)
            assert k_theory(g) == KTheoryResult(
                len(g.vertices) - snf.rank,
                tuple(d for d in snf.factors if d > 1),
                len(regular) - snf.rank,
            )


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
            assert k_theory(corner_graph(tree).graph) == k_theory(g)
        print(
            f"\nfull-corner k-theory: {checked} checked, "
            f"{skipped} skipped (guard) of {checked + skipped}"
        )
        assert checked >= 20

    def test_full_corners_share_k_theory_at_scale(self):
        # A few hundred vertices, edges four times as many, and roses for
        # torsion in K0: sizes at which the transform-tracking Smith normal
        # form stalled.
        checked = 0
        for seed in range(4):
            rng = random.Random(seed)
            n = 300
            vs = [f"v{i}" for i in range(n)]
            edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(4 * n)]
            for r in range(3):
                edges.append((rng.choice(vs), f"r{r}"))
                edges += [(f"r{r}", f"r{r}")] * rng.randint(3, 7)
            g = DirectedMultigraph(
                vs + [f"r{r}" for r in range(3)],
                [(f"e{k}", u, w) for k, (u, w) in enumerate(edges)],
            )
            roots = rng.sample(vs, 3)
            if saturate(g, hereditary_closure(g, roots)) != set(g.vertices):
                continue
            checked += 1
            corner = corner_graph(build_spanning_subtree(g, roots)).graph
            assert k_theory(g).k0_invariant_factors
            assert k_theory(corner) == k_theory(g)
        assert checked >= 3


def host_with_roses(rng: random.Random, n: int, labels: int = 0
                    ) -> DirectedMultigraph:
    """A multigraph on n vertices with n to 3n edges, up to four of its
    vertices roses with 3 to 7 loops (so K0 often has torsion); with
    ``labels``, each edge then draws a label in ``range(labels)``."""
    vs = [f"v{i}" for i in range(n)]
    ends = [(rng.choice(vs), rng.choice(vs))
            for _ in range(rng.randint(n, 3 * n))]
    for v in rng.sample(vs, rng.randint(0, min(n, 4))):
        ends += [(v, v)] * rng.randint(3, 7)
    marks = [str(rng.randrange(labels)) if labels else None for _ in ends]
    return DirectedMultigraph(vs, [
        (f"e{k}", u, w, mark) for k, ((u, w), mark)
        in enumerate(zip(ends, marks))])


@st.composite
def rooted_hosts(draw):
    """A host_with_roses on 2 to 300 vertices, 1 to 3 roots, and a
    subtree spanning the roots' closure: the BFS tree
    build_spanning_subtree returns, or one grown random-first and
    validated.  A drawn seed drives the rest, which keeps the draws
    few."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.one_of(st.integers(2, 40), st.integers(100, 300)))
    g = host_with_roses(rng, n)
    roots = rng.sample(g.vertices, rng.randint(1, min(n, 3)))
    if draw(st.booleans()):
        return g, roots, build_spanning_subtree(g, roots)
    return g, roots, grown_tree(g, roots, lambda f: rng.randrange(len(f)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rooted_hosts())
def test_corner_shares_k_theory_with_the_restriction_to_the_closure(gtr):
    """K_*(F) = K_*(E restricted to H), H the hereditary closure of the
    roots X, for every X and every subtree: C*(F) = P_X C*(E) P_X and
    C*(E restricted to H) = P_H C*(E) P_H are full corners of the ideal
    P_X generates, so they are stably isomorphic.  The restriction is
    built here, not by corner or subtree.  Both sides go through
    k_theory, whose Smith normal form TestInvariantFactors checks
    against sympy."""
    g, roots, tree = gtr
    closure = set(roots)
    frontier = list(roots)
    while frontier:
        for e in g.out_edges(frontier.pop()):
            if e.dst not in closure:
                closure.add(e.dst)
                frontier.append(e.dst)
    restriction = DirectedMultigraph(
        [v for v in g.vertices if v in closure],
        [(e.name, e.src, e.dst) for e in g.edges if e.src in closure])
    assert k_theory(corner_graph(tree).graph) == k_theory(restriction)


@st.composite
def labelled_hosts(draw):
    """A host_with_roses on 2 to 40 or 100 to 300 vertices, its edges
    labelled in z3.  A drawn seed drives the rest."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.one_of(st.integers(2, 40), st.integers(100, 300)))
    return host_with_roses(rng, n, labels=3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(labelled_hosts())
def test_fixed_point_corner_shares_k_theory_with_the_reachable_skew(g):
    """The fixed-point graph is the corner of the skew product along a
    subtree rooted at the identity fibre, and the reachable skew is the
    skew product restricted to that fibre's hereditary closure; so, as
    in the property above, both have the same K-theory.  Both sides go
    through k_theory, whose Smith normal form TestInvariantFactors
    checks against sympy."""
    c = Labelling.from_graph(g, GroupSpec.parse("z3"))
    result = fixed_point_pipeline(c)
    assert k_theory(result.corner.graph) == k_theory(result.skew)
