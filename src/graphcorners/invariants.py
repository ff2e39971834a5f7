"""Exact integer invariants: Smith normal form, K-theory, dimension vectors.

All arithmetic is over Python integers, so results are exact, but the
transform-tracking Smith normal form lets entries grow far faster than
the matrix: ``k_theory`` of a random graph with 120 vertices and 360
edges takes 0.2 s, one with 200 vertices and 600 edges has not finished
after 60 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .multigraph import (
    DirectedMultigraph,
    topological_order,
)


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("column count mismatch")

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int]],
        row_labels: Iterable[str] = (),
        col_labels: Iterable[str] = (),
    ) -> "IntegerMatrix":
        entries = tuple(tuple(int(x) for x in r) for r in rows)
        ncols = len(entries[0]) if entries else 0
        return cls(
            len(entries), ncols, entries, tuple(row_labels), tuple(col_labels)
        )

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        rows = [
            [
                sum(self.entries[i][k] * other.entries[k][j]
                    for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return IntegerMatrix.from_rows(rows) if rows else IntegerMatrix(
            0, other.cols, ()
        )


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == diagonal, with U, V unimodular.

    ``factors`` are the positive diagonal entries d1 | d2 | ... and
    ``rank`` their count (the rank of M over the rationals).
    """

    diagonal: IntegerMatrix
    left: IntegerMatrix
    right: IntegerMatrix
    factors: tuple[int, ...]
    rank: int


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def smith_normal_form(M: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations."""
    m, n = M.rows, M.cols
    A = [list(r) for r in M.entries]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i: int, j: int, q: int) -> None:  # R_i += q R_j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def col_op(j: int, i: int, q: int) -> None:  # C_j += q C_i
        for row in A:
            row[j] += q * row[i]
        for row in V:
            row[j] += q * row[i]

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i: int, j: int) -> None:
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def gen_row_op(i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        # (R_i, R_j) <- (x R_i + y R_j, z R_i + w R_j); xw - yz == 1
        A[i], A[j] = (
            [x * a + y * b for a, b in zip(A[i], A[j])],
            [z * a + w * b for a, b in zip(A[i], A[j])],
        )
        U[i], U[j] = (
            [x * a + y * b for a, b in zip(U[i], U[j])],
            [z * a + w * b for a, b in zip(U[i], U[j])],
        )

    def gen_col_op(i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        for rows in (A, V):
            for row in rows:
                a, b = row[i], row[j]
                row[i] = x * a + y * b
                row[j] = z * a + w * b

    def clear_row_entry(t: int, i: int) -> None:
        a, b = A[t][t], A[i][t]
        if b == 0:
            return
        if b % a == 0:
            row_op(i, t, -(b // a))
        else:
            x, y, g = _xgcd(a, b)
            gen_row_op(t, i, x, y, -(b // g), a // g)

    def clear_col_entry(t: int, j: int) -> None:
        a, b = A[t][t], A[t][j]
        if b == 0:
            return
        if b % a == 0:
            col_op(j, t, -(b // a))
        else:
            x, y, g = _xgcd(a, b)
            gen_col_op(t, j, x, y, -(b // g), a // g)

    t = 0
    while True:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (
                    pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                clear_row_entry(t, i)
            for j in range(t + 1, n):
                clear_col_entry(t, j)
            if all(A[i][t] == 0 for i in range(t + 1, m)) and all(
                A[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        t += 1

    rank = t
    for i in range(rank):
        if A[i][i] < 0:
            A[i] = [-a for a in A[i]]
            U[i] = [-a for a in U[i]]

    # Enforce the divisibility chain d1 | d2 | ... by folding each
    # offending pair into (gcd, lcm) with unimodular operations.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a != 0:
                changed = True
                col_op(i, i + 1, 1)
                x, y, g = _xgcd(a, b)
                gen_row_op(i, i + 1, x, y, -(b // g), a // g)
                off = A[i][i + 1]
                col_op(i + 1, i, -(off // A[i][i]))

    factors = tuple(A[i][i] for i in range(rank))
    return SmithDecomposition(
        diagonal=IntegerMatrix.from_rows(A) if A else IntegerMatrix(0, n, ()),
        left=IntegerMatrix.from_rows(U) if U else IntegerMatrix(0, 0, ()),
        right=IntegerMatrix.from_rows(V) if V else IntegerMatrix(0, 0, ()),
        factors=factors,
        rank=rank,
    )


def rational_rank(M: IntegerMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    A = [list(r) for r in M.entries]
    m, n = M.rows, M.cols
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = next(
            (i for i in range(rank, m) if A[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        A[rank], A[pivot_row] = A[pivot_row], A[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                num = A[rank][col] * A[i][j] - A[i][col] * A[rank][j]
                q, r = divmod(num, prev)
                assert r == 0, "fraction-free step not exact"
                A[i][j] = q
            A[i][col] = 0
        prev = A[rank][col]
        rank += 1
    return rank


def vertex_matrix(g: DirectedMultigraph) -> IntegerMatrix:
    """Edge multiplicity matrix: entry (v, w) counts the edges v -> w."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    rows = [[0] * n for _ in range(n)]
    for e in g.edges:
        rows[index[e.src]][index[e.dst]] += 1
    return IntegerMatrix.from_rows(rows, g.vertices, g.vertices)


@dataclass(frozen=True)
class KTheoryResult:
    """K0 = Z^free_rank (+) sum of Z/d over the invariant factors; K1 = Z^k1_rank."""

    k0_free_rank: int
    k0_invariant_factors: tuple[int, ...]
    k1_rank: int

    def describe(self) -> tuple[str, str]:
        parts = []
        if self.k0_free_rank:
            parts.append(f"Z^{self.k0_free_rank}")
        parts.extend(f"Z/{d}" for d in self.k0_invariant_factors)
        k0 = " (+) ".join(parts) if parts else "0"
        k1 = f"Z^{self.k1_rank}" if self.k1_rank else "0"
        return f"K0 = {k0}", f"K1 = {k1}"


def k_theory(g: DirectedMultigraph) -> KTheoryResult:
    """K-theory of the graph algebra from its vertex matrix.

    K0 is the cokernel and K1 the kernel of (A^t - I) restricted to the
    columns of the regular (emitting) vertices, as a map from Z^regular
    to Z^vertices.
    """
    vertices = g.vertices
    regular = [v for v in vertices if g.out_edges(v)]
    A = vertex_matrix(g)
    vindex = {v: i for i, v in enumerate(vertices)}
    rows = []
    for w in vertices:
        row = []
        for v in regular:
            a = A.entries[vindex[v]][vindex[w]]
            row.append(a - (1 if v == w else 0))
        rows.append(row)
    B = IntegerMatrix(
        len(vertices), len(regular),
        tuple(tuple(r) for r in rows), vertices, tuple(regular),
    )
    snf = smith_normal_form(B)
    return KTheoryResult(
        k0_free_rank=len(vertices) - snf.rank,
        k0_invariant_factors=tuple(d for d in snf.factors if d > 1),
        k1_rank=len(regular) - snf.rank,
    )


def fd_dimension_vector(g: DirectedMultigraph) -> tuple[int, ...]:
    """Matrix block sizes of the algebra of a finite acyclic graph.

    One block per sink v, of size the number of paths ending at v, the
    length-0 path included: the compression at every vertex.
    """
    return corner_dimension_vector(g, g.vertices)


def corner_dimension_vector(
    g: DirectedMultigraph, roots: Iterable[str]
) -> tuple[int, ...]:
    """Block sizes of the compression of an acyclic graph algebra at a
    vertex set: for each sink, the number of paths from the set to it.

    Counted by dynamic programming in topological order, each distinct
    root seeding its length-0 path; sinks no root reaches are dropped.
    """
    order = topological_order(g)
    root_set = dict.fromkeys(roots)
    for v in root_set:
        g._require_vertex(v)
    ending_at: dict[str, int] = {}
    for v in order:
        ending_at[v] = (v in root_set) + sum(
            ending_at[e.src] for e in g.in_edges(v)
        )
    return tuple(sorted(ending_at[v] for v in g.sinks() if ending_at[v]))
