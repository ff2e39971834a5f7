"""Exact integer invariants: Smith normal form, K-theory, dimension vectors.

All arithmetic is over Python integers, so results are exact.
``smith_normal_form`` records its transforms, and their entries grow far
faster than the matrix, so it serves small matrices and the tests.
``k_theory`` needs only the invariant factors: ``invariant_factors``
eliminates unit pivots in sparse form, then finishes a small dense
remainder modulo a gcd of its largest minors, which every factor
divides, so no entry outgrows it.  It raises ``BitBudgetExceededError``
rather than run on with entries longer than ``BIT_BUDGET`` bits.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    _kahn,
)

# The dense stage of ``invariant_factors`` gives up once one of its entries
# is longer than this.  Random graphs with 1500 vertices and 4500 edges
# reach about 300 bits, the benchmark's k-theory graphs at most 31.
BIT_BUDGET = 1 << 14


class BitBudgetExceededError(RuntimeError):
    """An entry of the dense remainder grew past ``BIT_BUDGET`` bits."""

    def __init__(self, pivots: int, rows: int, cols: int, bits: int) -> None:
        super().__init__(
            f"invariant factors: an entry of {bits} bits exceeds the budget "
            f"of {BIT_BUDGET} bits after {pivots} pivots, with a dense "
            f"remainder of {rows}x{cols}"
        )
        self.pivots = pivots
        self.rows = rows
        self.cols = cols
        self.bits = bits


class IntegerMatrix(NamedTuple("IntegerMatrix", [
    ("rows", int), ("cols", int), ("entries", tuple[tuple[int, ...], ...]),
    ("row_labels", tuple[str, ...]), ("col_labels", tuple[str, ...]),
])):
    __slots__ = ()

    def __new__(cls, rows, cols, entries, row_labels=(), col_labels=()):
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        if any(len(r) != cols for r in entries):
            raise ValueError("column count mismatch")
        return super().__new__(cls, rows, cols, entries, row_labels,
                               col_labels)

    @classmethod
    def _make(cls, iterable) -> "IntegerMatrix":  # _replace builds through it
        return cls(*iterable)

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


class SmithDecomposition(NamedTuple):
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


def invariant_factors(rows: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """The nonzero invariant factors d1 | d2 | ... of a sparse integer
    matrix, without transforms; their count is its rank.

    ``rows`` maps a row index to ``{column index: entry}``; it is left as
    it is.  Unit pivots are eliminated in sparse form first.  On the
    dense rest A, fraction-free elimination gives the rank r and a gcd g
    of r x r minors, which every factor d_i divides.  The cokernel of A
    tensored with Z/g is the sum of the Z/d_i and one Z/g per further
    row, so a diagonal form over Z/g, whose entries stay below g, gives
    the factors: the first r of its chain.
    """
    nonzero = ((r, {c: x for c, x in row.items() if x})
               for r, row in rows.items())
    return _factors({r: row for r, row in nonzero if row})


def _factors(rows: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """``invariant_factors`` of rows with no zero entry and no empty row,
    which it takes over and changes."""
    units, A = _eliminate_units(rows)
    if not A:
        return (1,) * units
    rank, g = _rank_and_modulus(A, units)
    found = _diagonal_mod(A, g)
    found = [d for d in found + [g] * (len(A) - len(found)) if d > 1]
    # Fold each pair into (gcd, lcm) until d1 | d2 | ...
    found.sort()
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            a, b = found[i], found[j]
            g = gcd(a, b)
            found[i], found[j] = g, a // g * b
    chain = [1] * (units + len(A) - len(found)) + found
    return tuple(chain[:units + rank])


def _eliminate_units(
    rows: dict[int, dict[int, int]],
) -> tuple[int, list[list[int]]]:
    """Eliminate +-1 pivots, in place, from rows with no zero entry and no
    empty row; return their count and the dense rest, zero rows and
    columns dropped.

    A unit pivot splits off Z/1 and leaves the Schur complement, whose
    invariant factors are the remaining ones.  Each pivot is the unit in
    the shortest column of the first row, in last-filed order, of the
    shortest length that holds one: close to the Markowitz order.  Rows
    wait in a bucket queue, a list per length, and a row an update
    touches is filed again at the end of its new length's, unscanned.
    An entry is skipped when reached if its row is gone, has another
    length or a later entry, or holds no unit.
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    # No row outgrows the columns it starts with.
    buckets: list[list[int]] = [[] for _ in range(len(cols) + 1)]
    for r, row in rows.items():
        buckets[len(row)].append(r)
    heads = [0] * len(buckets)  # the first entry not yet reached
    last = {r: i for bucket in buckets for i, r in enumerate(bucket)}
    units, n = 0, 1
    while n < len(buckets):
        bucket, i = buckets[n], heads[n]
        if i == len(bucket):
            n += 1
            continue
        heads[n] = i + 1
        r = bucket[i]
        pivot_row = rows.get(r)
        if pivot_row is None or len(pivot_row) != n or last[r] != i:
            continue
        c, best = None, 0
        for c2, x in pivot_row.items():
            if (x == 1 or x == -1) and (c is None or len(cols[c2]) < best):
                c, best = c2, len(cols[c2])
        if c is None:
            continue
        del rows[r]
        p = pivot_row.pop(c)
        for c2 in pivot_row:
            cols[c2].discard(r)
        touched = cols.pop(c)
        touched.discard(r)
        for r2 in touched:
            row = rows[r2]
            f = row.pop(c) * p  # p == 1 / p
            for c2, y in pivot_row.items():
                y *= f
                x = row.get(c2)
                if x is None:
                    row[c2] = -y
                    cols[c2].add(r2)
                elif x != y:
                    row[c2] = x - y
                else:
                    del row[c2]
                    cols[c2].discard(r2)
            if row:
                bucket = buckets[len(row)]
                last[r2] = len(bucket)
                bucket.append(r2)
                if len(row) < n:
                    n = len(row)
            else:
                del rows[r2]
        units += 1
    left = sorted(c for c, rs in cols.items() if rs)
    return units, [[row.get(c, 0) for c in left] for row in rows.values()]


def _rank_and_modulus(A: list[list[int]], pivots: int) -> tuple[int, int]:
    """Rank r of A and the gcd of the r x r minors (Sylvester's identity)
    that fill the active block, from the pivot column on, when
    fraction-free (Bareiss) elimination picks its last pivot; every factor
    divides it.  Raises once a pivot row holds an entry longer than
    ``BIT_BUDGET`` bits; ``pivots`` counts those taken before."""
    m, n = len(A), len(A[0])
    B = [row[:] for row in A]
    rank, prev = 0, 1
    for col in range(n):
        t = next((i for i in range(rank, m) if B[i][col]), None)
        if t is None:
            continue
        B[rank], B[t] = B[t], B[rank]
        # Rows are replaced, never changed in place, so this keeps the block.
        block, last = B[rank:], col
        P = B[rank]
        bits = max(map(abs, P)).bit_length()
        if bits > BIT_BUDGET:
            raise BitBudgetExceededError(pivots + rank, m, n, bits)
        a = P[col]
        for i in range(rank + 1, m):
            R = B[i]
            b = R[col]
            if b:
                B[i] = [(a * x - b * y) // prev for x, y in zip(R, P)]
            elif a != prev:
                B[i] = [a * x // prev for x in R]
        prev = a
        rank += 1
    return rank, gcd(*(x for R in block for x in R[last:]))


def _diagonal_mod(A: list[list[int]], D: int) -> list[int]:
    """gcd(p, D) for each pivot p of a diagonal form of A over Z/D.

    Rows are combined in pairs by extended gcd, so the pivot column
    clears in one pass.  A pivot row entry that is no multiple of the
    pivot over Z/D is folded into the pivot column by a column pair; that
    strictly lowers gcd(pivot, D), and the row pass runs again.
    """
    rows = [r for r in ([x % D for x in row] for row in A) if any(r)]
    diagonal = []
    while rows:
        j = next(c for c in range(len(rows[0])) if any(r[c] for r in rows))
        t = min((i for i, r in enumerate(rows) if r[j]),
                key=lambda i: rows[i][j])
        rows[0], rows[t] = rows[t], rows[0]
        while True:
            P = rows[0]
            a = P[j]
            for i in range(1, len(rows)):
                R = rows[i]
                b = R[j]
                if not b:
                    continue
                if b % a == 0:
                    q = b // a
                    rows[i] = [(w - q * s) % D for s, w in zip(P, R)]
                else:
                    x, y, g = _xgcd(a, b)
                    u, v = b // g, a // g
                    P, rows[i] = (
                        [(x * s + y * w) % D for s, w in zip(P, R)],
                        [(v * w - u * s) % D for s, w in zip(P, R)],
                    )
                    a = P[j]
            rows[0] = P
            g = gcd(a, D)
            k = next((k for k, w in enumerate(P) if w % g), None)
            if k is None:
                break
            x, y, h = _xgcd(a, P[k])
            u, v = P[k] // h, a // h
            for R in rows:
                s, w = R[j], R[k]
                R[j] = (x * s + y * w) % D
                R[k] = (v * w - u * s) % D
        diagonal.append(g)
        rows = [
            r for r in ([w for c, w in enumerate(R) if c != j]
                        for R in rows[1:])
            if any(r)
        ]
    return diagonal


class KTheoryResult(NamedTuple):
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
    to Z^vertices.  The map is built sparse, straight from the out-edges.
    """
    rows: dict[int, dict[int, int]] = {i: {} for i in range(len(g.vertices))}
    regular = 0
    for i, out in enumerate(g._out):
        if not out:
            continue
        for k in out:
            row = rows[g._dst[k]]
            row[regular] = row.get(regular, 0) + 1
        x = rows[i].pop(regular, 0) - 1
        if x:  # 0 when i has exactly one loop
            rows[i][regular] = x
        regular += 1
    factors = _factors({r: row for r, row in rows.items() if row})
    return KTheoryResult(
        k0_free_rank=len(g.vertices) - len(factors),
        k0_invariant_factors=tuple(d for d in factors if d > 1),
        k1_rank=regular - len(factors),
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
    order = _kahn(g._out, g._dst)
    if len(order) != len(g.vertices):
        raise GraphFormatError("graph has a cycle")
    root_set = {g._require_vertex(v) for v in roots}
    ending_at = [0] * len(g.vertices)
    for v in order:
        ending_at[v] = (v in root_set) + sum(
            ending_at[g._src[k]] for k in g._in[v]
        )
    return tuple(sorted(
        n for n, out in zip(ending_at, g._out) if n and not out
    ))
