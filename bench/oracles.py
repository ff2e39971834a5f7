"""Independent checks of the program's answers.

Nothing here imports the program.  Each check parses the printed output
with its own parser and compares it with a count made from the
definitions on the generated host graph.  A check returns None when the
answer is right and a one-line reason when it is wrong; the check of a
whole job returns (answered, reason), answered being False when a
command exited non-zero instead of answering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from workloads import HostGraph

Results = list[tuple[int, str]]  # (exit code, output) of each command


class BadOutput(ValueError):
    """The printed output does not follow the graph file format."""


def parse_output_graph(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Vertices and (name, src, dst) edges of a printed graph."""
    vertices: list[str] = []
    declared: set[str] = set()
    names: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    for line in text.splitlines():
        parts = line.split(" ")
        if parts[0] == "vertex" and len(parts) == 2:
            if parts[1] in declared:
                raise BadOutput(f"vertex {parts[1]} declared twice")
            declared.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            _, name, src, dst = parts
            if src not in declared or dst not in declared or name in names:
                raise BadOutput(f"bad edge line {line!r}")
            names.add(name)
            edges.append((name, src, dst))
        else:
            raise BadOutput(f"unexpected line {line!r}")
    return vertices, edges


def _topological(vertices, edges):
    """Vertices in edge order with their in-edges; None if there is a cycle."""
    indeg = {v: 0 for v in vertices}
    out = {v: [] for v in vertices}
    into = {v: [] for v in vertices}
    for edge in edges:
        indeg[edge[2]] += 1
        out[edge[1]].append(edge)
        into[edge[2]].append(edge)
    queue = deque(v for v in vertices if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for edge in out[v]:
            indeg[edge[2]] -= 1
            if indeg[edge[2]] == 0:
                queue.append(edge[2])
    if len(order) != len(vertices):
        return None
    return order, into, out


def block_sizes(text: str) -> list[int]:
    """Matrix block sizes of the algebra of a printed acyclic graph.

    One block per sink w, of size the number of paths ending at w, the
    length-0 path included.
    """
    vertices, edges = parse_output_graph(text)
    topo = _topological(vertices, edges)
    if topo is None:
        raise BadOutput("printed graph has a cycle")
    order, into, out = topo
    ending = {}
    for v in order:
        ending[v] = 1 + sum(ending[e[1]] for e in into[v])
    return sorted(ending[v] for v in vertices if not out[v])


def corner_blocks(g: HostGraph) -> list[int]:
    """Block sizes of P_X C*(E) P_X for acyclic E and X the roots: for each
    sink w reached from X, the number of paths from X to w."""
    topo = _topological(g.vertices, g.edges)
    order, into, out = topo
    roots = set(g.roots)
    paths = {}
    for v in order:
        paths[v] = (v in roots) + sum(paths[e[1]] for e in into[v])
    return sorted(paths[v] for v in g.vertices if not out[v] and paths[v])


def fixed_point_blocks(g: HostGraph, order: int) -> list[int]:
    """Block sizes of the fixed-point algebra of a z<order> labelling of
    an acyclic graph: span{s_mu s_nu* : r(mu) = r(nu), c(mu) = c(nu)} has
    one block per (sink w, label g), of size the number of paths ending at
    w with label g."""
    topo_order, into, out = _topological(g.vertices, g.edges)
    by_label = {}
    for v in topo_order:
        counts = [0] * order
        counts[0] = 1
        for _, src, _, label in into[v]:
            before = by_label[src]
            for k in range(order):
                counts[(k + label) % order] += before[k]
        by_label[v] = counts
    return sorted(
        c for v in g.vertices if not out[v] for c in by_label[v] if c
    )


def check_blocks(what: str, expected: list[int], text: str) -> str | None:
    got = block_sizes(text)
    if got != expected:
        return f"{what} blocks {_brief(got)} != path counts {_brief(expected)}"
    return None


def _brief(values: list[int]) -> str:
    return f"[{len(values)} blocks, sum {sum(values)}]"


def _exit_failure(results: Results) -> str | None:
    for code, text in results:
        if code != 0:
            return f"exit {code}: {text.strip()}"
    return None


def check_acyclic(
    g: HostGraph, expected: tuple[list[int], list[int]], results: Results
) -> tuple[bool, str | None]:
    """``corner`` then ``fixed-point`` on an acyclic graph."""
    failure = _exit_failure(results)
    if failure:
        return False, failure
    (_, corner), (_, fixed) = results
    return True, (check_blocks("corner", expected[0], corner)
                  or check_blocks("fixed-point", expected[1], fixed))


@dataclass(frozen=True)
class ReachableSkew:
    """The part of the skew product reachable from the identity fibre.

    ``vertices`` and ``edges`` use the program's names: vertex ``x@t``,
    and edge ``e@s`` from ``s(e)@(c(e)+s)`` to ``r(e)@s``.
    """

    vertices: list[str]
    roots: set[str]
    edges: dict[str, tuple[str, str]]


def reachable_skew(g: HostGraph) -> ReachableSkew:
    """The reachable skew of a labelling by potential differences over z.

    An edge (e, s) runs from (s(e), c(e)+s) to (r(e), s), so a step along
    it subtracts the label, and t + potential(x) is constant along a skew
    path.  From the root (v, 0), the states met are therefore
    (x, potential(v) - potential(x)) for each x that v reaches.
    """
    phi = g.potential
    seen = {v: {phi[v]} for v in g.vertices}  # potentials reaching v
    changed = True
    while changed:
        changed = False
        for _, src, dst, _ in g.edges:
            if not seen[src] <= seen[dst]:
                seen[dst] |= seen[src]
                changed = True
    states = {x: sorted(p - phi[x] for p in seen[x]) for x in g.vertices}
    edges = {}
    for name, src, dst, label in g.edges:
        for t in states[src]:
            s = t - label
            edges[f"{name}@{s}"] = (f"{src}@{t}", f"{dst}@{s}")
    vertices = [f"{x}@{t}" for x in g.vertices for t in states[x]]
    return ReachableSkew(vertices, {f"{x}@0" for x in g.vertices}, edges)


def check_voltage_law(
    g: HostGraph, skew: ReachableSkew, results: Results
) -> tuple[bool, str | None]:
    """``check-kirchhoff``, ``check-kirchhoff --loops-only`` and
    ``fixed-point`` on a labelling by potential differences.

    Every cycle has label 0, so both voltage-law answers must be PASS (a
    Kirchhoff answer other than PASS exits non-zero, and is read here as
    a wrong answer).  The fixed-point graph is checked by
    ``check_skew_corner``.
    """
    for what, (code, text) in zip(
        ("check-kirchhoff", "check-kirchhoff --loops-only"), results
    ):
        if code != 0 or text != "PASS\n":
            return True, f"{what} answered {text.strip()!r} (exit {code})"
    failure = _exit_failure(results[2:])
    if failure:
        return False, f"fixed-point {failure}"
    return True, check_skew_corner(skew, results[2][1])


def check_skew_corner(skew: ReachableSkew, text: str) -> str | None:
    """The printed graph must be the corner graph of the reachable skew
    along a directed subtree rooted at the identity fibre.

    Every edge ``e@s@u`` must come from the skew edge ``e@s`` and run from
    its source to u.  The skew edges that give no corner edge are then
    the tree: each non-root vertex must receive exactly one of them, the
    roots none, and they must form no cycle.  Along that tree, the kept
    vertices are the sinks and the vertices that emit a non-tree edge,
    and each non-tree edge ``e@s`` must give exactly one corner edge per
    kept tree-descendant of its target.  Any spanning subtree gives a
    valid corner, so this does not depend on how the program picks one.
    """
    vertices, edges = parse_output_graph(text)
    targets: dict[str, set[str]] = {}
    for name, src, dst in edges:
        parts = name.split("@")
        skew_edge = "@".join(parts[:2])
        if len(parts) != 4 or skew_edge not in skew.edges:
            return f"edge {name} does not come from an edge of the skew"
        a, b = skew.edges[skew_edge]
        if src != a or dst != f"{parts[2]}@{parts[3]}":
            return f"edge {name} runs {src} -> {dst}, not from {a} to its name"
        targets.setdefault(skew_edge, set()).add(dst)

    entered, children = set(), {v: [] for v in skew.vertices}
    out = {v: [] for v in skew.vertices}
    for name, (a, b) in skew.edges.items():
        out[a].append(name)
        if name in targets:
            continue
        if b in skew.roots or b in entered:
            return f"{b} receives more than its one tree edge (skew edges " \
                   f"without a corner edge: {name} and others)"
        entered.add(b)
        children[a].append(b)
    depth_first = []
    stack = list(skew.roots)
    while stack:
        v = stack.pop()
        depth_first.append(v)
        stack.extend(children[v])
    if len(depth_first) != len(skew.vertices):
        return "the skew edges without a corner edge do not form a " \
               "subtree spanning the skew from the identity fibre"

    kept = {v for v in skew.vertices
            if not out[v] or any(e in targets for e in out[v])}
    below: dict[str, list[str]] = {}  # kept tree-descendants
    for v in reversed(depth_first):
        below[v] = [v] if v in kept else []
        for w in children[v]:
            below[v] += below[w]
    for name, got in targets.items():
        want = set(below[skew.edges[name][1]])
        if got != want:
            return f"{name} gives {len(got)} corner edges, not one per " \
                   f"kept descendant ({len(want)})"
    if set(vertices) != kept:
        return f"{len(vertices)} corner vertices, not the {len(kept)} " \
               f"kept vertices"
    return None


def k_theory_expected(g: HostGraph) -> tuple[int, list[int], int]:
    """(rank of K0's free part, K0's torsion factors, rank of K1).

    K0 is the cokernel and K1 the kernel of A^t - I on the columns of the
    regular vertices.  Unit pivots are eliminated first: a +-1 entry
    splits off a Z/1 factor and leaves the Schur complement, which has
    the same remaining invariant factors.  sympy's invariant_factors
    finishes the small rest.
    """
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    index = {v: i for i, v in enumerate(g.vertices)}
    regular = sorted({index[src] for _, src, _, _ in g.edges})
    col = {v: j for j, v in enumerate(regular)}
    rows: dict[int, dict[int, int]] = {i: {} for i in range(len(g.vertices))}
    for v in regular:
        rows[v][col[v]] = -1
    for _, src, dst, _ in g.edges:
        r, c = index[dst], col[index[src]]
        rows[r][c] = rows[r].get(c, 0) + 1
    for r in rows:
        rows[r] = {c: x for c, x in rows[r].items() if x}

    nrows, ncols = len(g.vertices), len(regular)
    units = 0
    while True:
        pivot = _unit_pivot(rows)
        if pivot is None:
            break
        pr, pc = pivot
        prow = rows.pop(pr)
        p = prow.pop(pc)
        for r, row in rows.items():
            x = row.pop(pc, 0)
            if x:
                for c, y in prow.items():
                    z = row.get(c, 0) - x * p * y
                    if z:
                        row[c] = z
                    else:
                        row.pop(c, None)
        units += 1

    left = sorted({c for row in rows.values() for c in row})
    rest = [[row.get(c, 0) for c in left] for row in rows.values() if row]
    factors = []
    if rest:
        factors = [int(d) for d in invariant_factors(Matrix(rest), domain=ZZ)]
    nonzero = [abs(d) for d in factors if d]
    rank = units + len(nonzero)
    return nrows - rank, sorted(d for d in nonzero if d > 1), ncols - rank


def _unit_pivot(rows: dict[int, dict[int, int]]) -> tuple[int, int] | None:
    """A +-1 entry whose elimination fills in least (Markowitz cost)."""
    colcount: dict[int, int] = {}
    for row in rows.values():
        for c in row:
            colcount[c] = colcount.get(c, 0) + 1
    best, best_cost = None, None
    for r, row in rows.items():
        for c, x in row.items():
            if x in (1, -1):
                cost = (len(row) - 1) * (colcount[c] - 1)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (r, c), cost
    return best


def parse_k_theory(text: str) -> tuple[int, list[int], int]:
    """Read 'K0 = Z^a (+) Z/d ...' and 'K1 = Z^b' (or '0') lines."""
    lines = text.splitlines()
    if len(lines) != 2 or not lines[0].startswith("K0 = ") \
            or not lines[1].startswith("K1 = "):
        raise BadOutput(f"unexpected K-theory output {text!r}")
    free, torsion = 0, []
    body = lines[0][5:]
    if body != "0":
        for part in body.split(" (+) "):
            if part.startswith("Z^"):
                free = int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise BadOutput(f"unexpected summand {part!r}")
    k1 = lines[1][5:]
    if k1 == "0":
        k1_rank = 0
    elif k1.startswith("Z^"):
        k1_rank = int(k1[2:])
    else:
        raise BadOutput(f"unexpected K1 {k1!r}")
    return free, torsion, k1_rank


def check_k_theory(
    g: HostGraph, expected: tuple[int, list[int], int], results: Results
) -> tuple[bool, str | None]:
    """``kth``."""
    failure = _exit_failure(results)
    if failure:
        return False, failure
    free, torsion, k1 = parse_k_theory(results[0][1])
    if (free, sorted(torsion), k1) != expected:
        return True, (f"K-theory {(free, torsion, k1)} != invariant "
                      f"factors {expected}")
    return True, None
