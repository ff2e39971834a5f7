"""Group labellings of edges, skew products, and the fixed-point pipeline.

Groups are finite direct products of cyclic factors: ``z`` (infinite) and
``z<n>`` (order n), written e.g. ``z3`` or ``z,z2``.  Elements are integer
coordinate tuples, canonical modulo each finite factor, encoded as
comma-joined decimals.  Inside vertex and edge names the coordinates are
joined with ``.`` instead, since ``,`` is outside the name alphabet.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping

from .corner import CornerGraph, corner_graph
from .multigraph import (
    DirectedMultigraph,
    Edge,
    GraphFormatError,
    Path,
    is_acyclic,
    path_range,
)
from .subtree import DirectedSubtree, build_spanning_subtree

DEFAULT_CAP = 10_000
DEFAULT_BOUND = 100

_FACTOR_RE = re.compile(r"[zZ]([1-9][0-9]*)?")

Element = tuple[int, ...]


class CapExceededError(RuntimeError):
    """The reachable part of a skew product grew past the vertex cap."""


@dataclass(frozen=True)
class GroupSpec:
    """A direct product of cyclic groups; modulus 0 marks an infinite factor."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli:
            raise ValueError("group needs at least one factor")
        if any(m < 0 for m in self.moduli):
            raise ValueError("factor moduli must be 0 (infinite) or >= 1")

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse a spec string such as ``z``, ``z3`` or ``z,z2``."""
        moduli = []
        for token in text.split(","):
            token = token.strip()
            if not _FACTOR_RE.fullmatch(token):
                raise ValueError(f"bad group factor {token!r}")
            moduli.append(int(token[1:]) if len(token) > 1 else 0)
        return cls(tuple(moduli))

    def __str__(self) -> str:
        return ",".join("z" if m == 0 else f"z{m}" for m in self.moduli)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.moduli)

    @property
    def is_finite(self) -> bool:
        return all(m > 0 for m in self.moduli)

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("group is infinite")
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def canonical(self, coords: Iterable[int]) -> Element:
        cs = tuple(coords)
        if len(cs) != len(self.moduli):
            raise ValueError(
                f"element has {len(cs)} coordinates, group has "
                f"{len(self.moduli)} factors"
            )
        return tuple(c % m if m else c for c, m in zip(cs, self.moduli))

    def op(self, a: Element, b: Element) -> Element:
        return self.canonical(x + y for x, y in zip(a, b))

    def inverse(self, a: Element) -> Element:
        return self.canonical(-x for x in a)

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic coordinate order (finite groups)."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        yield from product(*(range(m) for m in self.moduli))

    def parse_element(self, text: str) -> Element:
        try:
            coords = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise ValueError(f"bad group element {text!r}") from None
        return self.canonical(coords)

    def encode(self, a: Element) -> str:
        return ",".join(str(c) for c in a)

    def name_encode(self, a: Element) -> str:
        return ".".join(str(c) for c in a)


@dataclass(frozen=True)
class Labelling:
    """A total assignment of a group element to every edge of a host graph."""

    host: DirectedMultigraph
    group: GroupSpec
    by_edge: Mapping[str, Element]

    @classmethod
    def from_graph(cls, host: DirectedMultigraph, group: GroupSpec) -> "Labelling":
        """Read labels from the edges' label column; unlabelled means identity."""
        by_edge = {}
        for e in host.edges:
            if e.label is None:
                by_edge[e.name] = group.identity
            else:
                try:
                    by_edge[e.name] = group.parse_element(e.label)
                except ValueError as exc:
                    raise GraphFormatError(
                        f"edge {e.name!r}: {exc}"
                    ) from None
        return cls(host, group, by_edge)

    @classmethod
    def from_map(
        cls,
        host: DirectedMultigraph,
        group: GroupSpec,
        labels: Mapping[str, Iterable[int] | int],
    ) -> "Labelling":
        """Build from edge name -> coordinates; missing edges get identity.

        A key that names no edge of the host is rejected.
        """
        for name in labels:
            host.edge(name)
        by_edge = {}
        for e in host.edges:
            raw = labels.get(e.name)
            if raw is None:
                by_edge[e.name] = group.identity
            elif isinstance(raw, int):
                by_edge[e.name] = group.canonical((raw,))
            else:
                by_edge[e.name] = group.canonical(raw)
        return cls(host, group, by_edge)

    def label(self, edge_name: str) -> Element:
        self.host.edge(edge_name)
        return self.by_edge[edge_name]


def path_label(c: Labelling, mu: Path) -> Element:
    """Ordered product of the edge labels along a path; identity if empty."""
    path_range(c.host, mu)
    acc = c.group.identity
    for name in mu.edges:
        acc = c.group.op(acc, c.label(name))
    return acc


def _at(v: str, enc: str) -> str:
    return f"{v}@{enc}"


def skew_product(host: DirectedMultigraph, c: Labelling) -> DirectedMultigraph:
    """The full skew product graph for a finite group labelling.

    Vertices are pairs (v, g); the edge (e, g) runs from (s(e), c(e)+g)
    to (r(e), g).
    """
    _check_labelling(host, c)
    group = c.group
    if not group.is_finite:
        raise ValueError(
            "skew product of an infinite group is infinite; "
            "use reachable_skew"
        )
    elements = list(group.elements())
    encs = {g: group.name_encode(g) for g in elements}
    vertices = [_at(v, encs[g]) for v in host.vertices for g in elements]
    edges = []
    for e in host.edges:
        lab = c.label(e.name)
        for g in elements:
            edges.append(
                Edge(
                    _at(e.name, encs[g]),
                    _at(e.src, encs[group.op(lab, g)]),
                    _at(e.dst, encs[g]),
                )
            )
    return DirectedMultigraph(vertices, edges)


def reachable_skew(
    host: DirectedMultigraph, c: Labelling, cap: int = DEFAULT_CAP
) -> DirectedMultigraph:
    """The part of the skew product reachable from the identity fibre.

    BFS over the induced subgraph on the hereditary closure of the vertex
    set {(v, identity)}.  For a group with an infinite factor, raises
    CapExceededError once the closure needs more than ``cap`` vertices,
    which is how an infinite closure surfaces.  A finite group bounds the
    closure by |V|·|G| vertices and the cap does not apply.
    """
    _check_labelling(host, c)
    if cap < len(host.vertices):
        raise ValueError("cap must be at least the host vertex count")
    group = c.group
    if group.is_finite:
        cap = max(cap, len(host.vertices) * group.order)
    ident = group.identity

    seen: dict[tuple[str, Element], str] = {}
    order: list[str] = []
    queue: deque[tuple[str, Element]] = deque()
    for v in host.vertices:
        state = (v, ident)
        seen[state] = _at(v, group.name_encode(ident))
        order.append(seen[state])
        queue.append(state)

    edges: list[Edge] = []
    while queue:
        v, t = queue.popleft()
        src_name = seen[(v, t)]
        for e in host.out_edges(v):
            # An edge (e, s) has source (s(e), c(e)+s), so the edges leaving
            # the vertex (v, t) are those with c(e)+s = t, i.e. s = t - c(e):
            # stepping forward subtracts the label.
            s = group.op(group.inverse(c.label(e.name)), t)
            target = (e.dst, s)
            if target not in seen:
                if len(seen) + 1 > cap:
                    raise CapExceededError(
                        f"closure exceeds cap {cap}: needs more than "
                        f"{cap} vertices"
                    )
                seen[target] = _at(e.dst, group.name_encode(s))
                order.append(seen[target])
                queue.append(target)
            edges.append(
                Edge(_at(e.name, group.name_encode(s)), src_name, seen[target])
            )
    return DirectedMultigraph(order, edges)


@dataclass(frozen=True)
class KirchhoffResult:
    """Outcome of the voltage-law check, with a certificate on failure.

    On FAIL, following ``prefix`` from the identity state at ``start`` and
    then repeating ``cycle`` forever gives an infinite path whose
    accumulated label is never the identity at any step >= 1.
    """

    status: str  # "PASS" | "FAIL" | "UNKNOWN"
    start: str | None = None
    prefix: tuple[str, ...] | None = None
    cycle: tuple[str, ...] | None = None


def kirchhoff_check(
    host: DirectedMultigraph, c: Labelling, bound: int = DEFAULT_BOUND
) -> KirchhoffResult:
    """Decide whether every infinite path accumulates the identity label.

    Runs over states (vertex, accumulated label), starting from every
    (v, identity); a transition appends an edge and multiplies its label
    in.  Transitions landing on the identity are removed: the condition
    fails exactly when the remaining state graph has a reachable cycle.
    Finite groups are decided exactly.  Infinite factors are explored with
    coordinates capped at ``bound``; a transition past the bound makes a
    PASS answer unavailable (UNKNOWN), while a cycle found within the
    bound is a genuine FAIL.
    """
    _check_labelling(host, c)
    if is_acyclic(host):
        return KirchhoffResult("PASS")
    group = c.group
    ident = group.identity
    infinite = [i for i, m in enumerate(group.moduli) if m == 0]

    def in_bound(g: Element) -> bool:
        return all(abs(g[i]) <= bound for i in infinite)

    GRAY, BLACK = 1, 2
    color: dict[tuple[str, Element], int] = {}
    parent: dict[tuple[str, Element], tuple[tuple[str, Element], str]] = {}
    saw_out_of_bound = False

    def transitions(state: tuple[str, Element]):
        v, g = state
        for e in host.out_edges(v):
            g2 = group.op(g, c.label(e.name))
            if g2 == ident:
                continue
            yield e.name, (e.dst, g2)

    for v0 in host.vertices:
        s0 = (v0, ident)
        if s0 in color:
            continue
        color[s0] = GRAY
        stack = [(s0, transitions(s0))]
        while stack:
            state, it = stack[-1]
            step = next(it, None)
            if step is None:
                color[state] = BLACK
                stack.pop()
                continue
            edge_name, nxt = step
            if not in_bound(nxt[1]):
                saw_out_of_bound = True
                continue
            mark = color.get(nxt)
            if mark == GRAY:
                return _fail_certificate(parent, state, edge_name, nxt)
            if mark is None:
                color[nxt] = GRAY
                parent[nxt] = (state, edge_name)
                stack.append((nxt, transitions(nxt)))
    if saw_out_of_bound:
        return KirchhoffResult("UNKNOWN")
    return KirchhoffResult("PASS")


def _fail_certificate(parent, state, closing_edge, cycle_head):
    cycle_rev = [closing_edge]
    cur = state
    while cur != cycle_head:
        cur, edge_name = parent[cur]
        cycle_rev.append(edge_name)
    prefix_rev = []
    cur = cycle_head
    while cur in parent:
        cur, edge_name = parent[cur]
        prefix_rev.append(edge_name)
    return KirchhoffResult(
        "FAIL",
        start=cur[0],
        prefix=tuple(reversed(prefix_rev)),
        cycle=tuple(reversed(cycle_rev)),
    )


def cycle_labels_trivial(
    host: DirectedMultigraph, c: Labelling
) -> tuple[bool, tuple[str, ...] | None]:
    """Check that every directed cycle has identity label.

    Exact for any finite host: within each strongly connected component a
    potential per vertex is fitted against the edge labels; an edge the
    potentials cannot explain yields a witness cycle with non-identity
    label.
    """
    _check_labelling(host, c)
    group = c.group
    for comp in _strongly_connected_components(host):
        internal = [
            e for v in comp for e in host.out_edges(v) if e.dst in comp
        ]
        if not internal:
            continue
        base = next(v for v in host.vertices if v in comp)
        pot, fwd = _component_tree(host, comp, base, c, forward=True)
        _, bwd = _component_tree(host, comp, base, c, forward=False)
        for e in internal:
            if group.op(pot[e.src], c.label(e.name)) != pot[e.dst]:
                # One of the two closed walks below must carry a
                # non-identity label; their difference is the mismatch.
                through = fwd[e.src] + (e.name,) + bwd[e.dst]
                if path_label(c, Path(base, through)) != group.identity:
                    return False, through
                return False, fwd[e.dst] + bwd[e.dst]
    return True, None


def _component_tree(host, comp, base, c, forward):
    """BFS potentials and edge paths within one strong component.

    forward=True: pot[v] = label of the tree path base -> v, path[v] its
    edges.  forward=False: pot[v] = label of a path v -> base, path[v]
    its edges.
    """
    group = c.group
    pot = {base: group.identity}
    path: dict[str, tuple[str, ...]] = {base: ()}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        edges = host.out_edges(v) if forward else host.in_edges(v)
        for e in edges:
            w = e.dst if forward else e.src
            if w not in comp or w in pot:
                continue
            if forward:
                pot[w] = group.op(pot[v], c.label(e.name))
                path[w] = path[v] + (e.name,)
            else:
                pot[w] = group.op(c.label(e.name), pot[v])
                path[w] = (e.name,) + path[v]
            queue.append(w)
    return pot, path


def _strongly_connected_components(g: DirectedMultigraph) -> list[set[str]]:
    finish: list[str] = []
    seen: set[str] = set()
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        stack = [(v, iter(g.out_edges(v)))]
        while stack:
            u, it = stack[-1]
            step = next(it, None)
            if step is None:
                finish.append(u)
                stack.pop()
                continue
            w = step.dst
            if w not in seen:
                seen.add(w)
                stack.append((w, iter(g.out_edges(w))))
    comps: list[set[str]] = []
    assigned: set[str] = set()
    for v in reversed(finish):
        if v in assigned:
            continue
        comp = {v}
        assigned.add(v)
        work = [v]
        while work:
            u = work.pop()
            for e in g.in_edges(u):
                if e.src not in assigned:
                    assigned.add(e.src)
                    comp.add(e.src)
                    work.append(e.src)
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class FixedPointResult:
    """The three stages of the fixed-point pipeline."""

    skew: DirectedMultigraph
    tree: DirectedSubtree
    corner: CornerGraph


def fixed_point_pipeline(
    host: DirectedMultigraph, c: Labelling, cap: int = DEFAULT_CAP
) -> FixedPointResult:
    """Reachable skew product, BFS subtree rooted at the identity fibre,
    and the corner graph along it.

    The resulting corner graph presents the subalgebra of the host graph
    algebra fixed by the coaction the labelling induces.
    """
    skew = reachable_skew(host, c, cap)
    ident_enc = c.group.name_encode(c.group.identity)
    roots = [_at(v, ident_enc) for v in host.vertices]
    tree = build_spanning_subtree(skew, roots)
    return FixedPointResult(skew, tree, corner_graph(skew, tree))


def _check_labelling(host: DirectedMultigraph, c: Labelling) -> None:
    if c.host is not host and c.host != host:
        raise ValueError("labelling belongs to a different graph")
