"""Group labellings of edges, skew products, and the fixed-point pipeline.

Groups are finite direct products of cyclic factors: ``z`` (infinite) and
``z<n>`` (order n), written e.g. ``z3`` or ``z,z2``.  Elements are integer
coordinate tuples, canonical modulo each finite factor, encoded as
comma-joined decimals.  Inside vertex and edge names the coordinates are
joined with ``.`` instead, since ``,`` is outside the name alphabet.

``skew_product`` and ``reachable_skew`` share one breadth-first walk over
the skew states (v, g): from every state, or from the identity fibre.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .corner import CornerGraph, corner_graph
from .multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    Path,
    _strongly_connected_components,
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


class GroupSpec(NamedTuple("GroupSpec", [("moduli", tuple[int, ...])])):
    """A direct product of cyclic groups; modulus 0 marks an infinite factor."""

    __slots__ = ()

    def __new__(cls, moduli: tuple[int, ...]) -> "GroupSpec":
        if not moduli:
            raise ValueError("group needs at least one factor")
        if any(m < 0 for m in moduli):
            raise ValueError("factor moduli must be 0 (infinite) or >= 1")
        return super().__new__(cls, moduli)

    @classmethod
    def _make(cls, iterable) -> "GroupSpec":  # _replace builds through it
        return cls(*iterable)

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


class Labelling(NamedTuple):
    """A total assignment of a group element to every edge of a host graph."""

    host: DirectedMultigraph
    group: GroupSpec
    by_edge: Mapping[str, Element]

    @classmethod
    def from_graph(cls, host: DirectedMultigraph, group: GroupSpec) -> "Labelling":
        """Read labels from the edges' label column; unlabelled means identity.
        Each distinct text is parsed once; an error names its first edge."""
        labels = host._labels
        element: dict[str | None, Element] = {None: group.identity}
        for label in dict.fromkeys(labels):
            if label is not None:
                try:
                    element[label] = group.parse_element(label)
                except ValueError as exc:
                    name = host._names[labels.index(label)]
                    raise GraphFormatError(f"edge {name!r}: {exc}") from None
        return cls(host, group,
                   dict(zip(host._names, map(element.__getitem__, labels))))

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
        for name in host._names:
            raw = labels.get(name)
            if raw is None:
                by_edge[name] = group.identity
            elif isinstance(raw, int):
                by_edge[name] = group.canonical((raw,))
            else:
                by_edge[name] = group.canonical(raw)
        return cls(host, group, by_edge)

    def label(self, edge_name: str) -> Element:
        self.host.edge(edge_name)
        return self.by_edge[edge_name]


def path_label(c: Labelling, mu: Path) -> Element:
    """Ordered product of the edge labels along a path; identity if empty."""
    path_range(c.host, mu)
    acc = c.group.identity
    for name in mu.edges:
        acc = c.group.op(acc, c.by_edge[name])
    return acc


def _fast_op(group: GroupSpec) -> Callable[[Element, Element], Element]:
    """``group.op`` for canonical elements, without the checks of
    ``canonical``; the skew and Kirchhoff inner loops call it."""
    moduli = group.moduli
    if moduli == (0,):
        return lambda a, b: (a[0] + b[0],)
    if len(moduli) == 1:
        m = moduli[0]
        return lambda a, b: ((a[0] + b[0]) % m,)
    return lambda a, b: tuple(
        (x + y) % m if m else x + y for x, y, m in zip(a, b, moduli)
    )


def _numbering(c: Labelling, negate: bool) -> tuple:
    """Group elements numbered as they are first met, the identity first.

    Returns the list of elements, the function that numbers an element
    and, per host vertex v, a tuple (e, range of e, operand, table) per
    edge e leaving v: the operand is c(e), or -c(e) with ``negate``, and
    the table maps t to the number of elements[t] + operand, filled by
    the caller on first use.  Edges with equal labels share the last two.
    """
    elements: list[Element] = [c.group.identity]
    numbers: dict[Element, int] = {c.group.identity: 0}

    def number(g: Element) -> int:
        i = numbers.setdefault(g, len(elements))
        if i == len(elements):
            elements.append(g)
        return i

    pairs = {label: (c.group.inverse(label) if negate else label, {})
             for label in set(c.by_edge.values())}
    steps = [pairs[c.by_edge[e]] for e in c.host._names]
    return elements, number, [[(k, c.host._dst[k], *steps[k]) for k in ks]
                              for ks in c.host._out]


def skew_product(host: DirectedMultigraph, c: Labelling) -> DirectedMultigraph:
    """The full skew product graph for a finite group labelling.

    Vertices are pairs (v, g); the edge (e, g) runs from (s(e), c(e)+g)
    to (r(e), g).  Vertices are ordered by v, then g; edges by e, then g.
    """
    _check_labelling(host, c)
    group = c.group
    if not group.is_finite:
        raise ValueError(
            "skew product of an infinite group is infinite; "
            "use reachable_skew"
        )
    elements = list(group.elements())
    seeds = [(v, g) for v in range(len(host.vertices)) for g in elements]
    # The seeds number the elements in lexicographic order, so sorting by
    # (host edge, element number) sorts by (e, g).
    return _explore(host, c, seeds, len(seeds), by_edge=True)


def reachable_skew(
    host: DirectedMultigraph, c: Labelling, cap: int = DEFAULT_CAP
) -> DirectedMultigraph:
    """The part of the skew product reachable from the identity fibre.

    BFS over the induced subgraph on the hereditary closure of the vertex
    set {(v, identity)}.  For a group with an infinite factor, raises
    CapExceededError once the closure needs more than ``cap`` vertices,
    which is how an infinite closure surfaces, and rejects a cap below
    |V|.  A finite group bounds the closure by |V|·|G| vertices and the
    cap does not apply.
    """
    _check_labelling(host, c)
    group = c.group
    if group.is_finite:
        cap = len(host.vertices) * group.order
    elif cap < len(host.vertices):
        raise ValueError("cap must be at least the host vertex count")
    seeds = [(v, group.identity) for v in range(len(host.vertices))]
    return _explore(host, c, seeds, cap)


def _explore(
    host: DirectedMultigraph, c: Labelling, seeds: list, cap: int,
    by_edge: bool = False,
) -> DirectedMultigraph:
    """The skew graph found by a breadth-first walk over the skew states
    (v, g) from ``seeds``, given as (vertex index, element) pairs.

    States are numbered in discovery order; elements in the order they
    are first met, seeds first.  Skew edges come in the order their
    sources are dequeued, or sorted by (host edge, element number) with
    ``by_edge``.  Needing more than ``cap`` states raises
    CapExceededError.
    """
    # The edge (e, s) runs from (s(e), c(e)+s), so the edges leaving the
    # state (v, t) have s = t - c(e).
    elements, number, out = _numbering(c, negate=True)
    add = _fast_op(c.group)
    n = len(host.vertices)
    states = [(v, number(g)) for v, g in seeds]
    state_of = {t * n + v: i for i, (v, t) in enumerate(states)}
    edges: list[tuple[int, int, int, int]] = []
    for i, (v, t) in enumerate(states):
        for k, w, step, table in out[v]:
            s = table.get(t)
            if s is None:
                s = table[t] = number(add(step, elements[t]))
            j = state_of.get(s * n + w)
            if j is None:
                if len(states) >= cap:
                    raise CapExceededError(
                        f"closure exceeds cap {cap}: needs more than "
                        f"{cap} vertices"
                    )
                j = state_of[s * n + w] = len(states)
                states.append((w, s))
            edges.append((k, s, i, j))
    if by_edge:
        edges.sort()
    encs = list(map(c.group.name_encode, elements))
    vs, names = host.vertices, host._names
    return DirectedMultigraph._from_indices(
        [f"{vs[v]}@{encs[t]}" for v, t in states],
        [f"{names[k]}@{encs[s]}" for k, s, _, _ in edges],
        [e[2] for e in edges], [e[3] for e in edges],
    )


class KirchhoffResult(NamedTuple):
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
    bound is a genuine FAIL.  A negative bound is rejected.
    """
    _check_labelling(host, c)
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if is_acyclic(host):
        return KirchhoffResult("PASS")
    infinite = [i for i, m in enumerate(c.group.moduli) if m == 0]
    # The state (v, t) is the int t*n + v, t an element number; the
    # identity is element 0, so the start states are the vertex indices.
    elements, number, out = _numbering(c, negate=False)
    add = _fast_op(c.group)
    n = len(host.vertices)
    inside = [True]  # whether element t lies within the bound
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    parent: dict[int, tuple[int, int]] = {}  # state -> (state, edge)
    saw_out_of_bound = False
    for v0 in range(n):
        if v0 in color:
            continue
        color[v0] = GRAY
        # Each frame holds a state, its element and its unread out-edges.
        stack = [(v0, 0, iter(out[v0]))]
        while stack:
            state, t, it = stack[-1]
            for k, w, step, table in it:
                s = table.get(t)
                if s is None:
                    s = table[t] = number(add(step, elements[t]))
                    if s == len(inside):
                        inside.append(all(abs(elements[s][i]) <= bound
                                          for i in infinite))
                if not s:
                    continue
                if not inside[s]:
                    saw_out_of_bound = True
                    continue
                nxt = s * n + w
                mark = color.get(nxt)
                if mark == GRAY:
                    return _fail_certificate(host, parent, state, k, nxt)
                if mark is None:
                    color[nxt] = GRAY
                    parent[nxt] = (state, k)
                    stack.append((nxt, s, iter(out[w])))
                    break
            else:
                color[state] = BLACK
                stack.pop()
    if saw_out_of_bound:
        return KirchhoffResult("UNKNOWN")
    return KirchhoffResult("PASS")


def _fail_certificate(host, parent, state, closing_edge, cycle_head):
    names = host._names
    cycle_rev = [names[closing_edge]]
    cur = state
    while cur != cycle_head:
        cur, k = parent[cur]
        cycle_rev.append(names[k])
    prefix_rev = []
    cur = cycle_head
    while cur in parent:
        cur, k = parent[cur]
        prefix_rev.append(names[k])
    return KirchhoffResult(
        "FAIL",
        start=host.vertices[cur],  # a start state is its vertex index
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
    add = _fast_op(c.group)
    labels = list(map(c.by_edge.__getitem__, host._names))
    src, dst = host._src, host._dst
    for comp in _strongly_connected_components(host):
        internal = [
            k for v in sorted(comp) for k in host._out[v] if dst[k] in comp
        ]
        if not internal:
            continue
        base = min(comp)
        pot, fwd = _component_tree(host, comp, base, labels, c.group, True)
        for k in internal:
            via = add(pot[src[k]], labels[k])
            if via != pot[dst[k]]:
                # The tree walks base -> s(k) -k-> r(k) -> base and base ->
                # r(k) -> base differ in label by the mismatch, so one of
                # them, the witness, has a non-identity label.
                back, bwd = _component_tree(host, comp, base, labels,
                                            c.group, False)
                if add(via, back[dst[k]]) != c.group.identity:
                    head = _tree_walk(fwd, src, src[k], base)[::-1] + [k]
                else:
                    head = _tree_walk(fwd, src, dst[k], base)[::-1]
                walk = head + _tree_walk(bwd, dst, dst[k], base)
                return False, tuple(host._names[j] for j in walk)
    return True, None


def _component_tree(host, comp, base, labels, group, forward):
    """BFS potentials within one strong component and the tree edge par[v]
    that reached each vertex, keyed by vertex index: pot[v] is the label of
    the tree path base -> v, or with forward=False of v -> base."""
    add = _fast_op(group)
    adjacent, far = (
        (host._out, host._dst) if forward else (host._in, host._src)
    )
    pot = {base: group.identity}
    par: dict[int, int] = {}
    queue = [base]
    for v in queue:
        for k in adjacent[v]:
            w = far[k]
            if w not in comp or w in pot:
                continue
            pot[w] = add(pot[v], labels[k])
            par[w] = k
            queue.append(w)
    return pot, par


def _tree_walk(par, ends, v, base):
    """The tree edges from v to base: par[v], then on from its end."""
    walk = []
    while v != base:
        walk.append(k := par[v])
        v = ends[k]
    return walk


class FixedPointResult(NamedTuple):
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
    # The identity fibre: the skew's first vertices, one per host vertex.
    tree = build_spanning_subtree(skew, range(len(host.vertices)),
                                  indices=True)
    return FixedPointResult(skew, tree, corner_graph(skew, tree))


def _check_labelling(host: DirectedMultigraph, c: Labelling) -> None:
    if c.host is not host and c.host != host:
        raise ValueError("labelling belongs to a different graph")
