"""Group labellings of edges, skew products, and the fixed-point pipeline.

Groups are finite direct products of cyclic factors: ``z`` (infinite) and
``z<n>`` (order n), written e.g. ``z3`` or ``z,z2``.  Elements are integer
coordinate tuples, canonical modulo each finite factor, encoded as
comma-joined decimals.  Inside vertex and edge names the coordinates are
joined with ``.`` instead, since ``,`` is outside the name alphabet.

``skew_product`` builds the full skew of a finite group from its
formula, vertex (v, g) at v*|G| + t for g the t-th element; only
``reachable_skew`` walks, breadth first from the identity fibre.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .corner import CornerGraph, corner_graph
from .multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    _Names,
    _nests,
    _strongly_connected_components,
    is_acyclic,
)
# build_spanning_subtree stays a name here: bench/tracing.py wraps it.
from .subtree import DirectedSubtree, build_spanning_subtree  # noqa: F401

DEFAULT_CAP = 10_000
DEFAULT_BOUND = 100

_FACTOR_RE = re.compile(r"[zZ]([1-9][0-9]*)?")
# At most 4,300 digits (CPython's default limit on reading an int).
_COORDINATE_RE = re.compile(r"[+-]?[0-9]{1,4300}")

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
        """Comma-joined decimal coordinates, ``[+-]?[0-9]{1,4300}`` each."""
        tokens = text.split(",")
        if not all(map(_COORDINATE_RE.fullmatch, tokens)):
            raise ValueError(f"bad group element {text!r}")
        return self.canonical(map(int, tokens))

    def encode(self, a: Element) -> str:
        return ",".join(str(c) for c in a)

    def name_encode(self, a: Element) -> str:
        return ".".join(str(c) for c in a)


class Labelling(NamedTuple):
    """A total assignment of a group element to every edge of a host graph:
    ``by_index[k]`` is the element of host edge k."""

    host: DirectedMultigraph
    group: GroupSpec
    by_index: tuple[Element, ...]

    @classmethod
    def from_graph(cls, host: DirectedMultigraph, group: GroupSpec) -> "Labelling":
        """Read labels from the edges' label column; unlabelled means identity.
        Each distinct text is parsed once; an error names its first edge."""
        labels = host._labels
        if labels is None:  # a derived graph: no edge has a label
            return cls(host, group, (group.identity,) * len(host._names))
        element: dict[str | None, Element] = {None: group.identity}
        for label in dict.fromkeys(labels):
            if label is not None:
                try:
                    element[label] = group.parse_element(label)
                except ValueError as exc:
                    name = host._names[labels.index(label)]
                    raise GraphFormatError(f"edge {name!r}: {exc}") from None
        return cls(host, group, tuple(map(element.__getitem__, labels)))

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
        by_index = []
        for name in host._names:
            raw = labels.get(name)
            if raw is None:
                by_index.append(group.identity)
            elif isinstance(raw, int):
                by_index.append(group.canonical((raw,)))
            else:
                by_index.append(group.canonical(raw))
        return cls(host, group, tuple(by_index))

    def label(self, edge_name: str) -> Element:
        k = self.host._edge_index.get(edge_name)
        if k is None:
            raise GraphFormatError(f"unknown edge {edge_name!r}")
        return self.by_index[k]


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
    """Group elements numbered as they are first met, the identity first,
    and a step table per host edge e: it maps t to the number of
    elements[t] + c(e), or - c(e) with ``negate``.  Edges with equal
    labels share a table.  Returns the elements, the tables and
    step(k, t), which fills entry t of edge k's table and returns it."""
    elements, numbers = [c.group.identity], {c.group.identity: 0}
    add = _fast_op(c.group)
    labels = c.by_index
    operand = {g: c.group.inverse(g) if negate else g for g in set(labels)}
    tables = list(map({g: {} for g in operand}.__getitem__, labels))

    def step(k: int, t: int) -> int:
        g = add(operand[labels[k]], elements[t])
        s = tables[k][t] = numbers.setdefault(g, len(elements))
        if s == len(elements):
            elements.append(g)
        return s

    return elements, tables, step


def skew_product(c: Labelling) -> DirectedMultigraph:
    """The full skew product of the labelling's host, for a finite group.

    Vertices are pairs (v, g); the edge (e, g) runs from (s(e), c(e)+g)
    to (r(e), g).  No walk is needed: with t the number of g in
    lexicographic order, (v, g) is vertex v*|G| + t and (e, g) edge
    e*|G| + t.  The names are as in ``reachable_skew``.
    """
    host, group, labels = c
    if not group.is_finite:
        raise ValueError(
            "skew product of an infinite group is infinite; "
            "use reachable_skew"
        )
    elements = list(group.elements())
    m, add = len(elements), _fast_op(group)
    numbers = dict(zip(elements, range(m)))
    # shift[g][t] is the number of g + elements[t], one list per label g.
    shift = {g: [numbers[add(g, x)] for x in elements] for g in set(labels)}
    per = range(m)
    src = [a * m + t for a, g in zip(host._src, labels) for t in shift[g]]
    dst = [b * m + t for b in host._dst for t in per]
    # Each host vertex and edge index |G| times, beside t = 0, ..., |G|-1.
    vs, se = ([i for i in range(len(x)) for _ in per]
              for x in (host.vertices, host._names))
    ts = list(per) * len(host.vertices)
    return DirectedMultigraph._from_indices(
        *_skew_names(c, elements, vs, ts, se, dst), src, dst)


def _skew_names(c, elements, vs, ts, se, dst) -> tuple:
    """The name columns of c's skew: state i is ``v@g`` for v the host
    vertex vs[i] and g the element ts[i] numbers, and edge k is ``e@g``
    for e the host edge se[k] and g the element of its range dst[k]."""
    host, encs = c.host, list(map(c.group.name_encode, elements))
    return (_Names((host.vertices, vs), (encs, ts)),
            _Names((host._names, se), (_Names((encs, ts)), dst)))


def reachable_skew(c: Labelling, cap: int = DEFAULT_CAP) -> DirectedMultigraph:
    """The part of c's skew product reachable from the identity fibre.

    BFS over the induced subgraph on the hereditary closure of the vertex
    set {(v, identity)}.  For a group with an infinite factor, raises
    CapExceededError once the closure needs more than ``cap`` vertices,
    which is how an infinite closure surfaces, and rejects a cap below
    |V|.  A finite group bounds the closure by |V|·|G| vertices and the
    cap does not apply.  States, edges and elements are numbered as
    first met; the names ``v@g`` and ``e@g`` are columns over host names
    and encodings.
    The walk also records the BFS tree of the skew from the identity
    fibre, which ``fixed_point_pipeline`` takes from ``_skew_walk``.
    """
    return _skew_walk(c, cap)[0]


def _skew_walk(c: Labelling, cap: int) -> tuple[DirectedMultigraph, list[int]]:
    """The reachable skew, and the tree edge entering each state (-1 in
    the identity fibre) that ``build_spanning_subtree`` picks from it."""
    host = c.host
    n = len(host.vertices)
    if c.group.is_finite:
        cap = n * c.group.order
    elif cap < n:
        raise ValueError("cap must be at least the host vertex count")
    # The edge (e, s) runs from (s(e), c(e)+s), so the edges leaving the
    # state (v, t) have s = t - c(e).
    elements, tables, step = _numbering(c, negate=True)
    out, ends = host._out, host._dst
    # State i is (vs[i], ts[i]), found under its packed key t*n + v; ids
    # lists the state numbers, the same int objects state_of holds.
    vs, ts = list(range(n)), [0] * n
    state_of = dict(zip(vs, vs))
    ids = vs[:]
    # The skew edge (e, s) from state i to state j, as three columns: its
    # element s is its range's.
    se, src, dst = [], [], []
    # States are numbered in BFS order.  The first edge to reach a state
    # is its parent; a later one from the level above, while the state is
    # in the next level (from lo on), takes over when its name is smaller.
    # Both end in @g, so host names with '@' decide, unless the host
    # names nest: then whole names are compared.
    names, encode = host._names, c.group.name_encode
    nested, parent, lo = _nests(names), [-1] * n, n
    for i, v, t in zip(ids, vs, ts):
        if i == lo:
            lo = len(vs)
        for k in out[v]:
            s = tables[k].get(t)
            if s is None:
                s = step(k, t)
            j = state_of.get(nxt := s * n + ends[k])
            if j is None:
                if len(vs) >= cap:
                    raise CapExceededError(
                        f"closure exceeds cap {cap}: needs more than "
                        f"{cap} vertices"
                    )
                j = state_of[nxt] = len(vs)
                ids.append(j)
                vs.append(ends[k])
                ts.append(s)
                parent.append(len(dst))
            elif j >= lo and (
                    f"{names[k]}@{encode(elements[s])}"
                    < f"{names[se[parent[j]]]}@{encode(elements[s])}"
                    if nested else
                    names[k] + "@" < names[se[parent[j]]] + "@"):
                parent[j] = len(dst)
            se.append(k)
            src.append(i)
            dst.append(j)
    return DirectedMultigraph._from_indices(
        *_skew_names(c, elements, vs, ts, se, dst), src, dst), parent


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


def kirchhoff_check(c: Labelling,
                    bound: int = DEFAULT_BOUND) -> KirchhoffResult:
    """Decide whether every infinite path of c's host accumulates the
    identity label.

    Runs over states (vertex, accumulated label), starting from every
    (v, identity); a transition appends an edge and multiplies its label
    in.  Transitions landing on the identity are removed: the condition
    fails exactly when the remaining state graph has a reachable cycle.
    Finite groups are decided exactly.  Infinite factors are explored with
    coordinates capped at ``bound``; a transition past the bound makes a
    PASS answer unavailable (UNKNOWN), while a cycle found within the
    bound is a genuine FAIL.  A negative bound is rejected.
    """
    host = c.host
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if is_acyclic(host):
        return KirchhoffResult("PASS")
    infinite = [i for i, m in enumerate(c.group.moduli) if m == 0]
    # The state (v, t) is the int t*n + v, t an element number; the
    # identity is element 0, so the start states are the vertex indices.
    elements, tables, step = _numbering(c, negate=False)
    n = len(host.vertices)
    out, ends = host._out, host._dst
    inside = [True]  # whether element t lies within the bound
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    saw_out_of_bound = False
    # Transitions onto the identity are skipped, so no state of element 0
    # is reached from another: each start state is a root, met once.
    for v0 in range(n):
        color[v0] = GRAY
        # Each frame holds a state, its element, its unread out-edges and
        # the edge that entered it: the stack is the path from v0.
        stack = [(v0, 0, iter(out[v0]), None)]
        while stack:
            state, t, it, _ = stack[-1]
            for k in it:
                s = tables[k].get(t)
                if s is None:
                    s = step(k, t)
                    if s == len(inside):
                        inside.append(all(abs(elements[s][i]) <= bound
                                          for i in infinite))
                if not s:
                    continue
                if not inside[s]:
                    saw_out_of_bound = True
                    continue
                nxt = s * n + ends[k]
                mark = color.get(nxt)
                if mark == GRAY:
                    # nxt is on the stack: the edges entering the frames,
                    # then k, walk from v0 to nxt and round a cycle to it.
                    names = host._names
                    walk = [names[f[3]] for f in stack[1:]] + [names[k]]
                    i = [f[0] for f in stack].index(nxt)
                    return KirchhoffResult("FAIL", host.vertices[v0],
                                           tuple(walk[:i]), tuple(walk[i:]))
                if mark is None:
                    color[nxt] = GRAY
                    stack.append((nxt, s, iter(out[ends[k]]), k))
                    break
            else:
                color[state] = BLACK
                stack.pop()
    if saw_out_of_bound:
        return KirchhoffResult("UNKNOWN")
    return KirchhoffResult("PASS")


def cycle_labels_trivial(c: Labelling) -> tuple[bool, tuple[str, ...] | None]:
    """Check that every directed cycle of c's host has identity label.

    Exact for any finite host: within each strongly connected component a
    potential per vertex is fitted against the edge labels; an edge the
    potentials cannot explain yields a witness cycle with non-identity
    label.
    """
    host, group, labels = c
    add = _fast_op(group)
    src, dst = host._src, host._dst
    for comp in _strongly_connected_components(host):
        internal = [
            k for v in sorted(comp) for k in host._out[v] if dst[k] in comp
        ]
        if not internal:
            continue
        base = min(comp)
        pot, fwd = _component_tree(c, comp, base, True)
        for k in internal:
            via = add(pot[src[k]], labels[k])
            if via != pot[dst[k]]:
                # The tree walks base -> s(k) -k-> r(k) -> base and base ->
                # r(k) -> base differ in label by the mismatch, so one of
                # them, the witness, has a non-identity label.
                back, bwd = _component_tree(c, comp, base, False)
                if add(via, back[dst[k]]) != group.identity:
                    head = _tree_walk(fwd, src, src[k], base)[::-1] + [k]
                else:
                    head = _tree_walk(fwd, src, dst[k], base)[::-1]
                walk = head + _tree_walk(bwd, dst, dst[k], base)
                return False, tuple(host._names[j] for j in walk)
    return True, None


def _component_tree(c, comp, base, forward):
    """BFS potentials within one strong component of c's host and the tree
    edge par[v] reaching each vertex, keyed by vertex index: pot[v] is the
    label of the tree path base -> v, or with forward=False of v -> base."""
    host, group, labels = c
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


def fixed_point_pipeline(c: Labelling,
                         cap: int = DEFAULT_CAP) -> FixedPointResult:
    """Reachable skew product of c, BFS subtree rooted at the identity
    fibre, and the corner graph along it.

    The resulting corner graph presents the subalgebra of the host graph
    algebra fixed by the coaction the labelling induces.  The tree comes
    from the skew walk, which records it as it goes: the same tree as
    ``build_spanning_subtree``'s, with no second pass over the skew.
    """
    skew, parent = _skew_walk(c, cap)
    # The walk visits every state, parents first, in state order.
    tree = DirectedSubtree(skew, parent, range(len(parent)))
    tree.__dict__["_order"] = tree.spanned_indices
    return FixedPointResult(skew, tree, corner_graph(tree))
