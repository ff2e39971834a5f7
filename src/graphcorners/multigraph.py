"""Finite directed multigraphs with named vertices and edges.

The graph file format is line oriented (UTF-8):

    # comment lines and blank lines are ignored
    vertex NAME
    edge NAME SRC DST [LABEL]

Names match ``[A-Za-z0-9_@.-]+``.  Edge endpoints must be declared before
the edge line that uses them.  The optional LABEL column is kept verbatim
on the edge; it is interpreted by the labelling module.  A file is
checked as columns, a block of lines at a time; only a faulty file is
read again, line by line, to name its first faulty line.

A graph is integer indexed inside; the library's algorithms run on the
indices, and names appear only at the boundary: parsing, printing,
errors and the public API.
"""

from __future__ import annotations

import re
from itertools import chain, compress, count, islice, repeat, zip_longest
from operator import add, eq, ge, itemgetter, sub
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9_@.-]+")

# Entries per block: output is written, and the parts of derived names
# are gathered, a block at a time, so neither is held whole.
_BLOCK = 1024
# Lines per block of input, split and checked at once: a block's token
# lists take about 0.3 MB.
_PARSE_BLOCK = 512


class GraphFormatError(ValueError):
    """Raised for malformed graph files or inconsistent graph data."""


class Edge(NamedTuple):
    name: str
    src: str
    dst: str
    label: str | None = None


def _blocks(table: Sequence, columns: tuple[Sequence[int], ...]
            ) -> Iterator[list]:
    """The entries table[columns[-1][...columns[0][i]]], in lists of
    ``_BLOCK``, in order of i.

    The table is first composed, into a list of references, with each
    innermost column shorter than columns[0]; each block is then
    gathered at once, which costs less than chained lookups.
    """
    head, *inner = columns
    while inner and len(inner[-1]) < len(head):
        table = list(map(table.__getitem__, inner.pop()))
    for start in range(0, len(head), _BLOCK):
        indices = head[start:start + _BLOCK]
        for column in inner:
            indices = [column[i] for i in indices]
        yield [table[i] for i in indices]


def _read(table: Sequence, columns: tuple[Sequence[int], ...]) -> Iterator:
    """The entries of ``_blocks`` one by one."""
    return chain.from_iterable(_blocks(table, columns))


class _Names(Sequence):
    """A read-only column of derived names, each formatted when read.

    ``_Names((seq, idx), ...)`` is the column whose name i joins
    seq[idx[i]] over the pairs given, with '@': a skew vertex joins a
    host vertex and an element encoding, a corner edge a host edge and a
    kept vertex.  A seq that is itself a column gives its own parts, each
    read through idx first, so restricting a column makes no string.
    Each part of a name is thus an entry of a plain table of distinct
    strings (host names, element encodings) read through a chain of
    index columns.  ``_last`` keeps the last pair given.  A column
    compares equal to a tuple, list or column of the same names.
    """

    __slots__ = ("_parts", "_len", "_last")

    def __init__(self, *pairs: tuple[Sequence[str], Sequence[int]]) -> None:
        self._parts = tuple(
            (table, (idx, *columns))
            for seq, idx in pairs
            for table, columns in (
                seq._parts if isinstance(seq, _Names) else [(seq, ())])
        )
        self._len, self._last = len(pairs[0][1]), pairs[-1]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[str]:
        return map("@".join, zip(
            *(_read(table, columns) for table, columns in self._parts)))

    def __getitem__(self, i):
        i = range(self._len)[i]
        if isinstance(i, range):
            return _Names((self, i))
        parts = []
        for table, columns in self._parts:
            x = i
            for column in columns:
                x = column[x]
            parts.append(table[x])
        return "@".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (type(self), _Names, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(tuple(self))

    def order_key(self) -> list[int]:
        """Integer keys, one per name, in the str order of the names.

        Each part adds its string's rank in its table, the string taken
        with a trailing '@' in every part but the last.  That orders the
        names exactly when no such table ``_nests``; otherwise the
        formatted names are ranked instead.
        """
        key, weight = None, 1
        for p, (table, columns) in enumerate(reversed(self._parts)):
            if p and _nests(table):
                return _Names((list(self), range(self._len))).order_key()
            strings = [s + "@" for s in table] if p else table
            order = sorted(range(len(table)), key=strings.__getitem__)
            rank = [0] * len(table)
            for r, x in enumerate(order):
                rank[x] = r * weight
            column = _read(rank, columns)
            key = column if key is None else map(add, key, column)
            weight *= len(table)
        return list(key)


def _nests(table: Sequence[str]) -> bool:
    """Whether some s + '@' begins another t + '@', s and t in the table:
    only if it holds an '@', and then for two neighbours once sorted."""
    if "@" not in "".join(table):
        return False
    strings = sorted(s + "@" for s in table)
    return any(map(str.startswith, strings[1:], strings))


def _order_key(names: Sequence[str]) -> Sequence:
    """Keys in the str order of names: a column's ``order_key``, and
    plain names themselves."""
    return names.order_key() if isinstance(names, _Names) else names


class DirectedMultigraph:
    """Immutable directed multigraph; parallel edges and loops allowed.

    Vertices and edges are indices in the insertion order of their
    source, and all queries iterate in that order, so downstream
    constructions are deterministic.  ``vertices`` holds the names, edge
    columns hold each edge's name, source index, range index and label,
    and ``_out[v]``/``_in[v]`` list the edges leaving and entering v.  The
    names are read-only sequences: a tuple of vertex names and a list of
    edge names as given, or for a derived graph ``_Names`` columns.  The
    library works on indices; ``Edge`` objects are made on request only.
    The public constructor checks every item in one pass (names,
    endpoints, each edge item's shape and label); ``parse_graph``, which
    checks whole columns of the file's lines, and graphs derived from a
    valid graph build through the trusted ``_from_indices``, which
    checks nothing.  The name indexes are built on first use.
    """

    __slots__ = ("vertices", "_index", "_names", "_src", "_dst", "_labels",
                 "_edge_index", "_out", "_in")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Edge | tuple | list] = (),
    ) -> None:
        self.vertices: tuple[str, ...] = tuple(vertices)
        self._index, rows = _check_items(self.vertices, list(edges))
        self._names, self._labels = [r[0] for r in rows], [r[3] for r in rows]
        self._src = [self._index[r[1]] for r in rows]
        self._dst = [self._index[r[2]] for r in rows]

    @classmethod
    def _from_indices(cls, vertices, names, src, dst, labels=None):
        """The trusted constructor: endpoints are vertex indices, and the
        name sequences are stored as they are, unchecked.  ``parse_graph``
        checks its columns first; the library's own names are unique by
        construction: a skew name ``v@g`` or ``e@g`` splits uniquely at
        its last '@', since no element encoding holds one, corner edge
        names go through ``corner._unclash``, and the CLI's ``--relabel``
        names ``v{i}``/``e{k}`` are positional."""
        g = cls.__new__(cls)
        g.vertices, g._names, g._src, g._dst = vertices, names, src, dst
        g._labels = labels  # None: no edge has a label
        return g

    def __getattr__(self, name: str) -> dict[str, int] | list[list[int]]:
        # The name indexes and adjacency lists are each built on first use:
        # a printed graph needs none of them, and a skew product only _out,
        # which reachable_skew's walk hands over as ranges.
        if name in ("_index", "_edge_index"):
            items = self.vertices if name == "_index" else self._names
            value = dict(zip(items, range(len(items))))
        elif name in ("_out", "_in"):
            value = [[] for _ in range(len(self.vertices))]
            for k, v in enumerate(self._src if name == "_out" else self._dst):
                value[v].append(k)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedMultigraph):
            return NotImplemented
        return self._columns() == other._columns()

    def _columns(self) -> tuple:
        return (self.vertices, self._names, self._src, self._dst,
                self._labels or [None] * len(self._names))

    def __repr__(self) -> str:
        return (
            f"DirectedMultigraph({len(self.vertices)} vertices, "
            f"{len(self._names)} edges)"
        )

    def _edge(self, k: int) -> Edge:
        vs = self.vertices
        return Edge(self._names[k], vs[self._src[k]], vs[self._dst[k]],
                    self._labels[k] if self._labels else None)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges, in insertion order."""
        vs = list(self.vertices)
        return tuple(map(Edge, self._names, map(vs.__getitem__, self._src),
                         map(vs.__getitem__, self._dst),
                         self._labels or repeat(None)))

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def edge(self, name: str) -> Edge:
        return self._edge(self._require_edge(name))

    def has_edge(self, name: str) -> bool:
        return name in self._edge_index

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """All edges with source v, in insertion order."""
        return tuple(map(self._edge, self._out[self._require_vertex(v)]))

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """All edges with range v, in insertion order."""
        return tuple(map(self._edge, self._in[self._require_vertex(v)]))

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v, out in zip(self.vertices, self._out) if not out)

    def _require_vertex(self, v: str) -> int:
        """The index of vertex v."""
        i = self._index.get(v)
        if i is None:
            raise GraphFormatError(f"unknown vertex {v!r}")
        return i

    def _require_edge(self, name: str) -> int:
        """The index of the edge with this name."""
        k = self._edge_index.get(name)
        if k is None:
            raise GraphFormatError(f"unknown edge {name!r}")
        return k


def _check_item(
    name: str,
    kind: str,
    taken: Container[str],
    endpoints: Iterable[str] = (),
    vertices: Container[str] = (),
) -> None:
    """Check one vertex or edge before it joins a graph: its name is well
    formed and not in ``taken``, and its endpoints are in ``vertices``."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise GraphFormatError(f"invalid {kind} name {name!r}")
    if name in taken:
        raise GraphFormatError(f"duplicate {kind} name {name!r}")
    for endpoint in endpoints:
        if not isinstance(endpoint, str) or endpoint not in vertices:
            raise GraphFormatError(
                f"edge {name!r}: endpoint {endpoint!r} undeclared"
            )


def _check_items(vertices: Sequence, items: list) -> tuple[dict, list]:
    """Raise for the first bad item: vertices first, then each edge item's
    shape, name, endpoints and label, in order.  Return each vertex's
    index by name, and the edge rows."""
    index: dict[str, int] = {}
    for v in vertices:
        _check_item(v, "vertex", index)
        index[v] = len(index)
    taken: set[str] = set()
    rows = []
    for e in items:
        if not isinstance(e, (tuple, list)) or not 3 <= len(e) <= 4:
            raise GraphFormatError(f"invalid edge item {e!r}: expected "
                                   f"(NAME, SRC, DST[, LABEL])")
        name, _, _, label = row = (*e, None)[:4]
        _check_item(name, "edge", taken, row[1:3], index)
        if label is not None and not (
                isinstance(label, str) and label.split() == [label]):
            raise GraphFormatError(f"edge {name!r}: invalid label {label!r}")
        taken.add(name)
        rows.append(row)
    return index, rows


def parse_graph(text: str) -> DirectedMultigraph:
    """Parse graph-file content; errors report the offending line number.

    A line ends at a line feed, a carriage return, or the two together,
    and nowhere else: the other breaks of ``str.splitlines``, such as a
    form feed, are whitespace within a line.  The lines are split and
    checked as columns, a block of ``_PARSE_BLOCK`` at a time; if a check
    fails, ``linepass.line_pass`` names the first faulty line, reading
    from that block on with the names the blocks above it declared.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    vertices, edges, src, dst, labels = {}, {}, [], [], []
    for start in range(0, len(lines), _PARSE_BLOCK):
        rows = list(filter(None, map(
            str.split, lines[start:start + _PARSE_BLOCK])))
        heads = list(map(itemgetter(0), rows))
        nv, n, m, late = heads.count("vertex"), len(vertices), len(src), ()
        if nv + heads.count("edge") < len(rows):
            rows = [r for r in rows if r[0][0] != "#"]
            heads = list(map(itemgetter(0), rows))
            if nv + heads.count("edge") < len(rows):
                break
        if nv < len(rows) and heads.index("edge") < nv:
            # Edge k, in row p, has n + p - k vertices above it.  A stable
            # sort puts the vertex rows first.
            late = list(map(sub, compress(count(n), map(
                eq, heads, repeat("edge"))), count()))
            rows.sort(key=itemgetter(0), reverse=True)
        vs = list(zip_longest(*rows[:nv])) or [(), ()]
        es = list(zip_longest(*rows[nv:])) or [()] * 4
        if (len(vs) != 2 or len(es) not in (4, 5) or None in vs[1] + es[3]
                or rows and not NAME_RE.fullmatch("".join(vs[1] + es[1]))):
            break
        vertices.update(zip(vs[1], count(n)))
        edges.update(dict.fromkeys(es[1]))
        s, d = [list(map(vertices.get, c)) for c in es[2:4]]
        src += s
        dst += d
        labels += es[4] if len(es) == 5 else [None] * len(s)
        if (None in s + d or any(map(ge, s + d, late * 2))
                or len(vertices) != n + nv or len(edges) != len(src)):
            break
    else:
        g = DirectedMultigraph._from_indices(tuple(vertices), list(edges),
                                             src, dst, labels)
        g._index = vertices
        return g
    from .linepass import line_pass  # only a faulty file needs it

    line_pass(lines, start, islice(vertices, n), islice(edges, m))
    raise AssertionError("column checks refused a valid file")


def _lines(*fields: str | Sequence[str]) -> str:
    """A block of lines, joined at once: line i is the concatenation of
    the fields, each str as it is and each sequence by its i-th item."""
    count = len(next(f for f in fields if not isinstance(f, str)))
    pieces = [f if isinstance(f, str) else None for f in fields] * count
    for j, field in enumerate(fields):
        if not isinstance(field, str):
            pieces[j::len(fields)] = field
    return "".join(pieces)


def _name_fields(names: Sequence[str], lead: int | None = None
                 ) -> Iterator[list]:
    """Per block of ``_BLOCK`` names, the fields of ``_lines`` that spell
    them: a column's parts (its first ``lead`` if given), each a list,
    with '@' between them, or the block of names itself."""
    if not isinstance(names, _Names):
        return ([names[start:start + _BLOCK]]
                for start in range(0, len(names), _BLOCK))
    return ([field for part in parts for field in ("@", part)][1:]
            for parts in zip(*(_blocks(table, columns)
                               for table, columns in names._parts[:lead])))


def _graph_blocks(g: DirectedMultigraph) -> Iterator[str]:
    """The graph file format of g, in blocks of ``_BLOCK`` lines; a range
    name that ends its edge's name is gathered once for both."""
    vs, src, dst, labels = list(g.vertices), g._src, g._dst, g._labels
    tails = {x: "\n" if x is None else f" {x}\n"
             for x in (set(labels) if labels else (None,))}
    tail = tails.popitem()[1] if len(tails) == 1 else None
    for start in range(0, len(vs), _BLOCK):
        yield _lines("vertex ", vs[start:start + _BLOCK], "\n")
    seq, idx = getattr(g._names, "_last", (None, None))
    lead = (len(g._names._parts) - len(_Names((seq, idx))._parts) or None
            if seq is g.vertices and idx is dst else None)
    for start, name in zip(range(0, len(src), _BLOCK),
                           _name_fields(g._names, lead)):
        stop = start + _BLOCK
        ranges = [vs[v] for v in dst[start:stop]]
        yield _lines("edge ", *name, *(("@", ranges) if lead else ()),
                     " ", [vs[v] for v in src[start:stop]], " ", ranges,
                     tail or [tails[x] for x in labels[start:stop]])


def _dot_blocks(g: DirectedMultigraph) -> Iterator[str]:
    """The DOT export of g, in blocks of ``_BLOCK`` lines."""
    vs, src, dst = list(g.vertices), g._src, g._dst
    yield "digraph G {\n"
    order = _name_order(vs)
    for start in range(0, len(order), _BLOCK):
        yield _lines('  "', [vs[v] for v in order[start:start + _BLOCK]],
                     '";\n')
    names = g._names if isinstance(g._names, _Names) else list(g._names)
    order = _name_order(names)
    for start, name in zip(range(0, len(order), _BLOCK),
                           _name_fields(_Names((names, order)))):
        ks = order[start:start + _BLOCK]
        yield _lines('  "', [vs[src[k]] for k in ks],
                     '" -> "', [vs[dst[k]] for k in ks],
                     '" [label="', *name, '"];\n')
    yield "}\n"


def _name_order(names: Sequence[str]) -> list[int]:
    """The indices of names in the str order of the names.  A column's
    keys take their index as a last digit, are sorted, and are turned
    into those indices in place: no list is made but the keys."""
    if not isinstance(names, _Names):
        return sorted(range(len(names)), key=names.__getitem__)
    order = names.order_key()
    n = len(order)
    blocks = [slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)]
    for b in blocks:
        order[b] = [k * n + i for i, k in enumerate(order[b], b.start)]
    order.sort()
    for b in blocks:
        order[b] = [k % n for k in order[b]]
    return order


def serialize_graph(g: DirectedMultigraph) -> str:
    """Emit the graph file format; parse(serialize(g)) == g."""
    return "".join(_graph_blocks(g))


def to_dot(g: DirectedMultigraph) -> str:
    """DOT export, one arrow per parallel edge, sorted for stable diffs."""
    return "".join(_dot_blocks(g))


def _kahn(out: Sequence[Sequence[int]], ends: Sequence[int]) -> list[int]:
    """Kahn's algorithm over the nodes 0..n-1, given each node's edges
    in ``out`` and each edge's far end in ``ends``.

    Returns the nodes in topological order; on a cycle the list stops
    short of the nodes on or behind it.
    """
    indeg = [0] * len(out)
    for ks in out:
        for k in ks:
            indeg[ends[k]] += 1
    order = [v for v, d in enumerate(indeg) if d == 0]
    for v in order:
        for k in out[v]:
            indeg[w := ends[k]] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order


def is_acyclic(g: DirectedMultigraph) -> bool:
    """True iff the graph contains no directed cycle."""
    return len(_kahn(g._out, g._dst)) == len(g.vertices)


def _distances(g: DirectedMultigraph, roots: Iterable[int]) -> dict[int, int]:
    """Shortest path length from the root indices to each reachable vertex
    index, in breadth-first discovery order."""
    dist = dict.fromkeys(roots, 0)
    queue = list(dist)
    for v in queue:
        d = dist[v] + 1
        for k in g._out[v]:
            w = g._dst[k]
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return dist


def bfs_distances(
    g: DirectedMultigraph, roots: Iterable[str]
) -> dict[str, int]:
    """Shortest path length from the root set to each reachable vertex."""
    dist = _distances(g, map(g._require_vertex, roots))
    return {g.vertices[i]: d for i, d in dist.items()}


def _strong_components(g: DirectedMultigraph) -> tuple[list[int], int]:
    """Each vertex's strong component number, and the number of
    components.  One iterative pass of Tarjan's search, from the roots
    0, 1, ... and along the out-edges in order; the components are
    numbered in reverse of the order it completes them, so that every
    edge runs to an equal or higher number."""
    out, dst = g._out, g._dst
    n = len(g.vertices)
    # low[v] is 0 before v is met, then the least discovery number v
    # reaches on the search's stack, then n + 1 once its component is.
    low, comp, path = [0] * n, [0] * n, []
    met = count = 0
    for root in range(n):
        if low[root]:
            continue
        met += 1
        low[root] = met
        path.append(root)
        frames = [(root, met, iter(out[root]))]
        while frames:
            v, d, it = frames[-1]
            for k in it:
                w = dst[k]
                if not low[w]:
                    met += 1
                    low[w] = met
                    path.append(w)
                    frames.append((w, met, iter(out[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                frames.pop()
                if low[v] == d:  # v is the first met of its component
                    count += 1
                    w = -1
                    while w != v:
                        w = path.pop()
                        low[w], comp[w] = n + 1, count
                elif low[v] < low[u := frames[-1][0]]:
                    low[u] = low[v]
    return [count - x for x in comp], count


def hereditary_closure(g: DirectedMultigraph, X: Iterable[str]) -> set[str]:
    """Smallest hereditary (forward-closed) vertex set containing X."""
    return set(bfs_distances(g, X))


def relabelled(
    g: DirectedMultigraph,
    vertex_map: dict[str, str],
    edge_map: dict[str, str] | None = None,
) -> DirectedMultigraph:
    """Rename vertices (and optionally edges), preserving order and labels.

    The first vertex left unmapped, then the first edge-map key that
    names no edge, is rejected; the new names then go through the public
    constructor, which names the first malformed or repeated one.
    """
    if missing := [v for v in g.vertices if v not in vertex_map]:
        raise GraphFormatError(f"vertex {missing[0]!r} has no new name")
    emap = edge_map or {}
    for name in emap:
        g._require_edge(name)
    vs = [vertex_map[v] for v in g.vertices]
    return DirectedMultigraph(vs, zip(
        [emap.get(name, name) for name in g._names],
        map(vs.__getitem__, g._src), map(vs.__getitem__, g._dst),
        g._labels or repeat(None),
    ))
