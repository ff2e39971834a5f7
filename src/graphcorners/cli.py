"""Command-line front end.

Exit codes: 0 success, 1 negative decision (iso, check-kirchhoff FAIL),
2 input or validation error, 3 vertex cap or K-theory bit budget exceeded,
out of memory, or UNKNOWN.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterator, Sequence

from .corner import corner_graph
from .invariants import (
    BitBudgetExceededError,
    corner_dimension_vector,
    fd_dimension_vector,
    k_theory,
)
from .iso import are_isomorphic
from .labelling import (
    DEFAULT_BOUND,
    DEFAULT_CAP,
    CapExceededError,
    GroupSpec,
    Labelling,
    cycle_labels_trivial,
    fixed_point_pipeline,
    kirchhoff_check,
    reachable_skew,
    skew_product,
)
from .multigraph import (
    DirectedMultigraph,
    GraphFormatError,
    _dot_blocks,
    _graph_blocks,
    hereditary_closure,
    parse_graph,
    serialize_graph,  # noqa: F401  (bench/tracing.py wraps it here)
)
from .subtree import (
    SubtreeValidationError,
    build_spanning_subtree,
    validate_subtree,
)

GRAMMAR = """\
graph file format (UTF-8, line oriented):
  # ...                    comment, ignored (as are blank lines)
  vertex NAME
  edge NAME SRC DST [LABEL]
names match [A-Za-z0-9_@.-]+; endpoints must be declared before use.
LABEL is a group element: comma-joined decimal coordinates of at most
4300 digits, one per group factor (e.g. 2 in z3, -2,1 in z,z2);
unlabelled edges carry the identity.
"""


def _load(path: str) -> DirectedMultigraph:
    with open(path, encoding="utf-8") as f:
        return parse_graph(f.read())


def _namelist(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok]


class _Positional(Sequence):
    """The names prefix0, prefix1, ..., formatted when read."""

    __slots__ = ("_format", "_len")

    def __init__(self, prefix: str, n: int) -> None:
        self._format, self._len = f"{prefix}%d".__mod__, n

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[str]:
        return map(self._format, range(self._len))

    def __getitem__(self, i):
        i = range(self._len)[i]
        if isinstance(i, range):
            return list(map(self._format, i))
        return self._format(i)


def _emit_graph(g: DirectedMultigraph, args: argparse.Namespace) -> None:
    if getattr(args, "relabel", False):
        # Positional names, unique by construction and formatted as they
        # are written: no name is looked up or held.
        g = DirectedMultigraph._from_indices(
            _Positional("v", len(g.vertices)), _Positional("e", len(g._names)),
            g._src, g._dst, g._labels,
        )
    # Written block by block as it is formatted, so the text is never
    # whole; flushed here, so that a closed pipe is seen inside main.
    blocks = _dot_blocks if getattr(args, "dot", False) else _graph_blocks
    sys.stdout.writelines(blocks(g))
    sys.stdout.flush()


def _cmd_closure(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    closure = hereditary_closure(g, _namelist(args.roots))
    for v in g.vertices:
        if v in closure:
            print(v)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    tree = build_spanning_subtree(g, _namelist(args.roots))
    for k in sorted(k for k in tree.parent_edge if k >= 0):
        print(g._names[k])
    return 0


def _make_tree(g: DirectedMultigraph, args: argparse.Namespace):
    roots = _namelist(args.roots)
    if args.tree_edges is None:
        return build_spanning_subtree(g, roots)
    return validate_subtree(g, _namelist(args.tree_edges), roots)


def _cmd_corner(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    result = corner_graph(g, _make_tree(g, args))
    _emit_graph(result.graph, args)
    return 0


def _labelling(args: argparse.Namespace, g: DirectedMultigraph) -> Labelling:
    return Labelling.from_graph(g, GroupSpec.parse(args.group))


def _cmd_skew(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    c = _labelling(args, g)
    if c.group.is_finite:
        out = skew_product(g, c)
    else:
        out = reachable_skew(g, c, args.cap)
    _emit_graph(out, args)
    return 0


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    result = fixed_point_pipeline(g, _labelling(args, g), args.cap)
    _emit_graph(result.corner.graph, args)
    return 0


def _cmd_kth(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    for line in k_theory(g).describe():
        print(line)
    return 0


def _cmd_fd_dims(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    if args.roots is None:
        dims = fd_dimension_vector(g)
    else:
        dims = corner_dimension_vector(g, _namelist(args.roots))
    print(" ".join(str(d) for d in dims))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    g1 = _load(args.graph1)
    g2 = _load(args.graph2)
    result = are_isomorphic(g1, g2)
    if not result.isomorphic:
        print("non-isomorphic")
        return 1
    for v in g1.vertices:
        print(f"{v} -> {result.witness[v]}")
    return 0


def _cmd_check_kirchhoff(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    c = _labelling(args, g)
    if args.loops_only:
        ok, cycle = cycle_labels_trivial(g, c)
        if ok:
            print("PASS")
            return 0
        print("FAIL")
        print(f"cycle: {','.join(cycle)}")
        return 1
    result = kirchhoff_check(g, c, args.bound)
    print(result.status)
    if result.status == "FAIL":
        print(f"start: {result.start}")
        print(f"prefix: {','.join(result.prefix)}")
        print(f"cycle: {','.join(result.cycle)}")
        return 1
    return 3 if result.status == "UNKNOWN" else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="graphcorners",
        description=(
            "Corner graphs, skew products and K-theory invariants of "
            "finite directed multigraphs."
        ),
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="hereditary closure of a vertex set")
    p.add_argument("graph")
    p.add_argument("--roots", required=True, help="comma-separated vertices")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("tree", help="BFS spanning subtree of the closure")
    p.add_argument("graph")
    p.add_argument("--roots", required=True)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("corner", help="corner graph along a subtree")
    p.add_argument("graph")
    p.add_argument("--roots", required=True)
    p.add_argument(
        "--tree-edges",
        help="comma-separated tree edges (default: BFS subtree)",
    )
    p.add_argument("--dot", action="store_true")
    p.add_argument("--relabel", action="store_true",
                   help="compact output names")
    p.set_defaults(func=_cmd_corner)

    p = sub.add_parser("skew", help="skew product by the edge labelling")
    p.add_argument("graph")
    p.add_argument("--group", required=True, help="e.g. z3 or z,z2")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="vertex cap for infinite groups")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--relabel", action="store_true")
    p.set_defaults(func=_cmd_skew)

    p = sub.add_parser(
        "fixed-point",
        help="graph of the fixed-point algebra of the labelling's coaction",
    )
    p.add_argument("graph")
    p.add_argument("--group", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="vertex cap for infinite groups")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--relabel", action="store_true")
    p.set_defaults(func=_cmd_fixed_point)

    p = sub.add_parser("kth", help="K-theory of the graph algebra")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_kth)

    p = sub.add_parser(
        "fd-dims",
        help="matrix block sizes of an acyclic graph algebra",
    )
    p.add_argument("graph")
    p.add_argument("--roots",
                   help="compress at these vertices before measuring")
    p.set_defaults(func=_cmd_fd_dims)

    p = sub.add_parser("iso", help="multigraph isomorphism")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser(
        "check-kirchhoff",
        help="does every infinite path accumulate the identity label?",
    )
    p.add_argument("graph")
    p.add_argument("--group", required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                   help="coordinate bound for infinite factors")
    p.add_argument("--loops-only", action="store_true",
                   help="check cycle labels instead (exact diagnostic)")
    p.set_defaults(func=_cmd_check_kirchhoff)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact results print whole: the interpreter's limit on the digits of
    # an int turned to str (where it has one) is lifted for the run.
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "cap", 0) < 0:  # skew and fixed-point, any group
            raise ValueError("cap must be non-negative")
        if getattr(args, "bound", 0) < 0:  # check-kirchhoff, --loops-only too
            raise ValueError("bound must be non-negative")
        roots = getattr(args, "roots", None)  # fd-dims may leave it out
        if roots is not None and not _namelist(roots):
            raise ValueError("root set must be non-empty")
        return args.func(args)
    except SubtreeValidationError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except (CapExceededError, BitBudgetExceededError) as exc:
        print(exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("out of memory", *exc.args, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early (``| head``), which is no error.
        # Point fd 1 at the null device, so that the interpreter's last
        # flush of what is still buffered does not fail on exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (GraphFormatError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
