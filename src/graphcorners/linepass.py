"""The line pass of ``multigraph.parse_graph``.

A file that fails one of the parser's column checks is read again here,
line by line from the failing block on, with the rules of
``multigraph._check_item``, to name its first faulty line.  A valid file
never comes here, so the parser imports this module only when it needs
it.
"""

from itertools import islice
from typing import Iterable

from .multigraph import GraphFormatError, _check_item

_SHAPES = {"vertex": ("vertex NAME", (2,)),
           "edge": ("edge NAME SRC DST [LABEL]", (4, 5))}


def line_pass(lines: list[str], start: int = 0,
              vertices: Iterable[str] = (), edges: Iterable[str] = ()
              ) -> None:
    """Raise for the first faulty line from index ``start`` on, naming it;
    ``vertices`` and ``edges`` are the names the lines above declared."""
    taken = {"vertex": set(vertices), "edge": set(edges)}
    for lineno, raw in enumerate(islice(lines, start, None), start=start + 1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind = tokens[0]
        try:
            if kind not in _SHAPES:
                raise GraphFormatError(f"unknown declaration {kind!r}")
            shape, sizes = _SHAPES[kind]
            if len(tokens) not in sizes:
                raise GraphFormatError(f"expected {shape!r}, got {raw!r}")
            _check_item(tokens[1], kind, taken[kind], tokens[2:4],
                        taken["vertex"])
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        taken[kind].add(tokens[1])
