"""Spans and counts around the program's layers, recorded from outside.

``Recorder.install`` replaces the program's public functions where their
callers look them up (``graphcorners.cli.*``, ``graphcorners.labelling.*``,
``Labelling.from_graph``, ``DirectedMultigraph.__init__`` and the module
globals that ``subtree``, ``corner`` and ``invariants`` call) with
wrappers that record a span per call: its name, start, end and parent.  Spans stay in memory until
``write_spans``.  ``uninstall`` puts every original back, so untraced
jobs run the program unchanged.
"""

from __future__ import annotations

import time
from array import array

import graphcorners.cli as cli
import graphcorners.corner as corner
import graphcorners.invariants as invariants
import graphcorners.labelling as labelling
import graphcorners.subtree as subtree
from graphcorners.labelling import Labelling
from graphcorners.multigraph import DirectedMultigraph

# (module, attribute, span name)
PATCHES = [
    (cli, "main", "cli"),
    (cli, "parse_graph", "multigraph.parse"),
    (cli, "serialize_graph", "multigraph.serialize"),
    (cli, "skew_product", "labelling.skew"),
    (cli, "reachable_skew", "labelling.skew"),
    (labelling, "reachable_skew", "labelling.skew"),
    (cli, "kirchhoff_check", "labelling.kirchhoff"),
    (cli, "cycle_labels_trivial", "labelling.loops"),
    (cli, "fixed_point_pipeline", "labelling.fixed_point"),
    (cli, "build_spanning_subtree", "subtree.tree"),
    (labelling, "build_spanning_subtree", "subtree.tree"),
    (cli, "validate_subtree", "subtree.validate"),
    (subtree, "validate_subtree", "subtree.validate"),
    (corner, "descendants", "subtree.descendants"),
    (cli, "corner_graph", "corner.corner"),
    (labelling, "corner_graph", "corner.corner"),
    (cli, "k_theory", "invariants.kth"),
    (invariants, "smith_normal_form", "invariants.snf"),
]


COUNTED_SPANS = {
    "labelling.skew", "corner.corner", "subtree.descendants", "invariants.snf",
}


def _count_result(name: str, result, counts: dict[str, int]) -> None:
    if name == "labelling.skew":
        counts["labelling.skew_vertices"] += len(result.vertices)
        counts["labelling.skew_edges"] += len(result.edges)
    elif name == "corner.corner":
        counts["corner.edges_out"] += len(result.graph.edges)
    elif name == "subtree.descendants":
        counts["subtree.descendants_calls"] += 1
    elif name == "invariants.snf":
        bits = max(
            (abs(x).bit_length()
             for m in (result.left, result.right)
             for row in m.entries for x in row),
            default=0,
        )
        counts["invariants.snf_max_bits"] = max(
            counts["invariants.snf_max_bits"], bits
        )


COUNTS = (
    "multigraph.init_calls",
    "multigraph.vertices_validated",
    "labelling.skew_vertices",
    "labelling.skew_edges",
    "subtree.descendants_calls",
    "corner.edges_out",
    "invariants.snf_max_bits",
)


class Recorder:
    """Spans of every traced job, plus per-job self times and counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.job = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._job_id = -1
        self._originals: list[tuple[object, str, object]] = []
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def begin_job(self) -> None:
        self._job_id += 1
        self.self_ns = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def _open(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.job.append(self._job_id)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append([index, 0])

    def _close(self, name: str) -> None:
        now = time.perf_counter_ns()
        index, child_ns = self._stack.pop()
        self.end[index] = now
        took = now - self.start[index]
        self.self_ns[name] = self.self_ns.get(name, 0) + took - child_ns
        if self._stack:
            self._stack[-1][1] += took

    def _wrap(self, fn, name: str):
        counted = name in COUNTED_SPANS

        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if counted:
                # Counting reads the result; keep that out of the caller's
                # self time.
                begin = time.perf_counter_ns()
                _count_result(name, result, self.counts)
                if self._stack:
                    self._stack[-1][1] += time.perf_counter_ns() - begin
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        from_graph = Labelling.__dict__["from_graph"]
        self._originals.append((Labelling, "from_graph", from_graph))
        Labelling.from_graph = classmethod(
            self._wrap(from_graph.__func__, "labelling.from_graph")
        )
        init = DirectedMultigraph.__init__
        self._originals.append((DirectedMultigraph, "__init__", init))
        wrapped_init = self._wrap(init, "multigraph.init")

        def counted_init(graph, *args, **kwargs):
            wrapped_init(graph, *args, **kwargs)
            self.counts["multigraph.init_calls"] += 1
            self.counts["multigraph.vertices_validated"] += len(graph.vertices)

        DirectedMultigraph.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write_spans(self, path) -> None:
        """One line per span: job, span, parent, name, start_ns, end_ns,
        with times counted from the first span."""
        origin = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("job\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.job[i]}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i] - origin}\t"
                    f"{self.end[i] - origin}\n"
                )
