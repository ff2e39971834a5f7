"""The benchmark's tracer still finds every function it wraps.

``bench/tracing.py`` patches module globals and methods of the program by
name; a rename or a removal in ``src/`` would break the traced benchmark
run.  This runs one small ``acyclic`` job and one small ``k-theory`` job
under the tracer.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402

from graphcorners import cli  # noqa: E402
from graphcorners.multigraph import DirectedMultigraph  # noqa: E402


def traced_job(tmp_path, name):
    """Run one small job of a workload under the tracer; return its exit
    codes, the recorder and the job's graph."""
    workload = WORKLOADS[name]
    g = workload.make(random.Random("tracing"), **SMALL[name])
    path = tmp_path / "job.graph"
    path.write_text(g.text(), encoding="utf-8")
    original_main = cli.main

    recorder = tracing.Recorder()
    recorder.begin_job()
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv)
                     for argv in workload.commands(str(path), g)]
    finally:
        recorder.uninstall()
    assert cli.main is original_main
    return codes, recorder, g


def test_traced_acyclic_job(tmp_path):
    codes, recorder, _ = traced_job(tmp_path, "acyclic")
    assert codes == [0] * len(codes)
    assert {"cli", "multigraph.parse", "corner.corner"} <= set(recorder.names)
    # The corner ranks each tree's kept vertices with one pair of sorts,
    # so the wrapped descendants is never called.
    assert "subtree.descendants" not in recorder.names
    assert recorder.counts["subtree.descendants_calls"] == 0
    # Parsing hands its checked columns to the trusted constructor, so a
    # job checks each graph once and never calls the public one.
    assert recorder.counts["multigraph.init_calls"] == 0
    # The public constructor is still wrapped and counted.
    vertices = ("a", "b", "c")
    recorder.install()
    try:
        DirectedMultigraph(vertices, [("e", "a", "b")])
    finally:
        recorder.uninstall()
    assert recorder.counts["multigraph.init_calls"] == 1
    assert recorder.counts["multigraph.vertices_validated"] == len(vertices)


def test_traced_k_theory_job(tmp_path):
    codes, recorder, _ = traced_job(tmp_path, "k-theory")
    assert codes == [0]
    assert {"cli", "multigraph.parse", "invariants.kth"} <= set(recorder.names)
