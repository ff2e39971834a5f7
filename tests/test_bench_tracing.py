"""The benchmark's tracer still finds every function it wraps.

``bench/tracing.py`` patches module globals and methods of the program by
name; a rename or a removal in ``src/`` would break the traced benchmark
run.  This runs one small ``acyclic`` job under the tracer.
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


def test_traced_acyclic_job(tmp_path):
    workload = WORKLOADS["acyclic"]
    g = workload.make(random.Random("tracing"), **SMALL["acyclic"])
    path = tmp_path / "dag.graph"
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

    assert codes == [0] * len(codes)
    assert {
        "cli", "multigraph.parse", "subtree.descendants", "corner.corner",
    } <= set(recorder.names)
    assert recorder.counts["multigraph.init_calls"] > 0
    assert cli.main is original_main
