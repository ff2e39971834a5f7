"""Byte-determinism of the CLI across hash seeds.

The same CLI commands run in two fresh interpreters, one per value of
``PYTHONHASHSEED``; each command's stdout, stderr and exit code must
agree.  Seeds 0 and 4 separate both orders that once leaked out of a set:
the ``--loops-only`` witness cycle and the unknown root named by
``corner``.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import graphcorners
from graphcorners import DirectedMultigraph, Edge, serialize_graph

from sample_graphs import cyc6, pqr, random_dag, random_multigraph, rose2

DRIVER = """
import contextlib, io, json, sys
from graphcorners.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

LOOPS = (
    "vertex v0\nvertex v1\nedge e0 v1 v0 1\nedge e1 v0 v0 1\n"
    "edge e2 v0 v1 1\n"
)
ONE_EDGE = "vertex a\nvertex b\nedge e a b\n"
BALANCED = "vertex a\nvertex b\nedge e a b 1\nedge f b a -1\nedge g a a\n"


def commands(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    rng = random.Random(7)
    g = random_multigraph(rng, max_v=8, max_e=16)
    labelled = DirectedMultigraph(
        g.vertices,
        [Edge(e.name, e.src, e.dst, str(rng.randint(-2, 2))) for e in g.edges],
    )
    cyc = write("cyc6.graph", serialize_graph(cyc6()))
    rose = write("rose2.graph", serialize_graph(rose2()))
    dag = write("dag.graph", serialize_graph(random_dag(rng, 12, 30)))
    mixed = write("labelled.graph", serialize_graph(labelled))
    loops = write("loops.graph", LOOPS)
    one = write("one.graph", ONE_EDGE)
    balanced = write("balanced.graph", BALANCED)
    pqr_path = write("pqr.graph", serialize_graph(pqr(2, 1, 3)))
    argvs = [
        ["closure", cyc, "--roots", "v1,v0"],
        ["tree", pqr_path, "--roots", "u"],
        ["corner", cyc, "--roots", "v0"],
        ["corner", cyc, "--roots", "v0", "--tree-edges", "e1,f2", "--dot"],
        ["corner", pqr_path, "--roots", "u,v", "--relabel"],
        ["corner", cyc, "--roots", "v0", "--tree-edges", "e1,f1,e2"],
        ["corner", one, "--tree-edges", "e", "--roots", "xx,yy,zz"],
        ["fd-dims", dag],
        ["fd-dims", dag, "--roots", "v0,v1"],
        ["kth", cyc],
        ["iso", cyc, cyc],
        ["iso", cyc, rose],
        ["check-kirchhoff", loops, "--group", "z", "--loops-only"],
        ["check-kirchhoff", loops, "--group", "z"],
        ["skew", balanced, "--group", "z", "--relabel"],
        ["fixed-point", balanced, "--group", "z", "--dot"],
        ["check-kirchhoff", balanced, "--group", "z"],
        ["skew", mixed, "--group", "z,z2"],
    ]
    for group in ("z3", "z5", "z"):
        argvs += [
            ["skew", mixed, "--group", group, "--cap", "60"],
            ["skew", mixed, "--group", group, "--cap", "60", "--dot"],
            ["fixed-point", mixed, "--group", group, "--cap", "60"],
            ["check-kirchhoff", mixed, "--group", group, "--bound", "4"],
            ["check-kirchhoff", mixed, "--group", group, "--loops-only"],
        ]
    return argvs


def run_under(seed, argvs):
    src = str(Path(graphcorners.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(argvs)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def test_cli_output_independent_of_hash_seed(tmp_path):
    argvs = commands(tmp_path)
    first, second = run_under(0, argvs), run_under(4, argvs)
    assert len(first) == len(argvs)
    for a, b in zip(first, second):
        assert a == b
    codes = {code for _, code, _, _ in first}
    assert {0, 1, 2} <= codes
