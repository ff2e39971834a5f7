"""Golden digests of the skew and fixed-point commands.

Output is byte-deterministic, so one sha256 per command and group pins
every vertex and edge name, their order and each exit code over the
sample graphs below.  A digest may change only with an intended change
of output, and then every digest that moved needs an explanation.
"""

import contextlib
import hashlib
import io
import random

import pytest

from graphcorners import DirectedMultigraph, Edge, serialize_graph
from graphcorners.cli import main

from sample_graphs import (
    cyc6,
    edge1,
    parallel_edges,
    pqr,
    random_dag,
    random_multigraph,
    rose2,
    single_loop,
    single_vertex,
)

CAP = "40"

DIGESTS = {
    ("skew", "z3"):
        "b97977a9c4aa9c51405e1f07553f71c49a98c79e7798bda2c33e0c5f7fcf09ae",
    ("skew", "z5"):
        "6c3978c2e15b731ba90345f5f980e4016341be9e2182a56791c1368cc36d99e3",
    ("skew", "z"):
        "a8c8647a5f113edd0c278b181fef16e543f4a155deda2f6c20222842166995b6",
    ("skew --dot", "z3"):
        "da265915f0979bdd78e449f9a4074ba8b3279054d6791219ad8b21356800b6a2",
    ("skew --dot", "z5"):
        "407a4e93dfeac5ea17518d6f41d4b4937054059d2f0188206acfcfeb738c097a",
    ("skew --dot", "z"):
        "a9555c71baf20aa6ad76c242e440446dfcfe9073ece0277eac3987fa78405d08",
    ("fixed-point", "z3"):
        "ba2a3317ad9f1a7e73af18cd5d29601fde28cee14e2af329bdc6eb9a45782771",
    ("fixed-point", "z5"):
        "0b68e9fef0ef62e36f323bf861c6210535432cc844ec949083b1a92920a99e75",
    ("fixed-point", "z"):
        "43da7ff20c3fa3fd4981afe9963960c56d1d501556a043c6196bd7663b90c884",
}


def labelled(g: DirectedMultigraph, rng: random.Random) -> DirectedMultigraph:
    return DirectedMultigraph(
        g.vertices,
        [Edge(e.name, e.src, e.dst, str(rng.randint(-2, 3))) for e in g.edges],
    )


def sample_graphs() -> dict[str, DirectedMultigraph]:
    graphs = {
        "rose2": rose2(),
        "edge1": edge1(),
        "cyc6": cyc6(),
        "pqr123": pqr(1, 2, 3),
        "single_vertex": single_vertex(),
        "single_loop": single_loop("1"),
        "parallel3": parallel_edges(3),
    }
    for seed in range(12):
        rng = random.Random(seed)
        graphs[f"multi{seed}"] = labelled(random_multigraph(rng, 5, 8), rng)
    for seed in range(6):
        rng = random.Random(100 + seed)
        graphs[f"dag{seed}"] = labelled(random_dag(rng, 6, 10), rng)
    return graphs


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = []
    for name, g in sample_graphs().items():
        path = root / f"{name}.graph"
        path.write_text(serialize_graph(g), encoding="utf-8")
        paths.append((name, str(path)))
    return paths


@pytest.mark.parametrize("command,group", sorted(DIGESTS))
def test_output_digest(graph_files, command, group):
    words = command.split()
    digest = hashlib.sha256()
    for name, path in graph_files:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(
                [words[0], path, "--group", group, "--cap", CAP] + words[1:]
            )
        digest.update(f"{name} {code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == DIGESTS[(command, group)]
