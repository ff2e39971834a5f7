"""Golden digests of the skew, fixed-point, tree, corner, check-kirchhoff,
iso and kth commands.

Output is byte-deterministic, so one sha256 per command (and group) pins
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
    big_dag_text,
    cyc6,
    cycles,
    edge1,
    layered_potential_text,
    parallel_edges,
    pqr,
    random_dag,
    random_bfs_tree,
    random_multigraph,
    random_sparse_text,
    random_vertex_subset,
    rose2,
    rose_chain,
    shuffled_copy,
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

# The tree and corner commands run from roots sampled per graph; the
# ``--tree-edges`` variant takes a random BFS tree, not the default one.
CORNER_DIGESTS = {
    "corner":
        "902163a3e218247c5f3e12d2ab906d5bc41aee88e4b1f66271567a3d9960a468",
    "corner --dot":
        "5c104f10a025f64e29b0d19598bdb87ae996343a41027e1e9ca48a403daea577",
    "corner --relabel":
        "6d08ae98b7f3503cbc97e7a4f3eb403c5f843893c0900c03bb3390f4ceeb8f1b",
    "corner --tree-edges":
        "273522782156a539fec45fd0fba94d927b04972312c8582cd5b193c401ddf487",
    "tree":
        "e656325d8cfd9a1191d0b87f2cea988fc784afc1108cf30bb8d054f1b8399584",
}

# check-kirchhoff with its default bound, two small bounds (over z they
# turn PASS into UNKNOWN) and the exact cycle-label check; each FAIL
# certificate is pinned byte for byte.
KIRCHHOFF_DIGESTS = {
    ("", "z3"):
        "59279c5b985c25522204bd404e6763e5ca8ea8c12658c1439345f4920eb6721b",
    ("--bound 0", "z3"):
        "59279c5b985c25522204bd404e6763e5ca8ea8c12658c1439345f4920eb6721b",
    ("--bound 3", "z3"):
        "59279c5b985c25522204bd404e6763e5ca8ea8c12658c1439345f4920eb6721b",
    ("--loops-only", "z3"):
        "2e9399b0c06269632c3e0c902cc5d494ff69c8e20ede9eb769ec0d2828974dfe",
    ("", "z5"):
        "c9429b18c86eec641cd02820faa0eb27451082b24af94f624afedec2e89419fc",
    ("--bound 0", "z5"):
        "c9429b18c86eec641cd02820faa0eb27451082b24af94f624afedec2e89419fc",
    ("--bound 3", "z5"):
        "c9429b18c86eec641cd02820faa0eb27451082b24af94f624afedec2e89419fc",
    ("--loops-only", "z5"):
        "f3cf21273cdc4d6760c9395bf686ca5cdc5984048837f0b1ab83ab95bf687d35",
    ("", "z"):
        "7872b7f9e58d2945229c1d7215c8eb23ca7c975a83c448035058f045910ec692",
    ("--bound 0", "z"):
        "85266dd450c392f7f7c1ae52137b09932b59d6d6136db263698c5850ce861605",
    ("--bound 3", "z"):
        "fc4eb99b3c4b129177a695924a056988f5ce48c582a61a86a302846363a3892c",
    ("--loops-only", "z"):
        "287c2f62f2cc20b5e9e557d61dbd71eb9c288952cf28b592176b0f446c7af2e8",
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
    files = []
    for name, g in sample_graphs().items():
        path = root / f"{name}.graph"
        path.write_text(serialize_graph(g), encoding="utf-8")
        files.append((name, str(path), g))
    return files


def runs_of(graph_files, argv_of) -> list[tuple[str, int, str]]:
    """Each file's name, exit code and standard output."""
    runs = []
    for name, path, g in graph_files:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv_of(name, path, g))
        runs.append((name, code, out.getvalue()))
    return runs


def digest_runs(runs) -> str:
    digest = hashlib.sha256()
    for name, code, out in runs:
        digest.update(f"{name} {code}\n{out}".encode())
    return digest.hexdigest()


def digest_of(graph_files, argv_of) -> str:
    return digest_runs(runs_of(graph_files, argv_of))


@pytest.mark.parametrize("command,group", sorted(DIGESTS))
def test_output_digest(graph_files, command, group):
    words = command.split()
    digest = digest_of(graph_files, lambda name, path, g: (
        [words[0], path, "--group", group, "--cap", CAP] + words[1:]
    ))
    assert digest == DIGESTS[(command, group)]


@pytest.mark.parametrize("command", sorted(CORNER_DIGESTS))
def test_corner_digest(graph_files, command):
    words = command.split()

    def argv_of(name, path, g):
        rng = random.Random(f"roots {name}")
        roots = random_vertex_subset(rng, g)
        argv = [words[0], path, "--roots", ",".join(roots)]
        if "--tree-edges" in words:
            tree = random_bfs_tree(g, roots, rng)
            return argv + ["--tree-edges", ",".join(sorted(tree.tree_edges))]
        return argv + words[1:]

    assert digest_of(graph_files, argv_of) == CORNER_DIGESTS[command]


@pytest.mark.parametrize("options,group", sorted(KIRCHHOFF_DIGESTS))
def test_kirchhoff_digest(graph_files, options, group):
    digest = digest_of(graph_files, lambda name, path, g: (
        ["check-kirchhoff", path, "--group", group] + options.split()
    ))
    assert digest == KIRCHHOFF_DIGESTS[(options, group)]


# The sample graphs with two-coordinate labels: each label keeps its
# coordinate (an unlabelled edge takes 0) and gains a random second, so
# these pin product groups, the lexicographic numbering of their
# elements and, under ``z,z2``, steps infinite in one factor and finite
# in the other.
MULTI_DIGESTS = {
    ("check-kirchhoff", "z,z2"):
        "ee2ef33910deb68369e4bfa139b2f311d4091065e257a65a77bf06c6990cc468",
    ("check-kirchhoff", "z2,z3"):
        "addafb8df0d2926b3c973ba38ceefd2a3eb9df09b412fcb139b7573f845205ee",
    ("fixed-point", "z,z2"):
        "6b753ea56588633b64f10ad4cc56bfdee2ad66f5a92d3604a87e0436f8f2f805",
    ("fixed-point", "z2,z3"):
        "8e9d64e86288b81942e4434d85aa7ab9161528bf66742c04c027ba38c2789ca4",
    ("skew", "z,z2"):
        "94bd13d3bf438294a7f396906f3c5e5317ea4bc1418fb1b0be08096a261c742c",
    ("skew", "z2,z3"):
        "2f26d83f731cf82c8d5248c887a3adf5c0d725f8a14c9bfb1063391372dcbc12",
}


def two_coordinates(g: DirectedMultigraph,
                    rng: random.Random) -> DirectedMultigraph:
    return DirectedMultigraph(g.vertices, [
        e._replace(label=f"{e.label or 0},{rng.randint(-2, 3)}")
        for e in g.edges
    ])


@pytest.fixture(scope="module")
def multi_files(graph_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("multi")
    files = []
    for name, _, g in graph_files:
        g = two_coordinates(g, random.Random(f"second {name}"))
        path = root / f"{name}.graph"
        path.write_text(serialize_graph(g), encoding="utf-8")
        files.append((name, str(path), g))
    return files


@pytest.mark.parametrize("command,group", sorted(MULTI_DIGESTS))
def test_multi_factor_digest(multi_files, command, group):
    cap = [] if command == "check-kirchhoff" else ["--cap", CAP]
    runs = runs_of(multi_files, lambda name, path, g: (
        [command, path, "--group", group] + cap
    ))
    if command == "check-kirchhoff":
        # A FAIL certificate is among the outputs pinned.
        assert any(out.startswith("FAIL\n") for _, _, out in runs)
    assert digest_runs(runs) == MULTI_DIGESTS[(command, group)]


# iso over pairs of graphs: each sample graph against itself, against a
# copy with its vertices renamed and its vertices and edges reordered
# (the witness printed pins the search order), and against such a copy
# with one edge's range moved; and pairs whose vertex degrees and loop
# counts all agree but which are not isomorphic, so the search
# backtracks and fails.
ISO_DIGESTS = {
    "itself":
        "eb3f0fb866956af8cb09233972450d033785831376a571b6d7dc6a755007d8c5",
    "renamed":
        "a80112443d7473521da61712fadca6dda5e167f6ec21d563eaf184ccfccb6937",
    "rewired":
        "bf7c71dca25389ed91a8d8fcc44a2436030424ac131b51184276febe3edb0994",
    "signature-equal":
        "5f21bf16872047221fa115daf8cee9b120f484d578e85e7d3690dd44aaa0ff5d",
}


SIGNATURE_EQUAL = {
    "2xC3-C6": (cycles(3, 3), cycles(6)),
    "4xC3-3xC4": (cycles(3, 3, 3, 3), cycles(4, 4, 4)),
    "C3+C4-C7": (cycles(3, 4), cycles(7)),
    "2xC2-C4": (cycles(2, 2), cycles(4)),
}


@pytest.fixture(scope="module")
def iso_pairs(graph_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("iso")

    def write(name, g):
        path = root / f"{name}.graph"
        path.write_text(serialize_graph(g), encoding="utf-8")
        return str(path)

    pairs = {"itself": [(name, path, path) for name, path, _ in graph_files],
             "signature-equal": []}
    for kind in ("renamed", "rewired"):
        pairs[kind] = [(name, path, write(f"{name}-{kind}", shuffled_copy(
            g, random.Random(f"iso {name}"), kind == "rewired")))
            for name, path, g in graph_files]
    for name, (g, h) in SIGNATURE_EQUAL.items():
        a, b = write(f"{name}-a", g), write(f"{name}-b", h)
        pairs["signature-equal"] += [(name, a, b), (f"{name}-back", b, a)]
    return pairs


@pytest.mark.parametrize("pairs", sorted(ISO_DIGESTS))
def test_iso_digest(iso_pairs, pairs):
    digest = digest_of(iso_pairs[pairs], lambda name, a, b: ["iso", a, b])
    assert digest == ISO_DIGESTS[pairs]


# Whole-size jobs: a deep 1,500-vertex DAG labelled in z5, whose corner
# at v0 prints 58k lines, a 720-vertex layered graph labelled in z by
# potential differences, and a 3,000-vertex random multigraph labelled
# in z5, whose voltage-law certificate has a 162-edge prefix and a
# 56-edge cycle.  The full skews under z5 of the DAG and the random
# multigraph pin 7,500 and 15,000 vertices in their order.
BIG_DIGESTS = {
    ("baseline", "check-kirchhoff --group z5"):
        "685593e898d1b3e5ddccb68bb67af117a2344929381d8e19ac90e25edf237ed7",
    ("baseline", "skew --group z5"):
        "28933106bf7fb28004b6850d49995356333756cb6c7766f6a40d41deeb59b01e",
    ("baseline", "skew --group z5 --dot"):
        "c129c3f863f10318e6b8bc6534b57e4d67df1fb8cadb9d760a8a7b608b866bd0",
    ("dag", "corner --roots v0"):
        "3c3bc40f0b9137ea223f38f05f206c7316788c1c6be53e7003cf925c19d5b630",
    ("dag", "fixed-point --group z5"):
        "e1e51480ab24df4a13987e1f864d7b6d5b5191b16d23aa7e6512738b06b3fde1",
    ("dag", "skew --group z5 --relabel"):
        "2090f06a1a10bf4ae38aa62d1e393f398cf756bab0b6630ea92d1087bcc55c28",
    ("layered", "fixed-point --group z --cap 4320"):
        "04a9355bec3f07d2dab0cc5430982aae5d4a32903dd0e697f2a38764ca347b2a",
}


@pytest.fixture(scope="module")
def big_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("big")
    texts = {"dag": big_dag_text(1500, 50),
             "layered": layered_potential_text(),
             "baseline": random_sparse_text(3000, labels=5)}
    for name, text in texts.items():
        (root / f"{name}.graph").write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize("graph,command", sorted(BIG_DIGESTS))
def test_big_graph_digest(big_files, graph, command):
    words = command.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([words[0], str(big_files / f"{graph}.graph"), *words[1:]])
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == BIG_DIGESTS[(graph, command)]


# kth over the sample graphs, over chains of roses whose K0 has torsion
# (cyclic, and split by parallel links), and over a 1000-vertex random
# multigraph, whose unit stage takes hundreds of pivots before the dense
# stage runs.  Invariant factors are unique, so these hold whatever
# order the pivots are taken in.
KTH_DIGESTS = {
    "random1000":
        "4ab31276007bea177b436d31951eec7d43f496d56b997f154681bca0fdbb082d",
    "roses":
        "a8ed09cbfb32f12457a896082fc01d21c19ec3b1ed2d6359d090a222c0361a80",
    "samples":
        "5c579fb44c35133bf0891d7b3cd002b8013fde20dcb55a4480b32f5a41a8aa0c",
}

ROSE_CHAINS = [((3,), 1), ((7,), 1), ((3, 5), 2), ((4, 4), 3),
               ((3, 7, 5), 2), ((7, 7, 7), 3), ((5, 9, 13, 4), 2)]


@pytest.fixture(scope="module")
def kth_files(graph_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("kth")
    roses = []
    for petals, links in ROSE_CHAINS:
        name = f"roses{'-'.join(map(str, petals))}x{links}"
        path = root / f"{name}.graph"
        path.write_text(serialize_graph(rose_chain(petals, links)),
                        encoding="utf-8")
        roses.append((name, str(path), None))
    path = root / "random1000.graph"
    path.write_text(random_sparse_text(1000), encoding="utf-8")
    return {"samples": graph_files, "roses": roses,
            "random1000": [("random1000", str(path), None)]}


@pytest.mark.parametrize("files", sorted(KTH_DIGESTS))
def test_kth_digest(kth_files, files):
    digest = digest_of(kth_files[files], lambda name, path, g: ["kth", path])
    assert digest == KTH_DIGESTS[files]
