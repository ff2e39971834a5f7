"""Seeded input generators and the job of each workload.

Every generator is a pure function of its seed: the same seed gives the
same graph file, byte for byte.  Each workload runs one kind of job on a
pool of graphs of one size class, so its median is never a mix of cheap
and expensive commands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

# acyclic: out-degree, share of sinks, number of sources (the corner's
# roots), and the order of the label group z5.
DAG_DEGREE = 3
DAG_SINK_SHARE = 0.05
DAG_ROOTS = 3
Z5_ORDER = 5
# voltage-law: out-degree, and the bound on the layers' potentials.
LAYERED_DEGREE = 3
POTENTIAL_SPREAD = 30
# k-theory: a rose has this many petals, both ends included.
PETALS = (3, 7)


@dataclass
class HostGraph:
    """A generated host graph, kept by the benchmark for its oracles.

    ``edges`` holds (name, src, dst, label) with ``label`` an int or None;
    ``potential`` is the per-vertex potential of a voltage-law labelling,
    and ``cap`` bounds the vertex count of the graph's reachable skew.
    """

    vertices: list[str]
    edges: list[tuple[str, str, str, int | None]]
    roots: list[str] = field(default_factory=list)
    potential: dict[str, int] = field(default_factory=dict)
    cap: int = 0

    def text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        for name, src, dst, label in self.edges:
            tail = "" if label is None else f" {label}"
            lines.append(f"edge {name} {src} {dst}{tail}")
        return "\n".join(lines) + "\n"


def _named(n: int, pairs, labels=None) -> tuple[list[str], list]:
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        (f"e{k}", f"v{u}", f"v{w}", None if labels is None else labels[k])
        for k, (u, w) in enumerate(pairs)
    ]
    return vertices, edges


def acyclic_graph(rng: random.Random, n: int = 1500, window: int = 50) -> HostGraph:
    """A deep random DAG whose first DAG_ROOTS vertices are its sources.

    Vertex i emits DAG_DEGREE edges to vertices drawn uniformly from the
    next ``window`` indices, except for a random share of sinks and the
    last vertex.  Short edges make the BFS tree from the roots deep.
    Labels are uniform in z5.
    """
    pairs = []
    for i in range(n - 1):
        if i >= DAG_ROOTS and rng.random() < DAG_SINK_SHARE:
            continue
        lo, hi = max(i + 1, DAG_ROOTS), min(n - 1, i + window)
        for _ in range(DAG_DEGREE):
            pairs.append((i, rng.randint(lo, hi)))
    labels = [rng.randrange(Z5_ORDER) for _ in pairs]
    vertices, edges = _named(n, pairs, labels)
    return HostGraph(
        vertices, edges, roots=vertices[:DAG_ROOTS], cap=Z5_ORDER * n)


def layered_graph(
    rng: random.Random, layers: int = 6, width: int = 120
) -> HostGraph:
    """A cyclic layered graph labelled by potential differences over z.

    Every edge runs from layer i to layer i+1 mod ``layers``, and each
    layer has its own potential, drawn without repetition from
    [-POTENTIAL_SPREAD, POTENTIAL_SPREAD].  The label of
    an edge is potential(dst) - potential(src), so the label of a path
    is the potential difference of its ends, and any path of length
    ``layers`` has the identity label.
    """
    n = layers * width
    level = rng.sample(range(-POTENTIAL_SPREAD, POTENTIAL_SPREAD + 1), layers)
    pairs, labels = [], []
    for u in range(n):
        nxt = (u // width + 1) % layers
        for _ in range(LAYERED_DEGREE):
            pairs.append((u, nxt * width + rng.randrange(width)))
            labels.append(level[nxt] - level[u // width])
    vertices, edges = _named(n, pairs, labels)
    potential = {f"v{u}": level[u // width] for u in range(n)}
    return HostGraph(vertices, edges, potential=potential, cap=layers * n)


def rose_graph(
    rng: random.Random, n: int = 104, extra: int = 104, roses: int = 4
) -> HostGraph:
    """A sparse cyclic multigraph with roses hanging off it.

    A Hamiltonian cycle plus ``extra`` uniform random edges, then
    ``roses`` extra vertices, each entered by one edge from the cycle and
    carrying p loops, p drawn from PETALS.  A rose with p petals
    contributes Z/(p-1) torsion.
    """
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    for r in range(n, n + roses):
        pairs.append((rng.randrange(n), r))
        pairs += [(r, r)] * rng.randint(*PETALS)
    rng.shuffle(pairs)
    vertices, edges = _named(n + roses, pairs)
    return HostGraph(vertices, edges)


@dataclass(frozen=True)
class Workload:
    """One kind of job: how to make its graphs, which commands it runs,
    and how its answers are checked.

    ``expected`` computes the oracle's data for a graph once, when the pool
    is built; ``check`` compares a job's (exit code, output) per command
    with it and returns (answered, reason), as the oracles' checks do.
    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    pool: int
    make: Callable[..., HostGraph]
    commands: Callable[[str, HostGraph], list[list[str]]]
    expected: Callable[[HostGraph], object]
    check: Callable[[HostGraph, object, list], tuple[bool, str | None]]

    def graph(self, seed: int, index: int) -> HostGraph:
        return self.make(random.Random(f"{self.name}:{seed}:{index}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acyclic", pool=4, make=acyclic_graph,
            commands=lambda path, g: [
                ["corner", path, "--roots", ",".join(g.roots)],
                ["fixed-point", path, "--group", f"z{Z5_ORDER}",
                 "--cap", str(g.cap)],
            ],
            expected=lambda g: (oracles.corner_blocks(g),
                                oracles.fixed_point_blocks(g, Z5_ORDER)),
            check=oracles.check_acyclic,
        ),
        Workload(
            "voltage-law", pool=12, make=layered_graph,
            commands=lambda path, g: [
                ["check-kirchhoff", path, "--group", "z"],
                ["check-kirchhoff", path, "--group", "z", "--loops-only"],
                ["fixed-point", path, "--group", "z", "--cap", str(g.cap)],
            ],
            expected=oracles.reachable_skew,
            check=oracles.check_voltage_law,
        ),
        Workload(
            "k-theory", pool=48, make=rose_graph,
            commands=lambda path, g: [["kth", path]],
            expected=oracles.k_theory_expected,
            check=oracles.check_k_theory,
        ),
    )
}

# Parameters of the smallest graphs, on which the self-test runs the
# program and expects every oracle to accept.
SMALL = {
    "acyclic": dict(n=60, window=8),
    "voltage-law": dict(layers=3, width=6),
    "k-theory": dict(n=12, extra=10, roses=2),
}
