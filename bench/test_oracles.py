"""Self-test of the benchmark's oracles.

Each check must accept the program's output on the smallest graphs and
reject a planted wrong answer.  Run from the root of a checkout with
``python3 bench/test_oracles.py`` or ``python3 -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
from graphcorners import cli  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402


def small_job(name: str, tmp: Path, seed: int = 0):
    workload = WORKLOADS[name]
    g = workload.make(random.Random(f"small:{name}:{seed}"), **SMALL[name])
    path = tmp / f"{name}-{seed}.graph"
    path.write_text(g.text(), encoding="utf-8")
    results = []
    for argv in workload.commands(str(path), g):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        results.append((code, out.getvalue()))
    return g, results


def drop_edge(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first_edge = next(i for i, line in enumerate(lines) if line.startswith("edge "))
    return "".join(lines[:first_edge] + lines[first_edge + 1:])


def grow_one_block(text: str) -> str:
    """Add a parallel copy of an edge into a sink, so one block grows."""
    _, edges = oracles.parse_output_graph(text)
    sources = {src for _, src, _ in edges}
    name, src, dst = next(e for e in edges if e[2] not in sources)
    return text + f"edge {name}.twin {src} {dst}\n"


def replace(results, index: int, text: str):
    changed = list(results)
    changed[index] = (results[index][0], text)
    return changed


def test_acyclic_accepts_and_rejects(tmp_path):
    check = WORKLOADS["acyclic"].check
    for seed in range(3):
        g, results = small_job("acyclic", tmp_path, seed)
        (_, corner), (_, fixed) = results
        expected = WORKLOADS["acyclic"].expected(g)
        assert check(g, expected, results) == (True, None)
        assert check(g, expected, replace(results, 0, drop_edge(corner)))[1]
        assert check(g, expected, replace(results, 1, grow_one_block(fixed)))[1]
        assert check(g, expected, [(3, "error"), results[1]]) \
            == (False, "exit 3: error")


def test_voltage_law_accepts_and_rejects(tmp_path):
    check = WORKLOADS["voltage-law"].check
    for seed in range(3):
        g, results = small_job("voltage-law", tmp_path, seed)
        skew = WORKLOADS["voltage-law"].expected(g)
        assert check(g, skew, results) == (True, None)

        fail = (1, "FAIL\nstart: v0\nprefix: \ncycle: e0\n")
        assert check(g, skew, [fail] + results[1:])[1]
        assert check(g, skew, results[:1] + [fail] + results[2:])[1]

        fixed = results[2][1]
        vertices, edges = oracles.parse_output_graph(fixed)
        # Drop each corner edge in turn: every loss must show.
        lines = fixed.splitlines(keepends=True)
        for k, line in enumerate(lines):
            if line.startswith("edge "):
                dropped = "".join(lines[:k] + lines[k + 1:])
                assert check(g, skew, replace(results, 2, dropped))[1], line
        # Move one edge's target into another copy of the host.
        name, src, dst = edges[0]
        t = dst.split("@")[1]
        elsewhere = next(v for v in vertices if v.split("@")[1] != t)
        moved = fixed.replace(f"edge {name} {src} {dst}\n",
                              f"edge {name} {src} {elsewhere}\n")
        assert moved != fixed
        assert check(g, skew, replace(results, 2, moved))[1]


def test_k_theory_accepts_and_rejects(tmp_path):
    check = WORKLOADS["k-theory"].check
    for seed in range(3):
        g, results = small_job("k-theory", tmp_path, seed)
        text = results[0][1]
        expected = oracles.k_theory_expected(g)
        assert expected[1], "roses must give K0 torsion"
        assert check(g, expected, results) == (True, None)
        d = expected[1][-1]
        wrong = text.replace(f"Z/{d}\n", f"Z/{d + 1}\n", 1)
        assert wrong != text
        assert check(g, expected, replace(results, 0, wrong))[1]


def test_k_theory_oracle_on_known_graphs():
    from workloads import HostGraph

    # A rose with p petals: K0 = Z/(p-1), K1 = 0.
    rose = HostGraph(["v"], [(f"e{i}", "v", "v", None) for i in range(4)])
    assert oracles.k_theory_expected(rose) == (0, [3], 0)
    # One loop: K0 = Z, K1 = Z.  A sink: K0 = Z, K1 = 0.
    loop = HostGraph(["v"], [("e", "v", "v", None)])
    assert oracles.k_theory_expected(loop) == (1, [], 1)
    sink = HostGraph(["u", "v"], [("e", "u", "v", None)])
    assert oracles.k_theory_expected(sink) == (1, [], 0)


if __name__ == "__main__":
    import tempfile

    for name, test in list(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                if "tmp_path" in test.__code__.co_varnames:
                    test(Path(tmp))
                else:
                    test()
            print(f"{name}: ok")
