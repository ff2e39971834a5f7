import time

import pytest

from graphcorners import parse_graph, serialize_graph
from graphcorners.cli import main

from sample_graphs import cyc6, edge1, pqr, rose2, single_loop

ROSE2 = serialize_graph(rose2())
CYC6 = serialize_graph(cyc6())
EDGE1 = serialize_graph(edge1())
LOOP1 = serialize_graph(single_loop("1"))


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corner_command(files, capsys):
    path = files("cyc6.graph", CYC6)
    code, out, err = run(
        capsys, ["corner", path, "--roots", "v0", "--tree-edges", "e1,f2"]
    )
    assert code == 0 and err == ""
    g = parse_graph(out)
    assert g.vertices == ("v1", "v2")
    assert len(g.edges) == 6
    # byte determinism
    code2, out2, _ = run(
        capsys, ["corner", path, "--roots", "v0", "--tree-edges", "e1,f2"]
    )
    assert out2 == out


def test_corner_default_tree_matches_explicit(files, capsys):
    path = files("cyc6.graph", CYC6)
    _, explicit, _ = run(
        capsys, ["corner", path, "--roots", "v0", "--tree-edges", "e1,f2"]
    )
    _, default, _ = run(capsys, ["corner", path, "--roots", "v0"])
    assert default == explicit


def test_corner_invalid_tree_reports_violations(files, capsys):
    path = files("cyc6.graph", CYC6)
    code, out, err = run(
        capsys, ["corner", path, "--roots", "v0", "--tree-edges", "e1,e2,f2"]
    )
    assert code == 2
    assert "in-degree" in err


def test_corner_relabel_and_dot(files, capsys):
    path = files("cyc6.graph", CYC6)
    code, out, _ = run(
        capsys,
        ["corner", path, "--roots", "v0", "--tree-edges", "e1,f2",
         "--relabel"],
    )
    assert code == 0
    g = parse_graph(out)
    assert g.vertices == ("v0", "v1")
    code, out, _ = run(
        capsys,
        ["corner", path, "--roots", "v0", "--tree-edges", "e1,f2", "--dot"],
    )
    assert code == 0
    assert out.startswith("digraph G {")


def test_tree_and_closure_commands(files, capsys):
    path = files("cyc6.graph", CYC6)
    code, out, _ = run(capsys, ["tree", path, "--roots", "v0"])
    assert code == 0
    assert out.split() == ["e1", "f2"]
    code, out, _ = run(capsys, ["closure", path, "--roots", "v0"])
    assert code == 0
    assert out.split() == ["v0", "v1", "v2"]


def test_skew_command(files, capsys):
    path = files("rose2.graph", ROSE2)
    code, out, _ = run(capsys, ["skew", path, "--group", "z3"])
    assert code == 0
    g = parse_graph(out)
    assert len(g.vertices) == 3 and len(g.edges) == 6


def test_skew_infinite_uses_reachable(files, capsys):
    path = files("lab.graph", (
        "vertex u\nvertex v\nedge a u v 1\nedge l v v 0\n"
    ))
    code, out, _ = run(capsys, ["skew", path, "--group", "z"])
    assert code == 0
    g = parse_graph(out)
    assert set(g.vertices) == {"u@0", "v@0", "v@-1"}


def test_skew_cap_exceeded_exit_3(files, capsys):
    path = files("loop.graph", LOOP1)
    code, out, err = run(capsys, ["skew", path, "--group", "z", "--cap", "50"])
    assert code == 3
    assert "cap" in err


def test_fixed_point_command(files, capsys):
    rose = files("rose2.graph", ROSE2)
    cyc = files("cyc6.graph", CYC6)
    code, fp_out, _ = run(capsys, ["fixed-point", rose, "--group", "z3"])
    assert code == 0
    _, corner_out, _ = run(
        capsys, ["corner", cyc, "--roots", "v0", "--tree-edges", "e1,f2"]
    )
    from graphcorners import are_isomorphic

    assert are_isomorphic(
        parse_graph(fp_out), parse_graph(corner_out)
    ).isomorphic


def test_fixed_point_cap_exceeded(files, capsys):
    path = files("loop.graph", LOOP1)
    code, _, err = run(
        capsys, ["fixed-point", path, "--group", "z", "--cap", "50"]
    )
    assert code == 3


def test_kth_command(files, capsys):
    rose = files("rose2.graph", ROSE2)
    code, out, _ = run(capsys, ["kth", rose])
    assert code == 0
    assert out == "K0 = 0\nK1 = 0\n"
    p111 = files("pqr.graph", serialize_graph(pqr(1, 1, 1)))
    code, out, _ = run(capsys, ["kth", p111])
    assert code == 0
    assert out == "K0 = Z^1\nK1 = Z^1\n"


def test_fd_dims_command(files, capsys):
    path = files("edge1.graph", EDGE1)
    code, out, _ = run(capsys, ["fd-dims", path])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, ["fd-dims", path, "--roots", "u"])
    assert code == 0 and out.strip() == "1"


def test_fd_dims_roots_on_long_chain(files, capsys):
    n = 3000
    text = "".join(f"vertex v{i}\n" for i in range(n)) + "".join(
        f"edge e{i} v{i} v{i + 1}\n" for i in range(n - 1)
    )
    path = files("chain.graph", text)
    code, out, err = run(capsys, ["fd-dims", path, "--roots", "v0"])
    assert code == 0 and err == ""
    assert out == "1\n"


def test_fd_dims_roots_on_diamond_ladder(files, capsys):
    # a_i -> b_i, c_i -> a_{i+1}: 2^60 paths from a0 to the sink a60.
    n = 60
    lines = [f"vertex a{i}" for i in range(n + 1)]
    for i in range(n):
        lines += [f"vertex b{i}", f"vertex c{i}"]
        for mid in (f"b{i}", f"c{i}"):
            lines += [f"edge {mid}in a{i} {mid}",
                      f"edge {mid}out {mid} a{i + 1}"]
    path = files("ladder.graph", "\n".join(lines) + "\n")
    begin = time.perf_counter()
    code, out, _ = run(capsys, ["fd-dims", path, "--roots", "a0"])
    took = time.perf_counter() - begin
    assert code == 0
    assert out == f"{2 ** 60}\n"
    assert took < 1.0


def test_fd_dims_rejects_cycles(files, capsys):
    path = files("rose2.graph", ROSE2)
    code, _, err = run(capsys, ["fd-dims", path])
    assert code == 2 and "cycle" in err


def test_iso_command(files, capsys):
    a = files("a.graph", ROSE2)
    code, out, _ = run(capsys, ["iso", a, a])
    assert code == 0
    assert out.strip() == "v -> v"
    rose3 = files(
        "r3.graph",
        "vertex x\nedge p0 x x\nedge p1 x x\nedge p2 x x\n",
    )
    code, out, _ = run(capsys, ["iso", a, rose3])
    assert code == 1
    assert "non-isomorphic" in out


def test_check_kirchhoff_fail(files, capsys):
    path = files("rose2.graph", ROSE2)
    code, out, _ = run(capsys, ["check-kirchhoff", path, "--group", "z3"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL"
    assert lines[1].startswith("start: ")
    assert lines[2].startswith("prefix: ")
    assert lines[3].startswith("cycle: ")


def test_check_kirchhoff_pass(files, capsys):
    path = files("edge1.graph", EDGE1)
    code, out, _ = run(capsys, ["check-kirchhoff", path, "--group", "z"])
    assert code == 0 and out.strip() == "PASS"


def test_check_kirchhoff_unknown(files, capsys):
    path = files("loop.graph", LOOP1)
    code, out, _ = run(
        capsys, ["check-kirchhoff", path, "--group", "z", "--bound", "5"]
    )
    assert code == 3 and out.strip() == "UNKNOWN"


def test_check_kirchhoff_loops_only(files, capsys):
    path = files("rose2.graph", ROSE2)
    code, out, _ = run(
        capsys, ["check-kirchhoff", path, "--group", "z3", "--loops-only"]
    )
    assert code == 1
    assert out.splitlines()[0] == "FAIL"
    balanced = files(
        "balanced.graph",
        "vertex a\nvertex b\nedge e a b 1\nedge f b a -1\n",
    )
    code, out, _ = run(
        capsys, ["check-kirchhoff", balanced, "--group", "z", "--loops-only"]
    )
    assert code == 0 and out.strip() == "PASS"


def test_parse_error_exit_2(files, capsys):
    path = files("bad.graph", "edge e u v\n")
    code, _, err = run(capsys, ["corner", path, "--roots", "u"])
    assert code == 2 and "line 1" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["kth", "/nonexistent/file.graph"])
    assert code == 2


def test_outputs_reparse(files, capsys):
    rose = files("rose2.graph", ROSE2)
    cyc = files("cyc6.graph", CYC6)
    for argv in (
        ["skew", rose, "--group", "z3"],
        ["fixed-point", rose, "--group", "z3"],
        ["corner", cyc, "--roots", "v0"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        parse_graph(out)
