import argparse
import ast
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import graphcorners
from graphcorners import (
    GraphFormatError,
    GroupSpec,
    Labelling,
    build_spanning_subtree,
    corner_graph,
    fixed_point_pipeline,
    invariants,
    parse_graph,
    relabelled,
    serialize_graph,
    to_dot,
)
from graphcorners.cli import _emit_graph, main

from sample_graphs import big_dag_text, cyc6, edge1, pqr, rose2, single_loop

ROSE2 = serialize_graph(rose2())
CYC6 = serialize_graph(cyc6())
EDGE1 = serialize_graph(edge1())
LOOP1 = serialize_graph(single_loop("1"))
BALANCED = "vertex a\nvertex b\nedge e a b 1\nedge f b a -1\n"


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


def test_fixed_point_finite_group_ignores_cap(files, capsys):
    path = files("e1.graph", EDGE1)
    outputs = [
        run(capsys, ["fixed-point", path, "--group", "z5", "--cap", cap])
        for cap in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1]


@pytest.mark.parametrize("group", ["z5", "z"])
@pytest.mark.parametrize("flags,out", [
    ([], ""), (["--dot"], "digraph G {\n}\n"), (["--relabel"], ""),
], ids=["plain", "dot", "relabel"])
def test_fixed_point_on_a_graph_with_no_vertices(files, capsys, group, flags,
                                                 out):
    # Like skew, kth and check-kirchhoff on the same file: an empty answer.
    path = files("empty.graph", "")
    assert run(capsys, ["fixed-point", path, "--group", group, *flags]) == (
        0, out, "")


@pytest.mark.parametrize("command", ["skew", "fixed-point"])
@pytest.mark.parametrize("group", ["z3", "z"])
def test_negative_cap_is_rejected(files, capsys, command, group):
    path = files("balanced.graph", BALANCED)
    assert run(capsys, [command, path, "--group", group, "--cap", "-5"]) == (
        2, "", "cap must be non-negative\n")


@pytest.mark.parametrize("argv", [
    ["closure", "--roots", ","],
    ["tree", "--roots", ","],
    ["corner", "--roots", ","],
    ["corner", "--roots", ",", "--tree-edges", ","],
    ["fd-dims", "--roots", ","],
    ["fd-dims", "--roots", ""],
])
def test_empty_root_set_is_rejected(files, capsys, argv):
    path = files("edge1.graph", EDGE1)
    assert run(capsys, [argv[0], path, *argv[1:]]) == (
        2, "", "root set must be non-empty\n")


def test_corner_name_clash_gets_a_suffix(files, capsys):
    # Both non-tree edges a: r -> b@c and a@b: r -> c would name their
    # corner edge a@b@c; the later one takes the suffix .1.
    path = files("clash.graph", (
        "vertex r\nvertex b@c\nvertex c\nedge 0t r b@c\nedge 0u r c\n"
        "edge a r b@c\nedge a@b r c\n"
    ))
    code, out, err = run(capsys, ["corner", path, "--roots", "r"])
    assert (code, err) == (0, "")
    g = parse_graph(out)
    assert [(e.name, e.src, e.dst) for e in g.edges] == [
        ("a@b@c", "r", "b@c"), ("a@b@c.1", "r", "c"),
    ]


def test_kth_command(files, capsys):
    rose = files("rose2.graph", ROSE2)
    code, out, _ = run(capsys, ["kth", rose])
    assert code == 0
    assert out == "K0 = 0\nK1 = 0\n"
    p111 = files("pqr.graph", serialize_graph(pqr(1, 1, 1)))
    code, out, _ = run(capsys, ["kth", p111])
    assert code == 0
    assert out == "K0 = Z^1\nK1 = Z^1\n"


def test_kth_on_200_vertices_600_edges(files, capsys):
    # The transform-tracking Smith normal form did not finish this in 60 s.
    rng = random.Random(5)
    vs = [f"v{i}" for i in range(200)]
    lines = [f"vertex {v}" for v in vs] + [
        f"edge e{k} {rng.choice(vs)} {rng.choice(vs)}" for k in range(600)
    ]
    path = files("random200.graph", "\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["kth", path])
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (0, "K0 = Z^7\nK1 = Z^1\n", "")
    assert run(capsys, ["kth", path]) == (code, out, err)


def test_kth_bit_budget_exit_3(files, capsys, monkeypatch):
    monkeypatch.setattr(invariants, "BIT_BUDGET", 1)
    rose4 = "vertex v\n" + "".join(f"edge l{i} v v\n" for i in range(4))
    code, out, err = run(capsys, ["kth", files("rose4.graph", rose4)])
    assert code == 3 and out == ""
    assert err.strip() == (
        "invariant factors: an entry of 2 bits exceeds the budget of 1 "
        "bits after 0 pivots, with a dense remainder of 1x1"
    )


def test_memory_error_exits_3(files, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(graphcorners.cli, "skew_product", exhausted)
    code, out, err = run(capsys, ["skew", files("edge1.graph", EDGE1),
                                  "--group", "z3"])
    assert (code, out, err) == (3, "", "out of memory\n")


MEMORY_PROBE = """
import resource, sys
from graphcorners.cli import main
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status
               if line.startswith("VmSize:"))
limit = (kib + 64 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads its size from /proc/self/status")
def test_out_of_memory_exits_3(files):
    # The full skew over a group of 10^8 elements lists the elements
    # first; with its address space capped 64 MiB above its size at
    # start, the process runs out of memory there.
    path = files("balanced.graph", BALANCED)
    done = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, "skew", path,
         "--group", "z100000000"],
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "out of memory\n")


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


def _whole(x: int) -> str:
    """Python's own decimal text of x, with the interpreter's limit on
    the digits of an int turned to str lifted here, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return str(x)
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def diamond_chain_text(n: int) -> str:
    """v0 -> a_i, b_i -> v_{i+1} for i < n: 2^n paths from v0 to v_n."""
    lines = [f"vertex v{i}" for i in range(n + 1)]
    lines += [f"vertex {m}{i}" for i in range(n) for m in "ab"]
    lines += [f"edge {m}{i}{d} {u} {w}" for i in range(n) for m in "ab"
              for d, u, w in (("i", f"v{i}", f"{m}{i}"),
                              ("o", f"{m}{i}", f"v{i + 1}"))]
    return "\n".join(lines) + "\n"


def doubled_cycle_text(n: int) -> str:
    """An n-cycle with every edge doubled: K0 = Z/(2^n - 1)."""
    lines = [f"vertex c{i}" for i in range(n)]
    lines += [f"edge {d}{i} c{i} c{(i + 1) % n}" for i in range(n) for d in "xy"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["fd-dims", "kth"])
def test_exact_integers_print_whole(files, capsys, command):
    # 2^15000 has 4,516 digits, past CPython's default limit of 4,300 for
    # turning an int to str; main lifts it for the run and puts it back.
    if command == "fd-dims":
        path = files("chain.graph", diamond_chain_text(15_000))
        argv = [command, path, "--roots", "v0"]
        expected = _whole(2 ** 15_000) + "\n"
    else:
        path = files("cycle.graph", doubled_cycle_text(15_000))
        argv = [command, path]
        expected = f"K0 = Z/{_whole(2 ** 15_000 - 1)}\nK1 = 0\n"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert run(capsys, argv) == (0, expected, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with pytest.raises(SystemExit):  # argparse exits on a missing file
        main([command])
    capsys.readouterr()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    done = subprocess.run(
        [sys.executable, "-m", "graphcorners.cli", *argv],
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_label_coordinates_hold_at_most_4300_digits(files, capsys):
    # Two labels of 4,300 nines add up to 4,301 digits, which print whole;
    # a coordinate of 4,301 digits is refused, by the library as well.
    nines = "9" * 4300
    path = files("long.graph", "vertex a\nvertex b\nvertex c\n"
                 f"edge e a b {nines}\nedge f b c {nines}\n")
    code, out, err = run(capsys, ["skew", path, "--group", "z"])
    assert (code, err) == (0, "")
    assert f"vertex c@{_whole(-2 * int(nines))}\n" in out
    path = files("longer.graph", f"vertex a\nedge e a a 1{nines}\n")
    code, out, err = run(capsys, ["skew", path, "--group", "z"])
    assert (code, out) == (2, "")
    assert err.startswith("edge 'e': bad group element '1999")
    with pytest.raises(GraphFormatError, match="bad group element"):
        Labelling.from_graph(parse_graph(f"vertex a\nedge e a a 1{nines}"),
                             GroupSpec.parse("z"))


@pytest.mark.parametrize("flags", [[], ["--dot"], ["--relabel"]])
def test_fixed_point_output_reads_as_its_parsed_back_corner(files, capsys,
                                                            flags):
    # The pipeline's corner holds no label column; written plain, as DOT
    # or relabelled, it reads as the same corner parsed back, whose label
    # column is a list of None.
    path = files("dag.graph", big_dag_text(n=300))
    code, out, _ = run(capsys, ["fixed-point", path, "--group", "z5", *flags])
    host = parse_graph(Path(path).read_text(encoding="utf-8"))
    corner = fixed_point_pipeline(
        host, Labelling.from_graph(host, GroupSpec.parse("z5"))).corner.graph
    args = argparse.Namespace(dot="--dot" in flags,
                              relabel="--relabel" in flags)
    _emit_graph(parse_graph(serialize_graph(corner)), args)
    assert code == 0 and out == capsys.readouterr().out


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


def test_check_kirchhoff_negative_bound_exit_2(files, capsys):
    path = files("balanced.graph", BALANCED)
    code, out, _ = run(capsys, ["check-kirchhoff", path, "--group", "z"])
    assert code == 0 and out.strip() == "PASS"
    # With --loops-only the bound goes unused, and is still checked: on
    # this loop the cycle-label check would print FAIL.
    loop = files("loop.graph", LOOP1)
    for argv in (["check-kirchhoff", path, "--group", "z", "--bound", "-1"],
                 ["check-kirchhoff", loop, "--group", "z3", "--bound", "-1",
                  "--loops-only"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "bound must be non-negative\n"


def test_check_kirchhoff_loops_only(files, capsys):
    path = files("rose2.graph", ROSE2)
    code, out, _ = run(
        capsys, ["check-kirchhoff", path, "--group", "z3", "--loops-only"]
    )
    assert code == 1
    assert out.splitlines()[0] == "FAIL"
    balanced = files("balanced.graph", BALANCED)
    code, out, _ = run(
        capsys, ["check-kirchhoff", balanced, "--group", "z", "--loops-only"]
    )
    assert code == 0 and out.strip() == "PASS"


def test_parse_error_exit_2(files, capsys):
    path = files("bad.graph", "edge e u v\n")
    code, _, err = run(capsys, ["corner", path, "--roots", "u"])
    assert code == 2 and "line 1" in err


def test_repeated_main_calls_match_single_calls(files, capsys):
    # The argument parser is built once per process; calls in sequence
    # must print what each call prints on its own.
    cyc = files("cyc6.graph", CYC6)
    rose = files("rose2.graph", ROSE2)
    bad = files("bad.graph", "edge e u v\n")
    sequences = [
        [["corner", cyc, "--roots", "v0", "--dot"],
         ["corner", cyc, "--roots", "v0"]],
        [["skew", rose, "--group", "z3", "--relabel"],
         ["skew", rose, "--group", "z3"]],
        [["corner", bad, "--roots", "u"],
         ["corner", cyc, "--roots", "v0"]],
    ]
    alone = {}
    for argv in [argv for seq in sequences for argv in seq]:
        alone[tuple(argv)] = subprocess.run(
            [sys.executable, "-m", "graphcorners.cli", *argv],
            capture_output=True, text=True, env=os.environ | {
                "PYTHONPATH": os.pathsep.join(sys.path)},
        )
    for seq in sequences:
        for argv in seq:
            code, out, err = run(capsys, argv)
            single = alone[tuple(argv)]
            assert (code, out, err) == (
                single.returncode, single.stdout, single.stderr)


def test_missing_file_exit_2(capsys):
    code, out, err = run(capsys, ["kth", "/nonexistent/file.graph"])
    assert (code, out) == (2, "")
    assert err == ("[Errno 2] No such file or directory: "
                   "'/nonexistent/file.graph'\n")


def test_directory_as_graph_file_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, ["kth", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == f"[Errno 21] Is a directory: {str(tmp_path)!r}\n"


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


@pytest.fixture(scope="module")
def big_dag(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "dag.graph"
    path.write_text(big_dag_text(), encoding="utf-8")
    return str(path)


class WriteLog:
    """A stdout that keeps each write apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def writelines(self, texts) -> None:
        for text in texts:
            self.write(text)

    def flush(self) -> None:
        pass


# No write of a graph may be longer than this: the text goes out in
# blocks as it is formatted, never whole.
WRITE_BOUND = 250_000


@pytest.mark.parametrize("command, flags", [
    ("corner", []), ("corner", ["--dot"]), ("corner", ["--relabel"]),
    ("fixed-point", []), ("fixed-point", ["--dot", "--relabel"]),
])
def test_graph_output_is_written_in_blocks(big_dag, monkeypatch, command,
                                           flags):
    host = parse_graph(Path(big_dag).read_text(encoding="utf-8"))
    if command == "corner":
        argv = ["corner", big_dag, "--roots", "v0"]
        g = corner_graph(host, build_spanning_subtree(host, ["v0"])).graph
    else:
        argv = ["fixed-point", big_dag, "--group", "z5"]
        c = Labelling.from_graph(host, GroupSpec.parse("z5"))
        g = fixed_point_pipeline(host, c).corner.graph
    if "--relabel" in flags:
        g = relabelled(g, {v: f"v{i}" for i, v in enumerate(g.vertices)},
                       {e.name: f"e{k}" for k, e in enumerate(g.edges)})
    expected = to_dot(g) if "--dot" in flags else serialize_graph(g)
    log = WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(argv + flags) == 0
    assert len(expected) > 4 * WRITE_BOUND
    assert len(log.writes) > 1
    assert max(map(len, log.writes)) <= WRITE_BOUND
    assert "".join(log.writes) == expected


def _emit_peak(g, monkeypatch, dot=False, relabel=False) -> int:
    """The tracemalloc peak of writing g to the null device."""
    args = argparse.Namespace(dot=dot, relabel=relabel)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            _emit_graph(g, args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_graph_output_peak_memory_is_under_half_its_length(big_dag,
                                                           monkeypatch):
    # Formatting holds one block at a time: not the list of lines, nor
    # the joined text, each of which is as long as the output or longer.
    # The corner's names are formatted as their lines are.
    host = parse_graph(Path(big_dag).read_text(encoding="utf-8"))
    g = corner_graph(host, build_spanning_subtree(host, ["v0"])).graph
    length = len(serialize_graph(g))
    assert _emit_peak(g, monkeypatch) < length / 2


def test_relabel_output_peak_memory_is_under_half_its_length(big_dag,
                                                             monkeypatch):
    # --relabel's positional names are formatted as their lines are, not
    # gathered into a mapping first.
    host = parse_graph(Path(big_dag).read_text(encoding="utf-8"))
    g = corner_graph(host, build_spanning_subtree(host, ["v0"])).graph
    length = len(serialize_graph(g))
    assert _emit_peak(g, monkeypatch, relabel=True) < length / 2


def test_dot_output_peak_memory_is_one_sort_key_per_edge(big_dag,
                                                         monkeypatch):
    # DOT lists the corner's edges sorted by name: the sort holds one
    # integer key per edge, in place, and no list of names.
    host = parse_graph(Path(big_dag).read_text(encoding="utf-8"))
    g = corner_graph(host, build_spanning_subtree(host, ["v0"])).graph
    assert _emit_peak(g, monkeypatch, dot=True) < 56 * len(g.edges)


def _run_cli(argv, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "graphcorners.cli", *argv],
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
        **kwargs,
    )


def test_closed_stdout_exits_quietly(big_dag):
    # The output is far larger than a pipe's buffer, so the reader closes
    # the pipe while the command is still writing, as ``| head -n 1``.
    proc = _run_cli(["corner", big_dag, "--roots", "v0"],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"vertex ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
def test_full_stdout_exits_2(big_dag):
    with open("/dev/full", "w") as full:
        proc = _run_cli(["corner", big_dag, "--roots", "v0"],
                        stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (
        2, b"[Errno 28] No space left on device\n")


IMPORT_PROBE = """
import sys
for name in sys.argv[1:]:
    __import__(name)
before = set(sys.modules)
import graphcorners.cli
print(*sorted(set(sys.modules) - before))
print(*sorted(sys.modules))
"""


def test_cli_import_loads_only_the_package_and_its_stdlib_imports():
    # The stdlib modules named at the top level of the package's modules
    # are imported first; importing the CLI after them may add the
    # package's own modules and nothing else.  So a third-party import or
    # a function-level stdlib import run at import time would show, and
    # heapq, which no module uses, must stay unloaded.  ``-S`` keeps
    # site's start-up imports out of the picture.  Nor may the package
    # load dataclasses (which brings inspect, ast and dis) or pathlib: for
    # a small graph they would cost more than the command's work.
    package = Path(graphcorners.__file__).resolve().parent
    stdlib = set()
    for source in package.glob("*.py"):
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                stdlib.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                stdlib.add(node.module)
    stdlib = {name for name in stdlib
              if name.split(".")[0] in sys.stdlib_module_names}
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, *sorted(stdlib)],
        capture_output=True, text=True, check=True,
        env=os.environ | {"PYTHONPATH": str(package.parent)},
    )
    added, everything = (line.split() for line in done.stdout.splitlines())
    assert "graphcorners.cli" in added
    assert [name for name in added if name.split(".")[0] != "graphcorners"
            ] == []
    assert {"heapq", "sympy", "networkx", "dataclasses", "inspect",
            "pathlib"}.isdisjoint(everything)
