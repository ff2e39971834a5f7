"""Acceptance suite: one test per release criterion, all exact checks.

Each test prints a single status line (visible with ``pytest -s`` or on
failure); the whole suite runs in well under a minute.
"""

import random

import pytest

from graphcorners import (
    CapExceededError,
    GroupSpec,
    KTheoryResult,
    Labelling,
    are_isomorphic,
    corner_graph,
    fd_dimension_vector,
    fixed_point_pipeline,
    hereditary_closure,
    k_theory,
    kirchhoff_check,
    skew_product,
    smith_normal_form,
    validate_subtree,
)
from graphcorners.invariants import IntegerMatrix

from reference import rational_rank, saturate
from sample_graphs import (
    cyc6,
    edge1,
    enumerated_dimension_vector,
    multiplicity_map,
    pqr,
    random_bfs_tree,
    random_dag,
    random_multigraph,
    random_vertex_subset,
    rose2,
    single_loop,
)


def report(n, slug):
    print(f"\ncriterion {n} ({slug}): PASS")


def test_criterion_1_two_cycle_corner_exact():
    g = cyc6()
    tree = validate_subtree(g, ["e1", "f2"], ["v0"])
    result = corner_graph(tree)
    assert set(result.graph.vertices) == {"v1", "v2"}
    assert {(e.name, e.src, e.dst) for e in result.graph.edges} == {
        ("e0@v1", "v2", "v1"),
        ("e0@v2", "v2", "v2"),
        ("e2@v2", "v1", "v2"),
        ("f0@v1", "v1", "v1"),
        ("f0@v2", "v1", "v2"),
        ("f1@v1", "v2", "v1"),
    }
    assert result.provenance == {
        f"{e}@{u}": (e, u)
        for e, u in [
            ("e0", "v1"), ("e0", "v2"), ("e2", "v2"),
            ("f0", "v1"), ("f0", "v2"), ("f1", "v1"),
        ]
    }
    report(1, "two-cycle corner, exact edges")


def test_criterion_2_three_vertex_family_both_trees():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for r in (1, 2, 3):
                g = pqr(p, q, r)
                t1 = validate_subtree(g, ["e", "g"], ["u"])
                assert are_isomorphic(
                    corner_graph(t1).graph, g
                ).isomorphic, (p, q, r)
                t2 = validate_subtree(g, ["e", "f"], ["u"])
                got = multiplicity_map(corner_graph(t2).graph)
                assert got == {
                    ("u", "u"): 1,
                    ("v", "v"): 1,
                    ("w", "w"): 1,
                    ("u", "v"): p,
                    ("v", "w"): q,
                    ("u", "w"): p + r,
                }, (p, q, r)
    report(2, "loop-chain family, both subtrees")


def test_criterion_3_hereditary_roots_degenerate_case():
    for seed in range(50):
        rng = random.Random(seed)
        g = random_multigraph(rng, max_v=7, max_e=12)
        x = sorted(hereditary_closure(g, random_vertex_subset(rng, g)))
        tree = validate_subtree(g, [], x)
        result = corner_graph(tree)
        xset = set(x)
        assert list(result.graph.vertices) == [
            v for v in g.vertices if v in xset
        ]
        assert [(e.name, e.src, e.dst) for e in result.graph.edges] == [
            (f"{e.name}@{e.dst}", e.src, e.dst)
            for e in g.edges
            if e.src in xset
        ]
    report(3, "hereditary root set = induced restriction, 50 instances")


def test_criterion_4_rose_skew_product():
    g = rose2()
    c = Labelling.from_graph(g, GroupSpec.parse("z3"))
    assert are_isomorphic(skew_product(c), cyc6()).isomorphic
    report(4, "rose z3 skew product")


def test_criterion_5_rose_fixed_point():
    g = rose2()
    c = Labelling.from_graph(g, GroupSpec.parse("z3"))
    fp = fixed_point_pipeline(c, 100).corner.graph
    assert len(fp.vertices) == 2 and len(fp.edges) == 6
    a, b = fp.vertices
    assert multiplicity_map(fp) == {
        (a, a): 1, (b, b): 1, (a, b): 2, (b, a): 2,
    }
    host = cyc6()
    tree = validate_subtree(host, ["e1", "f2"], ["v0"])
    assert are_isomorphic(fp, corner_graph(tree).graph).isomorphic
    report(5, "rose z3 fixed point graph")


def test_criterion_6_family_k_theory():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for r in (1, 2, 3):
                family = [
                    k_theory(pqr(p, q, r + n * p)) for n in range(6)
                ]
                assert all(kt == family[0] for kt in family), (p, q, r)
                e0 = pqr(p, q, r)
                closure = hereditary_closure(e0, ["u"])
                assert saturate(e0, closure) == set(e0.vertices)
                t2 = validate_subtree(e0, ["e", "f"], ["u"])
                assert k_theory(corner_graph(t2).graph) == family[0]
    report(6, "k-theory constant along the family + full corner")


def test_criterion_7_acyclic_oracle_suite():
    instances = 0
    while instances < 200:
        rng = random.Random(1000 + instances)
        g = random_dag(rng, max_v=8, max_e=14)
        roots = random_vertex_subset(rng, g)
        tree = random_bfs_tree(g, roots, rng)
        left = fd_dimension_vector(corner_graph(tree).graph)
        right = enumerated_dimension_vector(g, roots)
        assert left == right, (instances, left, right)
        instances += 1
    report(7, "200 acyclic instances, corner blocks = path counts")


def test_criterion_8_voltage_law_guarantees_pipeline():
    passes = 0
    for seed in range(100):
        rng = random.Random(seed)
        g = random_multigraph(rng, max_v=6, max_e=9)
        group = GroupSpec.parse(rng.choice(["z2", "z3", "z4"]))
        c = Labelling.from_map(
            g,
            group,
            {
                e.name: 0 if rng.random() < 0.3
                else rng.randrange(group.moduli[0])
                for e in g.edges
            },
        )
        if kirchhoff_check(c).status != "PASS":
            continue
        passes += 1
        result = fixed_point_pipeline(c, len(g.vertices) * group.order)
        assert set(result.tree.roots) == {f"{v}@0" for v in g.vertices}
    assert passes > 0
    report(8, f"voltage law PASS => pipeline succeeds ({passes}/100 passed)")


def test_criterion_9_smith_self_check():
    for seed in range(100):
        rng = random.Random(seed)
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
        snf = smith_normal_form(M)
        assert (snf.left @ M) @ snf.right == snf.diagonal
        for a, b in zip(snf.factors, snf.factors[1:]):
            assert b % a == 0
        assert all(d >= 1 for d in snf.factors)
        assert snf.rank == rational_rank(M)
    report(9, "100 smith decompositions reconstructed and cross-ranked")


def test_criterion_10_gauge_labelling_examples():
    g = edge1()
    c = Labelling.from_graph(g, GroupSpec.parse("z"))
    fp = fixed_point_pipeline(c, 100).corner.graph
    assert set(fp.vertices) == {"v@0", "v@-1"}
    assert fp.edges == ()
    loop = single_loop("1")
    cl = Labelling.from_graph(loop, GroupSpec.parse("z"))
    with pytest.raises(CapExceededError):
        fixed_point_pipeline(cl, 100)
    report(10, "gauge labelling: two-point core and cap blowup")
