import random
from collections import Counter
from itertools import permutations

import pytest

from graphcorners import (
    DirectedMultigraph,
    are_isomorphic,
    relabelled,
)
from graphcorners import iso

from sample_graphs import (
    cyc6,
    cycles,
    multiplicity_map,
    random_multigraph,
    rose2,
    shuffled_copy,
)


def rose(n):
    return DirectedMultigraph(
        ["x"], [(f"p{i}", "x", "x") for i in range(n)]
    )


def test_renamed_rose_isomorphic():
    result = are_isomorphic(rose2(), rose(2))
    assert result.isomorphic
    assert result.witness == {"v": "x"}


def test_different_multiplicity_not_isomorphic():
    assert not are_isomorphic(rose2(), rose(3)).isomorphic


def test_cycle_direction_matters():
    tri = DirectedMultigraph(
        ["a", "b", "c"],
        [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")],
    )
    path3 = DirectedMultigraph(
        ["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")]
    )
    assert not are_isomorphic(tri, path3).isomorphic


def test_witness_is_sound_and_search_symmetric():
    found = 0
    for seed in range(60):
        rng = random.Random(seed)
        g1 = random_multigraph(rng, max_v=6, max_e=9)
        genuine = rng.random() < 0.5
        if genuine:
            # genuine isomorph: shuffle names and insertion order
            g2 = shuffled_copy(g1, rng)
        else:
            g2 = random_multigraph(random.Random(seed + 1000), max_v=6, max_e=9)
        fwd = are_isomorphic(g1, g2)
        bwd = are_isomorphic(g2, g1)
        assert fwd.isomorphic == bwd.isomorphic
        assert fwd.isomorphic or not genuine
        found += genuine
        if fwd.isomorphic:
            w = fwd.witness
            m1 = multiplicity_map(g1)
            m2 = multiplicity_map(g2)
            assert {
                (w[a], w[b]): k for (a, b), k in m1.items()
            } == m2
    assert found > 20


def test_relabelling_never_changes_the_answer():
    for seed in range(30):
        rng = random.Random(seed)
        g1 = random_multigraph(rng, max_v=5, max_e=8)
        g2 = random_multigraph(random.Random(seed + 500), max_v=5, max_e=8)
        base = are_isomorphic(g1, g2).isomorphic
        names = [f"z{i}" for i in range(len(g1.vertices))]
        rng.shuffle(names)
        g1b = relabelled(g1, dict(zip(g1.vertices, names)))
        assert are_isomorphic(g1b, g2).isomorphic == base


def test_size_guard(monkeypatch):
    big = DirectedMultigraph([f"v{i}" for i in range(13)])
    with pytest.raises(ValueError) as caught:
        are_isomorphic(big, big)
    assert str(caught.value) == "isomorphism size guard exceeded (12 vertices)"
    monkeypatch.setattr(iso, "MAX_VERTICES", 13)
    result = are_isomorphic(big, big)
    assert result.isomorphic


def test_self_isomorphism_of_cyc6():
    result = are_isomorphic(cyc6(), cyc6())
    assert result.isomorphic


def isomorphic_by_permutations(g1, g2) -> bool:
    """Whether some bijection of g1's vertices onto g2's carries g1's edge
    multiset onto g2's, tried over every permutation: an oracle that
    shares no code with are_isomorphic."""
    if len(g1.vertices) != len(g2.vertices):
        return False
    target = Counter((e.src, e.dst) for e in g2.edges)
    ends = [(e.src, e.dst) for e in g1.edges]
    for perm in permutations(g2.vertices):
        f = dict(zip(g1.vertices, perm))
        if Counter((f[a], f[b]) for a, b in ends) == target:
            return True
    return False


def test_matches_brute_force_over_all_permutations():
    outcomes = Counter()
    for seed in range(300):
        rng = random.Random(f"iso oracle {seed}")
        g1 = random_multigraph(rng, max_v=6, max_e=rng.choice([5, 9, 14]))
        kind = rng.choice(["copy", "rewired", "random"])
        if kind == "random":
            g2 = random_multigraph(rng, max_v=6, max_e=14)
        else:
            g2 = shuffled_copy(g1, rng, rewire=kind == "rewired")
        expected = isomorphic_by_permutations(g1, g2)
        for a, b in ((g1, g2), (g2, g1)):
            result = are_isomorphic(a, b)
            assert result.isomorphic == expected
            if expected:
                w = result.witness
                assert sorted(w) == sorted(a.vertices)
                assert sorted(w.values()) == sorted(b.vertices)
                assert Counter((w[e.src], w[e.dst]) for e in a.edges) \
                    == Counter((e.src, e.dst) for e in b.edges)
        outcomes[kind, expected] += 1
    assert outcomes["copy", True] > 80
    assert min(outcomes["rewired", True], outcomes["rewired", False]) > 25


@pytest.mark.parametrize("lengths1,lengths2", [
    ((3, 3), (6,)), ((2, 2), (4,)), ((3, 4), (7,)), ((2, 2, 2), (3, 3)),
    ((3, 3, 3, 3), (4, 4, 4)), ((5, 7), (6, 6)),
], ids=str)
def test_signature_equal_non_isomorphs(lengths1, lengths2):
    # Every vertex has one edge in and one out, so the degree signatures
    # prune nothing and the search must backtrack until it fails.
    g1, g2 = cycles(*lengths1), cycles(*lengths2)
    assert not are_isomorphic(g1, g2).isomorphic
    assert not are_isomorphic(g2, g1).isomorphic
    if len(g1.vertices) <= 6:
        assert not isomorphic_by_permutations(g1, g2)
    shuffle = random.Random(str(lengths1 + lengths2))
    assert are_isomorphic(g1, shuffled_copy(g1, shuffle)).isomorphic
    assert are_isomorphic(g2, shuffled_copy(g2, shuffle)).isomorphic


def test_empty_graphs_are_isomorphic():
    empty = DirectedMultigraph([])
    assert are_isomorphic(empty, empty) == (True, {})
