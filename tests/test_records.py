"""The contract of the public records: constructor signature and defaults,
construction checks, immutability, field-wise equality and hash, ``repr``
text, and views computed once per record."""

import copy
import pickle

import pytest

from graphcorners import (
    CornerGraph,
    DirectedSubtree,
    Edge,
    FixedPointResult,
    GroupSpec,
    IntegerMatrix,
    IsoResult,
    KirchhoffResult,
    KTheoryResult,
    Labelling,
    SmithDecomposition,
    build_spanning_subtree,
    corner_graph,
    fixed_point_pipeline,
    smith_normal_form,
)

from reference import Path
from sample_graphs import cyc6, rose2


def every_record():
    """One instance of each public record, and of the reference ``Path``,
    with its field names."""
    g = cyc6()
    tree = build_spanning_subtree(g, ["v0"])
    z3 = GroupSpec((3,))
    matrix = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    return [
        (Edge("e", "u", "v"), ("name", "src", "dst", "label")),
        (Path("v", ("e",)), ("start", "edges")),
        (z3, ("moduli",)),
        (matrix,
         ("rows", "cols", "entries", "row_labels", "col_labels")),
        (smith_normal_form(matrix),
         ("diagonal", "left", "right", "factors", "rank")),
        (KTheoryResult(1, (2,), 1),
         ("k0_free_rank", "k0_invariant_factors", "k1_rank")),
        (IsoResult(True, {"v": "v"}), ("isomorphic", "witness")),
        (KirchhoffResult("FAIL", "v", (), ("e",)),
         ("status", "start", "prefix", "cycle")),
        (fixed_point_pipeline(Labelling.from_graph(rose2(), z3)),
         ("skew", "tree", "corner")),
        (Labelling.from_graph(rose2(), z3), ("host", "group", "by_index")),
        (tree, ("host", "parent_edge", "spanned_indices")),
        (corner_graph(tree), ("graph", "host", "origin")),
    ]


def test_every_public_record_is_covered():
    assert {type(r) for r, _ in every_record()} == {
        Edge, Path, GroupSpec, IntegerMatrix, SmithDecomposition,
        KTheoryResult, IsoResult, KirchhoffResult, FixedPointResult,
        Labelling, DirectedSubtree, CornerGraph,
    }


def test_fields_can_be_neither_assigned_nor_deleted():
    for record, fields in every_record():
        for name in fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value


def test_records_survive_copy_and_pickle():
    # Path is a slotted class whose fields refuse assignment, so copy and
    # pickle must rebuild it through its constructor.
    for record, _ in every_record():
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_group_spec_checks_its_moduli():
    with pytest.raises(ValueError, match="^group needs at least one factor$"):
        GroupSpec(())
    with pytest.raises(ValueError,
                       match=r"^factor moduli must be 0 \(infinite\) or >= 1$"):
        GroupSpec((3, -1))
    assert GroupSpec(moduli=(0, 2)).moduli == (0, 2)


def test_integer_matrix_built_directly_checks_its_shape():
    with pytest.raises(ValueError, match="^row count mismatch$"):
        IntegerMatrix(2, 1, ((1,),))
    with pytest.raises(ValueError, match="^column count mismatch$"):
        IntegerMatrix(2, 2, ((1, 2), (3,)))
    m = IntegerMatrix(1, 2, ((1, 2),))
    assert (m.row_labels, m.col_labels) == ((), ())
    assert m == IntegerMatrix.from_rows([[1, 2]])


def test_replace_and_make_check_like_the_constructor():
    with pytest.raises(ValueError, match="^group needs at least one factor$"):
        GroupSpec((3,))._replace(moduli=())
    with pytest.raises(ValueError, match="^factor moduli must be 0"):
        GroupSpec._make([(-2,)])
    assert GroupSpec((3,))._replace(moduli=(4,)) == GroupSpec((4,))
    m = IntegerMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError, match="^row count mismatch$"):
        m._replace(rows=2)
    with pytest.raises(ValueError, match="^column count mismatch$"):
        IntegerMatrix._make([1, 3, ((1, 2),), (), ()])
    assert m._replace(row_labels=("r",)).row_labels == ("r",)


def test_constructor_defaults_and_keywords():
    assert Edge(name="e", src="u", dst="v").label is None
    assert Path("v").edges == ()
    assert KirchhoffResult("PASS") == KirchhoffResult(
        status="PASS", start=None, prefix=None, cycle=None)
    assert IsoResult(False).witness is None


@pytest.mark.parametrize("make", [
    lambda: GroupSpec((3, 0)),
    lambda: Edge("e", "u", "v", "1"),
    lambda: Path("v", ("e", "f")),
    lambda: KirchhoffResult("FAIL", "v", ("e",), ("f",)),
])
def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_values_compare_unequal():
    assert GroupSpec((3,)) != GroupSpec((4,))
    assert Edge("e", "u", "v") != Edge("e", "u", "v", "1")
    assert Path("v", ("e",)) != Path("w", ("e",))
    assert Path("v", ("e",)) != Path("v", ("e", "e"))
    assert KirchhoffResult("PASS") != KirchhoffResult("UNKNOWN")
    assert Path("v", ("e",)) != ("v", ("e",))  # a path is not a tuple


def test_repr_text():
    assert repr(Edge("e", "u", "v")) == (
        "Edge(name='e', src='u', dst='v', label=None)")
    assert repr(Path("v", ("e",))) == "Path(start='v', edges=('e',))"
    assert repr(GroupSpec((0, 2))) == "GroupSpec(moduli=(0, 2))"
    assert repr(KirchhoffResult("FAIL", "v", (), ("e",))) == (
        "KirchhoffResult(status='FAIL', start='v', prefix=(), "
        "cycle=('e',))")
    assert repr(KTheoryResult(1, (2, 4), 0)) == (
        "KTheoryResult(k0_free_rank=1, k0_invariant_factors=(2, 4), "
        "k1_rank=0)")


def test_path_length_truth_and_prefix_order():
    empty, one, two = Path("v"), Path("v", ("e",)), Path("v", ("e", "f"))
    assert [len(p) for p in (empty, one, two)] == [0, 1, 2]
    assert not empty and one and two
    assert empty.is_prefix_of(two) and one.is_prefix_of(two)
    assert two.is_prefix_of(two)
    assert not two.is_prefix_of(one)
    assert not Path("w").is_prefix_of(two)


def test_views_are_computed_once():
    g = cyc6()
    tree = build_spanning_subtree(g, ["v0"])
    for view in ("tree_edges", "tree_vertices", "roots", "parent"):
        assert getattr(tree, view) is getattr(tree, view)
    assert tree.tree_edges == {"e1", "f2"}
    assert tree.parent == {"v1": "e1", "v2": "f2"}
    assert tree == build_spanning_subtree(g, ["v0"])
    assert tree != build_spanning_subtree(g, ["v1"])
    corner = corner_graph(tree)
    assert corner.provenance is corner.provenance
    assert corner == corner_graph(tree)
    assert set(corner.provenance) == set(corner.graph._names)
