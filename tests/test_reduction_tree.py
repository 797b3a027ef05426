import json

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import checks
from adlvkit import conjugacy as cj
from adlvkit import reduction_tree as rt
from adlvkit.root_datum import build_root_datum
from conftest import length_ball


def test_find_move_none_for_min_len(a1, a5gl):
    assert rt.find_reduction_move(aw.parse_element(a1, "s1")) is None
    assert rt.find_reduction_move(aw.parse_element(a1, "t(1)")) is None
    assert rt.find_reduction_move(aw.omega_element(a5gl, 3)) is None


def test_find_move_a1(a1):
    w = aw.parse_element(a1, "s0 s1 s0")
    move = rt.find_reduction_move(w, seed=0)
    assert move is not None
    pivot, a, shifts = move
    assert pivot == w and a == 0 and shifts == ()


def test_build_tree_a1(a1):
    w = aw.parse_element(a1, "s0 s1 s0")
    tree = rt.build_tree(w, seed=0)
    kinds = {(e.kind, e.target) for e in tree.edges}
    assert kinds == {
        ("I", aw.parse_element(a1, "t(1)")),
        ("II", aw.parse_element(a1, "s1")),
    }
    assert set(tree.endpoints()) == {
        aw.parse_element(a1, "t(1)"),
        aw.parse_element(a1, "s1"),
    }
    for endpoint in tree.endpoints():
        assert cj.is_min_len(endpoint).is_min_len


def test_build_tree_straight_is_single_node(a1):
    w = aw.parse_element(a1, "s1 s0")  # the translation by -alpha^
    assert w == aw.parse_element(a1, "t(-1)")
    tree = rt.build_tree(w, seed=0)
    assert tree.nodes == {w}
    assert tree.edges == []


def test_enumerate_paths_single_node(a1):
    tree = rt.build_tree(aw.identity(a1), seed=0)
    paths = rt.enumerate_paths(tree)
    assert len(paths) == 1
    assert paths[0].count_I == paths[0].count_II == 0
    assert paths[0].edges == ()


def test_enumerate_paths_a1(a1):
    tree = rt.build_tree(aw.parse_element(a1, "s0 s1 s0"), seed=0)
    paths = rt.enumerate_paths(tree)
    assert sorted((p.count_I, p.count_II) for p in paths) == [(0, 1), (1, 0)]
    for p in paths:
        assert p.count_I + p.count_II == len(p.edges)
        assert 3 - aw.length(p.end) == p.count_I + 2 * p.count_II
        assert p.end_class == cj.class_invariant(p.end)


def test_path_count_matches_binary_branching(a2):
    # every internal node branches twice, so paths = leaves of the unfolding
    w = aw.parse_element(a2, "s0 s1 s2 s1 s0")
    tree = rt.build_tree(w, seed=3)
    paths = rt.enumerate_paths(tree)

    def count(node):
        exp = tree.expansions[node]
        if exp is None:
            return 1
        return sum(count(e.target) for e in exp)

    assert len(paths) == count(tree.root)


def test_bgw_examples(a1, a5gl):
    grouped = rt.bgw(aw.omega_element(a5gl, 3), seed=0)
    assert len(grouped) == 1
    ((cls, paths),) = grouped.items()
    assert paths[0].edges == ()
    assert cls == cj.class_invariant(aw.omega_element(a5gl, 3))

    grouped = rt.bgw(aw.parse_element(a5gl, "tau3 s4"), seed=0)
    assert len(grouped) == 1

    grouped = rt.bgw(aw.parse_element(a1, "s0 s1 s0"), seed=0)
    assert len(grouped) == 2
    assert all(len(paths) == 1 for paths in grouped.values())


def test_bgw_contains_own_class(c2sc):
    for x in list(length_ball(c2sc, 4)):
        grouped = rt.path_summary(rt.build_tree(x, seed=1))
        classes = rt.summary_classes(grouped)
        assert cj.class_invariant(x) in classes


def test_seed_invariance_smo(a2):
    w = aw.parse_element(a2, "s0 s1 s2 s1 s0")
    base = rt.path_summary(rt.build_tree(w, seed=0))
    for seed in range(1, 10):
        assert rt.path_summary(rt.build_tree(w, seed=seed)) == base


def test_edge_witness_replay(c2sc):
    w = aw.parse_element(c2sc, "s0 s2 s1 s2 s0")
    tree = rt.build_tree(w, seed=5)
    assert tree.edges
    for edge in tree.edges:
        assert rt.verify_edge(edge)


def test_export_single_node_dot(a1):
    tree = rt.build_tree(aw.identity(a1), seed=0)
    dot = rt.export_tree(tree, format="dot")
    assert dot.count("label=") == 1
    assert "->" not in dot


@pytest.mark.parametrize("spec, max_length", [("A2:adj", 6), ("2A3:sc", 4)])
def test_export_dot_matches_its_own_sort_and_walk(spec, max_length):
    for w in checks.corpus(build_root_datum(spec), max_length):
        for seed in range(4):
            tree = rt.build_tree(w, seed=seed)
            assert rt.export_tree(tree, format="dot") == ref.dot_export(tree)


def test_export_json_roundtrip(a1):
    w = aw.parse_element(a1, "s0 s1 s0")
    tree = rt.build_tree(w, seed=0)
    data = json.loads(rt.export_tree(tree, format="json"))
    assert len(data["nodes"]) == 3
    assert len(data["edges"]) == 2


def test_export_rejects_unknown_format(a1):
    tree = rt.build_tree(aw.identity(a1), seed=0)
    with pytest.raises(ValueError):
        rt.export_tree(tree, format="yaml")


def test_conservation_along_paths(c2sc):
    for x in length_ball(c2sc, 5):
        base = aw.length(x)
        for (cls, c1, c2, lend), mult in rt.path_summary(rt.build_tree(x, seed=2)).items():
            assert base == lend + c1 + 2 * c2
            assert mult >= 1
