from fractions import Fraction

import pytest

from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import classifier as cl
from adlvkit import conjugacy as cj
from adlvkit import reduction_tree as rt
from adlvkit.errors import CapExceededError, NotAShiftError
from adlvkit.linalg import identity_matrix
from adlvkit.root_datum import RootDatum, build_root_datum, parse_spec
from conftest import length_ball


def test_cyclic_shift_drop(a1):
    x = aw.parse_element(a1, "t(2) s1")
    move = cj.cyclic_shift(x, 0)
    assert move.delta_length == -2
    assert move.after == aw.parse_element(a1, "s1")
    assert move.after == cj.conjugate_by_simple(x, 0)


def test_cyclic_shift_straight_is_flat(a1):
    x = aw.parse_element(a1, "t(1)")
    move = cj.cyclic_shift(x, 1)
    assert move.delta_length == 0
    assert move.after == aw.parse_element(a1, "t(-1)")


def test_cyclic_shift_rejects_increase(a1):
    with pytest.raises(NotAShiftError):
        cj.cyclic_shift(aw.parse_element(a1, "s1"), 0)


def test_shift_class_identity(a1):
    assert cj.shift_class(aw.identity(a1)) == frozenset({aw.identity(a1)})


def test_shift_class_translation(a1):
    cls = cj.shift_class(aw.parse_element(a1, "t(1)"))
    assert cls == {aw.parse_element(a1, "t(1)"), aw.parse_element(a1, "t(-1)")}


def test_shift_class_spellings(a5gl):
    # the two spellings differ by a twisted conjugation inside the class
    w = aw.parse_element(a5gl, "tau3 s4")
    other = aw.parse_element(a5gl, "tau3 s1")
    assert other in cj.shift_class(w)


def test_shift_class_cap(a5gl):
    with pytest.raises(CapExceededError):
        cj.shift_class(aw.parse_element(a5gl, "t(3,1,0,-1,0,0) s1 s3"), cap=2)


# every search that reads the shift class graph, directly or through a memo
CAPPED_SEARCHES = {
    "shift_class": lambda w, cap: cj.shift_class(w, cap=cap),
    "is_min_len": lambda w, cap: cj.is_min_len(w, cap=cap),
    "find_reduction_move": lambda w, cap: rt.find_reduction_move(w, seed=0, cap=cap),
    "is_minimal_coxeter_type": lambda w, cap: cl.is_minimal_coxeter_type(w, cap=cap),
    "build_tree": lambda w, cap: rt.tree_to_dict(rt.build_tree(w, seed=0, cap=cap)),
    "classify": lambda w, cap: cl.report_to_dict(cl.classify(w, cap=cap)),
}


def _two_member_class():
    """s1 s2 on a fresh A2:sc, whose shift class has two members."""
    w = aw.parse_element(RootDatum(parse_spec("A2:sc")), "s1 s2")
    assert len(cj.ShiftClass(w, cj.DEFAULT_BFS_CAP).members) == 2
    return w


@pytest.mark.parametrize("name", CAPPED_SEARCHES)
def test_bfs_cap_holds_in_a_fresh_datum(name):
    search = CAPPED_SEARCHES[name]
    w = _two_member_class()
    with pytest.raises(CapExceededError, match="shift class BFS"):
        search(w, 1)
    assert search(w, 2) == search(w, cj.DEFAULT_BFS_CAP)


@pytest.mark.parametrize("name", CAPPED_SEARCHES)
def test_bfs_cap_holds_after_a_cached_search(name):
    # the first call caches the graph and, for all but the first two, a memo
    search = CAPPED_SEARCHES[name]
    w = _two_member_class()
    expected = search(w, cj.DEFAULT_BFS_CAP)
    with pytest.raises(CapExceededError, match="shift class BFS"):
        search(w, 1)
    assert search(w, 2) == expected


def test_bfs_cap_counts_the_starting_member(a1):
    # one rule: a class with more than cap members exceeds the cap
    w = aw.identity(a1)
    assert cj.shift_class(w, cap=1) == {w}
    with pytest.raises(CapExceededError):
        cj.shift_class(w, cap=0)


def test_min_len_basic(a1):
    assert cj.is_min_len(aw.identity(a1)).is_min_len
    assert cj.is_min_len(aw.parse_element(a1, "s1")).is_min_len
    res = cj.is_min_len(aw.parse_element(a1, "s0 s1 s0"))
    assert not res.is_min_len
    assert res.witness == (0,)
    # replaying the certificate really shortens the element
    end = cj.replay_moves(aw.parse_element(a1, "s0 s1 s0"), res.witness)
    assert aw.length(end) < 3


def test_min_len_witness_stays_in_shift_class():
    # the certificate shifts without changing length, then drops by 2;
    # a search that also walks through longer conjugates returns
    # (1, 2, 1, 3) here, whose first step raises the length
    datum = build_root_datum("2A3:sc")
    x = aw.parse_element(datum, "t(0,-1,1) s2 s1")
    res = cj.is_min_len(x)
    assert not res.is_min_len
    assert res.witness == (2, 1, 2, 3)
    deltas = []
    for i in res.witness:
        move = cj.cyclic_shift(x, i)
        deltas.append(move.delta_length)
        x = move.after
    assert deltas == [0, 0, 0, -2]


def test_min_len_zero_length(a5gl):
    assert cj.is_min_len(aw.omega_element(a5gl, 3)).is_min_len


def test_descend_to_min_len(a2):
    for text in ("s1 s0 s1", "s0 s1 s2 s0", "t(1,1) s1"):
        x = aw.parse_element(a2, text)
        rep, moves = cj.descend_to_min_len(x)
        assert cj.is_min_len(rep).is_min_len
        assert cj.replay_moves(x, moves) == rep
        assert cj.class_invariant(rep) == cj.class_invariant(x)


def test_newton_point_examples(a1):
    assert cj.newton_point(aw.identity(a1)) == (0,)
    assert cj.newton_point(aw.parse_element(a1, "t(-1)")) == (Fraction(1),)
    assert cj.newton_point(aw.parse_element(a1, "t(2) s1")) == (0,)


def test_newton_point_shift_invariant(c2sc):
    for text in ("t(1,0) s1", "t(0,-1) s2", "s1 s2 s1", "tau2 s1"):
        x = aw.parse_element(c2sc, text)
        nu = cj.newton_point(x)
        for member in cj.shift_class(x):
            assert cj.newton_point(member) == nu
            assert cj.kottwitz_point(member) == cj.kottwitz_point(x)


def test_newton_point_twisted(a4tw):
    # with the flip, a dominant translation averages against its mirror
    omega1 = a4tw.fundamental_coweights[0]
    x = aw.translation(a4tw, omega1)
    nu = cj.newton_point(x)
    from adlvkit.linalg import mat_vec

    assert mat_vec(a4tw.delta, nu) == nu


def test_kottwitz_examples(a1, a5gl):
    assert cj.kottwitz_point(aw.identity(a1)) == a1.kottwitz_quotient.key((0,))
    # the coroot direction dies in the quotient
    assert cj.kottwitz_point(aw.parse_element(a1, "t(1)")) == cj.kottwitz_point(
        aw.identity(a1)
    )
    tau3 = aw.omega_element(a5gl, 3)
    assert cj.kottwitz_point(tau3) != cj.kottwitz_point(aw.identity(a5gl))


def test_straight_examples(a1, a5gl):
    assert cj.is_straight(aw.identity(a1))
    assert cj.is_straight(aw.omega_element(a5gl, 3))
    assert cj.is_straight(aw.parse_element(a1, "t(1)"))
    assert not cj.is_straight(aw.parse_element(a1, "s1"))


def test_straight_implies_min_len(c2sc):
    for x in length_ball(c2sc, 5):
        if cj.is_straight(x):
            assert cj.is_min_len(x).is_min_len


def test_straight_power_characterization(c2sc):
    # straightness is equivalent to lengths of twisted powers being additive
    for x in length_ball(c2sc, 4):
        powers = []
        cur = x
        for _ in range(4):
            powers.append(aw.length(cur))
            cur = aw.multiply(cur, aw.sigma_act(x))
        additive = all(powers[k] == (k + 1) * powers[0] for k in range(4))
        assert additive == cj.is_straight(x)


def test_reflection_length(a1, a4tw):
    eye = identity_matrix(a1.n)
    assert cj.reflection_length(a1, eye) == 0
    assert cj.reflection_length(a1, a1.weyl_generators[0]) == 1
    # the diagram flip of A4 fixes a plane in the four-dimensional lattice
    assert cj.reflection_length(a4tw, identity_matrix(a4tw.n), a4tw.delta) == 2


def test_reflection_length_bounded(c2sc):
    for z in c2sc.weyl_elements():
        assert 0 <= cj.reflection_length(c2sc, z) <= c2sc.rank


def test_same_class(a1):
    x = aw.parse_element(a1, "t(2) s1")
    for i in (0, 1):
        assert cj.same_class(x, cj.conjugate_by_simple(x, i))
    assert cj.same_class(aw.parse_element(a1, "s1"), aw.identity(a1))
    assert not cj.same_class(aw.parse_element(a1, "t(1)"), aw.identity(a1))


def test_class_invariant_sorting(a1):
    c0 = cj.class_invariant(aw.identity(a1))
    c1 = cj.class_invariant(aw.parse_element(a1, "t(1)"))
    assert bg.sort_classes([c1, c0]) == [c0, c1]


def test_reflection_length_conjugation_invariant(a4tw):
    # conjugating z by u (twisted on the right) conjugates the composed
    # lattice map, so the fixed-space dimension cannot move
    import random

    from adlvkit.linalg import mat_mul

    rng = random.Random(23)
    elements = a4tw.weyl_elements()
    for _ in range(40):
        z = rng.choice(elements)
        u = rng.choice(elements)
        twisted = mat_mul(
            mat_mul(a4tw.weyl_inverse(u), z),
            mat_mul(a4tw.delta, mat_mul(u, a4tw.delta_inv)),
        )
        assert cj.reflection_length(a4tw, twisted, a4tw.delta) == cj.reflection_length(
            a4tw, z, a4tw.delta
        )
