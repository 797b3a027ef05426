from fractions import Fraction

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import conjugacy as cj
from adlvkit.errors import (
    NoUniqueExtremumError,
    NotComparableError,
    UsageError,
)
from adlvkit.root_datum import RootDatum, parse_spec


def inv(datum, text):
    return cj.class_invariant(aw.parse_element(datum, text))


def test_leq_reflexive_and_basic(a1):
    basic = inv(a1, "s1")
    top = inv(a1, "t(1)")
    assert bg.leq(basic, basic)
    assert bg.leq(basic, top)
    assert not bg.leq(top, basic)


def test_leq_kappa_obstruction(gl2):
    c0 = inv(gl2, "t(0,0)")
    c1 = inv(gl2, "tau1")
    assert c0.kottwitz != c1.kottwitz
    assert not bg.leq(c0, c1) and not bg.leq(c1, c0)


def test_leq_poset_axioms(c2sc):
    records = bg.enumerate_straight(c2sc, 4)
    classes = [r.invariant for r in records]
    for a in classes:
        assert bg.leq(a, a)
        for b in classes:
            if bg.leq(a, b) and bg.leq(b, a):
                assert a == b
            for c in classes:
                if bg.leq(a, b) and bg.leq(b, c):
                    assert bg.leq(a, c)


def test_chain_length_examples(a1):
    basic = inv(a1, "s1")
    top = inv(a1, "t(1)")
    assert bg.chain_length(basic, basic) == 0
    # <alpha^, rho> = 1 and both defects vanish
    assert bg.chain_length(basic, top) == 1


def test_chain_length_half_slope_defect(gl2):
    # the class of tau1 has Newton point (1/2, 1/2) and defect one; the
    # defect term is what makes the chain length an integer
    lo = inv(gl2, "tau1")
    hi = inv(gl2, "t(1,0)")
    assert lo.newton == (Fraction(1, 2), Fraction(1, 2))
    assert bg.defect(lo) == 1
    assert bg.defect(hi) == 0
    assert bg.leq(lo, hi)
    assert bg.chain_length(lo, hi) == 1
    assert bg.essential_gap(lo, hi) == 0


def test_chain_rejects_incomparable(a1, gl2):
    with pytest.raises(NotComparableError):
        bg.chain_length(inv(a1, "t(1)"), inv(a1, "s1"))
    with pytest.raises(NotComparableError):
        bg.essential_gap(inv(gl2, "tau1"), inv(gl2, "t(0,0)"))


def test_gap_identity(a1):
    basic = inv(a1, "s1")
    top = inv(a1, "t(1)")
    lhs = bg.essential_gap(basic, top)
    assert lhs == bg.chain_length(basic, top) - bg.defect(basic) + bg.defect(top)
    assert bg.essential_gap(basic, basic) == 0


def test_defect_examples(a1, gl2):
    assert bg.defect(inv(a1, "t(0)")) == 0
    assert bg.defect(inv(a1, "t(1)")) == 0
    # basic class with nontrivial Kottwitz point: witness tau1 = t(1,0) s1
    assert bg.defect(inv(gl2, "tau1")) == 1


def test_defect_bounded_by_rank(c2sc):
    for r in bg.enumerate_straight(c2sc, 5):
        assert 0 <= r.defect <= c2sc.rank


def test_enumerate_straight_bound_zero(c2sc, a5gl):
    # bound zero yields exactly the basic classes, one per Kottwitz point
    records = bg.enumerate_straight(c2sc, 0)
    assert len(records) == 2
    assert all(aw.length(r.straight_witness) == 0 for r in records)
    trivial = cj.class_invariant(aw.identity(a5gl))
    records = bg.enumerate_straight(a5gl, 0, kottwitz=trivial)
    assert [r.invariant for r in records] == [trivial]


def test_enumerate_straight_a1(a1):
    trivial = cj.class_invariant(aw.identity(a1))
    by_two = bg.enumerate_straight(a1, 2, kottwitz=trivial)
    assert [r.invariant.newton for r in by_two] == [(0,), (Fraction(1),)]
    by_one = bg.enumerate_straight(a1, 1, kottwitz=trivial)
    assert [r.invariant.newton for r in by_one] == [(0,)]


def test_enumerate_straight_idempotent(c2sc):
    first = bg.enumerate_straight(c2sc, 4)
    second = bg.enumerate_straight(c2sc, 4)
    assert [r.invariant for r in first] == [r.invariant for r in second]


def test_unfiltered_central_enumeration_is_the_normalized_one(gl2):
    # without a Kottwitz filter the central sums 0..n-1 are enumerated, as
    # the table path did when asked to normalize
    oracle = RootDatum(parse_spec("A1:gl"))
    want = ref.table_iter_elements(oracle, 3, normalize_central=True)
    got = bg.iter_elements(gl2, 3)
    # iter_elements promises no order; the multiset must match exactly
    assert sorted(aw.format_element(x) for x in got) == sorted(aw.format_element(x) for x in want)


@pytest.mark.parametrize(
    "spec,texts", [("A3:gl", ("s1", "t(1,0,0,-1)")), ("C2:sc", ("s0", "t(1,0)"))]
)
def test_enumerate_straight_one_entry_per_kottwitz_point(spec, texts):
    # the filter enters only through its Kottwitz point (and central sum),
    # so two classes that share them give equal enumerations
    datum = RootDatum(parse_spec(spec))
    a, b = (inv(datum, text) for text in texts)
    assert a.kottwitz == b.kottwitz and a.newton != b.newton
    shared = bg.enumerate_straight(datum, 4, kottwitz=a)
    other = bg.enumerate_straight(datum, 4, kottwitz=b)
    assert [r.as_dict() for r in other] == [r.as_dict() for r in shared]
    for text in texts:
        alone = RootDatum(parse_spec(spec))
        records = bg.enumerate_straight(alone, 4, kottwitz=inv(alone, text))
        assert [r.as_dict() for r in records] == [r.as_dict() for r in shared]


def test_enumerate_straight_filter_on_a_moved_central_line():
    # a twist that negates the central line leaves no central sum to key by
    datum = RootDatum(parse_spec("2A2:gl"))
    with pytest.raises(UsageError):
        bg.enumerate_straight(datum, 2, kottwitz=inv(datum, "s1"))


def test_interval(a1):
    basic = inv(a1, "s1")
    top = inv(a1, "t(1)")
    assert bg.interval(basic, basic) == [basic]
    assert bg.interval(basic, top) == [basic, top]
    with pytest.raises(NotComparableError):
        bg.interval(top, basic)


def test_extrema(a1):
    basic = inv(a1, "s1")
    top = inv(a1, "t(1)")
    assert bg.extrema([basic]) == (basic, basic)
    assert bg.extrema([basic, top]) == (basic, top)
    with pytest.raises(UsageError):
        bg.extrema([])


def test_extrema_antichain(gl2):
    c0 = inv(gl2, "t(0,0)")
    c1 = inv(gl2, "tau1")
    with pytest.raises(NoUniqueExtremumError):
        bg.extrema([c0, c1])


def test_iter_elements_deterministic(c2sc):
    first = list(bg.iter_elements(c2sc, 3))
    second = list(bg.iter_elements(c2sc, 3))
    assert first == second
    assert all(aw.length(x) <= 3 for x in first)
    # the count matches a direct word-search ball of the same radius
    from conftest import length_ball

    ball = {x for x, d in length_ball(c2sc, 3).items()}
    missing = ball - set(first)
    assert not missing


def test_iter_elements_gl_normalized(gl2):
    elements = list(bg.iter_elements(gl2, 2))
    assert all(0 <= sum(x.translation) <= 1 for x in elements)
    assert aw.omega_element(gl2, 1) in elements


def test_class_record_serialization(gl2):
    records = bg.enumerate_straight(gl2, 1, kottwitz=inv(gl2, "tau1"))
    data = [r.as_dict() for r in records]
    assert data
    for entry in data:
        assert set(entry) == {"newton", "kottwitz", "defect", "witness"}
        assert all(isinstance(c, str) for c in entry["newton"])
    assert any(e["newton"] == ["1/2", "1/2"] and e["defect"] == 1 for e in data)


def test_defect_vanishes_on_regular_classes(c2sc):
    # a regular dominant Newton point forces the straight witness to act
    # trivially on the fixed space, so the defect is zero
    for r in bg.enumerate_straight(c2sc, 6):
        regular = all(
            c2sc.pair(r.invariant.newton, alpha) > 0 for alpha in c2sc.simple_roots
        )
        if regular and r.invariant.kottwitz == cj.kottwitz_point(aw.identity(c2sc)):
            assert r.defect == 0
