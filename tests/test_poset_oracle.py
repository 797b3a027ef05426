"""Differential tests for the class poset in fixed coordinates.

``bg_poset.leq`` used to solve the Newton difference against the simple
coroots over ``Fraction`` on every call, ``chain_length`` and
``essential_gap`` paired that difference with rho, and
``conjugacy.reflection_length`` took the rank of z o twist - 1 by a
``Fraction`` row reduction. Now each class invariant stores its Newton
point's fundamental-weight and central coordinates once, and the rank is
taken by integer elimination. The old code paths are kept here and
compared on every ordered pair of classes that ``enumerate_straight``
finds, and on every finite Weyl element.
"""

import math
from fractions import Fraction

import pytest

from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit.conjugacy import ClassInvariant, class_invariant, reflection_length
from adlvkit.errors import NotComparableError
from adlvkit.linalg import dot, mat_mul, vec_add, vec_sub
from adlvkit.root_datum import RootDatum, parse_spec
from matrix_reference import _rref, solve

# the acceptance-corpus data and B3:adj, with the straight enumeration bound
POSET_DATA = (
    ("A1:adj", 16),
    ("A2:adj", 10),
    ("C2:sc", 10),
    ("G2:sc", 12),
    ("A3:gl", 6),
    ("2A3:sc", 8),
    ("B3:adj", 8),
)


def fresh(spec):
    return RootDatum(parse_spec(spec))


def old_leq(c1, c2):
    if c1.kottwitz != c2.kottwitz:
        return False
    datum = c1.datum
    diff = vec_sub(c2.newton, c1.newton)
    cols = tuple(
        tuple(Fraction(datum.simple_coroots[j][i]) for j in range(datum.rank))
        for i in range(datum.n)
    )
    coeffs = solve(cols, diff)
    if coeffs is None:
        return False
    return all(c >= 0 for c in coeffs)


def old_gaps(c1, c2):
    """(chain length, essential gap) by the rho pairing of the Newton difference."""
    rho_part = dot(vec_sub(c2.newton, c1.newton), c1.datum.rho)
    half = Fraction(bg.defect(c1) - bg.defect(c2), 2)
    return rho_part + half, rho_part - half


def old_reflection_length(datum, z, twist=None):
    m = z if twist is None else mat_mul(z, twist)
    shifted = tuple(
        tuple(m[i][j] - (1 if i == j else 0) for j in range(datum.n))
        for i in range(datum.n)
    )
    return len(_rref(shifted)[1])


def straight_classes(datum, bound):
    if not datum.central_rank:
        filters = [None]
    else:
        filters = [class_invariant(aw.omega_element(datum, k)) for k in range(datum.n)]
    return [
        r.invariant for f in filters for r in bg.enumerate_straight(datum, bound, kottwitz=f)
    ]


@pytest.mark.parametrize("spec,bound", POSET_DATA)
def test_leq_and_gaps_match_the_solve_on_every_pair(spec, bound):
    datum = fresh(spec)
    classes = straight_classes(datum, bound)
    assert len(classes) >= 4
    comparable = 0
    for c1 in classes:
        assert c1.pairing_two_rho == dot(c1.newton, datum.two_rho)
        for c2 in classes:
            expected = old_leq(c1, c2)
            assert bg.leq(c1, c2) == expected, (c1, c2)
            if not expected:
                with pytest.raises(NotComparableError):
                    bg.chain_length(c1, c2)
                continue
            comparable += 1
            chain, gap = old_gaps(c1, c2)
            assert bg.chain_length(c1, c2) == chain
            assert bg.essential_gap(c1, c2) == gap
    # the order is not trivial on these classes
    assert len(classes) < comparable < len(classes) ** 2


def test_leq_rejects_a_newton_difference_off_the_coroot_span():
    datum = fresh("A3:gl")
    shift = (Fraction(1, 4),) * datum.n
    for c in straight_classes(datum, 4):
        nu = vec_add(c.newton, shift)
        # the integer form: nu = dom / period in lowest terms
        period = math.lcm(*(a.denominator for a in nu))
        dom = tuple(int(a * period) for a in nu)
        moved = ClassInvariant(
            datum,
            dom,
            period,
            c.kottwitz,
            tuple(dot(dom, w) for w in datum.weight_numerators),
            tuple(dot(dom, a) for a in datum.central_covectors),
            int(dot(nu, datum.two_rho)),
            c.zero_set,
        )
        assert moved.newton == nu
        # equal coefficients over the simple coroots, after scaling by the periods
        assert [a * c.period for a in moved.coords] == [b * period for b in c.coords]
        assert not old_leq(c, moved)
        assert not bg.leq(c, moved)
        assert not bg.leq(moved, c)


@pytest.mark.parametrize("spec", [s for s, _b in POSET_DATA])
def test_reflection_length_matches_the_rref_rank(spec):
    datum = fresh(spec)
    for z in datum.weyl_elements():
        for twist in (None, datum.delta):
            assert reflection_length(datum, z, twist) == old_reflection_length(
                datum, z, twist
            )
