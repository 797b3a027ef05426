"""Differential oracle for finite Weyl parts built through the datum's tables.

``levi._levi_element`` walks the right table from the identity over a
reduced word of w_(0,J_lambda) w_(0,J), and ``affine_weyl.simple_reflection``
takes one left-table step from the identity. Both used to build a
lattice matrix and intern it; ``matrix_reference`` keeps those builders.
Here the two paths are compared on every (J, pattern) of ``levi._levi``,
on the length-zero elements and on every affine simple reflection, over
cold data of every family, twisted ones and E8 included. Each datum is
fresh, so the table walks run before the matrices are interned.
"""

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import levi
from adlvkit.errors import UsageError
from adlvkit.root_datum import RootDatum, parse_spec

DATA = ("A3:gl", "2A3:sc", "C3:sc", "G2:sc", "2A4:sc", "3D4:sc", "F4:adj", "2E6:sc", "E8:sc")


@pytest.mark.parametrize("spec", DATA)
def test_levi_finite_parts_match_the_matrix_products(spec):
    datum = RootDatum(parse_spec(spec))
    lam = datum.theta_coroot
    pairs = [
        (J, ones)
        for J in levi._stable_subsets(datum)
        for ones, _scale, _excess in levi._levi(datum, J)[1]
    ]
    walked = [levi._levi_element(datum, J, ones, lam) for J, ones in pairs]
    built = [ref.matrix_levi_element(datum, J, ones, lam) for J, ones in pairs]
    assert walked == built


@pytest.mark.parametrize("spec", DATA)
def test_length_zero_elements_match_the_matrix_products(spec):
    datum = RootDatum(parse_spec(spec))
    central_values = range(datum.n) if datum.central_rank else [None]
    nodes = frozenset(range(1, datum.rank + 1))
    walked = levi.length_zero_elements(datum, central_values)
    built = [
        ref.matrix_levi_element(datum, nodes, ones, lam)
        for ones, _scale, _excess in levi._levi(datum, nodes)[1]
        for central in central_values
        for lam in levi._levi_translations(datum, ones, (), (), central)
    ]
    assert walked == built


@pytest.mark.parametrize("spec", DATA)
def test_simple_reflections_match_the_matrix_construction(spec):
    datum = RootDatum(parse_spec(spec))
    for i in range(datum.rank + 1):
        assert aw.simple_reflection(datum, i) is ref.matrix_simple_reflection(datum, i), i
    for i in (-1, datum.rank + 1):
        with pytest.raises(UsageError) as new:
            aw.simple_reflection(datum, i)
        with pytest.raises(UsageError) as old:
            ref.matrix_simple_reflection(datum, i)
        assert str(new.value) == str(old.value)
