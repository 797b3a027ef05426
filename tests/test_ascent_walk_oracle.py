"""Differential oracle for the corpus walk by ascents and one-intern shift moves.

``bg_poset.iter_elements`` builds s_i y only for the i that are not left
descents of y, read off root signs, and writes no length; the walk it
replaced built every s_i y and dropped those found one level down
(``matrix_reference.level_iter_elements``). Here both walks must yield
the same elements in the same order, and ``affine_weyl.length`` must
give each element its level in the old walk, which reads no sign.

``conjugacy.conjugate_by_simple`` interns only s_i x sigma(s_i); the
composition it replaced interned x s_j first
(``matrix_reference.two_step_conjugate_by_simple``). Both must agree on
every element and index of the audit corpora, 3D4:sc <= 3 and E7:sc <= 2.
"""

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import conjugacy as cj
from adlvkit.conjugacy import class_invariant
from adlvkit.root_datum import RootDatum, build_root_datum, parse_spec

WALK_DATA = (
    ("A1:adj", 8),
    ("A2:adj", 8),
    ("C2:sc", 8),
    ("G2:sc", 8),
    ("2A3:sc", 4),
    ("A3:gl", 5),
    ("2A4:sc", 5),
    ("3D4:sc", 4),
    ("E7:sc", 2),
)

# the corpora of the benchmark's audit workload, then two larger data
CONJUGATION_DATA = (
    ("A1:adj", 8),
    ("A2:adj", 8),
    ("C2:sc", 8),
    ("G2:sc", 8),
    ("2A3:sc", 4),
    ("3D4:sc", 3),
    ("E7:sc", 2),
)


def fresh(spec):
    return RootDatum(parse_spec(spec))


@pytest.mark.parametrize("spec,max_length", WALK_DATA)
def test_iter_elements_matches_the_level_walk(spec, max_length):
    datum = fresh(spec)
    expected = list(ref.level_iter_elements(datum, max_length))
    got = list(bg.iter_elements(datum, max_length))
    assert got == [x for x, _level in expected]
    assert not datum._length_cache
    assert [aw.length(x) for x in got] == [level for _x, level in expected]


def test_iter_elements_matches_the_level_walk_under_kottwitz_filters():
    datum = fresh("A3:gl")
    for k in range(datum.n):
        c = class_invariant(aw.omega_element(datum, k))
        expected = list(ref.level_iter_elements(datum, 5, kottwitz=c))
        got = list(bg.iter_elements(datum, 5, kottwitz=c))
        assert got == [x for x, _level in expected]
        assert [aw.length(x) for x in got] == [level for _x, level in expected]


@pytest.mark.parametrize("spec,max_length", CONJUGATION_DATA)
def test_conjugate_by_simple_matches_the_two_step_form(spec, max_length):
    datum = build_root_datum(spec)
    for x in bg.iter_elements(datum, max_length):
        for i in range(datum.rank + 1):
            assert cj.conjugate_by_simple(x, i) is ref.two_step_conjugate_by_simple(x, i)


def test_conjugate_by_simple_interns_only_the_conjugate():
    datum = fresh("2A3:sc")
    elements = list(bg.iter_elements(datum, 3))
    grown = 0
    for x in elements:
        for i in range(datum.rank + 1):
            before = len(datum._element_cache)
            cj.conjugate_by_simple(x, i)
            assert len(datum._element_cache) - before <= 1, (x, i)
            grown += len(datum._element_cache) - before
    assert grown  # the conjugates reach past the corpus
