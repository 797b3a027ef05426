"""Differential oracle for finite Weyl parts as interned indices.

``matrix_reference`` keeps the group law as it was computed before: an
element is a pair (translation, lattice matrix) and every operation
multiplies matrices. Here the table-driven operations are compared with
it on every element of the acceptance corpora and every affine index,
group axioms are checked on both representations, and two tests pin the
design: large data never tabulate their Weyl group, and no matrix product
runs on the conjugation path.
"""

import functools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import checks
from adlvkit import conjugacy as cj
from adlvkit.root_datum import RootDatum, build_root_datum, parse_spec

# the corpora of tests/test_acceptance.py
CORPORA = (
    ("A1:adj", 8),
    ("A2:adj", 8),
    ("C2:sc", 8),
    ("G2:sc", 8),
    ("A3:gl", 6),
    ("2A3:sc", 6),
)


@functools.lru_cache(maxsize=None)
def corpus(spec, max_length):
    return tuple(checks.corpus(build_root_datum(spec), max_length))


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_operations_match_the_matrix_reference(spec, max_length):
    datum = build_root_datum(spec)
    elements = corpus(spec, max_length)
    simples = [aw.simple_reflection(datum, i) for i in range(datum.rank + 1)]
    for i, s in enumerate(simples):
        assert ref.pair(s) == ref.simple_reflection(datum, i)
    for x in elements:
        px = ref.pair(x)
        assert aw.length(x) == ref.length(datum, px)
        assert ref.pair(aw.sigma_act(x)) == ref.sigma_act(datum, px)
        assert ref.pair(x.inverse()) == ref.inverse(datum, px)
        for i, s in enumerate(simples):
            ps = ref.pair(s)
            expected = ref.conjugate_by_simple(datum, px, i)
            assert ref.pair(cj.conjugate_by_simple(x, i)) == expected, (x, i)
            assert ref.pair(aw.multiply(x, s)) == ref.multiply(datum, px, ps)
            assert ref.pair(aw.multiply(s, x)) == ref.multiply(datum, ps, px)
            assert ref.pair(aw.right_by_simple(x, i)) == ref.multiply(datum, px, ps)
            assert ref.pair(aw.left_by_simple(x, i)) == ref.multiply(datum, ps, px)


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_general_products_match_the_matrix_reference(spec, max_length):
    datum = build_root_datum(spec)
    elements = corpus(spec, max_length)
    rng = random.Random(7)
    for _ in range(400):
        x, y = rng.choice(elements), rng.choice(elements)
        assert ref.pair(aw.multiply(x, y)) == ref.multiply(datum, ref.pair(x), ref.pair(y))


def test_finite_words_spell_their_elements():
    # every table word multiplies back to its matrix and is reduced, and
    # the identity is index 0 although the longest element is met first
    datum = RootDatum(parse_spec("2A3:sc"))
    elements = datum.weyl_elements()
    for z in reversed(elements):
        word = datum.weyl_word(z)
        product = ref.identity(datum)
        for i in word:
            product = ref.multiply(datum, product, ref.simple_reflection(datum, i))
        assert product[1] == z
        assert len(word) == datum._inversion_cache[datum.finite_index(z)].bit_count()
    assert datum._finite_matrix_cache[0] == ref.identity(datum)[1]
    assert sorted(datum._finite_index_cache.values()) == list(range(len(elements)))


def test_identity_is_index_0_after_an_affine_reflection(monkeypatch):
    # the first matrix a fresh datum meets is not the identity's
    datum = RootDatum(parse_spec("C2:sc"))
    r = aw.affine_reflection(datum, (1, datum.theta))
    assert r.finite_index == 1
    assert datum._finite_matrix_cache[0] == ref.identity(datum)[1]

    def forbidden(_z):
        raise AssertionError("finite_index called")

    # once the table holds the identity, no matrix is built to find it
    monkeypatch.setattr(datum, "finite_index", forbidden)
    assert aw.identity(datum).finite_index == 0
    assert aw.translation(datum, (1, 0)).finite_index == 0
    assert aw.multiply(r, r).is_identity()


# -- group axioms on both representations ------------------------------------

AXIOM_DATA = ("A2:adj", "C2:sc", "G2:sc", "A3:gl", "2A3:sc", "3D4:sc")


class IndexGroup:
    """The package's operations on AffineElement."""

    def __init__(self, datum):
        self.datum = datum

    def element(self, word, lam):
        x = aw.translation(self.datum, lam)
        for i in word:
            x = aw.multiply(x, aw.simple_reflection(self.datum, i))
        return x

    def multiply(self, x, y):
        return aw.multiply(x, y)

    def inverse(self, x):
        return x.inverse()

    def sigma(self, x):
        return aw.sigma_act(x)

    def is_identity(self, x):
        return x.is_identity()

    def as_element(self, x):
        return x


class MatrixGroup:
    """The test-only matrix operations on (translation, matrix) pairs."""

    def __init__(self, datum):
        self.datum = datum

    def element(self, word, lam):
        x = (tuple(lam), ref.identity(self.datum)[1])
        for i in word:
            x = ref.multiply(self.datum, x, ref.simple_reflection(self.datum, i))
        return x

    def multiply(self, x, y):
        return ref.multiply(self.datum, x, y)

    def inverse(self, x):
        return ref.inverse(self.datum, x)

    def sigma(self, x):
        return ref.sigma_act(self.datum, x)

    def is_identity(self, x):
        return x == ref.identity(self.datum)

    def as_element(self, x):
        lam, z = x
        return aw.AffineElement(self.datum, lam, self.datum.finite_index(z))


@st.composite
def groups_and_elements(draw, count):
    spec = draw(st.sampled_from(AXIOM_DATA))
    datum = build_root_datum(spec)
    group = draw(st.sampled_from((IndexGroup, MatrixGroup)))(datum)
    elements = []
    for _ in range(count):
        word = draw(st.lists(st.integers(0, datum.rank), max_size=8))
        lam = draw(st.lists(st.integers(-2, 2), min_size=datum.n, max_size=datum.n))
        elements.append(group.element(word, lam))
    return group, elements


@settings(max_examples=120, deadline=None)
@given(groups_and_elements(3))
def test_associativity(case):
    group, (x, y, z) = case
    mul = group.multiply
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


@settings(max_examples=120, deadline=None)
@given(groups_and_elements(1))
def test_inverses(case):
    group, (x,) = case
    assert group.is_identity(group.multiply(x, group.inverse(x)))
    assert group.is_identity(group.multiply(group.inverse(x), x))


@settings(max_examples=120, deadline=None)
@given(groups_and_elements(2))
def test_sigma_is_a_homomorphism(case):
    group, (x, y) = case
    assert group.sigma(group.multiply(x, y)) == group.multiply(group.sigma(x), group.sigma(y))


@settings(max_examples=80, deadline=None)
@given(groups_and_elements(2))
def test_class_invariant_under_twisted_conjugation(case):
    # g x sigma(g)^(-1) by any g, not only by simple reflections
    group, (x, g) = case
    conj = group.multiply(group.multiply(g, x), group.inverse(group.sigma(g)))
    assert cj.class_invariant(group.as_element(conj)) == cj.class_invariant(group.as_element(x))


@settings(max_examples=120, deadline=None)
@given(groups_and_elements(1))
def test_parse_format_round_trip(case):
    group, (x,) = case
    x = group.as_element(x)
    assert aw.parse_element(x.datum, aw.format_element(x)) == x


# -- the large-group story and the conjugation path ---------------------------


def test_e8_never_tabulates_its_weyl_group():
    datum = RootDatum(parse_spec("E8:sc"))
    rng = random.Random(3)
    x = aw.identity(datum)
    for _ in range(40):
        x = aw.multiply(x, aw.simple_reflection(datum, rng.randint(0, datum.rank)))
        y = cj.conjugate_by_simple(x, rng.randint(0, datum.rank))
        assert aw.length(y) in (aw.length(x) - 2, aw.length(x), aw.length(x) + 2)
        assert aw.multiply(x, x.inverse()).is_identity()
    assert datum._weyl_elements is None
    # only the elements met are interned, a few per step
    assert len(datum._finite_index_cache) < 2000


@pytest.fixture
def no_matrix_products(monkeypatch):
    """Make every adlvkit reference to linalg.mat_mul raise."""

    def forbidden(*_args):
        raise AssertionError("mat_mul called")

    for name, module in list(sys.modules.items()):
        if name.startswith("adlvkit") and hasattr(module, "mat_mul"):
            monkeypatch.setattr(module, "mat_mul", forbidden)


@pytest.mark.parametrize("spec", ("A3:gl", "2A3:sc", "C3:sc", "3D4:sc"))
def test_no_matrix_product_on_the_conjugation_path(spec, no_matrix_products):
    # a fresh datum, so every table slot is filled inside the guarded calls
    datum = RootDatum(parse_spec(spec))
    rng = random.Random(5)
    x = aw.parse_element(datum, "t(" + ",".join(["1"] + ["0"] * (datum.n - 1)) + ")")
    for _ in range(60):
        i = rng.randint(0, datum.rank)
        s = aw.simple_reflection(datum, i)
        x = aw.multiply(x, s)
        x = aw.multiply(s, cj.conjugate_by_simple(x, rng.randint(0, datum.rank)))
        x = aw.sigma_act(x)
        aw.length(x)
