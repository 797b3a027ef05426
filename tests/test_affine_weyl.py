import random

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit.errors import ElementParseError, DatumMismatchError, UsageError
from adlvkit.root_datum import RootDatum, parse_spec
from conftest import length_ball


def s(datum, i):
    return aw.simple_reflection(datum, i)


# -- multiplication -----------------------------------------------------------


def test_multiply_identity(a1):
    x = aw.parse_element(a1, "t(2) s1")
    assert aw.multiply(aw.identity(a1), x) == x
    assert aw.multiply(x, aw.identity(a1)) == x


def test_multiply_s0_involution(a1):
    assert aw.multiply(s(a1, 0), s(a1, 0)).is_identity()


def test_multiply_affine_a1_words(a1):
    # s0 s1 s0 lands on t(2 alpha^) s1, by hand multiplication
    w = aw.multiply(aw.multiply(s(a1, 0), s(a1, 1)), s(a1, 0))
    assert w == aw.parse_element(a1, "t(2) s1")
    # s1 s0 is the translation by -alpha^
    assert aw.multiply(s(a1, 1), s(a1, 0)) == aw.parse_element(a1, "t(-1)")


def test_multiply_datum_mismatch(a1, a2):
    with pytest.raises(DatumMismatchError):
        aw.multiply(aw.identity(a1), aw.identity(a2))


def test_inverse(c2sc):
    rng = random.Random(5)
    elements = [
        aw.AffineElement(c2sc, (rng.randint(-2, 2), rng.randint(-2, 2)), c2sc.finite_index(z))
        for z in c2sc.weyl_elements()
    ]
    for x in elements:
        assert aw.multiply(x, x.inverse()).is_identity()
        assert aw.multiply(x.inverse(), x).is_identity()


# -- length --------------------------------------------------------------------


def test_length_examples(a1, a5gl):
    assert aw.length(aw.identity(a1)) == 0
    assert aw.length(aw.parse_element(a1, "t(2) s1")) == 3
    # tau3 s4 has a one-letter finite-parabolic part next to a length-zero
    assert aw.length(aw.parse_element(a5gl, "tau3 s4")) == 1
    assert aw.length(aw.omega_element(a5gl, 3)) == 0


@pytest.mark.parametrize("spec", ["A1:adj", "A2:adj", "C2:sc", "A1:gl"])
def test_length_word_search_oracle(spec):
    from adlvkit.root_datum import build_root_datum

    datum = build_root_datum(spec)
    for x, d in length_ball(datum, 6).items():
        assert aw.length(x) == d


def test_length_subadditive_with_reduced_equality(a2):
    ball = length_ball(a2, 4)
    elements = list(ball)
    rng = random.Random(9)
    for _ in range(200):
        x, y = rng.choice(elements), rng.choice(elements)
        lxy = aw.length(aw.multiply(x, y))
        assert lxy <= aw.length(x) + aw.length(y)
        assert (lxy - aw.length(x) - aw.length(y)) % 2 == 0


def test_length_zero_conjugation(a5gl, c2sc):
    for datum, k in ((a5gl, 3), (c2sc, 2)):
        tau = aw.omega_element(datum, k)
        x = aw.parse_element(datum, "s1 s2")
        assert aw.length(aw.multiply(tau, x)) == aw.length(x) + aw.length(tau)
        conj = aw.multiply(aw.multiply(tau, x), tau.inverse())
        assert aw.length(conj) == aw.length(x)


# -- affine reflections ----------------------------------------------------------


def test_affine_reflection_simple(a1):
    assert aw.affine_reflection(a1, (0, tuple(-c for c in a1.simple_roots[0]))) == s(a1, 1)
    # level-one reflection of the highest root is s0 = t(theta^) s_theta
    r = aw.affine_reflection(a1, (1, a1.theta))
    assert r == s(a1, 0)
    assert aw.multiply(r, r).is_identity()


def test_affine_reflection_rejects_nonroot(a1):
    with pytest.raises(UsageError):
        aw.affine_reflection(a1, (0, (3,)))


@pytest.mark.parametrize("spec", ["A1:adj", "A2:adj", "C2:sc"])
def test_affine_reflection_involutions_sweep(spec):
    from adlvkit.root_datum import build_root_datum

    datum = build_root_datum(spec)
    for root in datum.root_coroot:
        for level in range(-3, 4):
            r = aw.affine_reflection(datum, (level, root))
            assert aw.multiply(r, r).is_identity()


def test_act_on_affine_root_conjugation(c2sc):
    # s_(x . a) = x s_a x^(-1) for a sample of x and all simple affine a
    rng = random.Random(2)
    simples = aw.affine_simple_roots(c2sc)
    for _ in range(25):
        lam = tuple(rng.randint(-2, 2) for _ in range(c2sc.n))
        z = rng.choice(c2sc.weyl_elements())
        x = aw.AffineElement(c2sc, lam, c2sc.finite_index(z))
        for a in simples:
            image = ref.act_on_affine_root(x, a)
            lhs = aw.affine_reflection(c2sc, image)
            rhs = aw.multiply(aw.multiply(x, aw.affine_reflection(c2sc, a)), x.inverse())
            assert lhs == rhs


# -- length-zero elements -----------------------------------------------------------


def test_omega_trivial_coset(a1, a5gl):
    assert aw.omega_element(a1, 0).is_identity()
    assert aw.omega_element(a5gl, 0).is_identity()


def test_omega_a5(a5gl):
    tau3 = aw.omega_element(a5gl, 3)
    assert aw.length(tau3) == 0
    assert tau3.translation == (1, 1, 1, 0, 0, 0)


def test_omega_c2_longest_coset_twist(c2sc):
    tau2 = aw.omega_element(c2sc, 2)
    assert aw.length(tau2) == 0
    # finite part is the longest element times the parabolic longest element
    w0 = max(c2sc.weyl_elements(), key=lambda z: len(c2sc.weyl_word(z)))
    from adlvkit.linalg import mat_mul

    assert tau2.finite == mat_mul(w0, c2sc.weyl_generators[0])


def test_omega_rejects_outside_lattice(a1):
    # the adjoint preset has no nontrivial length-zero elements
    with pytest.raises(UsageError):
        aw.omega_element(a1, 1)


def test_omega_gl_center(gl2):
    tau2 = aw.omega_element(gl2, 2)
    assert tau2.translation == (1, 1)
    assert aw.length(tau2) == 0
    tau1 = aw.omega_element(gl2, 1)
    assert aw.length(tau1) == 0
    assert tau1.finite != aw.identity(gl2).finite


def test_omega_group_covers_quotient(c2sc, a4tw):
    for datum, size in ((c2sc, 2), (a4tw, 5)):
        quot = datum.omega_quotient
        keys = {quot.key(aw.omega_element(datum, k).translation) for k in range(datum.rank + 1)}
        assert len(keys) == size or len(keys) == datum.rank + 1


@pytest.mark.parametrize("spec,k", [("E7:sc", 7), ("E6:sc", 1), ("A7:gl", 3), ("2A3:sc", 2)])
def test_omega_interns_only_the_translation_and_tau(spec, k):
    # the descent walks (lambda, index) pairs: its start and its end are
    # the only elements it interns
    datum = RootDatum(parse_spec(spec))
    before = len(datum._element_cache)
    tau = aw.omega_element(datum, k)
    assert aw.length(tau) == 0
    assert len(datum._element_cache) - before <= 2


# -- the twist ---------------------------------------------------------------------


def test_sigma_trivial_twist(a1):
    x = aw.parse_element(a1, "t(2) s1")
    assert aw.sigma_act(x) == x


def test_sigma_twisted_a4(a4tw):
    assert aw.sigma_act(s(a4tw, 1)) == s(a4tw, 4)
    assert aw.sigma_act(s(a4tw, 2)) == s(a4tw, 3)
    assert aw.sigma_act(s(a4tw, 0)) == s(a4tw, 0)
    assert aw.sigma_on_affine_index(a4tw, 1) == 4
    assert aw.sigma_on_affine_index(a4tw, 0) == 0


def test_sigma_preserves_length_and_products(a4tw):
    ball = list(length_ball(a4tw, 3))
    rng = random.Random(17)
    sample = rng.sample(ball, min(50, len(ball)))
    for x in sample:
        assert aw.length(aw.sigma_act(x)) == aw.length(x)
    for _ in range(50):
        x, y = rng.choice(sample), rng.choice(sample)
        assert aw.sigma_act(aw.multiply(x, y)) == aw.multiply(
            aw.sigma_act(x), aw.sigma_act(y)
        )
    # the twist has order two here
    for x in sample[:10]:
        assert aw.sigma_act(aw.sigma_act(x)) == x


# -- descents -------------------------------------------------------------------------


def test_descents_identity(a1):
    table = aw.descents(aw.identity(a1))
    for i in (0, 1):
        assert table[i]["left"] == 1
        assert table[i]["right"] == 1
        assert table[i]["double"] == 0


def test_descents_drop(a1):
    x = aw.parse_element(a1, "t(2) s1")
    table = aw.descents(x)
    assert table[0]["double"] == -2
    straight = aw.parse_element(a1, "t(1)")
    table = aw.descents(straight)
    assert table[0]["double"] == 0
    assert table[1]["double"] == 0


# -- parse and format ------------------------------------------------------------------


def test_parse_simple_words(a1):
    assert aw.parse_element(a1, "s1 s0") == aw.multiply(s(a1, 1), s(a1, 0))


def test_parse_tau_and_translation(a5gl, gl2):
    assert aw.parse_element(a5gl, "tau3 s4") == aw.multiply(
        aw.omega_element(a5gl, 3), s(a5gl, 4)
    )
    x = aw.parse_element(gl2, "t(2,-1) s1")
    assert x.translation == (2, -1)
    assert aw.parse_element(gl2, aw.format_element(x)) == x


@pytest.mark.parametrize("spec", ["A1:adj", "A2:adj", "C2:sc", "2A4:sc", "A5:gl"])
def test_format_parse_roundtrip(spec):
    from adlvkit.root_datum import build_root_datum

    datum = build_root_datum(spec)
    for x in length_ball(datum, 3):
        assert aw.parse_element(datum, aw.format_element(x)) == x


@pytest.mark.parametrize("token", ["s\u00b2", "tau\u00b2", "s\u0661", "tau\u0661", "t(\u0661)", "t(1_0)", "t(\u00b2)"])
def test_parse_accepts_ascii_digits_only(a1, token):
    with pytest.raises(ElementParseError) as info:
        aw.parse_element(a1, "s0 " + token)
    assert info.value.position == 1


def test_parse_signed_coordinates(gl2):
    assert aw.parse_element(gl2, "t(+1,-2)") == aw.translation(gl2, (1, -2))


def test_parse_errors(a1):
    with pytest.raises(ElementParseError):
        aw.parse_element(a1, "bogus")
    with pytest.raises(ElementParseError):
        aw.parse_element(a1, "s7")
    with pytest.raises(ElementParseError):
        aw.parse_element(a1, "t(1,2)")
    with pytest.raises(ElementParseError):
        aw.parse_element(a1, "tau1")
    try:
        aw.parse_element(a1, "s1 s99")
    except ElementParseError as exc:
        assert exc.position == 1
