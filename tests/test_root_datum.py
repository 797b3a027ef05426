from fractions import Fraction

import pytest

import matrix_reference as ref
from adlvkit import linalg as la
from adlvkit.errors import UnsupportedDatumError, UsageError
from adlvkit.root_datum import CartanSpec, build_root_datum, parse_spec


def test_a1_adjoint_basics(a1):
    assert a1.n == 1
    assert len(a1.positive_roots) == 1
    alpha = a1.simple_roots[0]
    coroot = a1.simple_coroots[0]
    assert a1.pair(coroot, alpha) == 2
    # rho is half the single positive root
    assert a1.rho == tuple(Fraction(c, 2) for c in alpha)
    assert a1.pair(coroot, a1.two_rho) == 2


def test_a5_gl_realization(a5gl):
    # brute-force count of e_i - e_j pairs, independent of the orbit closure
    n = a5gl.n
    assert n == 6
    expected = {
        tuple((1 if k == i else 0) - (1 if k == j else 0) for k in range(n))
        for i in range(n)
        for j in range(n)
        if i != j
    }
    assert len(a5gl.positive_roots) == 15
    got = set(a5gl.positive_roots) | {
        tuple(-c for c in r) for r in a5gl.positive_roots
    }
    assert got == expected
    assert a5gl.theta == (1, 0, 0, 0, 0, -1)


def test_twisted_a4_delta_swaps(a4tw):
    # the twist must swap alpha_1 <-> alpha_4 and alpha_2 <-> alpha_3
    assert a4tw.delta_diagram == {1: 4, 4: 1, 2: 3, 3: 2}
    for i in range(4):
        img = la.mat_vec(a4tw.delta, a4tw.simple_coroots[i])
        assert img == a4tw.simple_coroots[a4tw.delta_diagram[i + 1] - 1]


def test_cartan_matrix_values():
    c2 = build_root_datum("C2:sc")
    # pairing of coroot i with root j; the short root contributes the -2
    assert c2.cartan_matrix == ((2, -2), (-1, 2))
    g2 = build_root_datum("G2:sc")
    assert sorted(g2.cartan_matrix[0] + g2.cartan_matrix[1]) == [-3, -1, 2, 2]


@pytest.mark.parametrize(
    "text,family,rank,preset,twist",
    [
        ("A5:gl", "A", 5, "gl", 1),
        ("C2:adj", "C", 2, "adjoint", 1),
        ("2A4:sc", "A", 4, "simply_connected", 2),
        ("3D4:sc", "D", 4, "simply_connected", 3),
        ("A1:adjoint", "A", 1, "adjoint", 1),
    ],
)
def test_parse_spec(text, family, rank, preset, twist):
    spec = parse_spec(text)
    assert (spec.family, spec.rank, spec.lattice_preset, spec.twist_order) == (
        family,
        rank,
        preset,
        twist,
    )


def test_parse_spec_rejects():
    with pytest.raises(UsageError):
        parse_spec("H3:adj")
    with pytest.raises(UnsupportedDatumError):
        parse_spec("G7:sc")
    with pytest.raises(UnsupportedDatumError):
        parse_spec("2C2:sc")  # C2 has no diagram flip
    with pytest.raises(UnsupportedDatumError):
        parse_spec("2A1:adj")  # single node, no flip
    with pytest.raises(UnsupportedDatumError):
        CartanSpec("B", 2, "gl")
    with pytest.raises(UnsupportedDatumError):
        CartanSpec("A", 2, "weight")


def test_datum_interned():
    assert build_root_datum("A2:adj") is build_root_datum("A2:adj")
    assert build_root_datum("A2:adj") is not build_root_datum("A2:sc")


def test_pair_examples(a1):
    assert a1.pair(a1.simple_coroots[0], a1.simple_roots[0]) == 2
    assert a1.pair((0,), a1.rho) == 0
    with pytest.raises(ValueError):
        a1.pair((1, 2), a1.rho)


def full_orbit(datum, v):
    seen = {tuple(v)}
    frontier = [tuple(v)]
    while frontier:
        new = []
        for x in frontier:
            for g in datum.weyl_generators:
                y = la.mat_vec(g, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def test_dominant_representative_rank1(a1):
    coroot = a1.simple_coroots[0]
    neg = tuple(-c for c in coroot)
    dom, z = ref.dominant_representative(a1, neg)
    assert dom == coroot
    assert z == a1.weyl_generators[0]
    # dominant input is fixed with the identity
    dom2, z2 = ref.dominant_representative(a1, coroot)
    assert dom2 == coroot and z2 == la.identity_matrix(1)


def test_dominant_representative_orbit_oracle(a2):
    v = la.vec_sub(a2.simple_coroots[0], a2.simple_coroots[1])
    orbit = full_orbit(a2, v)
    # the W-orbit of coroot1 - coroot2 has three elements (a stabilizer
    # appears because one pairing vanishes on the dominant member)
    assert len(orbit) == 3
    dominants = [x for x in orbit if a2.is_dominant(x)]
    assert len(dominants) == 1
    dom, z = ref.dominant_representative(a2, v)
    assert dom == dominants[0]
    assert la.mat_vec(z, v) == dom
    # reached by a single reflection, namely s2
    assert z == a2.weyl_generators[1]
    assert [a2.pair(dom, alpha) for alpha in a2.simple_roots] == [0, 3]


def test_dominant_representative_random_orbits(c2sc):
    import random

    rng = random.Random(11)
    for _ in range(20):
        v = tuple(rng.randint(-3, 3) for _ in range(c2sc.n))
        dom, z = ref.dominant_representative(c2sc, v)
        assert dom == c2sc.dominant(v)
        assert c2sc.is_dominant(dom)
        assert la.mat_vec(z, v) == dom
        assert dom in full_orbit(c2sc, v)


def test_apply_weyl_consistency(a2):
    # action on a root through a group element keeps every pairing
    s1, s2 = a2.weyl_generators
    z = la.mat_mul(s1, s2)
    alpha1 = a2.simple_roots[0]
    moved = la.vec_mat(alpha1, a2.weyl_inverse(z))
    # s1 s2 applied to alpha_1 (apply s2 first) lands on alpha_2
    assert moved == a2.simple_roots[1]
    for coroot in a2.simple_coroots:
        assert a2.pair(la.mat_vec(z, coroot), moved) == a2.pair(coroot, alpha1)


def test_pairing_invariance_exhaustive(c2sc):
    for g in c2sc.weyl_generators:
        for alpha, coroot in c2sc.root_coroot.items():
            moved_vec = la.mat_vec(g, coroot)
            moved_cov = la.vec_mat(alpha, c2sc.weyl_inverse(g))
            assert c2sc.pair(moved_vec, moved_cov) == c2sc.pair(coroot, alpha)


def test_delta_preserves_dominance_and_pairing(a4tw):
    for alpha, coroot in a4tw.root_coroot.items():
        moved_vec = la.mat_vec(a4tw.delta, coroot)
        moved_cov = tuple(
            sum(alpha[i] * a4tw.delta_inv[i][j] for i in range(a4tw.n))
            for j in range(a4tw.n)
        )
        assert a4tw.pair(moved_vec, moved_cov) == a4tw.pair(coroot, alpha)
    for omega in a4tw.fundamental_coweights:
        assert a4tw.is_dominant(la.mat_vec(a4tw.delta, omega))


def test_positive_root_count_is_longest_length(a2, c2sc):
    for datum in (a2, c2sc):
        w0_len = max(len(datum.weyl_word(z)) for z in datum.weyl_elements())
        assert w0_len == len(datum.positive_roots)


def test_weyl_word_lex_least(a2):
    # the two reduced words of the longest element of A2 are 121 and 212
    w0 = max(a2.weyl_elements(), key=lambda z: len(a2.weyl_word(z)))
    assert a2.weyl_word(w0) == (1, 2, 1)


def test_weyl_inverse(c2sc):
    for z in c2sc.weyl_elements():
        assert la.mat_mul(z, c2sc.weyl_inverse(z)) == la.identity_matrix(c2sc.n)
