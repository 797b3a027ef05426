import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adlvkit import linalg as la
from matrix_reference import _rref, as_int_matrix, mat_inv, nullspace, solve


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def test_identity_and_mul():
    eye = la.identity_matrix(3)
    m = ((1, 2, 0), (0, 1, 5), (2, 0, 1))
    assert la.mat_mul(eye, m) == m
    assert la.mat_mul(m, eye) == m
    assert la.mat_vec(eye, (7, 8, 9)) == (7, 8, 9)


def test_vec_mat_is_covector_transport():
    m = ((0, 1), (1, 0))
    assert la.vec_mat((3, 5), m) == (5, 3)


def test_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if la.mat_rank(m) < n:
            continue
        inv = mat_inv(m)
        prod = la.mat_mul(m, inv)
        assert prod == tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        mat_inv(((1, 2), (2, 4)))


def test_solve_and_nullspace():
    m = ((1, 2, 3), (2, 4, 6))
    assert solve(m, (1, 3)) is None
    x = solve(m, (6, 12))
    assert x is not None
    assert la.mat_vec(m, x) == (Fraction(6), Fraction(12))
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert la.mat_vec(m, v) == (0, 0)


def test_rank():
    assert la.mat_rank(((1, 2), (2, 4))) == 1
    assert la.mat_rank(((1, 0), (0, 1))) == 2
    assert la.mat_rank(((0, 0),)) == 0
    assert la.mat_rank(((0, 2, 4), (0, 1, 2), (3, 0, 0))) == 2
    assert la.mat_rank(((2, 4, 6), (1, 2, 3), (3, 6, 9), (1, 1, 1))) == 2
    assert la.mat_rank(()) == 0


def rref_rank(m):
    """The rank as ``mat_rank`` took it before: pivots of the Fraction RREF."""
    if not m or not m[0]:
        return 0
    return len(_rref(m)[1])


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 6x6; half of them get rows that combine others."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        free = draw(st.integers(1, rows - 1))
        for i in range(free, rows):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=free, max_size=free))
            m[i] = [sum(c * m[k][j] for k, c in enumerate(coeffs)) for j in range(cols)]
    return tuple(tuple(row) for row in m)


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
def test_mat_rank_matches_rref_rank(m):
    assert la.mat_rank(m) == rref_rank(m)
    assert la.mat_rank(tuple(zip(*m))) == rref_rank(m)


def test_mat_rank_rejects_non_integers():
    with pytest.raises(TypeError):
        la.mat_rank(((Fraction(1, 2), 1), (1, 1)))


def _is_unimodular(m):
    if la.mat_rank(m) < len(m):
        return False
    try:
        as_int_matrix(mat_inv(m))
    except ValueError:
        return False
    return True


def test_smith_normal_form_random():
    rng = random.Random(41)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        u, d, v = la.smith_normal_form(a)
        assert la.mat_mul(la.mat_mul(u, a), v) == d
        assert _is_unimodular(u) and _is_unimodular(v)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_smith_known():
    _u, d, _v = la.smith_normal_form(((2, 4), (6, 8)))
    assert (d[0][0], d[1][1]) == (2, 4)


square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
        min_size=n,
        max_size=n,
    ).map(tuple)
)


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_integer_inverse_matches_the_fraction_inverse(m):
    if la.mat_rank(m) < len(m):
        with pytest.raises(ValueError):
            la.integer_inverse(m)
        return
    d, adj = la.integer_inverse(m)
    inv = mat_inv(m)
    # d is the least common denominator of the rational inverse
    assert d == math.lcm(*(c.denominator for row in inv for c in row))
    assert adj == tuple(tuple(int(d * c) for c in row) for row in inv)
    assert all(type(c) is int for row in adj for c in row)
    assert math.gcd(d, *(c for row in adj for c in row)) == 1


large_square_matrices = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple),
        min_size=n,
        max_size=n,
    ).map(tuple)
)


@settings(max_examples=300, deadline=None)
@given(large_square_matrices)
def test_integer_inverse_of_random_matrices(m):
    # the Smith normal form cannot take random input (its entries grow
    # without bound on some 6x5 matrices), so no oracle: m adj = d 1
    n = len(m)
    assume(la.mat_rank(m) == n)
    d, adj = la.integer_inverse(m)
    assert d > 0
    assert la.mat_mul(m, adj) == tuple(tuple(d * x for x in row) for row in la.identity_matrix(n))
    assert math.gcd(d, *(x for row in adj for x in row)) == 1


def test_integer_inverse_rejects_singular_and_non_square():
    for m in (((1, 2), (2, 4)), ((0, 0), (0, 0)), ((1, 0, 0), (0, 1, 0), (1, 1, 0))):
        with pytest.raises(ValueError, match="singular"):
            la.integer_inverse(m)
    with pytest.raises(ValueError, match="square"):
        la.integer_inverse(((1, 2, 3), (4, 5, 6)))


def test_lattice_quotient_cyclic():
    # Z^2 / <(2,0), (0,3)> has order 6 and separates classes
    q = la.LatticeQuotient(2, [(2, 0), (0, 3)])
    assert q.is_finite and q.order == 6
    keys = {q.key((a, b)) for a in range(4) for b in range(6)}
    assert len(keys) == 6
    assert q.key((2, 3)) == q.key((0, 0))
    assert q.key((1, 0)) != q.key((0, 0))


def test_lattice_quotient_free_part():
    # Z^2 / <(1, 1)> is infinite cyclic
    q = la.LatticeQuotient(2, [(1, 1)])
    assert not q.is_finite
    assert q.key((1, 1)) == q.key((0, 0))
    assert q.key((1, 0)) != q.key((2, 0))


def test_lattice_quotient_additive():
    # keys are constant on classes, so the key of a sum depends only on
    # the classes of the summands
    rng = random.Random(3)
    gens = [(2, 0, 0), (1, 3, 0)]
    q = la.LatticeQuotient(3, gens)

    def shifted(u):
        for g in gens:
            k = rng.randint(-3, 3)
            u = la.vec_add(u, tuple(k * c for c in g))
        return u

    for _ in range(40):
        u = tuple(rng.randint(-9, 9) for _ in range(3))
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        u2, v2 = shifted(u), shifted(v)
        assert q.key(u2) == q.key(u) and q.key(v2) == q.key(v)
        assert q.key(la.vec_add(u2, v2)) == q.key(la.vec_add(u, v))

