"""Test-only reference paths that the package no longer runs.

``solve`` is the rational solver that older constructions of the datum
and the class poset used; the oracles that re-derive those constructions
still need it.

The element functions below are the group law of the extended affine Weyl
group as it was computed before finite Weyl parts became interned
indices: an element is a pair ``(translation, matrix)`` and every
operation multiplies dense lattice matrices. The differential tests
compare the package's table-driven operations with them.
"""

from fractions import Fraction

from adlvkit.linalg import (
    _rref,
    as_int_matrix,
    dot,
    identity_matrix,
    mat_inv,
    mat_mul,
    mat_vec,
    vec_add,
    vec_mat,
    vec_neg,
)


def solve(m, b):
    """One rational solution x of m @ x = b, or None if inconsistent.

    ``m`` has the columns as unknowns; when the kernel is nontrivial an
    arbitrary (pivot-based) solution is returned.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(m)]
    rows, pivots = _rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return tuple(x)


# -- the matrix representation: (translation, finite matrix) ----------------


def pair(x):
    """The matrix form of an AffineElement."""
    return (x.translation, x.finite)


def identity(datum):
    return ((0,) * datum.n, identity_matrix(datum.n))


def multiply(datum, x, y):
    """t^a z . t^b y = t^(a + z b) (z y)."""
    (a, z), (b, u) = x, y
    return (vec_add(a, mat_vec(z, b)), mat_mul(z, u))


def inverse(datum, x):
    lam, z = x
    zinv = as_int_matrix(mat_inv(z))
    return (vec_neg(mat_vec(zinv, lam)), zinv)


def sigma_act(datum, x):
    """t^lambda z goes to t^(delta lambda) (delta z delta^-1)."""
    lam, z = x
    return (mat_vec(datum.delta, lam), mat_mul(datum.delta, mat_mul(z, datum.delta_inv)))


def simple_reflection(datum, i):
    """s_i; s_0 = t^(theta^) s_theta, built from the root and its coroot."""
    if i == 0:
        alpha, coroot = datum.theta, datum.theta_coroot
        n = datum.n
        refl = tuple(
            tuple((1 if r == c else 0) - coroot[r] * alpha[c] for c in range(n))
            for r in range(n)
        )
        return (coroot, refl)
    return ((0,) * datum.n, datum.weyl_generators[i - 1])


def conjugate_by_simple(datum, x, i):
    s = simple_reflection(datum, i)
    return multiply(datum, s, multiply(datum, x, sigma_act(datum, s)))


def length(datum, x):
    """The closed length formula, with root signs read off the probe."""
    lam, z = x
    total = 0
    for alpha in datum.positive_roots:
        pairing = dot(lam, alpha)
        if dot(datum._probe, vec_mat(alpha, z)) > 0:
            total += abs(pairing)
        else:
            total += abs(pairing - 1)
    return total
