"""Differential test for the root and coroot coordinates of a datum.

``RootDatum`` used to choose an ambient basis of the lattice and then
solve one ``Fraction`` system per coroot (``vec``) and take one
``Fraction`` dot per basis vector for every root (``cov``). It now reads
the simple roots and coroots off the Cartan matrix and maps every root's
integer coefficient vector through them. The old construction is kept
here and compared on every datum of the Weyl table tests plus one datum
each of types D, E and F.
"""

from fractions import Fraction

import pytest

from adlvkit import cartan
from adlvkit.linalg import as_int_vector, dot, mat_inv
from matrix_reference import solve
from adlvkit.root_datum import RootDatum, parse_spec

DATA = (
    "A1:adj",
    "A2:adj",
    "A3:gl",
    "A4:adj",
    "A5:gl",
    "B3:adj",
    "C3:sc",
    "G2:sc",
    "2A3:sc",
    "2A4:sc",
    "3D4:sc",
    "D5:adj",
    "E6:sc",
    "F4:adj",
)


def old_lattice_basis(spec, simple_amb, coroots_amb):
    preset = spec.lattice_preset
    if preset == "gl":
        n = spec.rank + 1
        return [cartan._e(n, i) for i in range(n)]
    if preset == "adjoint":
        return list(coroots_amb)
    r = spec.rank
    pairing = tuple(
        tuple(dot(coroots_amb[i], simple_amb[j]) for j in range(r)) for i in range(r)
    )
    inv = mat_inv(pairing)
    basis = []
    for i in range(r):
        w = [Fraction(0)] * len(simple_amb[0])
        for j in range(r):
            for k in range(len(w)):
                w[k] += inv[i][j] * coroots_amb[j][k]
        basis.append(tuple(w))
    return basis


def old_coordinates(spec):
    """simple_roots, simple_coroots, positive_roots, theta, theta_coroot, root_coroot."""
    simple_amb = cartan.simple_roots_ambient(spec.family, spec.rank)
    coroots_amb = [cartan.coroot(a) for a in simple_amb]
    pos_amb = cartan.positive_roots(simple_amb)
    theta_amb = cartan.highest_root(simple_amb, pos_amb)
    basis = old_lattice_basis(spec, simple_amb, coroots_amb)
    n = len(basis)

    def cov(alpha):
        return as_int_vector([dot(b, alpha) for b in basis])

    def vec(x_amb):
        mat = tuple(tuple(basis[j][i] for j in range(n)) for i in range(len(x_amb)))
        sol = solve(mat, x_amb)
        assert sol is not None, "vector not in the lattice span"
        return as_int_vector(sol)

    root_coroot = {}
    for beta, _c in pos_amb:
        bc, cc = cov(beta), vec(cartan.coroot(beta))
        root_coroot[bc] = cc
        root_coroot[tuple(-x for x in bc)] = tuple(-x for x in cc)
    return {
        "simple_roots": tuple(cov(a) for a in simple_amb),
        "simple_coroots": tuple(vec(c) for c in coroots_amb),
        "positive_roots": tuple(cov(beta) for beta, _c in pos_amb),
        "theta": cov(theta_amb),
        "theta_coroot": vec(cartan.coroot(theta_amb)),
        "root_coroot": root_coroot,
    }


@pytest.mark.parametrize("spec", DATA)
def test_coordinates_match_the_solve_construction(spec):
    datum = RootDatum(parse_spec(spec))
    old = old_coordinates(datum.spec)
    for name, value in old.items():
        assert getattr(datum, name) == value, name
    assert list(datum.root_coroot) == list(old["root_coroot"])
    assert all(type(c) is int for v in datum.root_coroot.items() for c in v[0] + v[1])


@pytest.mark.parametrize("spec", DATA)
def test_dual_and_central_covectors(spec):
    datum = RootDatum(parse_spec(spec))
    for i, coroot in enumerate(datum.simple_coroots):
        assert [dot(coroot, w) for w in datum.fundamental_weights] == [
            int(i == j) for j in range(datum.rank)
        ]
        assert all(dot(coroot, a) == 0 for a in datum.central_covectors)
    assert len(datum.central_covectors) == datum.central_rank
    # rho is the sum of the fundamental weights
    assert tuple(map(sum, zip(*datum.fundamental_weights))) == datum.rho
