"""Differential test for the root and coroot coordinates of a datum.

``RootDatum`` used to choose an ambient basis of the lattice and then
solve one ``Fraction`` system per coroot (``vec``) and take one
``Fraction`` dot per basis vector for every root (``cov``). It now reads
the simple roots and coroots off the Cartan matrix and maps every root's
integer coefficient vector through them. The old construction is kept
here and compared on every datum of the Weyl table tests plus one datum
each of types D, E and F.

``cartan.positive_roots`` used to sort the roots by height and
``Fraction`` ambient coordinates; it now sorts integer vectors, the
ambient coordinates scaled by the simple roots' common denominator, and
returns only the coefficient vectors. The ``Fraction`` sort is kept here
too, and the old construction uses it, with the ambient ``coroot`` and
the ambient dominance check of the highest root.

The dual bases (``pairing_inverse``, the fundamental weights and
coweights, the central covectors and the positivity probe) used to come
from ``Fraction`` Gauss-Jordan elimination: ``mat_inv`` of the Cartan
matrix, ``nullspace`` of the coroots and a least common denominator.
They now come from the integer inverse of the Cartan matrix by
fraction-free elimination (``linalg.integer_inverse``), and on gl from
that of the pairing matrix too; on sc and adj the pairing inverse is read
off the Cartan inverse, and is checked against inverting the pairing
matrix. The rational construction is kept here and
compared on ``DATA`` and five larger data.
"""

import math
from fractions import Fraction
from operator import mul

import pytest

from adlvkit import cartan
from adlvkit.linalg import as_int_vector, dot, integer_inverse, vec_mat
from matrix_reference import mat_inv, nullspace, solve
from adlvkit.root_datum import CartanSpec, RootDatum, parse_spec

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


def coroot(root):
    """2 root / (root, root), in the ambient space."""
    norm = dot(root, root)
    return tuple(Fraction(2, 1) / norm * a for a in root)


def old_highest_root(simple, positive):
    """The last of ``old_positive_roots(simple)``, checked dominant by ambient dots."""
    theta, _coeffs = positive[-1]
    for alpha in simple:
        assert 2 * dot(theta, alpha) / dot(alpha, alpha) >= 0, "highest root is not dominant"
    return theta


def old_positive_roots(simple):
    """The coefficient closure, sorted by height and Fraction ambient coordinates."""
    simple = [tuple(Fraction(c) for c in r) for r in simple]
    r = len(simple)
    pairing = [[int(2 * dot(a, b) / dot(b, b)) for b in simple] for a in simple]
    start = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    seen = set(start)
    frontier = start
    while frontier:
        new = []
        for c in frontier:
            for i in range(r):
                p = sum(c[j] * pairing[j][i] for j in range(r))
                img = c[:i] + (c[i] - p,) + c[i + 1:]
                if img[i] >= 0 and img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    pos = []
    for c in seen:
        beta = tuple(
            sum(c[j] * simple[j][k] for j in range(r)) for k in range(len(simple[0]))
        )
        pos.append((sum(c), beta, c))
    pos.sort(key=lambda t: (t[0], t[1]))
    return [(beta, coeffs) for _h, beta, coeffs in pos]


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
    coroots_amb = [coroot(a) for a in simple_amb]
    pos_amb = old_positive_roots(simple_amb)
    theta_amb = old_highest_root(simple_amb, pos_amb)
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
        bc, cc = cov(beta), vec(coroot(beta))
        root_coroot[bc] = cc
        root_coroot[tuple(-x for x in bc)] = tuple(-x for x in cc)
    return {
        "simple_roots": tuple(cov(a) for a in simple_amb),
        "simple_coroots": tuple(vec(c) for c in coroots_amb),
        "positive_roots": tuple(cov(beta) for beta, _c in pos_amb),
        "theta": cov(theta_amb),
        "theta_coroot": vec(coroot(theta_amb)),
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


@pytest.mark.parametrize("spec", DATA)
def test_positive_root_order_matches_the_fraction_sort(spec):
    spec = parse_spec(spec)
    simple = cartan.simple_roots_ambient(spec.family, spec.rank)
    new = cartan.positive_roots(simple)
    old = old_positive_roots(simple)
    assert new == [c for _beta, c in old]
    # the ambient roots in the same order
    assert [tuple(sum(map(mul, c, col)) for col in zip(*simple)) for c in new] == [
        beta for beta, _c in old
    ]
    datum = RootDatum(spec)
    assert datum.root_coefficients == tuple(new)


@pytest.mark.parametrize("spec", DATA)
def test_pairing_inverse_solves_the_pairing_system(spec):
    datum = RootDatum(parse_spec(spec))
    denom, columns = datum.pairing_inverse
    rows = list(datum.simple_roots)
    if datum.central_rank:
        rows.append(datum.central_vector)
    assert len(columns) == len(rows)
    for k, column in enumerate(columns):
        assert [dot(column, row) for row in rows] == [denom * (j == k) for j in range(len(rows))]
    # the least common denominator of the inverse matrix
    assert math.gcd(denom, *(c for column in columns for c in column)) == 1


@pytest.mark.parametrize("spec", DATA + ("E7:sc", "E7:adj", "E8:sc"))
def test_pairing_inverse_is_the_inverse_of_the_pairing_matrix(spec):
    """Read off the Cartan inverse on sc and adj, it is what inverting P gives."""
    datum = RootDatum(parse_spec(spec))
    rows = datum.simple_roots + ((datum.central_vector,) if datum.central_rank else ())
    denom, adj = integer_inverse(rows)
    assert datum.pairing_inverse == (denom, tuple(zip(*adj)))


# -- the dual bases ------------------------------------------------------------

DUAL_DATA = DATA + ("E7:sc", "E8:adj", "2E6:sc", "2D5:sc", "A7:gl")

CARTAN_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [(f, r) for f in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _integral(v):
    """A rational vector times the least common denominator of its entries."""
    d = math.lcm(*(Fraction(c).denominator for c in v))
    return tuple(int(c * d) for c in v)


def old_dual_bases(datum):
    """The dual bases as ``RootDatum`` built them with ``Fraction`` elimination."""
    cartan_inv = mat_inv(datum.cartan_matrix)
    span_coweights = tuple(vec_mat(row, datum.simple_coroots) for row in cartan_inv)
    if datum.spec.lattice_preset == "gl":
        fundamental_coweights = tuple(
            tuple(Fraction(1 if i < k else 0) for i in range(datum.n))
            for k in range(1, datum.n + 1)
        )
    else:
        fundamental_coweights = span_coweights
    solved = list(span_coweights)
    if datum.central_rank:
        solved.append(tuple(Fraction(c, datum.n) for c in datum.central_vector))
    denom = math.lcm(*(Fraction(c).denominator for v in solved for c in v))
    return {
        "pairing_inverse": (
            denom,
            tuple(tuple(int(c * denom) for c in v) for v in solved),
        ),
        "fundamental_weights": tuple(
            vec_mat(col, datum.simple_roots) for col in zip(*cartan_inv)
        ),
        "fundamental_coweights": fundamental_coweights,
        "central_covectors": tuple(_integral(v) for v in nullspace(datum.simple_coroots)),
        "_probe": _integral(tuple(map(sum, zip(*span_coweights)))),
    }


def assert_matches_fraction_inverse(m):
    d, adj = integer_inverse(m)
    inv = mat_inv(m)
    assert d == math.lcm(*(c.denominator for row in inv for c in row))
    assert adj == tuple(tuple(int(d * c) for c in row) for row in inv)
    assert math.gcd(d, *(c for row in adj for c in row)) == 1


@pytest.mark.parametrize("family,rank", CARTAN_TYPES)
def test_integer_inverse_of_the_cartan_matrix(family, rank):
    datum = RootDatum(CartanSpec(family, rank, "adjoint"))
    assert_matches_fraction_inverse(datum.cartan_matrix)


@pytest.mark.parametrize("spec", DUAL_DATA)
def test_dual_bases_match_the_fraction_construction(spec):
    datum = RootDatum(parse_spec(spec))
    rows = datum.simple_roots
    if datum.central_rank:
        rows += (datum.central_vector,)
    assert_matches_fraction_inverse(rows)
    for name, value in old_dual_bases(datum).items():
        # repr tells Fraction(1, 1) from 1, so the entry types match too
        assert repr(getattr(datum, name)) == repr(value), name
