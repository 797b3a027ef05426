"""Smith normal form on the inputs the package gives it.

``linalg.smith_normal_form`` has one package caller,
``LatticeQuotient.__init__``, and every quotient the package builds has
Cartan-like generators: the simple coroots, the nonzero columns of
delta - 1 (the Kottwitz quotient), and on gl the central vector beside
the coroots (``adlvkit scan --coset``). Here every datum that
``CartanSpec`` accepts up to rank 8 runs those three matrices, and the
transforms must stay small. General integer matrices are outside this
class: their transforms can grow without bound.
"""

import itertools

import pytest

from adlvkit import linalg as la
from adlvkit.errors import UnsupportedDatumError
from adlvkit.root_datum import CartanSpec, build_root_datum

MAX_RANK = 8
ENTRY_BOUND = 64


def accepted_specs():
    out = []
    for family, rank, preset, twist in itertools.product(
        "ABCDEFG", range(1, MAX_RANK + 1), ("adjoint", "simply_connected", "gl"), (1, 2, 3)
    ):
        try:
            out.append(CartanSpec(family, rank, preset, twist))
        except UnsupportedDatumError:
            continue
    return out


def quotient_matrices(datum):
    """The generator lists of the Kottwitz, omega and (on gl) coset quotients."""
    omega = datum.omega_quotient.generators
    found = {"kottwitz": datum.kottwitz_quotient.generators, "omega": omega}
    if datum.central_rank:
        found["coset"] = omega + (datum.central_vector,)
    # generators are the columns, as in LatticeQuotient
    return {
        name: tuple(tuple(g[i] for g in gens) for i in range(datum.n))
        for name, gens in found.items()
    }


def _is_unimodular(m):
    # the least d with d * m^(-1) integral; integer_inverse raises on a singular m
    return la.integer_inverse(m)[0] == 1


@pytest.mark.parametrize("spec", accepted_specs(), ids=CartanSpec.datum_string)
def test_smith_normal_form_stays_small_on_datum_quotients(spec):
    datum = build_root_datum(spec)
    for name, a in quotient_matrices(datum).items():
        u, d, v = la.smith_normal_form(a)
        assert la.mat_mul(la.mat_mul(u, a), v) == d, name
        assert _is_unimodular(u) and _is_unimodular(v), name
        rows, cols = len(a), len(a[0])
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j), name
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag), name
        for x, y in zip(diag, diag[1:]):
            assert (y % x == 0) if x else y == 0, name
        largest = max(abs(x) for m in (u, v) for row in m for x in row)
        assert largest <= ENTRY_BOUND, (name, largest)


def test_every_family_and_twist_is_covered():
    names = {spec.datum_string() for spec in accepted_specs()}
    assert {"A1:adj", "A8:gl", "2A8:gl", "3D4:sc", "2D8:adj", "2E6:sc", "E8:adj", "F4:sc", "G2:adj"} <= names
