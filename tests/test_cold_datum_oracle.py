"""Differential oracles for how a datum is built and filled.

``RootDatum.finite_left`` derives a new element's inversion mask from the
old one, by the signed permutation of the positive roots under the
reflection, and ``finite_right`` flips the one bit of z(alpha_i). After
random walks, every interned index's mask is compared here with the
per-root formula, ``matrix_reference.inversion_mask``.

``linalg.integer_inverse`` runs fraction-free Gauss-Jordan elimination;
it is compared with the Smith normal form path on the pairing and Cartan
matrices of the same data (``test_linalg`` checks it on random
matrices, which the Smith normal form cannot take).
``cartan.positive_roots`` closes only upward; it is compared with the
closure under every simple reflection. The Kottwitz quotient, built
without the zero generators of delta - 1, is compared with the quotient
by all of them.
"""

import random

import pytest

import matrix_reference as ref
from adlvkit import cartan
from adlvkit.linalg import LatticeQuotient, identity_matrix, integer_inverse
from adlvkit.root_datum import RootDatum, parse_spec
from test_datum_oracle import DATA

# DATA holds E6:sc, F4:adj and 3D4:sc already
MASK_DATA = DATA + ("2E6:sc", "E7:sc", "E8:sc")

ROOT_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [(f, r) for f in "BC" for r in range(2, 8)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("spec", MASK_DATA)
def test_derived_masks_match_the_per_root_formula(spec):
    datum = RootDatum(parse_spec(spec))
    rng = random.Random(11)
    for _walk in range(4):
        w = datum.finite_index(identity_matrix(datum.n))
        for _step in range(60):
            i = rng.randint(0, datum.rank)
            w = datum.finite_left(w, i) if rng.random() < 0.5 else datum.finite_right(w, i)
    assert len(datum._finite_matrix_cache) > 1
    for index, z in datum._finite_matrix_cache.items():
        assert datum._inversion_cache[index] == ref.inversion_mask(datum, z), index


@pytest.mark.parametrize("spec", MASK_DATA)
def test_integer_inverse_matches_the_smith_form(spec):
    datum = RootDatum(parse_spec(spec))
    pairing = datum.simple_roots + ((datum.central_vector,) if datum.central_rank else ())
    for m in (pairing, datum.cartan_matrix):
        assert integer_inverse(m) == ref.smith_integer_inverse(m)


@pytest.mark.parametrize("spec", MASK_DATA)
def test_kottwitz_quotient_without_zero_generators(spec):
    # the datum leaves out the zero columns of delta - 1; the Smith form,
    # and so every key, is the one of the full generator list
    datum = RootDatum(parse_spec(spec))
    n = datum.n
    columns = [tuple(datum.delta[i][j] - (i == j) for i in range(n)) for j in range(n)]
    full = LatticeQuotient(n, [list(c) for c in datum.simple_coroots] + columns)
    rng = random.Random(5)
    for _ in range(50):
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        assert datum.kottwitz_quotient.key(v) == full.key(v)


@pytest.mark.parametrize("family,rank", ROOT_TYPES)
def test_upward_closure_matches_the_full_closure(family, rank):
    simple = cartan.simple_roots_ambient(family, rank)
    assert cartan.positive_roots(simple) == ref.closure_positive_roots(simple)
