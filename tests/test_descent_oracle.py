"""Differential oracle for the one greedy descent and the one orbit count.

``affine_weyl.strip_left_descents`` replaced three loops that each
stripped the smallest left descent: the one behind ``omega_element``,
the one inside ``classifier.coset_decompose`` and the one inside
``classifier.reduced_word_in_parabolic``. The classifier counts twist
orbits with ``conjugacy.twist_orbits`` instead of walking the twist
itself. ``matrix_reference`` keeps the replaced code; here the two
are compared on every fundamental coweight coset of a range of data, on
every element of the acceptance corpora against every spherical K, and
on every twist-stable set of finite indices. The minimal Coxeter type
search now reads u's word and the twist permutation off the one
decomposition of each (member, K); the old search, which decomposed and
descended again, is compared with it on every minimal element of the
rank-2, 2A3:sc and A3:gl corpora. The search skips every K with |K| <
len(w) - <nu_w, 2 rho> (see ``is_minimal_coxeter_type``); the unpruned
search is compared with it on every minimal element of the ten
acceptance corpora.
"""

import itertools

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import checks
from adlvkit import classifier as cl
from adlvkit import conjugacy as cj
from adlvkit.errors import InternalInvariantError, UsageError
from adlvkit.root_datum import RootDatum, build_root_datum, parse_spec
from test_acceptance import CORPORA as ACCEPTANCE
from test_acceptance_rank4 import CORPORA as ACCEPTANCE_RANK4
from test_datum_oracle import DATA
from test_finite_index_oracle import CORPORA, corpus


@pytest.mark.parametrize("spec", DATA)
def test_omega_element_matches_the_old_descent(spec):
    datum = build_root_datum(spec)
    gl = datum.spec.lattice_preset == "gl"
    assert aw.omega_element(datum, 0).is_identity()
    for k in range(1, (datum.n if gl else datum.rank) + 1):
        if gl and k == datum.n:
            coweight = (1,) * datum.n
        else:
            coweight = datum.fundamental_coweights[k - 1]
        if any(c.denominator != 1 for c in coweight):
            with pytest.raises(UsageError):
                aw.omega_element(datum, k)
            continue
        expected = ref.stabilizer_descend(aw.translation(datum, coweight))
        assert aw.omega_element(datum, k) == expected, (spec, k)


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_coset_decompose_and_coxeter_test_match_the_old_loops(spec, max_length):
    datum = build_root_datum(spec)
    subsets = cl.spherical_subsets(datum)
    decomposed = 0
    for w in corpus(spec, max_length):
        for K in subsets:
            dec = cl.coset_decompose(w, K)
            assert dec == ref.coset_decompose(w, K), (w, K)
            if dec is None:
                continue
            decomposed += 1
            u, x, letters = dec
            assert cl.reduced_word_in_parabolic(u, K) == ref.reduced_word_in_parabolic(u, K)
            assert cl.is_twisted_coxeter(u, K, x) == ref.is_twisted_coxeter(u, K, x), (w, K)
    assert decomposed


@pytest.mark.parametrize(
    "spec,max_length",
    (("A2:adj", 8), ("C2:sc", 8), ("G2:sc", 8), ("2A3:sc", 4), ("A3:gl", 5)),
)
def test_minimal_coxeter_witnesses_match_the_old_search(spec, max_length):
    # a fresh datum: no witness comes from another test's cache
    datum = RootDatum(parse_spec(spec))
    found = 0
    for w in checks.corpus(datum, max_length):
        if not cj.is_min_len(w).is_min_len:
            continue
        witness = cl.is_minimal_coxeter_type(w)
        assert witness == ref.is_minimal_coxeter_type(w), w
        found += witness is not None
    assert found


@pytest.mark.parametrize("spec,max_length", ACCEPTANCE + ACCEPTANCE_RANK4)
def test_pruned_witness_search_matches_the_unpruned_one(spec, max_length):
    datum = RootDatum(parse_spec(spec))
    pruned = 0
    for w in checks.corpus(datum, max_length):
        if not cj.is_min_len(w).is_min_len:
            continue
        assert cl.is_minimal_coxeter_type(w) == ref.unpruned_minimal_coxeter_type(w), w
        pruned += aw.length(w) - cj.class_invariant(w).pairing_two_rho > 0
    assert pruned


@pytest.mark.parametrize("spec", DATA)
def test_orbit_counts_match_the_old_walk(spec):
    datum = build_root_datum(spec)
    perm = datum.delta_diagram
    stable = [
        frozenset(subset)
        for size in range(datum.rank + 1)
        for subset in itertools.combinations(range(1, datum.rank + 1), size)
        if {perm[i] for i in subset} == set(subset)
    ]
    if datum.spec.twist_order != 1:
        assert len(stable) < 2 ** datum.rank
    for subset in stable:
        assert len(cj.twist_orbits(datum, subset)) == ref.count_orbit_classes(datum, subset)


def test_reduced_word_in_parabolic_tripwires(monkeypatch):
    datum = build_root_datum("A5:gl")
    # a nonidentity element of length zero is in no parabolic subgroup
    with pytest.raises(UsageError, match="not in the parabolic"):
        cl.reduced_word_in_parabolic(aw.omega_element(datum, 1), (1, 2))
    # s0 s1 has a letter outside K = {1}
    w = aw.parse_element(datum, "s0 s1")
    with pytest.raises(UsageError, match="outside"):
        cl.reduced_word_in_parabolic(w, (1,))
    assert cl.reduced_word_in_parabolic(w, (0, 1)) == (0, 1)
    # a descent that stops at positive length is a broken invariant
    monkeypatch.setattr(cl, "strip_left_descents", lambda x, indices: (x, ()))
    with pytest.raises(InternalInvariantError, match="positive length"):
        cl.reduced_word_in_parabolic(w, (0, 1))
