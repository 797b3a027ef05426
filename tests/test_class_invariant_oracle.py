"""Differential oracle for the integer class invariants.

``conjugacy.ClassInvariant`` used to hold its Newton point, the
coordinates read by the class poset and <nu, 2 rho> as ``Fraction``s,
and ``bg_poset`` compared and sorted them as such. It now holds an
integer vector over a period in lowest terms with integer pairings, the
poset cross-multiplies periods, and ``bg_poset.sort_classes`` owns the
class order. ``matrix_reference`` keeps the ``Fraction`` invariant, its
order, gaps and sort key; here the two are compared on every class that
the poset-oracle data and the six acceptance corpora reach. A guard runs
``classify`` and ``checks._audit_element`` with ``Fraction``
construction made to raise, and another also builds the datum under it.
"""

import fractions
import random

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import checks
from adlvkit import classifier as cl
from adlvkit.conjugacy import class_invariant
from adlvkit.root_datum import RootDatum, build_root_datum, parse_spec
from test_finite_index_oracle import CORPORA, corpus
from test_poset_oracle import POSET_DATA


def _pairs(spec):
    """(integer, Fraction) invariants of every element the data reach, per element."""
    datum = build_root_datum(spec)
    bound = dict(POSET_DATA).get(spec)
    witnesses = []
    if bound is not None:
        filters = [None]
        if datum.central_rank:
            filters = [class_invariant(aw.omega_element(datum, k)) for k in range(datum.n)]
        for f in filters:
            witnesses += [r.straight_witness for r in bg.enumerate_straight(datum, bound, kottwitz=f)]
    max_length = dict(CORPORA).get(spec)
    if max_length is not None:
        witnesses += list(corpus(spec, max_length))
    return [(class_invariant(x), ref.fraction_class_invariant(x)) for x in witnesses]


SPECS = sorted({spec for spec, _b in POSET_DATA} | {spec for spec, _m in CORPORA})


@pytest.mark.parametrize("spec", SPECS)
def test_integer_invariants_match_the_fraction_invariants(spec):
    pairs = _pairs(spec)
    old_of, new_of = {}, {}
    for new, old in pairs:
        # one equality (and so hash) class on each side
        assert old_of.setdefault(new, old) == old
        assert new_of.setdefault(old, new) == new
        assert new.newton == old.newton
        assert new.pairing_two_rho == old.pairing_two_rho
        assert new.zero_set == old.zero_set
        assert new.as_dict()["newton"] == [str(c) for c in old.newton]
        assert repr(new) == repr(old)
    assert len(old_of) == len(new_of) >= 4

    classes = list(old_of)
    assert [old_of[c] for c in bg.sort_classes(classes)] == sorted(
        old_of.values(), key=ref.class_sort_key
    )
    # the lcm of the periods depends on the classes of the call
    rng = random.Random(11)
    for _ in range(20):
        subset = rng.sample(classes, rng.randint(1, len(classes)))
        assert [old_of[c] for c in bg.sort_classes(subset)] == sorted(
            (old_of[c] for c in subset), key=ref.class_sort_key
        )

    comparable = 0
    for c1 in classes:
        for c2 in classes:
            expected = ref.fraction_leq(old_of[c1], old_of[c2])
            assert bg.leq(c1, c2) == expected, (c1, c2)
            if not expected:
                continue
            comparable += 1
            chain, gap = ref.fraction_gaps(old_of[c1], old_of[c2], bg.defect(c1), bg.defect(c2))
            assert bg.chain_length(c1, c2) == chain
            assert bg.essential_gap(c1, c2) == gap
    assert comparable > len(classes)


def forbid_fractions(monkeypatch):
    """Make every construction of a Fraction raise until ``monkeypatch`` undoes it."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("Fraction constructed")

    monkeypatch.setattr(fractions.Fraction, "__new__", forbidden)
    if hasattr(fractions.Fraction, "_from_coprime_ints"):
        monkeypatch.setattr(fractions.Fraction, "_from_coprime_ints", forbidden)


@pytest.fixture
def no_fractions(monkeypatch):
    """Make every construction of a Fraction raise."""
    forbid_fractions(monkeypatch)


@pytest.mark.parametrize("spec,max_length", (("A2:adj", 3), ("C2:sc", 3), ("A3:gl", 2), ("2A3:sc", 2)))
def test_no_fraction_on_the_class_path(spec, max_length, request):
    # a fresh datum, built before the guard, so every cache fills inside it
    datum = RootDatum(parse_spec(spec))
    request.getfixturevalue("no_fractions")
    with pytest.raises(AssertionError, match="Fraction constructed"):
        fractions.Fraction(1, 2)
    results = {name: checks.SuiteResult(name) for name in checks.CHECK_NAMES}

    def fail(name, element, detail):
        results[name].violations.append((element, detail))

    def bump(name, k=1):
        results[name].checked += k

    geo = 0
    for w in checks.corpus(datum, max_length):
        cl.classify(w, seeds=(0, 1))
        geo += checks._audit_element(w, (0, 1), 10**6, results, fail, bump)
    assert geo
    assert all(r.passed for r in results.values())


@pytest.mark.parametrize(
    "datum_string,text", (("A5:gl", "s4 tau3"), ("C2:sc", "s1 tau2"), ("2A4:sc", "s1 tau1"))
)
def test_no_fraction_in_datum_construction_and_classify(datum_string, text, monkeypatch):
    # the rational views are built on first read, not by the constructor
    with monkeypatch.context() as guard:
        forbid_fractions(guard)
        datum = RootDatum(parse_spec(datum_string))
    # tauK is read off a fundamental coweight, one of those views
    w = aw.parse_element(datum, text)
    forbid_fractions(monkeypatch)
    report = cl.classify(w)
    assert report.geo_cox
