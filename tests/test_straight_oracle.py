"""Differential oracle for the straight-element enumeration.

Newton points now come from the integer orbit sum of the translation
over its period under z o delta, straightness is an integer identity,
the Weyl table keeps only words and inversion masks, and candidate
translations come from a pruned search over the simple-root pairings.
``matrix_reference`` keeps the forms they replaced: ``Fraction`` Newton
points averaged over the full order of z o delta, a matrix per table
element, and the full product of pairing ranges. They are compared on
every element of the acceptance corpora and of the rank-3/4 corpora,
and on every enumeration bound those corpora reach.
"""

import functools
import math
from fractions import Fraction

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import checks
from adlvkit import conjugacy as cj
from adlvkit.conjugacy import class_invariant, is_straight, newton_point
from adlvkit.errors import UsageError
from adlvkit.linalg import dot
from adlvkit.root_datum import RootDatum, parse_spec

CORPORA = (
    ("A1:adj", 8),
    ("A2:adj", 8),
    ("C2:sc", 8),
    ("G2:sc", 8),
    ("A3:gl", 6),
    ("2A3:sc", 6),
    ("B3:adj", 6),
    ("C3:sc", 6),
    ("2A4:sc", 4),
    ("3D4:sc", 4),
    ("A5:gl", 2),
)


def fresh(spec):
    return RootDatum(parse_spec(spec))


@functools.lru_cache(maxsize=None)
def corpus(spec, max_length):
    datum = fresh(spec)
    return datum, tuple(checks.corpus(datum, max_length))


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_class_invariants_match_the_fraction_newton_point(spec, max_length):
    datum, elements = corpus(spec, max_length)
    for x in elements:
        nu = ref.newton_point(x)
        assert newton_point(x) == nu, aw.format_element(x)
        assert is_straight(x) == ref.is_straight(x), aw.format_element(x)
        c = class_invariant(x)
        assert c.newton == nu
        assert c.pairing_two_rho == dot(nu, datum.two_rho)
        assert c.zero_set == frozenset(
            i + 1 for i, alpha in enumerate(datum.simple_roots) if dot(nu, alpha) == 0
        )


# the corpora above, and the rank-6 to rank-8 data of the Coxeter checks
STRAIGHT_DATA = CORPORA + (
    ("E6:sc", 2),
    ("2E6:sc", 2),
    ("E7:sc", 2),
    ("E8:sc", 2),
    ("A7:gl", 2),
)


@pytest.mark.parametrize("spec,max_length", STRAIGHT_DATA)
def test_straightness_matches_the_orbit_sum_test(spec, max_length):
    _datum, elements = corpus(spec, max_length)
    assert any(is_straight(x) for x in elements)
    for x in elements:
        assert is_straight(x) == ref.orbit_sum_is_straight(x), aw.format_element(x)


@pytest.mark.parametrize("spec,text", [("A3:gl", "s0 s1 s2 t(1,0,0,0)"), ("2A3:sc", "s1 tau1")])
def test_straightness_and_the_class_invariant_share_one_orbit_sum(spec, text, monkeypatch):
    walked = []
    orbit_sum = cj._orbit_sum

    def counted(x):
        walked.append(x)
        return orbit_sum(x)

    monkeypatch.setattr(cj, "_orbit_sum", counted)
    x = aw.parse_element(fresh(spec), text)
    cj.is_straight(x)
    cj.class_invariant(x)
    assert walked == [x]


def _filters(datum, elements):
    """(bound, class) per enumeration a defect of the corpus classes runs.

    Classes with equal bound, Kottwitz point and central part enumerate
    the same elements, so one class stands for each such triple.
    """
    out = {}
    for x in elements:
        c = class_invariant(x)
        bound = math.floor(c.pairing_two_rho)
        central = tuple(Fraction(a, c.period) for a in c.central)
        out.setdefault((bound, c.kottwitz, central), (bound, c))
    return sorted(out.values(), key=lambda e: (e[0], ref.class_sort_key(e[1])))


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_enumerations_match_the_full_product(spec, max_length):
    # the classes come from the corpus datum; filters only read their values
    _datum, elements = corpus(spec, max_length)
    datum, oracle = fresh(spec), fresh(spec)
    normalized = tuple(range(datum.n)) if datum.central_rank else None
    calls = [(max_length, None, normalized)] + [
        (bound, c, (c.central_sum,) if datum.central_rank else None)
        for bound, c in _filters(datum, elements)
    ]
    for bound, c, central in calls:
        got = ref.pruned_translation_candidates(datum, bound, central)
        assert got == ref.translation_candidates(oracle, bound, central), bound
        # iter_elements promises no order; the multiset must match exactly
        got = sorted(aw.format_element(x) for x in bg.iter_elements(datum, bound, kottwitz=c))
        want = sorted(
            aw.format_element(x)
            for x in ref.iter_elements(
                oracle, bound, central, None if c is None else c.kottwitz
            )
        )
        assert got == want, (bound, c)


@pytest.mark.parametrize("spec", sorted({spec for spec, _bound in CORPORA}))
def test_weyl_table_matches_the_matrix_search(spec):
    datum, oracle = fresh(spec), fresh(spec)
    matrices, words, masks = ref.weyl_table(oracle)
    assert datum.weyl_words() == words
    assert ref.table_words_and_masks(datum) == (words, masks)
    assert datum.weyl_elements() == matrices


@pytest.mark.parametrize("spec", ["A2:adj", "A3:gl", "2A4:sc", "3D4:sc", "A5:gl"])
def test_weyl_elements_leave_the_caches_empty(spec):
    """Building the table interns nothing: a datum stays cold after set-up."""
    datum = fresh(spec)
    assert datum.weyl_elements()
    caches = {k: v for k, v in vars(datum).items() if k.endswith("_cache")}
    assert caches
    assert [k for k, v in caches.items() if v and k != "_word_cache"] == []


# the corpora above, and two larger data at small bounds
BFS_DATA = CORPORA + (("D4:sc", 3), ("E6:sc", 2))


def _every_filter(datum):
    """No filter, and the class of each length-zero element tau_k that exists.

    On a central line tau_0, ..., tau_(n-1) pin every central sum 0..n-1;
    on the other lattices they give every Kottwitz point.
    """
    limit = datum.n if datum.central_rank else datum.rank + 1
    out = [None]
    for k in range(limit):
        try:
            out.append(class_invariant(aw.omega_element(datum, k)))
        except UsageError:
            pass  # the k-th fundamental coweight is not in the lattice
    return out


@pytest.mark.parametrize("spec,max_length", BFS_DATA)
def test_breadth_first_search_matches_the_table_path(spec, max_length):
    datum, oracle = fresh(spec), fresh(spec)
    normalize = bool(datum.central_rank)
    for c, c_ref in zip(_every_filter(datum), _every_filter(oracle)):
        # iter_elements promises no order; the multiset must match exactly
        got = sorted(
            (aw.format_element(x), aw.length(x))
            for x in bg.iter_elements(datum, max_length, kottwitz=c)
        )
        want = sorted(
            (aw.format_element(x), aw.length(x))
            for x in ref.table_iter_elements(
                oracle, max_length, kottwitz=c_ref, normalize_central=normalize
            )
        )
        assert got == want, c


@pytest.mark.parametrize("spec,max_length", [("A3:gl", 6), ("2A3:sc", 6), ("C3:sc", 6), ("3D4:sc", 4)])
def test_rankedness_compares_the_classes_of_enumerate_straight(spec, max_length, monkeypatch):
    """The audit's straight corpus elements of length <= 4 give the classes
    the rankedness suite used to enumerate: every class on a spanning
    lattice, the identity's Kottwitz point on a central line."""
    datum, elements = corpus(spec, max_length)
    bound = min(max_length, 4)
    straight = [x for x in elements if aw.length(x) <= bound and is_straight(x)]
    compared = []
    sort_classes = bg.sort_classes

    def spy(items, key=None):
        compared.append(set(items))
        return sort_classes(items, key)

    monkeypatch.setattr(bg, "sort_classes", spy)
    checks._audit_rankedness(datum, straight, pytest.fail, lambda *_args: None)
    monkeypatch.undo()
    trivial = class_invariant(aw.identity(datum)) if datum.central_rank else None
    records = bg.enumerate_straight(datum, bound, kottwitz=trivial)
    assert compared == [{r.invariant for r in records}]
