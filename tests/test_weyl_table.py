"""Differential tests for the per-datum finite Weyl table.

The table (``RootDatum.weyl_elements``) replaced a matrix breadth-first
search sorted by words stripped one matrix descent at a time. The table
path of the enumeration in ``matrix_reference`` (lengths from inversion
masks, a pruned translation search solved in integers) replaced the
matrix ``length`` and the ``Fraction`` pairing system kept here, and
``bg_poset.iter_elements`` is now a breadth-first search from the
length-zero elements. The old code paths are compared on fresh data, so
that no cache is shared between the two sides.
"""

import itertools
from fractions import Fraction

import pytest

from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import cartan
from adlvkit.conjugacy import class_invariant, is_straight, reflection_length
from adlvkit.errors import CapExceededError
from adlvkit.linalg import dot, identity_matrix, mat_mul, mat_vec, vec_mat
from adlvkit.root_datum import RootDatum, parse_spec
import matrix_reference
from matrix_reference import mat_inv, solve

TABLE_DATA = (
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
)

# the data of the acceptance corpora, with the enumeration bound used here
ACCEPTANCE_DATA = (
    ("A1:adj", 8),
    ("A2:adj", 6),
    ("C2:sc", 6),
    ("G2:sc", 6),
    ("A3:gl", 4),
    ("2A3:sc", 4),
)


def fresh(spec):
    return RootDatum(parse_spec(spec))


# -- the old code paths ------------------------------------------------------


def old_weyl_word(datum, z):
    """Least reduced word by stripping the smallest left descent of the matrix."""
    word = []
    cur = z
    while True:
        for i in range(datum.rank):
            if dot(datum._probe, vec_mat(datum.simple_roots[i], cur)) < 0:
                word.append(i + 1)
                cur = mat_mul(datum.weyl_generators[i], cur)
                break
        else:
            assert cur == identity_matrix(datum.n)
            return tuple(word)


def old_weyl_elements(datum):
    """Right-multiplication BFS over matrices, sorted by (length, word)."""
    seen = {identity_matrix(datum.n)}
    frontier = list(seen)
    while frontier:
        new = []
        for z in frontier:
            for g in datum.weyl_generators:
                zg = mat_mul(z, g)
                if zg not in seen:
                    seen.add(zg)
                    new.append(zg)
        frontier = new
    words = {z: old_weyl_word(datum, z) for z in seen}
    return tuple(sorted(seen, key=lambda z: (len(words[z]), words[z])))


def old_translation_candidates(datum, bound, central_values):
    b = bound + 1
    rows = [tuple(Fraction(c) for c in alpha) for alpha in datum.simple_roots]
    axes = [range(-b, b + 1)] * datum.rank
    if datum.central_rank:
        rows.append(tuple(Fraction(c) for c in datum.central_vector))
        axes.append(list(central_values))
    inv = mat_inv(tuple(rows))
    out = []
    for pairings in itertools.product(*axes):
        lam = mat_vec(inv, pairings)
        if any(c.denominator != 1 for c in lam):
            continue
        lam = tuple(int(c) for c in lam)
        if all(abs(dot(lam, alpha)) <= b for alpha in datum.positive_roots):
            out.append(lam)
    return sorted(out)


def old_iter_elements(datum, max_length, kottwitz=None, central_values=None):
    if datum.central_rank and kottwitz is not None:
        central_values = [kottwitz.central_sum]
    kappa_key = kottwitz.kottwitz if kottwitz is not None else None
    elements = old_weyl_elements(datum)
    for lam in old_translation_candidates(datum, max_length, central_values):
        if kappa_key is not None and datum.kottwitz_quotient.key(lam) != kappa_key:
            continue
        for z in elements:
            x = aw.AffineElement(datum, lam, datum.finite_index(z))
            if aw.length(x) <= max_length:
                yield x


def old_enumerate_straight(datum, max_pairing, kottwitz=None):
    bound = int(max_pairing)
    records = {}
    elements = sorted(
        old_iter_elements(datum, bound, kottwitz=kottwitz),
        key=lambda x: (
            aw.length(x),
            sum(c * c for c in x.translation),
            old_weyl_word(datum, x.finite),
            x.translation,
        ),
    )
    for x in elements:
        if not is_straight(x):
            continue
        inv = class_invariant(x)
        if inv.pairing_two_rho > max_pairing:
            continue
        if inv not in records:
            records[inv] = (inv, x, reflection_length(datum, x.finite, datum.delta))
    return sorted(records.values(), key=lambda r: matrix_reference.class_sort_key(r[0]))


def old_positive_roots(simple):
    """Closure of the ambient roots, each solved onto the simple basis."""
    simple = [tuple(Fraction(c) for c in r) for r in simple]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for alpha in simple:
                c = 2 * dot(beta, alpha) / dot(alpha, alpha)
                img = tuple(b - c * a for b, a in zip(beta, alpha))
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    cols = tuple(tuple(a[i] for a in simple) for i in range(len(simple[0])))
    pos = []
    for beta in roots:
        coeffs = solve(cols, beta)
        if all(c >= 0 for c in coeffs):
            pos.append((sum(coeffs), beta, coeffs))
    pos.sort(key=lambda t: (t[0], t[1]))
    return [(beta, coeffs) for _h, beta, coeffs in pos]


def _central_values(datum):
    return list(range(datum.n)) if datum.central_rank else None


def _record_rows(records):
    return [
        (r[0].newton, r[0].kottwitz, aw.format_element(r[1]), r[2]) for r in records
    ]


def _kottwitz_filters(datum):
    """None, or for a lattice with a central line one class per central sum."""
    if not datum.central_rank:
        return [None]
    return [class_invariant(aw.omega_element(datum, k)) for k in range(datum.n)]


# -- the table -----------------------------------------------------------------


@pytest.mark.parametrize("spec", TABLE_DATA)
def test_weyl_table_matches_matrix_search(spec):
    new, old = fresh(spec), fresh(spec)
    elements = new.weyl_elements()
    reference = old_weyl_elements(old)
    assert elements == reference
    assert [new.weyl_word(z) for z in elements] == [
        old_weyl_word(old, z) for z in reference
    ]
    words, masks = matrix_reference.table_words_and_masks(new)
    assert words == new.weyl_words()
    for z, mask in zip(elements, masks):
        expected = sum(
            1 << k
            for k, beta in enumerate(new.positive_roots)
            if dot(new._probe, vec_mat(beta, z)) < 0
        )
        assert mask == expected
        assert mask.bit_count() == len(new.weyl_word(z))


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 6)]
    + [("B", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)],
)
def test_positive_roots_match_ambient_closure(family, rank):
    simple = cartan.simple_roots_ambient(family, rank)
    new = cartan.positive_roots(simple)
    old = old_positive_roots(simple)
    ambient = [
        tuple(sum(c[j] * simple[j][k] for j in range(rank)) for k in range(len(simple[0])))
        for c in new
    ]
    assert ambient == [beta for beta, _c in old]
    assert new == [tuple(c) for _b, c in old]


# -- lengths and candidates ------------------------------------------------------


@pytest.mark.parametrize("spec", [s for s, _b in ACCEPTANCE_DATA] + ["B3:adj"])
def test_table_lengths_match_length_on_every_candidate(spec):
    datum, oracle = fresh(spec), fresh(spec)
    bound = 3
    central = _central_values(datum)
    candidates = matrix_reference.pruned_translation_candidates(datum, bound, central)
    assert candidates == old_translation_candidates(oracle, bound, central)
    skipped = 0
    for lam in candidates:
        lengths = matrix_reference.table_translation_lengths(datum, lam)
        expected = [
            matrix_reference.length(oracle, (lam, z)) for z in oracle.weyl_elements()
        ]
        assert lengths == expected, lam
        if matrix_reference.table_translation_lengths(datum, lam, bound) is None:
            skipped += 1
            assert min(expected) > bound, lam
    assert skipped  # the lower bound does prune at this bound


@pytest.mark.parametrize("spec,bound", ACCEPTANCE_DATA)
def test_iter_elements_and_straight_records_match_old_enumeration(spec, bound):
    new, old = fresh(spec), fresh(spec)
    for c_new, c_old in zip(_kottwitz_filters(new), _kottwitz_filters(old)):
        # iter_elements promises no order; the multiset must match exactly
        got = sorted(aw.format_element(x) for x in bg.iter_elements(new, bound, kottwitz=c_new))
        want = sorted(aw.format_element(x) for x in old_iter_elements(old, bound, kottwitz=c_old))
        assert got == want
        records = bg.enumerate_straight(new, bound, kottwitz=c_new)
        rows = [
            (r.invariant.newton, r.invariant.kottwitz, aw.format_element(r.straight_witness), r.defect)
            for r in records
        ]
        assert rows == _record_rows(old_enumerate_straight(old, bound, kottwitz=c_old))


@pytest.mark.parametrize("spec", ["A2:adj", "A3:gl"])
def test_iter_elements_writes_no_length(spec):
    # lengths have one writer, affine_weyl.length
    datum = fresh(spec)
    (kottwitz, *_rest) = _kottwitz_filters(datum)
    datum._length_cache.clear()  # omega_element measured lengths on the way
    yielded = list(bg.iter_elements(datum, 4, kottwitz=kottwitz))
    assert yielded
    assert not datum._length_cache
    assert max(map(aw.length, yielded)) == 4


# -- the enumeration budget ------------------------------------------------------


def test_budget_cap_holds_in_a_fresh_datum():
    datum = fresh("A2:adj")
    with pytest.raises(CapExceededError):
        list(bg.iter_elements(datum, 5, budget=10))


def test_budget_cap_holds_after_a_cached_enumeration():
    datum = fresh("A2:adj")
    assert list(bg.iter_elements(datum, 5))
    with pytest.raises(CapExceededError):
        list(bg.iter_elements(datum, 5, budget=10))
