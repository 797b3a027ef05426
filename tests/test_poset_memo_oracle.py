"""Differential oracle for the per-datum memos of the class poset.

``bg_poset.extrema`` memoizes per set of two or more classes in
``datum._extrema_cache``, a set without a unique minimum or maximum too,
and ``bg_poset.interval`` memoizes per pair of distinct classes in
``datum._interval_cache``. ``matrix_reference.pairwise_extrema`` and
``matrix_reference.unmemoized_interval`` are the forms they replaced.
Here both run on subsets of ``levi.levi_classes`` output, each on a
fresh datum, so the first call of the memoized form meets an empty memo
and the repeated call reads it. The node class sets of reduction trees
are compared in ``tests/test_tree_sharing_oracle.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_reference as ref
from adlvkit import bg_poset as bg
from adlvkit import levi
from adlvkit.conjugacy import class_invariant
from adlvkit.errors import DatumMismatchError, NoUniqueExtremumError, UsageError
from adlvkit.root_datum import RootDatum, parse_spec

# (spec, bound on <nu, 2 rho>); every one has incomparable classes
LEVI_DATA = (("A2:adj", 12), ("C2:sc", 12), ("G2:sc", 16), ("2A3:sc", 10), ("A3:gl", 8))


def fresh(spec):
    return RootDatum(parse_spec(spec))


def class_set(datum, bound, k=0):
    """The Levi classes up to ``bound`` at the Kottwitz point of the k-th length-zero element."""
    zero = list(bg.iter_elements(datum, 0))
    return levi.levi_classes(datum, bound, class_invariant(zero[k % len(zero)]))


def memos_are_empty(datum):
    return not datum._extrema_cache and not datum._interval_cache


@st.composite
def levi_class_subsets(draw):
    spec, bound = draw(st.sampled_from(LEVI_DATA))
    datum = fresh(spec)
    classes = class_set(datum, bound, draw(st.integers(0, 3)))
    picked = draw(st.sets(st.integers(0, len(classes) - 1), min_size=1, max_size=6))
    return datum, [classes[i] for i in sorted(picked)]


def check_against_the_reference(datum, classes):
    """The memoized extrema and interval of ``classes`` equal the reference, cold and warm."""
    key = frozenset(classes)
    assert key not in datum._extrema_cache
    try:
        want = ref.pairwise_extrema(classes)
    except NoUniqueExtremumError:
        for _ in range(2):
            with pytest.raises(NoUniqueExtremumError, match="no unique minimum or maximum"):
                bg.extrema(classes)
        assert datum._extrema_cache[key] is None
        return False
    assert bg.extrema(classes) == want == bg.extrema(classes)
    lo, hi = want
    if lo is hi:
        # a single class is its own extrema before any memo
        assert key not in datum._extrema_cache
    if (lo, hi) not in datum._interval_cache:
        between = ref.unmemoized_interval(lo, hi)
        first = bg.interval(lo, hi)
        first.append(None)  # a caller's edit must not reach the memo
        assert first[:-1] == between == bg.interval(lo, hi)
        assert ((lo, hi) in datum._interval_cache) == (lo is not hi)
    return True


@settings(max_examples=150, deadline=None)
@given(levi_class_subsets())
def test_memoized_extrema_and_interval_match_the_reference(drawn):
    datum, classes = drawn
    assert memos_are_empty(datum)
    check_against_the_reference(datum, classes)


@pytest.mark.parametrize("spec,bound", LEVI_DATA)
def test_every_pair_of_levi_classes_matches_the_reference(spec, bound):
    # exhaustive on pairs, so the sets without a unique extremum are met
    # on every datum, not only when the draw finds them
    datum = fresh(spec)
    classes = class_set(datum, bound)
    outcomes = {
        check_against_the_reference(datum, [a, b])
        for i, a in enumerate(classes)
        for b in classes[i + 1:]
    }
    assert outcomes == {True, False}


def test_classes_of_two_data_raise_before_the_memo():
    one, other = fresh("A2:adj"), fresh("A2:adj")
    a = class_set(one, 6)[0]
    b = class_set(other, 6)[-1]
    with pytest.raises(DatumMismatchError):
        bg.extrema([a, b])
    with pytest.raises(DatumMismatchError):
        bg.interval(a, b)
    assert memos_are_empty(one) and memos_are_empty(other)


def test_an_empty_set_raises_before_the_memo():
    datum = fresh("C2:sc")
    with pytest.raises(UsageError, match="empty class set"):
        bg.extrema([])
    with pytest.raises(UsageError, match="empty class set"):
        bg.extrema(iter(()))
    assert memos_are_empty(datum)


def test_a_point_needs_no_memo():
    datum = fresh("G2:sc")
    for c in class_set(datum, 8):
        assert bg.extrema([c]) == (c, c)
        assert bg.interval(c, c) == [c]
    assert memos_are_empty(datum)
