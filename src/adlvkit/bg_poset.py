"""The ranked poset of twisted conjugacy classes, and straight enumeration.

Classes are keyed by (dominant Newton point, Kottwitz point). The order
compares equal Kottwitz points and asks the Newton difference to be a
nonnegative rational combination of simple coroots. Nothing is solved
per comparison: each class invariant stores, once and in integers, the
pairings of its Newton point with the fundamental weights (its
coefficients over the simple coroots) and with the covectors vanishing
on every coroot (its central part). c1 <= c2 is then "equal Kottwitz
points, equal central parts, coordinatewise <=", each side scaled by the
other's period. Chain lengths come from the closed formula

    len([b1],[b2]) = (<nu2 - nu1, 2 rho> + def(b1) - def(b2)) / 2

whose integrality is asserted rather than assumed: the poset is ranked,
so an odd or negative numerator means a broken convention, not bad
input. :func:`sort_classes` owns the canonical order of classes.

The defect of a class and the classes of an interval are read off
length-zero elements of Levi subgroups (:mod:`adlvkit.levi`, imported by
:func:`defect` and :func:`interval` on first use): the defect is the
twisted reflection length of the classical part of the class's Levi
witness, and the interval filters the Levi class set below the upper
class (a point interval needs no Levi class set). Neither builds the
finite Weyl table. Reduction trees ask for few distinct class sets and
intervals many times, so :func:`extrema` and :func:`interval` memoize
them per datum past their one-class and point cases.

:func:`iter_elements` enumerates the elements up to a length bound, the
corpora of the audit suites, ``check`` and ``scan``, breadth-first from
the length-zero elements along left ascents read off root signs; it
measures no length and builds no finite Weyl table.
:func:`enumerate_straight` keeps one straight witness per class from it
and stays as the oracle of the Levi path: every class has a straight
element of length exactly <nu, 2 rho> (He, Ann. Math. 2014).
Straightness compares the length with <nu, 2 rho>, read off the memoized
class invariant (see :func:`conjugacy.is_straight`).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

from .affine_weyl import AffineElement, format_element, left_by_simple, left_descent, length
from .conjugacy import (
    ClassInvariant,
    class_invariant,
    classical_reflection_length,
    is_straight,
)
from .errors import (
    CapExceededError,
    DatumMismatchError,
    InternalInvariantError,
    NotComparableError,
    NoUniqueExtremumError,
    UsageError,
)

DEFAULT_ENUM_BUDGET = 10**7


def leq(c1: ClassInvariant, c2: ClassInvariant) -> bool:
    """Partial order: equal Kottwitz points and dominance of Newton points.

    nu2 - nu1 is a nonnegative combination of simple coroots exactly when
    it vanishes on the central covectors and its pairings with the
    fundamental weights, its coefficients, are nonnegative. Both are read
    off the integer coordinates stored in the class invariants, each
    scaled by the other class's period.
    """
    if c1.datum is not c2.datum:
        raise DatumMismatchError("class invariants from different root data")
    p1, p2 = c1.period, c2.period
    return (
        c1.kottwitz == c2.kottwitz
        and all(a * p2 == b * p1 for a, b in zip(c1.central, c2.central))
        and all(a * p2 <= b * p1 for a, b in zip(c1.coords, c2.coords))
    )


def _half_gap(c1, c2, sign, what):
    """(<nu2 - nu1, 2 rho> + sign (def(c1) - def(c2))) / 2, a nonnegative integer."""
    if not leq(c1, c2):
        raise NotComparableError(f"{c1} is not below {c2}")
    value = c2.pairing_two_rho - c1.pairing_two_rho + sign * (defect(c1) - defect(c2))
    if value % 2 or value < 0:
        raise InternalInvariantError(f"{what} {value}/2 is not a nonnegative integer")
    return value // 2


def chain_length(c1: ClassInvariant, c2: ClassInvariant) -> int:
    """Common length of maximal chains from c1 up to c2."""
    return _half_gap(c1, c2, 1, "chain length")


def essential_gap(c1: ClassInvariant, c2: ClassInvariant) -> int:
    """Chain length corrected by defects: controls dimension jumps."""
    return _half_gap(c1, c2, -1, "essential gap")


def sort_classes(items, key=None) -> list:
    """``items`` in the canonical class order: <nu, 2 rho>, then kappa, then nu.

    ``key`` maps an item to its class invariant (default: the item is
    one). Newton points are compared as integer vectors over the lcm of
    the periods in this call, which orders them as their rational values.
    """
    items = list(items)
    key = key or (lambda c: c)
    scale = math.lcm(*(key(item).period for item in items))

    def rank(item):
        c = key(item)
        return c.pairing_two_rho, c.kottwitz, tuple(a * (scale // c.period) for a in c.dom)

    return sorted(items, key=rank)


class ClassRecord(NamedTuple):
    invariant: ClassInvariant
    straight_witness: AffineElement
    defect: int

    def as_dict(self):
        return {
            **self.invariant.as_dict(),
            "defect": self.defect,
            "witness": format_element(self.straight_witness),
        }


def defect(c: ClassInvariant) -> int:
    """Twisted reflection length of the classical part of the Levi witness of c.

    The Levi witness (``levi.levi_witness``) lies in the class and the
    classical reflection length is constant on twisted conjugacy classes
    of the extended affine Weyl group (conjugation by t^mu w sends the
    classical part z to w z sigma(w)^-1), so this is the defect that any
    straight witness gives.
    """
    datum = c.datum
    cached = datum._defect_cache.get(c)
    if cached is None:
        from .levi import levi_witness

        cached = datum._defect_cache[c] = classical_reflection_length(levi_witness(c))
    return cached


# -- element enumeration -----------------------------------------------------


def iter_elements(
    datum,
    max_length: int,
    kottwitz=None,
    budget: int = DEFAULT_ENUM_BUDGET,
):
    """All elements of length <= max_length, shortest first, in no set order.

    For lattices with a central line (the gl preset) the set is infinite,
    so the central coordinate sum is pinned: to that of the class
    ``kottwitz`` when it is given, and otherwise to 0..n-1, one
    representative modulo central translations.

    Breadth-first from the length-zero elements: len(x tau) = len(x) for
    tau of length zero, so the elements of length k in the coset of tau
    are the ball of radius k around tau in the Cayley graph of the affine
    simple reflections. The start set is the elements of
    ``levi.length_zero_elements`` whose Kottwitz point and central sum
    pass the filter; both are constant on the coset.
    Level k+1 is every s_i y with y in level k and i not a left descent
    of y: s_i y then has length k + 1, and every element of length k + 1
    has a left descent. ``budget`` caps the number of elements; the cap
    error names the length and the element count reached. No length is
    written here; within one length the order is the walk's: callers
    sort.
    """
    from .levi import length_zero_elements

    if not datum.central_rank:
        central_values = [None]
    elif kottwitz is not None:
        central_values = [kottwitz.central_sum]
    else:
        central_values = range(datum.n)
    start = [
        x
        for x in length_zero_elements(datum, central_values)
        if kottwitz is None or datum.kottwitz_quotient.key(x.translation) == kottwitz.kottwitz
    ]
    if len(start) > budget:
        raise CapExceededError(budget, "corpus enumeration at length 0", len(start))
    total = len(start)
    # dicts keep the walk's order; a set of elements iterates by address
    levels = [dict.fromkeys(start)]
    for k in range(max_length):
        above = {}
        for y in levels[k]:
            for i in range(datum.rank + 1):
                if left_descent(y, i):
                    continue
                x = left_by_simple(y, i)
                if x not in above:
                    total += 1
                    if total > budget:
                        raise CapExceededError(budget, f"corpus enumeration at length {k + 1}", total)
                    above[x] = None
        levels.append(above)
    for level in levels:
        yield from level


def enumerate_straight(
    datum,
    max_pairing,
    kottwitz=None,
    budget: int = DEFAULT_ENUM_BUDGET,
):
    """All classes with <nu, 2 rho> <= max_pairing, each with a straight witness.

    Exhaustive within the bound: straight elements have length exactly
    <nu, 2 rho>, so scanning lengths up to floor(max_pairing) and
    filtering by straightness finds every class. Results are deduplicated
    by class invariant and sorted canonically; two runs return equal
    lists. ``kottwitz`` may be a ClassInvariant used as a filter; the
    enumeration reads only its Kottwitz point and, on a central line, its
    central sum, so filters that share these give equal results.
    """
    if max_pairing < 0:
        raise UsageError("max_pairing must be nonnegative")
    bound = math.floor(max_pairing)
    records = {}
    elements = sorted(
        iter_elements(datum, bound, kottwitz=kottwitz, budget=budget),
        key=lambda x: (
            length(x),
            sum(c * c for c in x.translation),
            datum.finite_word(x.finite_index),
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
            records[inv] = ClassRecord(inv, x, classical_reflection_length(x))
    return tuple(sort_classes(records.values(), key=attrgetter("invariant")))


def interval(c_lo: ClassInvariant, c_hi: ClassInvariant):
    """All classes between c_lo and c_hi, read off ``levi.levi_classes``.

    The point case c_lo == c_hi returns [c_lo] without the Levi class
    walk: the order is antisymmetric, so nothing else lies between. Other
    intervals are memoized per datum and (c_lo, c_hi); every call returns
    a fresh list.
    """
    if c_lo is c_hi:
        return [c_lo]
    datum = c_lo.datum
    if c_hi.datum is not datum:
        raise DatumMismatchError("class invariants from different root data")
    found = datum._interval_cache.get((c_lo, c_hi))
    if found is None:
        if not leq(c_lo, c_hi):
            raise NotComparableError(f"{c_lo} is not below {c_hi}")
        from .levi import levi_classes

        found = datum._interval_cache[c_lo, c_hi] = tuple(
            c
            for c in levi_classes(datum, c_hi.pairing_two_rho, c_lo)
            if leq(c_lo, c) and leq(c, c_hi)
        )
    return list(found)


_MISSING = object()


def extrema(classes):
    """The least and greatest elements of a set of classes.

    Errors when either fails to exist; for endpoint-class sets of
    reduction trees that would signal a bug, not a legitimate outcome.
    A single class is its own extrema. Larger sets are memoized per datum
    and set, the missing extremum too, which raises again on every call.
    """
    classes = frozenset(classes)
    if len(classes) == 1:
        (c,) = classes
        return c, c
    if not classes:
        raise UsageError("empty class set")
    datum = next(iter(classes)).datum
    if any(c.datum is not datum for c in classes):
        raise DatumMismatchError("class invariants from different root data")
    found = datum._extrema_cache.get(classes, _MISSING)
    if found is _MISSING:
        found = datum._extrema_cache[classes] = _least_and_greatest(classes)
    if found is None:
        raise NoUniqueExtremumError("class set has no unique minimum or maximum")
    return found


def _least_and_greatest(classes):
    """(least, greatest) of ``classes``, or None when either is missing.

    A least element ends any pass as the candidate, so a second pass
    checks the one candidate; likewise for the greatest.
    """
    lo = hi = None
    for c in classes:
        if lo is None or not leq(lo, c):
            lo = c
        if hi is None or not leq(c, hi):
            hi = c
    if all(leq(lo, c) and leq(c, hi) for c in classes):
        return lo, hi
    return None
