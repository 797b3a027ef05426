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
class. Neither builds the finite Weyl table.

The exhaustive enumeration of straight elements stays for the audit
suites (rankedness, defect independence, corpora) and as the oracle of
the Levi path: every class has a straight element of length exactly
<nu, 2 rho> (He, Ann. Math. 2014), and the independence of the defect
from the witness is a tested invariant. Straightness is an integer test
on the orbit sum of the translation (see :func:`conjugacy.is_straight`).

The enumeration of t^lambda z up to a length bound reads the datum's
finite Weyl table, least words and inversion bitmasks without matrices,
rather than the matrix length formula. Candidate translations come from
a pruned search over the simple-root pairings: a positive root with
coefficients c pairs to sum c_k p_k with lambda, so each pairing p_k is
confined to the interval the roots ending at k allow, and the last one
to the residue class that makes lambda integral. For each lambda the
pairings p_k = <lambda, beta_k> with the positive roots are taken once;
then len(t^lambda z) is |p| summed, corrected by -1 or +1 for each root
in the inversion set of z (a bitmask in the table), so the whole group
costs one popcount per element. A lambda whose lower bound over all z
already exceeds the bound is skipped. The elements yielded are interned
by walking their words through the datum's left table, which interns
their suffixes on the way, and only they enter the length cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, mul

from .affine_weyl import AffineElement, format_element, length, translation_pairings
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
from .linalg import identity_matrix, mat_vec

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


@dataclass(frozen=True)
class ClassRecord:
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


def _central_sum(datum, c: ClassInvariant):
    """The forced coordinate sum of translations in the class c (gl only)."""
    if mat_vec(datum.delta, datum.central_vector) != datum.central_vector:
        raise UsageError(
            "Kottwitz filters cannot pin the central direction when the "
            "twist moves it; pass normalize_central instead"
        )
    total, rest = divmod(sum(c.dom), c.period)
    if rest:
        raise InternalInvariantError("central part of a Newton point is fractional")
    return total


def _translation_candidates(datum, bound: int, central_values, budget):
    """Integer translations lambda with every |<lambda, beta>| <= bound + 1.

    ``central_values``: for a lattice with a central line, the admissible
    coordinate sums; must be None exactly when the root system spans.
    The simple-root pairings p_k = <lambda, alpha_k> pin lambda (with the
    central coordinate) through ``datum.pairing_inverse``, and are fixed
    one coordinate at a time. A positive root with coefficients c pairs
    to sum c_j p_j, so once p_0..p_(k-1) are fixed, every root whose
    support ends at k bounds p_k to an interval; only p_k inside all of
    them are tried. At the last coordinate, the p_k for which d divides
    every coordinate of the solved lambda form one residue class modulo
    some divisor of d, and only that class is tried. The result is a
    superset of what any element of length <= bound allows; exact
    length tests happen at the caller. ``budget`` caps the number of
    tuples of the full product, checked before any search. Results are
    not cached here: ``enumerate_straight`` caches what it builds on them.
    """
    b = bound + 1
    size = (2 * b + 1) ** datum.rank
    if datum.central_rank:
        if central_values is None:
            raise UsageError(
                "enumeration over a lattice with central directions needs "
                "a Kottwitz filter or central normalization"
            )
        size *= len(central_values)
    if size > budget:
        raise CapExceededError(budget, "translation enumeration")
    denom, columns = datum.pairing_inverse
    last = datum.rank - 1
    # per coordinate k, the non-simple positive roots whose support ends
    # at k, as (their coefficients on coordinates 0..k-1, c_k)
    closing = [[] for _ in range(datum.rank)]
    for c in datum.root_coefficients:
        k = max(k for k, ck in enumerate(c) if ck)
        if sum(c) > 1:
            closing[k].append((c[:k], c[k]))
    # residues of lambda's numerator modulo d -> the residues r modulo d
    # of the last pairing that make lambda integral; they are a coset of
    # a subgroup of Z/d, so they step by their smallest gap
    classes = {}
    out = []

    def extend(k, pairings, num):
        lo, hi = -b, b
        for head, ck in closing[k]:
            partial = sum(map(mul, head, pairings))
            lo = max(lo, -((b + partial) // ck))
            hi = min(hi, (b - partial) // ck)
        column = columns[k]
        if k < last:
            for p in range(lo, hi + 1):
                extend(k + 1, pairings + (p,), tuple(a + p * x for a, x in zip(num, column)))
            return
        residue = tuple(a % denom for a in num)
        fits = classes.get(residue)
        if fits is None:
            fits = classes[residue] = [
                r for r in range(denom)
                if not any((a + r * x) % denom for a, x in zip(residue, column))
            ]
        if not fits:
            return
        step = fits[1] - fits[0] if len(fits) > 1 else denom
        for p in range(lo + (fits[0] - lo) % step, hi + 1, step):
            out.append(tuple((a + p * x) // denom for a, x in zip(num, column)))

    if datum.central_rank:
        for value in central_values:
            extend(0, (), tuple(value * x for x in columns[last + 1]))
    else:
        extend(0, (), (0,) * datum.n)
    out.sort()
    return tuple(out)


def _translation_lengths(datum, lam, max_length=None):
    """The lengths of t^lam z for z in ``datum.weyl_words()``, in order.

    By the length formula of :func:`affine_weyl.translation_pairings`,
    len(t^lam z) = base + len(z) - 2 |N(z) & up| for the inversion set
    N(z) of the datum's Weyl table. Returns None, without scanning the
    group, when the lower bound base - |up| already exceeds
    ``max_length``.
    """
    base, up = translation_pairings(datum, lam)
    if max_length is not None and base - up.bit_count() > max_length:
        return None
    return [
        base + inv.bit_count() - 2 * (inv & up).bit_count()
        for inv in datum.weyl_inversions()
    ]


def iter_elements(
    datum,
    max_length: int,
    kottwitz=None,
    normalize_central: bool = False,
    budget: int = DEFAULT_ENUM_BUDGET,
):
    """All elements of length <= max_length, in a deterministic order.

    For lattices with a central line (the gl preset) the set is infinite
    unless either a class invariant pins the central coordinate sum
    (``kottwitz``) or representatives are normalized modulo central
    translations (``normalize_central``), which keeps the coordinate sum
    in 0..n-1.
    """
    central_values = None
    if datum.central_rank:
        if kottwitz is not None:
            central_values = [_central_sum(datum, kottwitz)]
        elif normalize_central:
            central_values = list(range(datum.n))
    translations = _translation_candidates(datum, max_length, central_values, budget)
    kappa_key = kottwitz.kottwitz if kottwitz is not None else None
    words = datum.weyl_words()
    # finite indices of the table's elements, interned when first yielded
    # by walking the word through the left table from the identity
    indices = [None] * len(words)
    indices[0] = datum.finite_index(identity_matrix(datum.n))
    length_cache = datum._length_cache
    for lam in translations:
        if kappa_key is not None and datum.kottwitz_quotient.key(lam) != kappa_key:
            continue
        lengths = _translation_lengths(datum, lam, max_length)
        if lengths is None:
            continue
        for k, ell in enumerate(lengths):
            if ell <= max_length:
                w = indices[k]
                if w is None:
                    w = indices[0]
                    for i in reversed(words[k]):
                        w = datum.finite_left(w, i)
                    indices[k] = w
                x = AffineElement(datum, lam, w)
                length_cache[x] = ell
                yield x


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
    central sum, so filters that share these share one cached result.
    """
    if max_pairing < 0:
        raise UsageError("max_pairing must be nonnegative")
    bound = math.floor(max_pairing)
    if kottwitz is None:
        key = (bound, None, None)
    else:
        central = _central_sum(datum, kottwitz) if datum.central_rank else None
        key = (bound, kottwitz.kottwitz, central)
    cached = datum._straight_cache.get(key)
    if cached is not None:
        return cached
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
    out = tuple(sort_classes(records.values(), key=attrgetter("invariant")))
    datum._straight_cache[key] = out
    return out


def interval(c_lo: ClassInvariant, c_hi: ClassInvariant):
    """All classes between c_lo and c_hi, read off ``levi.levi_classes``."""
    if not leq(c_lo, c_hi):
        raise NotComparableError(f"{c_lo} is not below {c_hi}")
    from .levi import levi_classes

    return [
        c
        for c in levi_classes(c_lo.datum, c_hi.pairing_two_rho, c_lo)
        if leq(c_lo, c) and leq(c, c_hi)
    ]


def extrema(classes):
    """The least and greatest elements of a set of classes.

    Errors when either fails to exist; for endpoint-class sets of
    reduction trees that would signal a bug, not a legitimate outcome.
    """
    classes = list(classes)
    if not classes:
        raise UsageError("empty class set")
    lo = [c for c in classes if all(leq(c, d) for d in classes)]
    hi = [c for c in classes if all(leq(d, c) for d in classes)]
    if len(lo) != 1 or len(hi) != 1:
        raise NoUniqueExtremumError("class set has no unique minimum or maximum")
    return lo[0], hi[0]
