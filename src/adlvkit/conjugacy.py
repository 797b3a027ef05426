"""Twisted conjugation combinatorics: shifts, Newton and Kottwitz points.

A cyclic shift replaces x by s_i x sigma(s_i) when that does not increase
length. The elements reachable from x by length-preserving shifts form
its finite shift class. Each class is explored once, by breadth-first
search with a hard node cap, into a :class:`ShiftClass` graph that
records every member's same-length neighbours and length-dropping
indices. Minimality tests and their certificates, reduction moves and
the Coxeter witness search all walk that one graph (He-Nie: cyclic
shifts reach a minimal length element, so the class graph is the only
search object needed).

Class invariants pair the dominant Newton point with the Kottwitz point
(the translation part in the twisted coinvariants of X modulo the coroot
lattice); together they separate the classes this package cares about.
This module owns the Newton point's format: integers over a period (see
:class:`ClassInvariant`), with ``Fraction`` only in the rational views
:func:`newton_point` and ``ClassInvariant.newton``.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from .affine_weyl import (
    AffineElement,
    left_descent,
    left_step,
    length,
    right_descent,
    right_step,
    sigma_on_affine_index,
)
from .errors import (
    CapExceededError,
    DatumMismatchError,
    InternalInvariantError,
    NotAShiftError,
    UsageError,
)
from .linalg import dot, identity_matrix, mat_mul, mat_rank, mat_vec

DEFAULT_BFS_CAP = 10**6

# the period of a translation under a lattice automorphism divides the
# automorphism's order, which is bounded by the lcm of cyclotomic degrees
# fitting in the rank; anything past this signals a bug
_MAX_ORDER = 10**4


class ShiftMove(NamedTuple):
    """One conjugation step: after = s_index . before . sigma(s_index)."""

    index: int
    before: AffineElement
    after: AffineElement
    delta_length: int


def conjugate_by_simple(x: AffineElement, i: int) -> AffineElement:
    """s_i x sigma(s_i) = s_i (x s_j) for j = sigma_on_affine_index(i).

    Two table lookups and rank-one updates of the translation: for
    i >= 1 it becomes r_i lambda; for i = 0, with mu = lambda + z theta^,
    it becomes mu + (1 - <mu, theta>) theta^. Only the result is interned.
    """
    datum = x.datum
    lam, w = right_step(datum, x.translation, x.finite_index, sigma_on_affine_index(datum, i))
    return AffineElement(datum, *left_step(datum, lam, w, i))


def cyclic_shift(x: AffineElement, i: int) -> ShiftMove:
    after = conjugate_by_simple(x, i)
    delta = length(after) - length(x)
    if delta > 0:
        raise NotAShiftError(f"conjugation by s{i} increases length by {delta}")
    if delta not in (-2, 0):
        raise InternalInvariantError(f"length drop {delta} is impossible")
    return ShiftMove(index=i, before=x, after=after, delta_length=delta)


class ShiftClass:
    """The length-preserving twisted conjugation class as a graph.

    Built once by a capped BFS from any member and shared by all of them
    through the datum's shift class cache. It holds the members, each
    member's same-length neighbours keyed by simple index, and, for the
    members that have one, the indices whose conjugation drops the length
    by 2; the class is minimal exactly when ``drops`` is empty.
    Minimality, certificates, reduction moves and the Coxeter witness
    search only read this graph; none of them conjugates again.

    With j = sigma(i), s_i x s_j = x if x(a_j) = +-a_i, and otherwise its
    length is len(x) plus the left sign at i and the right sign at j. So
    only equal-length conjugates are built, and those with z(alpha_j) =
    +-alpha_i, whose length is measured.
    """

    def __init__(self, x: AffineElement, cap: int):
        datum = x.datum
        base = length(x)
        # (i, sigma(i), the roots +-alpha_i of r_i)
        moves = [
            (i, sigma_on_affine_index(datum, i), (alpha, tuple([-c for c in alpha])))
            for i, (alpha, _coroot) in enumerate(datum._reflection_roots)
        ]
        self.neighbours = {}
        self.drops = {}
        queue = deque([x])
        seen = {x}
        while queue:
            cur = queue.popleft()
            flat = {}
            drops = []
            for i, j, roots in moves:
                left = left_descent(cur, i)
                if left != right_descent(cur, j):
                    y = conjugate_by_simple(cur, i)
                elif datum.root_image(cur.finite_index, j)[0] in roots:
                    y = conjugate_by_simple(cur, i)
                    ylen = length(y)
                    if ylen != base:
                        if ylen < base:
                            drops.append(i)
                        continue
                else:
                    if left:
                        drops.append(i)
                    continue
                flat[i] = y
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    if len(seen) > cap:
                        raise CapExceededError(cap, "shift class BFS", len(seen))
            self.neighbours[cur] = flat
            if drops:
                self.drops[cur] = frozenset(drops)
        self.members = frozenset(seen)

    @classmethod
    def of(cls, x: AffineElement, cap: int = DEFAULT_BFS_CAP) -> "ShiftClass":
        """The cached graph of the class of x, built on first use.

        Raises CapExceededError when the class has more than ``cap``
        members, whether the graph is built here or was cached by an
        earlier call with a larger cap.
        """
        cache = x.datum._shift_class_cache
        graph = cache.get(x)
        if graph is None:
            graph = cls(x, cap)
            for member in graph.members:
                cache[member] = graph
        if len(graph.members) > cap:
            raise CapExceededError(cap, "shift class BFS", len(graph.members))
        return graph

    def bfs(self, root: AffineElement, order):
        """Yield (member, shifts from root) in BFS order, indices tried in order."""
        seen = {root}
        queue = deque([(root, ())])
        while queue:
            cur, path = queue.popleft()
            yield cur, path
            flat = self.neighbours[cur]
            for i in order:
                y = flat.get(i)
                if y is not None and y not in seen:
                    seen.add(y)
                    queue.append((y, path + (i,)))


def shift_class(x: AffineElement, cap: int = DEFAULT_BFS_CAP) -> frozenset:
    """The full length-preserving conjugation class of x."""
    return ShiftClass.of(x, cap).members


def first_drop(x: AffineElement, order, cap: int = DEFAULT_BFS_CAP):
    """The first (member, index, shifts) with a length drop, or None.

    Members are visited by ``bfs(x, order)`` and each member's drops are
    tried in ``order``; None means the class of x is minimal.
    """
    graph = ShiftClass.of(x, cap)
    if not graph.drops:
        return None
    for member, path in graph.bfs(x, order):
        drops = graph.drops.get(member)
        if drops:
            return member, next(i for i in order if i in drops), path
    raise InternalInvariantError("class flagged non-minimal but no drop found")


class MinLenResult(NamedTuple):
    is_min_len: bool
    # when not minimal: indices i1..ik with the replayed conjugations
    # reaching a strictly shorter element at the last step
    witness: tuple = None


def is_min_len(x: AffineElement, cap: int = DEFAULT_BFS_CAP) -> MinLenResult:
    """Minimality of length under twisted conjugation, with certificate.

    The class is minimal iff no member of its shift class graph admits a
    length-dropping move. The witness, when one exists, is the first drop
    met walking the graph breadth-first from x with indices tried in
    increasing order: length-preserving shifts, then one drop by 2, so
    it replays through :func:`cyclic_shift`. It is the lexicographically
    smallest among the shortest such sequences.
    """
    drop = first_drop(x, range(x.datum.rank + 1), cap)
    if drop is None:
        return MinLenResult(True)
    _member, i, path = drop
    return MinLenResult(False, path + (i,))


def descend_to_min_len(x: AffineElement, cap: int = DEFAULT_BFS_CAP):
    """Some minimal length element reachable from x, with the move list."""
    cur = x
    moves = []
    while True:
        res = is_min_len(cur, cap=cap)
        if res.is_min_len:
            return cur, tuple(moves)
        cur = replay_moves(cur, res.witness)
        moves.extend(res.witness)


def replay_moves(x: AffineElement, moves) -> AffineElement:
    for i in moves:
        x = conjugate_by_simple(x, i)
    return x


def permutation_orbits(perm: dict):
    """The orbits of a permutation given as a dict, as frozensets ordered by least element."""
    seen = set()
    orbits = []
    for start in sorted(perm):
        orbit = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = perm[cur]
        if orbit:
            orbits.append(frozenset(orbit))
    return orbits


def twist_orbits(datum, indices):
    """The twist orbits on a twist-stable set of simple indices, as sorted tuples."""
    perm = {i: datum.delta_diagram[i] for i in indices}
    return tuple(tuple(sorted(orbit)) for orbit in permutation_orbits(perm))


# -- class invariants --------------------------------------------------------


def _orbit_sum(x: AffineElement):
    """(p, s): the period p of lambda under m = z o delta, and s = sum of m^k lambda, k < p.

    The Newton point is the dominant representative of s / p: averaging
    over the order of m instead, a multiple of p, repeats the same sum.
    Integers throughout; m is applied as delta, then z.
    """
    datum = x.datum
    lam = x.translation
    z = x.finite
    twisted = datum.spec.twist_order != 1
    total = lam
    cur = mat_vec(z, mat_vec(datum.delta, lam) if twisted else lam)
    period = 1
    while cur != lam:
        total = tuple(a + b for a, b in zip(total, cur))
        cur = mat_vec(z, mat_vec(datum.delta, cur) if twisted else cur)
        period += 1
        if period > _MAX_ORDER:
            raise InternalInvariantError("orbit period exceeds sane bound")
    return period, total


def newton_point(x: AffineElement):
    """Dominant average of the translation along twisted powers, in Fractions.

    With m = z o delta and p the period of lambda under m, the point is
    the dominant Weyl representative of (lambda + m lambda + ... +
    m^(p-1) lambda)/p, the rational view of ``class_invariant(x)``. It is
    fixed by the twist and constant on twisted conjugacy classes.
    """
    return class_invariant(x).newton


def kottwitz_point(x: AffineElement):
    """Translation part modulo coroot lattice and twisted coboundaries."""
    return x.datum.kottwitz_quotient.key(x.translation)


def is_straight(x: AffineElement) -> bool:
    """Length equals <nu, 2 rho>, read off the memoized class invariant."""
    return length(x) == class_invariant(x).pairing_two_rho


def reflection_length(datum, z, twist=None) -> int:
    """Corank of the fixed space of z o twist on X tensor Q."""
    m = z if twist is None else mat_mul(z, twist)
    shifted = tuple(
        tuple(m[i][j] - (1 if i == j else 0) for j in range(datum.n))
        for i in range(datum.n)
    )
    return mat_rank(shifted)


def classical_reflection_length(x: AffineElement) -> int:
    """Twisted reflection length of the classical part of x.

    It depends on the finite part only, so it is memoized per finite index.
    """
    cache = x.datum._reflection_length_cache
    refl = cache.get(x.finite_index)
    if refl is None:
        refl = reflection_length(x.datum, x.finite, x.datum.delta)
        cache[x.finite_index] = refl
    return refl


def relative_reflection_length(datum, z, twist) -> int:
    """dim of the twist's fixed space minus dim of (z o twist)'s.

    This is the twisted reflection length of z relative to the twist,
    the quantity that makes reflection lengths add across parabolic
    decompositions.
    """
    return reflection_length(datum, z, twist) - reflection_length(
        datum, identity_matrix(datum.n), twist
    )


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms as ``str(Fraction(num, den))`` writes it."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class ClassInvariant(NamedTuple):
    """Key of a twisted conjugacy class: dominant Newton point + Kottwitz point.

    Built only by :func:`invariant_from_sum`, in integers, one object per
    datum and value: nu = dom / period with gcd(period, *dom) = 1, and the
    Kottwitz point ``kottwitz``. ``coords`` pairs ``dom`` with the
    numerators d omega_j of the fundamental weights (nu's coefficients
    over the simple coroots, times period * d) and ``central`` with the
    central covectors; two classes compare by cross multiplying periods.
    ``pairing_two_rho`` is <nu, 2 rho>; ``zero_set`` is I(nu), the i with
    <nu, alpha_i> = 0. ``newton`` is nu in ``Fraction`` coordinates, built
    on demand; ``central_sum`` is the coordinate sum of the class's
    translations on a central line; ``as_dict`` is the report form.
    """

    datum: object
    dom: tuple
    period: int
    kottwitz: tuple
    coords: tuple
    central: tuple
    pairing_two_rho: int
    zero_set: frozenset

    # invariant_from_sum interns: equal classes are one object, so equality
    # and hashing are object's identity, and a copy is the object itself
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    @property
    def newton(self):
        return tuple(Fraction(c, self.period) for c in self.dom)

    @property
    def central_sum(self):
        """<nu, (1,...,1)>, the coordinate sum of every translation in the class (gl only)."""
        datum = self.datum
        if mat_vec(datum.delta, datum.central_vector) != datum.central_vector:
            raise UsageError(
                "Kottwitz filters cannot pin the central direction when the "
                "twist moves it; enumerate without a filter instead"
            )
        total, rest = divmod(self.central[0], self.period)
        if rest:
            raise InternalInvariantError("central part of a Newton point is fractional")
        return total

    def as_dict(self):
        """Newton coordinates as reduced fraction strings, Kottwitz point as ints."""
        return {
            "newton": [_ratio_text(c, self.period) for c in self.dom],
            "kottwitz": [int(c) for c in self.kottwitz],
        }

    def __repr__(self):
        text = self.as_dict()
        return f"[nu=({','.join(text['newton'])}) kappa=({','.join(map(str, text['kottwitz']))})]"


def class_invariant(x: AffineElement) -> ClassInvariant:
    datum = x.datum
    cached = datum._class_cache.get(x)
    if cached is None:
        period, total = _orbit_sum(x)
        cached = invariant_from_sum(datum, period, total, kottwitz_point(x))
        datum._class_cache[x] = cached
    return cached


def invariant_from_sum(datum, period: int, total, kottwitz) -> ClassInvariant:
    """The class invariant with Newton point dom(total) / period and Kottwitz point ``kottwitz``.

    ``total`` is any Weyl conjugate of period * nu: an orbit sum, or a
    Newton numerator built directly (``levi.levi_classes``). The datum
    keeps one object per value, built on first use.
    """
    dom = datum.dominant(total)
    if mat_vec(datum.delta, dom) != dom:
        raise InternalInvariantError("Newton point is not twist-fixed")
    # every class has a straight element of length <nu, 2 rho>; for any v
    # in the Weyl orbit of dom v, <dom v, 2 rho> = sum over beta > 0 of |<v, beta>|
    pairing = sum(map(abs, datum.root_pairings(total)))
    two_rho, rest = divmod(pairing, period)
    if rest:
        raise InternalInvariantError("<nu, 2 rho> is not an integer")
    g = math.gcd(period, *dom)
    dom = tuple(c // g for c in dom)
    key = (dom, period // g, kottwitz)
    c = datum._class_value_cache.get(key)
    if c is None:
        c = datum._class_value_cache[key] = ClassInvariant(
            datum,
            *key,
            tuple(dot(dom, w) for w in datum.weight_numerators),
            tuple(dot(dom, a) for a in datum.central_covectors),
            two_rho,
            frozenset(
                i for i, alpha in enumerate(datum.simple_roots, 1) if dot(dom, alpha) == 0
            ),
        )
    return c


def same_class(x: AffineElement, y: AffineElement) -> bool:
    if x.datum is not y.datum:
        raise DatumMismatchError("elements live over different root data")
    return class_invariant(x) == class_invariant(y)
