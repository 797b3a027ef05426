"""Length-zero elements of Levi subgroups: the defect witness and the class sets.

[b] with J = I(nu) is basic in the standard Levi M_J (Kottwitz,
"Isocrystals with additional structure II", Compositio 1997), so its
class holds an element t^lambda z of length zero in W~_J (Goertz-He-Nie,
Ann. Sci. ENS 2015). Such an element is pinned down by three choices:

* the pattern of lambda on J: its simple pairings there are 0 except for
  at most one 1 per connected component of J, at a node whose
  coefficient in the component's highest root is 1 (so every positive
  root of J pairs to 0 or 1);
* the pairings outside J: for each twist orbit O of the other nodes, the
  sum over O is fixed by nu and the pattern, and its distribution over O
  matters only modulo the pairing denominator d;
* z = w_(0,J_lambda) w_(0,J) for the J-nodes J_lambda where lambda pairs
  to 0.

:func:`levi_witness` picks, for one class, the first choice with the
class's Kottwitz point and builds the element; ``bg_poset.defect`` is
its classical reflection length. :func:`levi_classes` runs the choices
over every twist-stable J and every orbit total up to a bound and reads
Newton and Kottwitz points off them without building z;
``bg_poset.interval`` filters its result. With J = all simple nodes the
elements are the length-zero elements of W~ (:func:`length_zero_elements`),
where ``bg_poset.iter_elements`` starts its breadth-first search. None of
these builds the finite Weyl table. ``bg_poset`` imports this module on
first use, so importing the package does not compile it.
"""

from __future__ import annotations

import itertools
import math

from .affine_weyl import AffineElement, format_element, identity
from .bg_poset import DEFAULT_ENUM_BUDGET, sort_classes
from .conjugacy import (
    ClassInvariant,
    class_invariant,
    invariant_from_sum,
    twist_orbits,
)
from .errors import CapExceededError, InternalInvariantError, UsageError
from .linalg import dot


def _components(datum, J):
    """The connected components of the Dynkin diagram on J, as frozensets."""
    cartan = datum.cartan_matrix
    left = set(J)
    out = []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            i = stack.pop()
            for j in left - comp:
                if cartan[i - 1][j - 1]:
                    comp.add(j)
                    stack.append(j)
        left -= comp
        out.append(frozenset(comp))
    return out


def _minuscule_coweights(datum, comp):
    """{k: (scale, pairings)} for a connected set of simple indices.

    One entry per node k of ``comp`` whose coefficient in the highest
    root of ``comp`` (its root of greatest height) is 1, for the
    fundamental coweight omega_k of ``comp`` in the span of its coroots:
    ``pairings`` is the tuple over all simple indices i of
    scale * <omega_k, alpha_i>. No Cartan matrix is inverted: the map
    x -> sum over roots beta of comp of <x, beta> beta^ commutes with
    comp's Weyl group, which acts irreducibly, so it is a scalar. Hence
    v = sum of beta^ over the positive roots beta of comp with
    <omega_k, beta> = 1 is a multiple of omega_k, and scale = <v, alpha_k>.
    """
    inside = [
        (c, beta)
        for c, beta in zip(datum.root_coefficients, datum.positive_roots)
        if not any(ck for k, ck in enumerate(c, 1) if k not in comp)
    ]
    theta = max(inside, key=lambda item: sum(item[0]))[0]
    out = {}
    for k in sorted(comp):
        if theta[k - 1] != 1:
            continue
        v = [0] * datum.n
        for c, beta in inside:
            if c[k - 1]:
                v = [a + b for a, b in zip(v, datum.root_coroot[beta])]
        pairings = tuple(dot(v, alpha) for alpha in datum.simple_roots)
        out[k] = (pairings[k - 1], pairings)
    return out


def _levi(datum, J, coweights=None):
    """Length-zero patterns of the standard Levi with simple indices J.

    Returns (orbits, patterns). ``orbits`` are the twist orbits of the
    simple indices outside J. A translation lambda pairs to 0 or 1 with
    every positive root of J exactly when its simple pairings on J are 0
    except for at most one 1 per connected component of J, at a node
    whose coefficient in that component's highest root is 1. Each
    pattern is (ones, scale, excess): the J-nodes pairing to 1, and per
    orbit O the integer scale * sum over i in O of <lambda_J, alpha_i>,
    where lambda_J, the sum of the components' fundamental coweights at
    ``ones``, is the combination of J-coroots with those J-pairings.
    ``coweights``, when given, maps each component met so far to its
    options, so a caller that runs many J computes each component's
    coweights once.
    """
    outside = twist_orbits(datum, set(range(1, datum.rank + 1)) - J)
    coweights = {} if coweights is None else coweights
    options = []
    for comp in _components(datum, J):
        parts = coweights.get(comp)
        if parts is None:
            parts = coweights[comp] = [None, *_minuscule_coweights(datum, comp).items()]
        options.append(parts)
    patterns = []
    for choice in itertools.product(*options):
        chosen = [part for part in choice if part]
        scale = math.lcm(*(part_scale for _k, (part_scale, _vec) in chosen))
        pairings = [0] * datum.rank
        for _k, (part_scale, vec) in chosen:
            pairings = [a + scale // part_scale * v for a, v in zip(pairings, vec)]
        excess = tuple(sum(pairings[i - 1] for i in orbit) for orbit in outside)
        patterns.append((frozenset(k for k, _part in chosen), scale, excess))
    return outside, patterns


def _levi_translations(datum, ones, orbits, totals, central):
    """Integer lambda with J-pairings ``ones`` and orbit pairing sums ``totals``.

    One lambda per residue class: with d the denominator of
    ``datum.pairing_inverse``, shifting d from one pairing of an orbit to
    another moves lambda by (delta^m - 1) of a lattice vector, which
    keeps it integral and keeps its Kottwitz point, so the later nodes of
    each orbit run over 0..d-1 and the first takes the rest of the total.
    ``central`` is the coordinate sum on a lattice with a central line.
    """
    denom, columns = datum.pairing_inverse
    base = [0] * datum.n
    for j in ones:
        base = [a + x for a, x in zip(base, columns[j - 1])]
    if central is not None:
        base = [a + central * x for a, x in zip(base, columns[datum.rank])]
    choices = []
    for orbit, total in zip(orbits, totals):
        choices.append([
            ((orbit[0], total - sum(rest)),) + tuple(zip(orbit[1:], rest))
            for rest in itertools.product(range(denom), repeat=len(orbit) - 1)
        ])
    for combo in itertools.product(*choices):
        num = base
        for part in combo:
            for i, p in part:
                if p:
                    num = [a + p * x for a, x in zip(num, columns[i - 1])]
        if not any(a % denom for a in num):
            yield tuple(a // denom for a in num)


def longest_word(datum, nodes):
    """Letters j_1, j_2, ... with w_(0,J) = s_(j_k) ... s_(j_1), J the set of ``nodes``.

    Greedy left ascents from the identity, each time the first ascent in
    the order of ``nodes``, read off u = w(probe) for the datum's regular
    dominant probe: s_j w is longer than w exactly when
    <u, alpha_j> = <probe, w^(-1) alpha_j> > 0, and then s_j w sends the
    probe to u - <u, alpha_j> alpha_j^. The walk stops at the element of
    W_J with every j in J a left descent, the longest one. Nothing is
    interned.
    """
    u = datum._probe
    word = []
    while True:
        for j in nodes:
            p = dot(u, datum.simple_roots[j - 1])
            if p > 0:
                u = tuple(a - p * c for a, c in zip(u, datum.simple_coroots[j - 1]))
                word.append(j)
                break
        else:
            return word


def levi_witness(c: ClassInvariant) -> AffineElement:
    """A length-zero element t^lambda z of W~_J in the class c, J = I(nu).

    [b] is basic in the Levi M_nu, so the class holds such an element
    (Kottwitz 1997; Goertz-He-Nie 2015). lambda runs over the patterns
    of :func:`_levi`, with the pairings outside J fixed by nu: for each
    twist orbit O of the other nodes, sum over i in O of p_i is
    |O| <nu, alpha_i> + sum over i in O of <lambda_J, alpha_i>. The first
    integral lambda with the Kottwitz point of c is taken, and z is
    w_(0,J_lambda) w_(0,J) for the J-nodes J_lambda where lambda pairs to
    0. A tripwire checks that the element's class invariant is c.
    """
    datum = c.datum
    J = c.zero_set
    orbits, patterns = _levi(datum, J)
    central = c.central_sum if datum.central_rank else None
    pairings = [dot(c.dom, datum.simple_roots[orbit[0] - 1]) for orbit in orbits]
    for ones, scale, excess in patterns:
        totals = []
        for orbit, q, e in zip(orbits, pairings, excess):
            total, rest = divmod(len(orbit) * q * scale + c.period * e, c.period * scale)
            if rest:
                break
            totals.append(total)
        else:
            for lam in _levi_translations(datum, ones, orbits, totals, central):
                if datum.kottwitz_quotient.key(lam) == c.kottwitz:
                    tau = _levi_element(datum, J, ones, lam)
                    if class_invariant(tau) != c:
                        raise InternalInvariantError(
                            f"Levi witness {format_element(tau)} is not in {c}"
                        )
                    return tau
    raise InternalInvariantError(f"no length-zero Levi element found for {c}")


def _levi_element(datum, J, ones, lam):
    """t^lam w_(0,J_lam) w_(0,J), with J_lam = J - ones the J-nodes where lam pairs to 0.

    With the nodes of J_lam first, the walk of :func:`longest_word` takes
    a node of J_lam while one is an ascent, so it reaches w_(0,J_lam) just
    before its first letter in ``ones``, at position k:
    w_(0,J) = s_(j_m) ... s_(j_(k+1)) w_(0,J_lam). Both longest elements
    are involutions, so w_(0,J_lam) w_(0,J) = (w_(0,J) w_(0,J_lam))^(-1)
    = s_(j_(k+1)) ... s_(j_m), a reduced word, walked through the datum's
    right table from the identity. A new right product flips one bit of
    its neighbour's inversion mask.
    """
    word = longest_word(datum, sorted(J - ones) + sorted(ones))
    k = next((t for t, j in enumerate(word) if j in ones), len(word))
    w = identity(datum).finite_index
    for j in word[k:]:
        w = datum.finite_right(w, j)
    return AffineElement(datum, lam, w)


def length_zero_elements(datum, central_values):
    """The length-zero elements t^lambda w_(0,S-ones) w_(0,S) of W~, S = all simple nodes.

    One per pattern of :func:`_levi` with J = S and integral lambda of
    coordinate sum in ``central_values``, which is ``[None]`` on a
    lattice without a central line.
    """
    nodes = frozenset(range(1, datum.rank + 1))
    _orbits, patterns = _levi(datum, nodes)
    return [
        _levi_element(datum, nodes, ones, lam)
        for ones, _scale, _excess in patterns
        for central in central_values
        for lam in _levi_translations(datum, ones, (), (), central)
    ]


def _stable_subsets(datum):
    """Every twist-stable set of simple indices, as unions of twist orbits."""
    orbits = twist_orbits(datum, range(1, datum.rank + 1))
    for picks in itertools.product((False, True), repeat=len(orbits)):
        yield frozenset(i for orbit, pick in zip(orbits, picks) if pick for i in orbit)


def _orbit_totals(weights, excess, scale, room):
    """Integer totals T_O > excess_O / scale with sum m_O (scale T_O - excess_O) <= room."""
    if not weights:
        yield ()
        return
    m, e = weights[0], excess[0]
    total = e // scale + 1
    while m * (scale * total - e) <= room:
        for rest in _orbit_totals(weights[1:], excess[1:], scale, room - m * (scale * total - e)):
            yield (total,) + rest
        total += 1


def levi_classes(
    datum, max_pairing, kottwitz: ClassInvariant, budget: int = DEFAULT_ENUM_BUDGET
):
    """All classes with <nu, 2 rho> <= max_pairing and the Kottwitz point of ``kottwitz``.

    Runs the parametrization of :func:`levi_witness` over every
    twist-stable J, every pattern and every tuple of orbit totals
    T_O > E_O (so that I(nu) is exactly J) with sum m_O (T_O - E_O) <=
    max_pairing, m_i being the coefficient of alpha_i in 2 rho; that sum
    is <nu, 2 rho>. The Newton point is read off the totals (its
    pairings are 0 on J and (T_O - E_O) / |O| on O) and the Kottwitz
    point off each lambda, so no finite part is built. On a central line
    the classes share the central sum of ``kottwitz``. ``budget`` caps
    the number of (J, pattern, totals, lambda) tuples visited. The
    sorted result is cached per (Kottwitz point, central sum) at the
    largest bound asked so far, and a smaller bound filters it, so each
    class is held once per datum.
    """
    if max_pairing < 0:
        raise UsageError("max_pairing must be nonnegative")
    bound = math.floor(max_pairing)
    central = kottwitz.central_sum if datum.central_rank else None
    key = (kottwitz.kottwitz, central)
    cached = datum._class_set_cache.get(key)
    if cached is not None and cached[0] >= bound:
        return tuple(c for c in cached[1] if c.pairing_two_rho <= bound)
    denom, columns = datum.pairing_inverse
    two_rho = [sum(col) for col in zip(*datum.root_coefficients)]
    found = set()
    visited = 0
    coweights = {}
    for J in _stable_subsets(datum):
        orbits, patterns = _levi(datum, J, coweights)
        weights = [two_rho[orbit[0] - 1] for orbit in orbits]
        size = math.lcm(*(len(orbit) for orbit in orbits))
        for ones, scale, excess in patterns:
            # nu = (sum q_i columns[i] + central columns[rank]) / denom, with
            # q_i = (scale T_O - excess_O) / (scale |O|) for i in O; ``total``
            # below is nu times ``period``
            period = denom * scale * size
            start = [0] * datum.n
            if central is not None:
                start = [scale * size * central * x for x in columns[datum.rank]]
            for totals in _orbit_totals(weights, excess, scale, scale * bound):
                for lam in _levi_translations(datum, ones, orbits, totals, central):
                    visited += 1
                    if visited > budget:
                        raise CapExceededError(budget, "Levi class enumeration", visited)
                    if datum.kottwitz_quotient.key(lam) == kottwitz.kottwitz:
                        break
                else:
                    continue
                total = start
                for orbit, t, e in zip(orbits, totals, excess):
                    q = (scale * t - e) * (size // len(orbit))
                    for i in orbit:
                        total = [a + q * x for a, x in zip(total, columns[i - 1])]
                found.add(invariant_from_sum(datum, period, tuple(total), kottwitz.kottwitz))
    out = tuple(sort_classes(found))
    datum._class_set_cache[key] = (bound, out)
    return out
