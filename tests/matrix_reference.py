"""Test-only reference paths that the package no longer runs.

``_rref``, ``mat_inv``, ``nullspace`` and ``solve`` are the rational
Gauss-Jordan elimination that older constructions of the datum and the
class poset used; the oracles that re-derive those constructions still
need them.

The element functions below are the group law of the extended affine Weyl
group as it was computed before finite Weyl parts became interned
indices: an element is a pair ``(translation, matrix)`` and every
operation multiplies dense lattice matrices. The differential tests
compare the package's table-driven operations with them.

The next section is the straight-element enumeration as it was computed
before it moved to integer orbit sums and a pruned translation search.

The next section is the table path of the enumeration: the pruned
translation search and the lengths read off the Weyl table's inversion
masks, as ``bg_poset.iter_elements`` ran them before it became a
breadth-first search from the length-zero elements.

The next section holds the three greedy left-descent loops, the orbit
count and the minimal Coxeter type search as they were before
``affine_weyl.strip_left_descents``, ``conjugacy.permutation_orbits`` and
``classifier._coset_split`` served them.

The next section is the class invariant as it was before it moved to
integers: ``Fraction`` Newton coordinates, the order and gaps read off
them, and the sort key.

The next section is ``bg_poset.interval`` as it was before it moved to
the Levi class enumeration: a filter of ``enumerate_straight``.

The next section is what a cold ``classify`` ran before it skipped the
work its report does not read: ``bg_poset.interval`` as a filter of
``levi.levi_classes`` also for a point interval, the witness search
without the skip of (member, K) pairs by the length of u, and the
rational views that ``RootDatum`` built eagerly.

The next section is how a datum was built and filled before masks were
derived per generator: the inversion mask by one pairing per positive
root, the integer inverse read off the Smith normal form, and the
positive root closure that applies every simple reflection.

The next section is the value equality that elements and class
invariants had before each datum interned them: ``structural_key`` and
``class_key``.

The next section is what the package read off lengths before it read
descents and shift moves off root signs: ``act_on_affine_root`` and the
twist permutation built on it, the shift class graph that measures every
conjugate, and ``parse_element`` that multiplies by each ``sK`` factor.

The next section builds finite Weyl parts from lattice matrices, as the
package did before it built them only through the datum's tables: the
Levi witness's finite part letter by letter with ``reflect_left``, and
the affine simple reflections from ``weyl_generators`` and
``affine_reflection``.

The next section is what the corpus walk and the shift moves built
before they read ascents off root signs and interned only the elements
they keep: ``bg_poset.iter_elements`` as a walk that builds every s_i y
and drops those found one level down, and ``conjugacy.conjugate_by_simple``
as two interning steps, x s_j and then s_i (x s_j).

The next section is ``conjugacy.is_straight`` as it was before it read
<nu, 2 rho> off the memoized class invariant: its own orbit sum, paired
with every positive root.

The last section is ``bg_poset.extrema`` and ``bg_poset.interval`` as
they were before the datum memoized them: the extrema by comparing every
pair of classes, and the interval as a filter of ``levi.levi_classes``
on every call.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import classifier as cl
from adlvkit import conjugacy as cj
from adlvkit import levi
from adlvkit.errors import (
    InternalInvariantError,
    NoUniqueExtremumError,
    NotComparableError,
    NotMinLenError,
    UsageError,
)
from adlvkit.linalg import (
    LatticeQuotient,
    Matrix,
    as_int_vector,
    dot,
    identity_matrix,
    integer_inverse,
    mat_mul,
    mat_vec,
    reflect_left,
    smith_normal_form,
    vec_add,
    vec_mat,
    vec_neg,
)


def _rref(rows):
    """Reduced row echelon form over Q. Returns (rows, pivot columns)."""
    rows = [[Fraction(a) for a in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def as_int_matrix(m) -> Matrix:
    """m with every entry an int; ValueError when one is not integral."""
    return tuple(as_int_vector(row) for row in m)


def mat_inv(m: Matrix) -> Matrix:
    """Exact inverse over Q; raises ValueError on singular input."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def nullspace(m: Matrix):
    """Rational basis of the right kernel of ``m``."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows, pivots = _rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve(m, b):
    """One rational solution x of m @ x = b, or None if inconsistent.

    ``m`` has the columns as unknowns; when the kernel is nontrivial an
    arbitrary (pivot-based) solution is returned.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(m)]
    rows, pivots = _rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return tuple(x)


# -- the matrix representation: (translation, finite matrix) ----------------


def pair(x):
    """The matrix form of an AffineElement."""
    return (x.translation, x.finite)


def identity(datum):
    return ((0,) * datum.n, identity_matrix(datum.n))


def multiply(datum, x, y):
    """t^a z . t^b y = t^(a + z b) (z y)."""
    (a, z), (b, u) = x, y
    return (vec_add(a, mat_vec(z, b)), mat_mul(z, u))


def inverse(datum, x):
    lam, z = x
    zinv = as_int_matrix(mat_inv(z))
    return (vec_neg(mat_vec(zinv, lam)), zinv)


def sigma_act(datum, x):
    """t^lambda z goes to t^(delta lambda) (delta z delta^-1)."""
    lam, z = x
    return (mat_vec(datum.delta, lam), mat_mul(datum.delta, mat_mul(z, datum.delta_inv)))


def simple_reflection(datum, i):
    """s_i; s_0 = t^(theta^) s_theta, built from the root and its coroot."""
    if i == 0:
        alpha, coroot = datum.theta, datum.theta_coroot
        n = datum.n
        refl = tuple(
            tuple((1 if r == c else 0) - coroot[r] * alpha[c] for c in range(n))
            for r in range(n)
        )
        return (coroot, refl)
    return ((0,) * datum.n, datum.weyl_generators[i - 1])


def conjugate_by_simple(datum, x, i):
    s = simple_reflection(datum, i)
    return multiply(datum, s, multiply(datum, x, sigma_act(datum, s)))


def length(datum, x):
    """The closed length formula, with root signs read off the probe."""
    lam, z = x
    total = 0
    for alpha in datum.positive_roots:
        pairing = dot(lam, alpha)
        if dot(datum._probe, vec_mat(alpha, z)) > 0:
            total += abs(pairing)
        else:
            total += abs(pairing - 1)
    return total


# -- the straight-element enumeration on matrices and Fractions -------------
#
# Newton points averaged over the full order of z o delta in Fraction
# coordinates, straightness read off the Newton point, the Weyl table
# built with a matrix per element, and candidate translations from the
# full product of simple-root pairings. The package now computes all of
# these in integers without matrices.


@functools.lru_cache(maxsize=None)
def weyl_table(datum):
    """(matrices, words, inversion masks), sorted by (length, word).

    Breadth-first search over the Weyl orbit of the probe, tracking each
    element's matrix by the rank-one update s_i z = z - alpha_i^ (alpha_i z).
    """
    roots, coroots = datum.simple_roots, datum.simple_coroots

    def pairings(v, covectors):
        return [dot(v, a) for a in covectors]

    def reflect(v, i, p):
        return tuple(a - p * b for a, b in zip(v, coroots[i]))

    table = {datum._probe: (identity_matrix(datum.n), ())}
    level = [datum._probe]
    while level:
        nxt = []
        for v in level:
            z = table[v][0]
            for i, p in enumerate(pairings(v, roots)):
                if p < 0:
                    continue
                u = reflect(v, i, p)
                if u in table:
                    continue
                az = vec_mat(roots[i], z)
                su = tuple(
                    tuple(a - c * b for a, b in zip(row, az)) if c else row
                    for row, c in zip(z, coroots[i])
                )
                j, q = next((k, q) for k, q in enumerate(pairings(u, roots)) if q < 0)
                table[u] = (su, (j + 1,) + table[reflect(u, j, q)][1])
                nxt.append(u)
        level = nxt
    entries = sorted(table.items(), key=lambda e: (len(e[1][1]), e[1][1]))
    masks = tuple(
        sum(1 << k for k, p in enumerate(pairings(v, datum.positive_roots)) if p < 0)
        for v, _entry in entries
    )
    return (
        tuple(z for _v, (z, _w) in entries),
        tuple(w for _v, (_z, w) in entries),
        masks,
    )


def twist_order_of(datum, m) -> int:
    order = 1
    cur = m
    ident = identity_matrix(datum.n)
    while cur != ident:
        cur = mat_mul(cur, m)
        order += 1
        if order > 10**4:
            raise AssertionError("lattice map order exceeds sane bound")
    return order


def newton_point(x):
    """Dominant representative of the average of lambda over the order of z o delta."""
    datum = x.datum
    m = mat_mul(x.finite, datum.delta)
    n = twist_order_of(datum, m)
    acc = list(x.translation)
    cur = x.translation
    for _ in range(n - 1):
        cur = mat_vec(m, cur)
        for i in range(datum.n):
            acc[i] += cur[i]
    nu = tuple(Fraction(a, n) for a in acc)
    dom, _z = dominant_representative(datum, nu)
    return dom


def dominant_representative(datum, v):
    """Dominant Weyl-orbit representative and an element mapping v to it.

    Greedy descent: apply s_i whenever the pairing with alpha_i is
    negative, multiplying the lattice matrices along the way. The vector
    may have Fraction entries (Newton points do).
    """
    cur = tuple(v)
    z = identity_matrix(datum.n)
    while True:
        for i in range(datum.rank):
            if dot(cur, datum.simple_roots[i]) < 0:
                cur = mat_vec(datum.weyl_generators[i], cur)
                z = mat_mul(datum.weyl_generators[i], z)
                break
        else:
            return cur, z


def is_straight(x):
    return aw.length(x) == dot(newton_point(x), x.datum.two_rho)


@functools.lru_cache(maxsize=None)
def translation_candidates(datum, bound, central_values):
    """Every tuple of the product of pairing ranges, solved and filtered.

    ``central_values`` is a tuple, or None when the roots span.
    """
    b = bound + 1
    rows = list(datum.simple_roots)
    axes = [range(-b, b + 1)] * datum.rank
    if datum.central_rank:
        rows.append(datum.central_vector)
        axes.append(list(central_values))
    inv = mat_inv(tuple(rows))
    denom = math.lcm(*(c.denominator for row in inv for c in row))
    adj = tuple(tuple(int(c * denom) for c in row) for row in inv)
    out = []
    for pairings in itertools.product(*axes):
        lam = tuple(dot(row, pairings) for row in adj)
        if any(c % denom for c in lam):
            continue
        lam = tuple(c // denom for c in lam)
        if all(abs(dot(lam, alpha)) <= b for alpha in datum.positive_roots):
            out.append(lam)
    return sorted(out)


def iter_elements(datum, max_length, central_values=None, kottwitz_key=None):
    """t^lambda z of length <= max_length over the matrix table, interned by matrix."""
    matrices, _words, masks = weyl_table(datum)
    for lam in translation_candidates(datum, max_length, central_values):
        if kottwitz_key is not None and datum.kottwitz_quotient.key(lam) != kottwitz_key:
            continue
        base, up = aw.translation_pairings(datum, lam)
        for z, inv in zip(matrices, masks):
            if base + inv.bit_count() - 2 * (inv & up).bit_count() <= max_length:
                yield aw.AffineElement(datum, lam, datum.finite_index(z))


# -- the table path of the enumeration ----------------------------------------
#
# ``bg_poset.iter_elements`` as it was before it became a breadth-first
# search from the length-zero elements: candidate translations from a
# search over the simple-root pairings, pruned coordinate by coordinate,
# and the lengths of t^lambda z for the whole finite Weyl group read off
# the inversion masks of the datum's table, one popcount per element.


@functools.lru_cache(maxsize=None)
def table_words_and_masks(datum):
    """``datum.weyl_words()`` with the inversion mask of each word.

    Bit k is set when z^(-1) sends the k-th positive root to a negative
    root: with v = the pairings of z(rho^) with the simple roots, the
    positive root beta = sum c_k alpha_k is inverted when sum c_k v_k < 0.
    """
    cartan_rows = datum.cartan_matrix

    def reflect(v, i):
        p = v[i]
        return tuple(a - p * b for a, b in zip(v, cartan_rows[i]))

    start = (1,) * datum.rank
    table = {start: ()}
    level = [start]
    while level:
        nxt = []
        for v in level:
            for i, p in enumerate(v):
                if p < 0:
                    continue
                u = reflect(v, i)
                if u in table:
                    continue
                j = next(k for k, q in enumerate(u) if q < 0)
                table[u] = (j + 1,) + table[v if j == i else reflect(u, j)]
                nxt.append(u)
        level = nxt
    entries = sorted(table.items(), key=lambda e: (len(e[1]), e[1]))
    masks = tuple(
        sum(
            1 << k
            for k, c in enumerate(datum.root_coefficients)
            if sum(a * b for a, b in zip(c, v)) < 0
        )
        for v, _word in entries
    )
    return tuple(word for _v, word in entries), masks


def pruned_translation_candidates(datum, bound, central_values):
    """Integer translations lambda with every |<lambda, beta>| <= bound + 1.

    The simple-root pairings p_k pin lambda (with the central coordinate
    on a central line) through ``datum.pairing_inverse`` and are fixed
    one coordinate at a time: every positive root whose support ends at k
    bounds p_k to an interval, and the last pairing runs over the residue
    class that makes lambda integral.
    """
    b = bound + 1
    denom, columns = datum.pairing_inverse
    last = datum.rank - 1
    # per coordinate k, the non-simple positive roots whose support ends
    # at k, as (their coefficients on coordinates 0..k-1, c_k)
    closing = [[] for _ in range(datum.rank)]
    for c in datum.root_coefficients:
        k = max(k for k, ck in enumerate(c) if ck)
        if sum(c) > 1:
            closing[k].append((c[:k], c[k]))
    classes = {}
    out = []

    def extend(k, pairings, num):
        lo, hi = -b, b
        for head, ck in closing[k]:
            partial = sum(a * p for a, p in zip(head, pairings))
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
    return sorted(out)


def table_translation_lengths(datum, lam, max_length=None):
    """The lengths of t^lam z over the table, or None when all exceed max_length.

    len(t^lam z) = base + len(z) - 2 |N(z) & up| for the inversion mask
    N(z), with (base, up) from ``affine_weyl.translation_pairings``; the
    group is skipped when the lower bound base - |up| exceeds the bound.
    """
    base, up = aw.translation_pairings(datum, lam)
    if max_length is not None and base - up.bit_count() > max_length:
        return None
    return [
        base + inv.bit_count() - 2 * (inv & up).bit_count()
        for inv in table_words_and_masks(datum)[1]
    ]


def table_iter_elements(datum, max_length, kottwitz=None, normalize_central=False):
    """The old ``bg_poset.iter_elements``: sorted by (lambda, len(z), word of z)."""
    central_values = None
    if datum.central_rank:
        if kottwitz is not None:
            central_values = [kottwitz.central_sum]
        elif normalize_central:
            central_values = list(range(datum.n))
        else:
            raise UsageError("a central line needs a Kottwitz filter or normalization")
    kappa_key = kottwitz.kottwitz if kottwitz is not None else None
    words = table_words_and_masks(datum)[0]
    identity_index = datum.finite_index(identity_matrix(datum.n))
    for lam in pruned_translation_candidates(datum, max_length, central_values):
        if kappa_key is not None and datum.kottwitz_quotient.key(lam) != kappa_key:
            continue
        lengths = table_translation_lengths(datum, lam, max_length)
        if lengths is None:
            continue
        for word, ell in zip(words, lengths):
            if ell <= max_length:
                w = identity_index
                for i in reversed(word):
                    w = datum.finite_left(w, i)
                yield aw.AffineElement(datum, lam, w)


# -- greedy descents and twist orbits, one copy per caller ------------------


def stabilizer_descend(x):
    """Greedy left descents until no affine simple reflection shortens x."""
    cur = x
    cur_len = aw.length(cur)
    while cur_len > 0:
        for i in range(x.datum.rank + 1):
            y = aw.left_by_simple(cur, i)
            ylen = aw.length(y)
            if ylen < cur_len:
                cur, cur_len = y, ylen
                break
        else:
            break
    return cur


def coset_decompose(w, K):
    """w = u . x with x minimal in its double coset, or None."""
    datum = w.datum
    K = tuple(sorted(K))
    x = w
    letters = []
    progress = True
    while progress:
        progress = False
        for i in K:
            y = aw.left_by_simple(x, i)
            if aw.length(y) < aw.length(x):
                x = y
                letters.append(i)
                progress = True
                break
    u = functools.reduce(aw.right_by_simple, letters, aw.identity(datum))
    if aw.multiply(u, x) != w:
        raise InternalInvariantError("coset decomposition does not recompose")
    sigma_K = tuple(sorted(aw.sigma_on_affine_index(datum, i) for i in K))
    for j in sigma_K:
        if aw.length(aw.right_by_simple(x, j)) < aw.length(x):
            return None
    if affine_root_twist_permutation(x, K) is None:
        return None
    return u, x, tuple(letters)


def reduced_word_in_parabolic(u, K):
    """Least reduced word of u, asserting all letters lie in K."""
    word = []
    cur = u
    while aw.length(cur) > 0:
        for i in range(u.datum.rank + 1):
            y = aw.left_by_simple(cur, i)
            if aw.length(y) < aw.length(cur):
                word.append(i)
                cur = y
                break
        else:
            raise InternalInvariantError("positive length with no descent")
    if not cur.is_identity():
        raise UsageError("element is not in the parabolic subgroup")
    if any(i not in K for i in word):
        raise UsageError(f"element has support {sorted(set(word))} outside {K}")
    return tuple(word)


def is_twisted_coxeter(u, K, x):
    """One generator from each orbit of the transported twist on K."""
    perm = affine_root_twist_permutation(x, K)
    if perm is None:
        return False
    word = reduced_word_in_parabolic(u, K)
    orbits = cj.permutation_orbits(perm)
    if len(word) != len(orbits):
        return False
    support = set(word)
    if len(support) != len(word):
        return False
    return all(len(support & orbit) == 1 for orbit in orbits)


def count_orbit_classes(datum, indices):
    """Number of twist orbits on a twist-stable set of finite indices."""
    seen = set()
    count = 0
    for i in sorted(indices):
        if i in seen:
            continue
        count += 1
        cur = i
        while cur not in seen:
            seen.add(cur)
            cur = datum.delta_diagram[cur]
    return count


def is_minimal_coxeter_type(w, cap=cj.DEFAULT_BFS_CAP):
    """The witness search as it ran before the decomposition was shared.

    Each (member, K) decomposes through ``coset_decompose``, and the
    Coxeter test recomputes the twist permutation and descends u again.
    """
    datum = w.datum
    if not cj.is_min_len(w, cap=cap).is_min_len:
        raise NotMinLenError(f"{aw.format_element(w)} is not of minimal length")
    members = list(cj.ShiftClass.of(w, cap).bfs(w, range(datum.rank + 1)))
    for K in cl.spherical_subsets(datum):
        for member, shifts in members:
            dec = coset_decompose(member, K)
            if dec is None:
                continue
            u, x, _letters = dec
            if cj.is_straight(x) and is_twisted_coxeter(u, K, x):
                return cl.MinCoxWitness(K, x, u, shifts)
    return None


def unpruned_minimal_coxeter_type(w, cap=cj.DEFAULT_BFS_CAP):
    """The shared-decomposition witness search as it ran before the exact prune.

    Every spherical K is tried, including those with |K| < len(w) -
    <nu_w, 2 rho>, which cannot carry a witness.
    """
    datum = w.datum
    if not cj.is_min_len(w, cap=cap).is_min_len:
        raise NotMinLenError(f"{aw.format_element(w)} is not of minimal length")
    members = list(cj.ShiftClass.of(w, cap).bfs(w, range(datum.rank + 1)))
    for K in cl.spherical_subsets(datum):
        for member, shifts in members:
            dec = cl._coset_split(member, K)
            if dec is None:
                continue
            u, x, letters, perm = dec
            if cj.is_straight(x) and cl._one_letter_per_orbit(letters, perm):
                return cl.MinCoxWitness(K, x, u, shifts)
    return None


# -- class invariants in Fraction coordinates --------------------------------


@dataclass(frozen=True, eq=False)
class FractionClassInvariant:
    """The class invariant with Fraction Newton point, coordinates and <nu, 2 rho>."""

    datum: object
    newton: tuple
    kottwitz: tuple
    coords: tuple
    central: tuple
    pairing_two_rho: Fraction
    zero_set: frozenset

    def __eq__(self, other):
        return (
            isinstance(other, FractionClassInvariant)
            and self.datum is other.datum
            and self.newton == other.newton
            and self.kottwitz == other.kottwitz
        )

    def __hash__(self):
        return hash((self.newton, self.kottwitz))

    def __repr__(self):
        nu = ",".join(str(c) for c in self.newton)
        kap = ",".join(str(c) for c in self.kottwitz)
        return f"[nu=({nu}) kappa=({kap})]"


def fraction_class_invariant(x):
    datum = x.datum
    period, total = cj._orbit_sum(x)
    dom = datum.dominant(total)
    nu = tuple(Fraction(c, period) for c in dom)
    return FractionClassInvariant(
        datum,
        nu,
        cj.kottwitz_point(x),
        tuple(dot(nu, w) for w in datum.fundamental_weights),
        tuple(dot(nu, a) for a in datum.central_covectors),
        Fraction(sum(abs(dot(total, beta)) for beta in datum.positive_roots), period),
        frozenset(i for i, alpha in enumerate(datum.simple_roots, 1) if dot(dom, alpha) == 0),
    )


def class_sort_key(c):
    """The canonical class order as a key on Fraction Newton coordinates."""
    return (c.pairing_two_rho, c.kottwitz, c.newton)


def fraction_leq(c1, c2):
    return (
        c1.kottwitz == c2.kottwitz
        and c1.central == c2.central
        and all(a <= b for a, b in zip(c1.coords, c2.coords))
    )


def fraction_gaps(c1, c2, defect1, defect2):
    """(chain length, essential gap) from the coefficient gaps and the defects."""
    rho_gap = sum(b - a for a, b in zip(c1.coords, c2.coords))
    half = Fraction(defect1 - defect2, 2)
    return rho_gap + half, rho_gap - half


# -- the class interval by straight enumeration ------------------------------


def straight_interval(c_lo, c_hi):
    """All classes between c_lo and c_hi, via straight enumeration."""
    if not bg.leq(c_lo, c_hi):
        raise NotComparableError(f"{c_lo} is not below {c_hi}")
    datum = c_lo.datum
    bound = c_hi.pairing_two_rho
    out = [
        r.invariant
        for r in bg.enumerate_straight(datum, bound, kottwitz=c_lo)
        if bg.leq(c_lo, r.invariant) and bg.leq(r.invariant, c_hi)
    ]
    return bg.sort_classes(out)


# -- a cold classify before it skipped unread work -----------------------------


def levi_interval(c_lo, c_hi):
    """All classes between c_lo and c_hi, a filter of ``levi.levi_classes`` in every case."""
    from adlvkit.levi import levi_classes

    if not bg.leq(c_lo, c_hi):
        raise NotComparableError(f"{c_lo} is not below {c_hi}")
    return [
        c
        for c in levi_classes(c_lo.datum, c_hi.pairing_two_rho, c_lo)
        if bg.leq(c_lo, c) and bg.leq(c, c_hi)
    ]


def letter_unpruned_minimal_coxeter_type(w, cap=cj.DEFAULT_BFS_CAP):
    """The witness search with the |K| prune but without the skip by len(u).

    Every (member, K) pair with |K| >= len(w) - <nu_w, 2 rho> is fully
    decomposed and tested. Memoizes nothing.
    """
    datum = w.datum
    if not cj.is_min_len(w, cap=cap).is_min_len:
        raise NotMinLenError(f"{aw.format_element(w)} is not of minimal length")
    members = list(cj.ShiftClass.of(w, cap).bfs(w, range(datum.rank + 1)))
    smallest = aw.length(w) - cj.class_invariant(w).pairing_two_rho
    for K in cl.spherical_subsets(datum):
        if len(K) < smallest:
            continue
        for member, shifts in members:
            dec = cl._coset_split(member, K)
            if dec is None:
                continue
            u, x, letters, perm = dec
            if cj.is_straight(x) and cl._one_letter_per_orbit(letters, perm):
                return cl.MinCoxWitness(K, x, u, shifts)
    return None


def eager_rational_views(datum):
    """The six views that ``RootDatum.__init__`` built before they became lazy."""
    rho = tuple(Fraction(sum(col), 2) for col in zip(*datum.positive_roots))
    weyl_generators = tuple(
        tuple(
            tuple((1 if i == j else 0) - datum.simple_coroots[k][i] * datum.simple_roots[k][j]
                  for j in range(datum.n))
            for i in range(datum.n)
        )
        for k in range(datum.rank)
    )
    denom, columns = integer_inverse(
        datum.simple_roots + ((datum.central_vector,) if datum.central_rank else ())
    )
    columns = tuple(zip(*columns))
    if datum.spec.lattice_preset == "gl":
        fundamental_coweights = tuple(
            tuple(Fraction(1 if i < k else 0) for i in range(datum.n))
            for k in range(1, datum.n + 1)
        )
    else:
        fundamental_coweights = tuple(
            tuple(Fraction(c, denom) for c in v) for v in columns[: datum.rank]
        )
    cartan_denom, cartan_adj = integer_inverse(datum.cartan_matrix)
    fundamental_weights = tuple(
        tuple(Fraction(c, cartan_denom) for c in vec_mat(col, datum.simple_roots))
        for col in zip(*cartan_adj)
    )
    return {
        "rho": rho,
        "two_rho": tuple(2 * c for c in rho),
        "weyl_generators": weyl_generators,
        "fundamental_coweights": fundamental_coweights,
        "fundamental_weights": fundamental_weights,
        "omega_quotient": LatticeQuotient(datum.n, [list(c) for c in datum.simple_coroots]),
    }


# -- the datum's construction before masks were derived per generator ----------


def inversion_mask(datum, z):
    """Bit k set when <z(probe), beta_k> < 0, one ``dot`` per positive root."""
    v = mat_vec(z, datum._probe)
    return sum(1 << k for k, beta in enumerate(datum.positive_roots) if dot(v, beta) < 0)


def smith_integer_inverse(m):
    """(d, d m^(-1)) for the least such d, read off the Smith normal form.

    u m v = diag(d_1 | ... | d_n) gives m^(-1) = v diag(1/d_i) u, which d
    makes integral exactly when every d_i divides d, so d = d_n and
    adj = v diag(d_n/d_i) u.
    """
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix is not square")
    u, s, v = smith_normal_form(m)
    factors = [s[i][i] for i in range(len(s))]
    if not factors or 0 in factors:
        raise ValueError("matrix is singular")
    d = factors[-1]
    scaled_u = tuple(tuple(d // f * x for x in row) for row, f in zip(u, factors))
    return d, tuple(vec_mat(row, scaled_u) for row in v)


def closure_positive_roots(simple):
    """Coefficient vectors of the positive roots, sorted by (height, ambient coordinates).

    Applies every s_i to every root found and drops the images with a
    negative coefficient (only -alpha_i).
    """
    r = len(simple)
    pairing = [[2 * dot(a, b) // dot(b, b) for b in simple] for a in simple]
    start = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    seen = set(start)
    frontier = start
    while frontier:
        new = []
        for c in frontier:
            for i in range(r):
                p = sum(c[j] * pairing[j][i] for j in range(r))
                img = c[:i] + (c[i] - p,) + c[i + 1:]
                if img[i] >= 0 and img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return sorted(
        seen,
        key=lambda c: (sum(c), tuple(sum(c[k] * a[j] for k, a in enumerate(simple)) for j in range(len(simple[0])))),
    )


# -- value equality before elements and class invariants were interned ---------


def structural_key(x):
    """What ``AffineElement.__eq__`` compared: the datum, the translation and z.

    It read z's finite index; the lattice matrix is the value that index
    stands for, so the key does not trust the finite-index table either.
    """
    return x.datum, x.translation, x.finite


def class_key(c):
    """What ``ClassInvariant.__eq__`` compared: the datum, nu = dom / period and kappa."""
    return c.datum, c.dom, c.period, c.kottwitz


# -- lengths and affine root images before root signs ---------------------------


def act_on_affine_root(x, a):
    """Image of the affine root a = (k, alpha) under x = t^lambda z.

    Derived from s_(x.a) = x s_a x^(-1): the result is
    (k + <lambda, z alpha>, z alpha).
    """
    k, alpha = a
    datum = x.datum
    zinv = datum._finite_matrix_cache[datum.finite_inverse(x.finite_index)]
    za = vec_mat(alpha, zinv)
    return (k + dot(x.translation, za), za)


def affine_root_twist_permutation(x, K):
    """``classifier.twist_permutation`` as it read ``act_on_affine_root``."""
    datum = x.datum
    perm = {}
    for i in K:
        image = act_on_affine_root(x, datum.affine_simple[aw.sigma_on_affine_index(datum, i)])
        j = datum.affine_simple_index.get(image)
        if j not in K:
            return None
        perm[i] = j
    return perm if sorted(perm.values()) == sorted(K) else None


def length_shift_class(x):
    """(members, neighbours, drops) of ``conjugacy.ShiftClass`` by lengths.

    Every conjugate s_i x sigma(s_i) of every member is built and its
    length compared with the class's; nothing is cached across calls.
    """
    base = aw.length(x)
    neighbours = {}
    drops = {}
    queue = [x]
    seen = {x}
    while queue:
        cur = queue.pop(0)
        flat = {}
        dropped = []
        for i in range(x.datum.rank + 1):
            y = cj.conjugate_by_simple(cur, i)
            ylen = aw.length(y)
            if ylen == base:
                flat[i] = y
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
            elif ylen < base:
                dropped.append(i)
        neighbours[cur] = flat
        if dropped:
            drops[cur] = frozenset(dropped)
    return frozenset(seen), neighbours, drops


def multiply_parse_element(datum, text):
    """``affine_weyl.parse_element`` as it multiplied by every factor, s_i included."""
    result = aw.identity(datum)
    for token in text.split():
        if token.startswith("tau"):
            factor = aw.omega_element(datum, int(token[3:]))
        elif token.startswith("t("):
            body = token[2:-1]
            factor = aw.translation(datum, [int(c) for c in body.split(",")] if body else [])
        else:
            factor = aw.simple_reflection(datum, int(token[1:]))
        result = aw.multiply(result, factor)
    return result


# -- finite Weyl parts from lattice matrices -------------------------------------


def matrix_levi_element(datum, J, ones, lam):
    """``levi._levi_element`` as it multiplied lattice matrices.

    z starts as the identity matrix and is multiplied on the left by
    s_j = 1 - alpha_j^ (x) alpha_j for each letter of the word of w_(0,J)
    and then of the word of w_(0,J - ones); only z is interned.
    """
    z = identity_matrix(datum.n)
    for j in levi.longest_word(datum, sorted(J)) + levi.longest_word(datum, sorted(J - ones)):
        z = reflect_left(z, datum.simple_roots[j - 1], datum.simple_coroots[j - 1])
    return aw.AffineElement(datum, lam, datum.finite_index(z))


def matrix_simple_reflection(datum, i):
    """``affine_weyl.simple_reflection`` as it built s_i from a matrix.

    s_i, i >= 1, is t^0 times the lattice matrix ``weyl_generators[i - 1]``;
    s_0 = t^(theta^) s_theta is ``affine_reflection(datum, (1, theta))``.
    """
    if i == 0:
        return aw.affine_reflection(datum, (1, datum.theta))
    if 1 <= i <= datum.rank:
        z = datum.weyl_generators[i - 1]
        return aw.AffineElement(datum, (0,) * datum.n, datum.finite_index(z))
    raise UsageError(f"no simple reflection with index {i}")


# -- the corpus walk and shift moves before ascents by root signs ------------


def level_iter_elements(datum, max_length, kottwitz=None):
    """(x, k) for the old ``bg_poset.iter_elements``, in its order.

    Level k+1 is every s_i y with y in level k that is in neither level
    k-1 nor level k+1 so far; no sign is read, so k is the distance from
    the length-zero elements in the Cayley graph. Nothing is written to
    the length cache.
    """
    if not datum.central_rank:
        central_values = [None]
    elif kottwitz is not None:
        central_values = [kottwitz.central_sum]
    else:
        central_values = range(datum.n)
    start = [
        x
        for x in levi.length_zero_elements(datum, central_values)
        if kottwitz is None or datum.kottwitz_quotient.key(x.translation) == kottwitz.kottwitz
    ]
    levels = [dict.fromkeys(start)]
    for k in range(max_length):
        below = levels[k - 1] if k else {}
        above = {}
        for y in levels[k]:
            for i in range(datum.rank + 1):
                x = aw.left_by_simple(y, i)
                if x not in below and x not in above:
                    above[x] = None
        levels.append(above)
    for k, level in enumerate(levels):
        for x in level:
            yield x, k


def two_step_conjugate_by_simple(x, i):
    """s_i x sigma(s_i), interning x s_j on the way, j = sigma(i)."""
    return aw.left_by_simple(aw.right_by_simple(x, aw.sigma_on_affine_index(x.datum, i)), i)


# -- straightness by its own orbit sum ------------------------------------------


def orbit_sum_is_straight(x):
    """p len(x) == sum over beta > 0 of |<s, beta>|, with (p, s) the orbit sum of x.

    For any v in the Weyl orbit of the dominant dom v, <dom v, 2 rho> is
    the sum over the positive roots beta of |<v, beta>|.
    """
    period, total = cj._orbit_sum(x)
    return period * aw.length(x) == sum(abs(dot(total, beta)) for beta in x.datum.positive_roots)


# -- the class poset's extrema and intervals without a memo ----------------------


def pairwise_extrema(classes):
    """The least and greatest elements of a set of classes, every pair compared."""
    classes = list(classes)
    if not classes:
        raise UsageError("empty class set")
    lo = [c for c in classes if all(bg.leq(c, d) for d in classes)]
    hi = [c for c in classes if all(bg.leq(d, c) for d in classes)]
    if len(lo) != 1 or len(hi) != 1:
        raise NoUniqueExtremumError("class set has no unique minimum or maximum")
    return lo[0], hi[0]


def unmemoized_interval(c_lo, c_hi):
    """All classes between c_lo and c_hi, a filter of ``levi.levi_classes`` past the point case."""
    if not bg.leq(c_lo, c_hi):
        raise NotComparableError(f"{c_lo} is not below {c_hi}")
    if c_lo == c_hi:
        return [c_lo]
    return [
        c
        for c in levi.levi_classes(c_lo.datum, c_hi.pairing_two_rho, c_lo)
        if bg.leq(c_lo, c) and bg.leq(c, c_hi)
    ]
