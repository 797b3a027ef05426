"""The extended affine Weyl group: X semidirect the finite Weyl group.

Elements are kept in the canonical form t^lambda * z with lambda an
integer lattice vector and z a finite Weyl element, and each datum
interns them, one object per (lambda, z), so equality is identity. z is
stored as an int: its index among the datum's interned finite Weyl
elements (:meth:`RootDatum.finite_index`), with the identity at 0. The
datum memoizes, per index, the products with the finite parts
r_0..r_rank of the affine simple reflections (r_0 = s_theta) and the
least reduced word, so the group law runs on table lookups:

* ``conjugacy.conjugate_by_simple`` is two lookups and a rank-one update
  of lambda;
* :func:`sigma_act` walks the word of z with permuted letters and applies
  delta to lambda (nothing at all on an untwisted datum);
* :func:`multiply` walks the shorter factor's word through the tables and
  applies z to the right translation only when that is nonzero.

The lattice matrix of z stays readable as ``x.finite``. The length
function is the closed formula

    len(t^lambda z) = sum over alpha > 0 of
        |<lambda, alpha>|      if z^(-1) alpha > 0
        |<lambda, alpha> - 1|  if z^(-1) alpha < 0

read off the inversion bitmask of z, and a word-search oracle for it
lives in the test suite.

Affine roots are pairs (k, alpha) of an integer level and a finite root;
the simple ones are (0, -alpha_i) together with (1, theta) for the
highest root theta. The reflection of (k, alpha) is t^(k alpha^) s_alpha,
and the action of t^lambda z sends (k, alpha) to (k + <lambda, z alpha>,
z alpha).
"""

from __future__ import annotations

import re
from itertools import compress, repeat
from operator import gt, mul

from .errors import DatumMismatchError, ElementParseError, InternalInvariantError, UsageError
from .linalg import as_int_vector, identity_matrix, mat_vec, vec_add, vec_neg
from .root_datum import RootDatum


class AffineElement:
    """t^translation * z over a fixed root datum.

    ``finite_index`` is z's index in the datum's interned finite Weyl
    elements and ``finite`` its lattice matrix. The datum's
    ``_element_cache`` holds one object per (translation, finite_index),
    so equality and hashing are ``object``'s identity.
    """

    __slots__ = ("datum", "translation", "finite_index")

    def __new__(cls, datum, translation, finite_index: int):
        key = (tuple(translation), finite_index)
        x = datum._element_cache.get(key)
        if x is None:
            x = datum._element_cache[key] = object.__new__(cls)
            x.datum = datum
            x.translation, x.finite_index = key
        return x

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    @property
    def finite(self):
        return self.datum._finite_matrix_cache[self.finite_index]

    def __mul__(self, other):
        return multiply(self, other)

    def inverse(self):
        """(t^lambda z)^(-1) = t^(-z^(-1) lambda) z^(-1)."""
        datum = self.datum
        inv = datum.finite_inverse(self.finite_index)
        lam = self.translation
        if any(lam):
            lam = vec_neg(mat_vec(datum._finite_matrix_cache[inv], lam))
        return AffineElement(datum, lam, inv)

    @property
    def length(self):
        return length(self)

    def is_identity(self):
        return not self.finite_index and not any(self.translation)

    def __repr__(self):
        return f"<{format_element(self)} in {self.datum.spec.datum_string()}>"


def _identity_index(datum: RootDatum) -> int:
    # the finite table interns the identity first, as index 0
    return 0 if datum._finite_index_cache else datum.finite_index(identity_matrix(datum.n))


def identity(datum: RootDatum) -> AffineElement:
    return AffineElement(datum, (0,) * datum.n, _identity_index(datum))


def translation(datum: RootDatum, lam) -> AffineElement:
    return AffineElement(datum, as_int_vector(lam), _identity_index(datum))


def _finite_product(datum: RootDatum, u: int, w: int) -> int:
    """The index of the product u w, walking the shorter word through a table."""
    if not w:
        return u
    if not u:
        return w
    right_word = datum.finite_word(w)
    left_word = datum.finite_word(u)
    if len(right_word) <= len(left_word):
        for i in right_word:
            u = datum.finite_right(u, i)
        return u
    for i in reversed(left_word):
        w = datum.finite_left(w, i)
    return w


def multiply(x: AffineElement, y: AffineElement) -> AffineElement:
    """Semidirect product law: t^a z . t^b y = t^(a + z b) (z y)."""
    datum = x.datum
    if datum is not y.datum:
        raise DatumMismatchError("elements live over different root data")
    lam = x.translation
    if any(y.translation):
        lam = vec_add(lam, mat_vec(x.finite, y.translation))
    return AffineElement(datum, lam, _finite_product(datum, x.finite_index, y.finite_index))


def translation_pairings(datum: RootDatum, lam):
    """(base, up) for the length formula of the translation lam.

    With p_k = <lam, beta_k> over the positive roots, base = sum |p_k|
    and up is the bitmask of the k with p_k >= 1. Then

        len(t^lam z) = base + sum over k in N(z) of (-1 if k in up else +1)
                     = base + len(z) - 2 |N(z) & up|

    for the inversion bitmask N(z) of z.
    """
    pairings = datum.root_pairings(lam)
    up = sum(compress(datum.root_bits, map(gt, pairings, repeat(0))))
    return sum(map(abs, pairings)), up


def length(x: AffineElement) -> int:
    datum = x.datum
    cached = datum._length_cache.get(x)
    if cached is not None:
        return cached
    inversions = datum._inversion_cache[x.finite_index]
    base, up = translation_pairings(datum, x.translation)
    total = base + inversions.bit_count() - 2 * (inversions & up).bit_count()
    datum._length_cache[x] = total
    return total


def left_step(datum: RootDatum, lam, w: int, i: int):
    """(lambda', u) with t^lambda' u = s_i t^lambda w; interns no element.

    One left-table lookup and a rank-one update of lambda: with r_i the
    finite part of s_i and (alpha, alpha^) its root pair, r_i lambda =
    lambda - <lambda, alpha> alpha^; s_0 = t^(theta^) s_theta adds theta^
    on top.
    """
    if not 0 <= i <= datum.rank:
        raise UsageError(f"no simple reflection with index {i}")
    u = datum._left_cache[w][i]
    if u is None:
        u = datum.finite_left(w, i)
    alpha, coroot = datum._reflection_roots[i]
    p = (0 if i else 1) - sum(map(mul, lam, alpha))
    if p:
        lam = tuple([a + p * c for a, c in zip(lam, coroot)])
    return lam, u


def right_step(datum: RootDatum, lam, w: int, i: int):
    """(lambda', u) with t^lambda' u = t^lambda w s_i; interns no element.

    One right-table lookup; s_0 also adds z theta^ to lambda.
    """
    if not 0 <= i <= datum.rank:
        raise UsageError(f"no simple reflection with index {i}")
    u = datum._right_cache[w][i]
    if u is None:
        u = datum.finite_right(w, i)
    if not i:
        lam = vec_add(lam, mat_vec(datum._finite_matrix_cache[w], datum.theta_coroot))
    return lam, u


def left_by_simple(x: AffineElement, i: int) -> AffineElement:
    """s_i x, by :func:`left_step`."""
    return AffineElement(x.datum, *left_step(x.datum, x.translation, x.finite_index, i))


def right_by_simple(x: AffineElement, i: int) -> AffineElement:
    """x s_i, by :func:`right_step`."""
    return AffineElement(x.datum, *right_step(x.datum, x.translation, x.finite_index, i))


# -- affine roots ----------------------------------------------------------


def affine_simple_roots(datum: RootDatum):
    """Simple affine roots, indexed 0..rank: index 0 is (1, theta)."""
    return list(datum.affine_simple)


def simple_reflection(datum: RootDatum, i: int) -> AffineElement:
    """s_i for an affine index; s_0 = t^(theta^) s_theta.

    One left-table step from the identity. The twist images of the
    rank+1 reflections are among them: sigma(s_i) = s_j for
    j = sigma_on_affine_index(i).
    """
    return left_by_simple(identity(datum), i)


def affine_reflection(datum: RootDatum, a) -> AffineElement:
    """The reflection t^(k alpha^) s_alpha of the affine root a = (k, alpha)."""
    k, alpha = a
    coroot = datum.root_coroot.get(tuple(alpha))
    if coroot is None:
        raise UsageError(f"gradient {alpha} is not a root")
    refl = datum._reflection_matrix(alpha, coroot)
    return AffineElement(datum, tuple(k * c for c in coroot), datum.finite_index(refl))


def sigma_act(x: AffineElement) -> AffineElement:
    """The twist: t^lambda z goes to t^(delta lambda) (delta z delta^-1).

    On an untwisted datum delta is the identity and x is returned.
    """
    d = x.datum
    if d.spec.twist_order == 1:
        return x
    return AffineElement(d, mat_vec(d.delta, x.translation), d.finite_sigma(x.finite_index))


def sigma_on_affine_index(datum: RootDatum, i: int) -> int:
    """The index j with sigma(s_i) = s_j; the twist fixes index 0."""
    if i == 0:
        return 0
    if not 1 <= i <= datum.rank:
        raise UsageError(f"no simple reflection with index {i}")
    return datum.delta_diagram[i]


# -- descents by root signs ---------------------------------------------------
#
# len(s w) < len(w) iff w^(-1)(a) < 0, and len(w s) < len(w) iff w(a) < 0,
# for the simple affine root a of s (Humphreys, Reflection Groups and
# Coxeter Groups, 5.4). (k, alpha) > 0 iff k > 0, or k = 0 and alpha < 0,
# as the simple affine roots are (0, -alpha_i) and (1, theta); x sends
# (k, alpha) to (k + <lambda, z alpha>, z alpha) and x^(-1) sends it to
# (k - <lambda, alpha>, z^(-1) alpha). So with q = <lambda, alpha>:
#   x^(-1)(0, -alpha_i) = (q, -z^(-1) alpha_i) < 0 iff q < 0, or q = 0 and
#   alpha_i in N(z); x^(-1)(1, theta) = (1 - q, z^(-1) theta) < 0 iff
#   q > 1, or q = 1 and theta not in N(z).
# With beta = z alpha_j and p = <lambda, beta>:
#   x(0, -alpha_j) = (-p, -beta) < 0 iff p > 0, or p = 0 and beta < 0;
#   x(1, theta) = (1 + p, beta) < 0 iff p < -1, or p = -1 and beta > 0.


def left_descent(x: AffineElement, i: int) -> bool:
    """len(s_i x) < len(x), by one pairing and one inversion mask bit."""
    return pair_left_descent(x.datum, x.translation, x.finite_index, i)


def pair_left_descent(datum: RootDatum, lam, w: int, i: int) -> bool:
    """:func:`left_descent` of t^lambda w, given as the pair (lambda, w); interns nothing."""
    q = sum(map(mul, lam, datum._reflection_roots[i][0]))
    mask = datum._inversion_cache[w]
    if i:
        return q < 0 or (q == 0 and bool(mask & datum._simple_bits[i - 1]))
    # theta is the last positive root
    return q > 1 or (q == 1 and not mask & datum.root_bits[-1])


def right_descent(x: AffineElement, j: int) -> bool:
    """len(x s_j) < len(x), by one pairing with the root z(alpha_j)."""
    beta, positive = x.datum.root_image(x.finite_index, j)
    p = sum(map(mul, x.translation, beta))
    if j:
        return p > 0 or (p == 0 and not positive)
    return p < -1 or (p == -1 and positive)


# -- greedy descents and length-zero elements ----------------------------


def strip_left_descents(x: AffineElement, indices):
    """Strip left descents s_i, i in ``indices``, until none is left.

    Each step strips the first index, in the given order, with
    :func:`pair_left_descent` and :func:`left_step` on (lambda, index)
    pairs, so only y is interned. Returns
    (y, letters) with x = s_(letters[0]) ... s_(letters[-1]) y and len(y)
    = len(x) - len(letters). Over all affine indices y has length zero,
    since an element of positive length has a left descent; applied to a
    pure translation this lands on the unique length-zero element of its
    coset modulo the coroot lattice.
    """
    datum = x.datum
    lam, w = x.translation, x.finite_index
    letters = []
    while True:
        for i in indices:
            if pair_left_descent(datum, lam, w, i):
                lam, w = left_step(datum, lam, w, i)
                letters.append(i)
                break
        else:
            return AffineElement(datum, lam, w), tuple(letters)


def omega_element(datum: RootDatum, k: int) -> AffineElement:
    """The length-zero element tau_k of the k-th fundamental coweight coset.

    tau_0 is the identity. For the gl preset, k may go up to the lattice
    rank; tau_n is the central translation by (1, ..., 1). For other
    presets the fundamental coweight must lie in the lattice, otherwise
    the coset does not exist and a UsageError is raised.
    """
    if k == 0:
        return identity(datum)
    limit = datum.n if datum.spec.lattice_preset == "gl" else datum.rank
    if not 1 <= k <= limit:
        raise UsageError(f"tau index {k} out of range for this datum")
    if datum.spec.lattice_preset == "gl" and k == datum.n:
        return translation(datum, (1,) * datum.n)
    omega = datum.fundamental_coweights[k - 1]
    if any(c.denominator != 1 for c in omega):
        raise UsageError(
            f"tau{k} does not exist: fundamental coweight {k} is not in the lattice"
        )
    tau, _letters = strip_left_descents(translation(datum, omega), range(datum.rank + 1))
    if length(tau) != 0:
        raise InternalInvariantError("descent from a coweight missed length zero")
    return tau


# -- descent tables --------------------------------------------------------


def descents(x: AffineElement):
    """Signs of the length changes for all simple moves on x.

    For each affine index i this reports len(s_i x) - len(x) (always
    +-1), len(x sigma(s_i)) - len(x) (always +-1) and the double move
    len(s_i x sigma(s_i)) - len(x), which provably lies in {-2, 0, +2};
    anything else trips an internal error.
    """
    out = {}
    base = length(x)
    for i in range(x.datum.rank + 1):
        s = simple_reflection(x.datum, i)
        ssig = sigma_act(s)
        left = length(multiply(s, x)) - base
        right = length(multiply(x, ssig)) - base
        double = length(multiply(s, multiply(x, ssig))) - base
        if left not in (-1, 1) or right not in (-1, 1) or double not in (-2, 0, 2):
            raise InternalInvariantError(
                f"illegal length changes ({left}, {right}, {double}) at index {i}"
            )
        out[i] = {"left": left, "right": right, "double": double}
    return out


# -- text form ---------------------------------------------------------------


def format_element(x: AffineElement) -> str:
    """Canonical text: 't(coords)' then the least reduced word, if any."""
    parts = ["t(" + ",".join(str(c) for c in x.translation) + ")"]
    word = x.datum.finite_word(x.finite_index)
    parts.extend(f"s{i}" for i in word)
    return " ".join(parts)


# ASCII digits only: str.isdigit() also accepts '²', and int() reads '١'
# as 1 and '1_0' as 10
ASCII_DIGITS = re.compile("[0-9]+")
_INTEGER = re.compile("[-+]?[0-9]+")


def parse_element(datum: RootDatum, text: str) -> AffineElement:
    """Parse whitespace-separated tokens sK | tauK | t(c1,...,cn).

    Tokens multiply left to right. The empty string is the identity.
    """
    result = identity(datum)
    for pos, token in enumerate(text.split()):
        if token.startswith("s") and ASCII_DIGITS.fullmatch(token[1:]):
            i = int(token[1:])
            if i > datum.rank:
                raise ElementParseError(
                    text, pos, f"generator index {i} exceeds rank {datum.rank}"
                )
            result = right_by_simple(result, i)
            continue
        if token.startswith("tau") and ASCII_DIGITS.fullmatch(token[3:]):
            try:
                factor = omega_element(datum, int(token[3:]))
            except UsageError as exc:
                raise ElementParseError(text, pos, str(exc)) from exc
        elif token.startswith("t(") and token.endswith(")"):
            body = token[2:-1]
            parts = body.split(",") if body else []
            if not all(_INTEGER.fullmatch(c) for c in parts):
                raise ElementParseError(text, pos, f"bad coordinates {body!r}")
            coords = [int(c) for c in parts]
            if len(coords) != datum.n:
                raise ElementParseError(
                    text, pos, f"expected {datum.n} coordinates, got {len(coords)}"
                )
            factor = translation(datum, coords)
        else:
            raise ElementParseError(text, pos, f"unknown token {token!r}")
        result = multiply(result, factor)
    return result
