"""The extended affine Weyl group: X semidirect the finite Weyl group.

Elements are kept in the canonical form t^lambda * z with lambda an
integer lattice vector and z a finite Weyl element (a lattice matrix),
so equality is componentwise. The length function is the closed formula

    len(t^lambda z) = sum over alpha > 0 of
        |<lambda, alpha>|      if z^(-1) alpha > 0
        |<lambda, alpha> - 1|  if z^(-1) alpha < 0

and a word-search oracle for it lives in the test suite.

Affine roots are pairs (k, alpha) of an integer level and a finite root;
the simple ones are (0, -alpha_i) together with (1, theta) for the
highest root theta. The reflection of (k, alpha) is t^(k alpha^) s_alpha,
and the action of t^lambda z sends (k, alpha) to (k + <lambda, z alpha>,
z alpha).
"""

from __future__ import annotations

from .errors import (
    DatumMismatchError,
    ElementParseError,
    InternalInvariantError,
    UsageError,
)
from .linalg import (
    dot,
    identity_matrix,
    mat_mul,
    mat_vec,
    vec_add,
    vec_mat,
    vec_neg,
    as_int_vector,
)
from .root_datum import RootDatum


class AffineElement:
    """t^translation * finite, over a fixed root datum."""

    __slots__ = ("datum", "translation", "finite", "_hash")

    def __init__(self, datum, translation, finite):
        self.datum = datum
        self.translation = tuple(translation)
        self.finite = finite
        self._hash = hash((self.translation, finite))

    def __eq__(self, other):
        return (
            isinstance(other, AffineElement)
            and self.datum is other.datum
            and self.translation == other.translation
            and self.finite == other.finite
        )

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        return multiply(self, other)

    def inverse(self):
        zinv = self.datum.weyl_inverse(self.finite)
        return AffineElement(
            self.datum, vec_neg(mat_vec(zinv, self.translation)), zinv
        )

    @property
    def length(self):
        return length(self)

    def is_identity(self):
        return self.finite == identity_matrix(self.datum.n) and not any(
            self.translation
        )

    def __repr__(self):
        return f"<{format_element(self)} in {self.datum.spec.datum_string()}>"


def identity(datum: RootDatum) -> AffineElement:
    return AffineElement(datum, (0,) * datum.n, identity_matrix(datum.n))


def translation(datum: RootDatum, lam) -> AffineElement:
    return AffineElement(datum, as_int_vector(lam), identity_matrix(datum.n))


def from_finite(datum: RootDatum, z) -> AffineElement:
    return AffineElement(datum, (0,) * datum.n, z)


def multiply(x: AffineElement, y: AffineElement) -> AffineElement:
    """Semidirect product law: t^a z . t^b y = t^(a + z b) (z y)."""
    if x.datum is not y.datum:
        raise DatumMismatchError("elements live over different root data")
    return AffineElement(
        x.datum,
        vec_add(x.translation, mat_vec(x.finite, y.translation)),
        mat_mul(x.finite, y.finite),
    )


def length(x: AffineElement) -> int:
    datum = x.datum
    cached = datum._length_cache.get(x)
    if cached is not None:
        return cached
    lam = x.translation
    total = 0
    probe = datum._probe
    for alpha in datum.positive_roots:
        pairing = dot(lam, alpha)
        # z^(-1) alpha, as a covector, is alpha o z
        if dot(probe, vec_mat(alpha, x.finite)) > 0:
            total += pairing if pairing >= 0 else -pairing
        else:
            total += abs(pairing - 1)
    datum._length_cache[x] = total
    return total


# -- affine roots ----------------------------------------------------------


def affine_simple_roots(datum: RootDatum):
    """Simple affine roots, indexed 0..rank: index 0 is (1, theta)."""
    out = [(1, datum.theta)]
    for alpha in datum.simple_roots:
        out.append((0, vec_neg(alpha)))
    return out


def simple_reflection(datum: RootDatum, i: int) -> AffineElement:
    """s_i for an affine index; s_0 = t^(theta^) s_theta."""
    if i == 0:
        return affine_reflection(datum, (1, datum.theta))
    if not 1 <= i <= datum.rank:
        raise UsageError(f"no simple reflection with index {i}")
    return from_finite(datum, datum.weyl_generators[i - 1])


def affine_reflection(datum: RootDatum, a) -> AffineElement:
    """The reflection t^(k alpha^) s_alpha of the affine root a = (k, alpha)."""
    k, alpha = a
    coroot = datum.root_coroot.get(tuple(alpha))
    if coroot is None:
        raise UsageError(f"gradient {alpha} is not a root")
    n = datum.n
    refl = tuple(
        tuple((1 if r == c else 0) - coroot[r] * alpha[c] for c in range(n))
        for r in range(n)
    )
    return AffineElement(datum, tuple(k * c for c in coroot), refl)


def act_on_affine_root(x: AffineElement, a):
    """Image of the affine root a = (k, alpha) under x = t^lambda z.

    Derived from s_(x.a) = x s_a x^(-1): the result is
    (k + <lambda, z alpha>, z alpha).
    """
    k, alpha = a
    za = vec_mat(alpha, x.datum.weyl_inverse(x.finite))
    return (k + dot(x.translation, za), za)


def sigma_act(x: AffineElement) -> AffineElement:
    """The twist: t^lambda z goes to t^(delta lambda) (delta z delta^-1)."""
    d = x.datum
    return AffineElement(
        d,
        mat_vec(d.delta, x.translation),
        mat_mul(d.delta, mat_mul(x.finite, d.delta_inv)),
    )


def sigma_on_affine_index(datum: RootDatum, i: int) -> int:
    """The index j with sigma(s_i) = s_j; the twist fixes index 0."""
    if i == 0:
        return 0
    return datum.delta_diagram[i]


# -- length-zero elements --------------------------------------------------


def stabilizer_descend(x: AffineElement):
    """Greedy left descents until no affine simple reflection shortens x.

    Applied to a pure translation this lands on the unique length-zero
    element of its coset modulo the coroot lattice.
    """
    cur = x
    cur_len = length(cur)
    while cur_len > 0:
        for i in range(x.datum.rank + 1):
            y = multiply(simple_reflection(x.datum, i), cur)
            ylen = length(y)
            if ylen < cur_len:
                cur, cur_len = y, ylen
                break
        else:
            break
    return cur


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
    tau = stabilizer_descend(translation(datum, omega))
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
    word = x.datum.weyl_word(x.finite)
    parts.extend(f"s{i}" for i in word)
    return " ".join(parts)


def parse_element(datum: RootDatum, text: str) -> AffineElement:
    """Parse whitespace-separated tokens sK | tauK | t(c1,...,cn).

    Tokens multiply left to right. The empty string is the identity.
    """
    result = identity(datum)
    for pos, token in enumerate(text.split()):
        if token.startswith("s") and token[1:].isdigit():
            i = int(token[1:])
            if i > datum.rank:
                raise ElementParseError(
                    text, pos, f"generator index {i} exceeds rank {datum.rank}"
                )
            factor = simple_reflection(datum, i)
        elif token.startswith("tau") and token[3:].isdigit():
            try:
                factor = omega_element(datum, int(token[3:]))
            except UsageError as exc:
                raise ElementParseError(text, pos, str(exc)) from exc
        elif token.startswith("t(") and token.endswith(")"):
            body = token[2:-1]
            try:
                coords = [int(c) for c in body.split(",")] if body else []
            except ValueError as exc:
                raise ElementParseError(text, pos, f"bad coordinates {body!r}") from exc
            if len(coords) != datum.n:
                raise ElementParseError(
                    text, pos, f"expected {datum.n} coordinates, got {len(coords)}"
                )
            factor = translation(datum, coords)
        else:
            raise ElementParseError(text, pos, f"unknown token {token!r}")
        result = multiply(result, factor)
    return result
