"""Root data: a finite root system served on a chosen coweight lattice.

A :class:`RootDatum` fixes, once and for all, integer coordinates for the
coweight lattice X and covector coordinates for the roots, so that every
pairing in the package is a plain integer dot product. Three lattice
presets are supported:

``adjoint``
    X is the coroot lattice (basis: the simple coroots). The quotient
    X/(coroot lattice) is trivial, so there are no nontrivial length-zero
    elements downstream.
``simply_connected``
    X is the coweight lattice (basis: the fundamental coweights). This is
    the largest lattice for the given root system and carries the full
    group of length-zero elements.
``gl``
    Only for family A of rank r: X = Z^(r+1) with roots e_i - e_j, the
    familiar matrix-group realization. The lattice has a one-dimensional
    central direction.

The lattice data are fixed at construction. The per-datum caches are
not: any call may fill them lazily, entries are never removed, and there
is no guarantee for concurrent use of one datum from several threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import cartan
from .errors import UnsupportedDatumError, UsageError
from .linalg import (
    LatticeQuotient,
    as_int_matrix,
    as_int_vector,
    dot,
    identity_matrix,
    mat_inv,
    mat_mul,
    mat_vec,
    solve,
    vec_mat,
)

_PRESETS = {
    "adj": "adjoint",
    "adjoint": "adjoint",
    "sc": "simply_connected",
    "simply_connected": "simply_connected",
    "gl": "gl",
}

_DATUM_RE = re.compile(r"^([123]?)([A-G])(\d+):([a-z_]+)$")


@dataclass(frozen=True)
class CartanSpec:
    """What to build: family, rank, lattice preset, twist order."""

    family: str
    rank: int
    lattice_preset: str
    twist_order: int = 1

    def __post_init__(self):
        if self.family not in cartan.FAMILIES:
            raise UnsupportedDatumError(f"unknown family {self.family!r}")
        cartan.validate_family_rank(self.family, self.rank)
        if self.lattice_preset not in ("adjoint", "simply_connected", "gl"):
            raise UnsupportedDatumError(
                f"unknown lattice_preset {self.lattice_preset!r}"
            )
        if self.lattice_preset == "gl" and self.family != "A":
            raise UnsupportedDatumError("the gl preset requires family A")
        if self.twist_order not in (1, 2, 3):
            raise UnsupportedDatumError("twist_order must be 1, 2 or 3")
        if self.twist_order not in cartan.automorphism_orders(self.family, self.rank):
            raise UnsupportedDatumError(
                f"twist_order {self.twist_order} is not admissible for "
                f"{self.family}{self.rank}"
            )

    def datum_string(self) -> str:
        twist = "" if self.twist_order == 1 else str(self.twist_order)
        preset = {"adjoint": "adj", "simply_connected": "sc", "gl": "gl"}[
            self.lattice_preset
        ]
        return f"{twist}{self.family}{self.rank}:{preset}"


def parse_spec(text: str) -> CartanSpec:
    """Parse a compact datum string like ``A5:gl``, ``C2:adj``, ``2A4:sc``."""
    m = _DATUM_RE.match(text.strip())
    if not m:
        raise UsageError(
            f"bad datum string {text!r}; expected e.g. 'A5:gl', 'C2:adj', '2A4:sc'"
        )
    twist, family, rank, preset = m.groups()
    if preset not in _PRESETS:
        raise UsageError(f"unknown lattice preset {preset!r} in {text!r}")
    return CartanSpec(
        family=family,
        rank=int(rank),
        lattice_preset=_PRESETS[preset],
        twist_order=int(twist) if twist else 1,
    )


class RootDatum:
    """Realized root system data over a fixed coweight lattice.

    Lattice vectors are integer tuples in the chosen basis; roots are
    integer covectors, i.e. pair(v, root) = dot(v, root). Compared by
    identity: build through :func:`build_root_datum`, which interns.
    """

    def __init__(self, spec: CartanSpec):
        self.spec = spec
        self.rank = spec.rank
        family = spec.family

        simple_amb = cartan.simple_roots_ambient(family, spec.rank)
        coroots_amb = [cartan.coroot(a) for a in simple_amb]
        pos_amb = cartan.positive_roots(simple_amb)
        theta_amb = cartan.highest_root(simple_amb, pos_amb)

        basis = self._lattice_basis(simple_amb, coroots_amb)
        self.n = len(basis)

        def cov(alpha):
            # a root as an integer covector on the lattice
            return as_int_vector([dot(b, alpha) for b in basis])

        def vec(x_amb):
            # an ambient lattice point in integer lattice coordinates
            mat = tuple(
                tuple(basis[j][i] for j in range(self.n))
                for i in range(len(x_amb))
            )
            sol = solve(mat, x_amb)
            if sol is None:
                raise AssertionError("vector not in the lattice span")
            return as_int_vector(sol)

        self.simple_roots = tuple(cov(a) for a in simple_amb)
        self.simple_coroots = tuple(vec(c) for c in coroots_amb)
        self.positive_roots = tuple(cov(beta) for beta, _c in pos_amb)
        self.theta = cov(theta_amb)
        self.theta_coroot = vec(cartan.coroot(theta_amb))
        rho_amb = [sum(beta[i] for beta, _c in pos_amb) / Fraction(2) for i in range(len(theta_amb))]
        self.rho = tuple(Fraction(dot(b, rho_amb)) for b in basis)
        self.two_rho = tuple(2 * c for c in self.rho)

        # all roots with their coroots, for reflections by arbitrary roots
        self.root_coroot = {}
        for beta, _c in pos_amb:
            bc, cc = cov(beta), vec(cartan.coroot(beta))
            self.root_coroot[bc] = cc
            self.root_coroot[tuple(-x for x in bc)] = tuple(-x for x in cc)

        self.weyl_generators = tuple(
            self._reflection_matrix(self.simple_roots[i], self.simple_coroots[i])
            for i in range(self.rank)
        )
        self.cartan_matrix = tuple(
            tuple(dot(self.simple_coroots[i], self.simple_roots[j]) for j in range(self.rank))
            for i in range(self.rank)
        )

        self.delta_diagram = cartan.diagram_automorphism(family, spec.rank, spec.twist_order)
        self.delta = self._delta_matrix(simple_amb, basis)
        self.delta_inv = as_int_matrix(mat_inv(self.delta))

        # integer vector with strictly positive pairing against every
        # positive root; root sign tests reduce to one dot product
        self._probe = self._positivity_probe()

        self.fundamental_coweights = self._fundamental_coweights()

        gens = [list(c) for c in self.simple_coroots]
        self.omega_quotient = LatticeQuotient(self.n, gens)
        delta_minus_1 = [
            tuple(self.delta[i][j] - (1 if i == j else 0) for i in range(self.n))
            for j in range(self.n)
        ]
        self.kottwitz_quotient = LatticeQuotient(self.n, gens + delta_minus_1)

        # gl preset: the lattice has a central line spanned by (1,...,1)
        self.central_rank = self.n - self.rank
        self.central_vector = (1,) * self.n if self.central_rank else None

        # caches filled lazily by any call, keyed by element data
        self._word_cache = {}
        self._inv_cache = {}
        self._weyl_elements = None
        self._weyl_inversions = None
        self._length_cache = {}
        self._shift_class_cache = {}
        self._class_cache = {}
        self._move_cache = {}
        self._summary_cache = {}
        self._mincox_cache = {}
        self._defect_cache = {}
        self._straight_cache = {}
        self._translation_cache = {}

    # -- construction helpers -------------------------------------------

    def _lattice_basis(self, simple_amb, coroots_amb):
        preset = self.spec.lattice_preset
        if preset == "gl":
            n = self.rank + 1
            return [cartan._e(n, i) for i in range(n)]
        if preset == "adjoint":
            return list(coroots_amb)
        # simply_connected: fundamental coweights inside the coroot span
        r = self.rank
        pairing = tuple(
            tuple(dot(coroots_amb[i], simple_amb[j]) for j in range(r))
            for i in range(r)
        )
        inv = mat_inv(pairing)
        basis = []
        for i in range(r):
            w = [Fraction(0)] * len(simple_amb[0])
            for j in range(r):
                for k in range(len(w)):
                    w[k] += inv[i][j] * coroots_amb[j][k]
            basis.append(tuple(w))
        return basis

    def _reflection_matrix(self, root_cov, coroot_vec):
        n = self.n
        return tuple(
            tuple((1 if i == j else 0) - coroot_vec[i] * root_cov[j] for j in range(n))
            for i in range(n)
        )

    def _delta_matrix(self, simple_amb, basis):
        perm = self.delta_diagram
        preset = self.spec.lattice_preset
        n = self.n
        if self.spec.twist_order == 1:
            return identity_matrix(n)
        if preset == "gl":
            # -1 times the coordinate flip; sends e_i to -e_(n+1-i)
            return tuple(
                tuple(-1 if i + j == n - 1 else 0 for j in range(n))
                for i in range(n)
            )
        # both basis presets are permuted index-wise by the automorphism
        mat = [[0] * n for _ in range(n)]
        for j in range(n):
            mat[perm[j + 1] - 1][j] = 1
        return tuple(tuple(row) for row in mat)

    def _positivity_probe(self):
        # sum of fundamental coweights, scaled to integers
        r = self.rank
        pairing = tuple(
            tuple(dot(self.simple_coroots[i], self.simple_roots[j]) for j in range(r))
            for i in range(r)
        )
        inv = mat_inv(pairing)
        probe = [Fraction(0)] * self.n
        for i in range(r):
            for j in range(r):
                for k in range(self.n):
                    probe[k] += inv[i][j] * self.simple_coroots[j][k]
        denom = 1
        for c in probe:
            denom = denom * c.denominator // _gcd(denom, c.denominator)
        out = tuple(int(c * denom) for c in probe)
        for beta in self.positive_roots:
            if dot(out, beta) <= 0:
                raise AssertionError("positivity probe failed")
        return out

    def _fundamental_coweights(self):
        """Rational lattice coordinates of the fundamental coweights.

        For the gl preset these are e_1 + ... + e_k; otherwise solved from
        the defining pairings within the coroot span.
        """
        if self.spec.lattice_preset == "gl":
            out = []
            for k in range(1, self.n + 1):
                out.append(tuple(Fraction(1 if i < k else 0) for i in range(self.n)))
            return tuple(out)
        r = self.rank
        # omega_i = sum_k c_k coroot_k, pinned by pairing with simple roots
        pairing = tuple(
            tuple(dot(self.simple_coroots[k], self.simple_roots[j]) for k in range(r))
            for j in range(r)
        )
        out = []
        for i in range(r):
            target = tuple(Fraction(1 if j == i else 0) for j in range(r))
            coeffs = solve(pairing, target)
            w = [Fraction(0)] * self.n
            for k in range(r):
                for idx in range(self.n):
                    w[idx] += coeffs[k] * self.simple_coroots[k][idx]
            out.append(tuple(w))
        return tuple(out)

    # -- basic operations ------------------------------------------------

    def pair(self, v, a):
        """Canonical pairing of a lattice vector with a covector."""
        return dot(v, a)

    def apply_weyl_covector(self, z, a):
        """Transport a covector along z: returns a o z^(-1)."""
        return vec_mat(a, self.weyl_inverse(z))

    def is_dominant(self, v) -> bool:
        return all(dot(v, alpha) >= 0 for alpha in self.simple_roots)

    def dominant_representative(self, v):
        """Dominant Weyl-orbit representative and an element mapping v to it.

        Greedy descent: apply s_i whenever the pairing with alpha_i is
        negative. The vector may have Fraction entries (Newton points do).
        """
        cur = tuple(v)
        z = identity_matrix(self.n)
        while True:
            for i in range(self.rank):
                if dot(cur, self.simple_roots[i]) < 0:
                    cur = mat_vec(self.weyl_generators[i], cur)
                    z = mat_mul(self.weyl_generators[i], z)
                    break
            else:
                return cur, z

    # -- finite Weyl group bookkeeping ------------------------------------

    def weyl_word(self, z):
        """Lexicographically least reduced word, as a tuple of indices.

        Strips the smallest left descent repeatedly; the left descents of
        z are the i with z^(-1)(alpha_i) negative.
        """
        cached = self._word_cache.get(z)
        if cached is not None:
            return cached
        word = []
        cur = z
        path = []
        while True:
            hit = self._word_cache.get(cur)
            if hit is not None:
                word.extend(hit)
                break
            for i in range(self.rank):
                if dot(self._probe, vec_mat(self.simple_roots[i], cur)) < 0:
                    path.append((cur, len(word)))
                    word.append(i + 1)
                    cur = mat_mul(self.weyl_generators[i], cur)
                    break
            else:
                if cur != identity_matrix(self.n):
                    raise AssertionError("descent-free non-identity matrix")
                break
        word = tuple(word)
        self._word_cache[z] = word
        for mat, used in path:
            self._word_cache.setdefault(mat, word[used:])
        return word

    def weyl_from_word(self, word):
        z = identity_matrix(self.n)
        for i in word:
            z = mat_mul(z, self.weyl_generators[i - 1])
        return z

    def weyl_inverse(self, z):
        cached = self._inv_cache.get(z)
        if cached is None:
            cached = self.weyl_from_word(tuple(reversed(self.weyl_word(z))))
            self._inv_cache[z] = cached
            self._inv_cache[cached] = z
        return cached

    def weyl_elements(self):
        """All finite Weyl elements, sorted by (length, word)."""
        if self._weyl_elements is None:
            self._build_weyl_table()
        return self._weyl_elements

    def weyl_inversions(self):
        """Inversion sets aligned with :meth:`weyl_elements`, as bitmasks.

        Bit k of the mask of z is set when z^(-1) maps the k-th positive
        root to a negative root; len(z) bits are set.
        """
        if self._weyl_inversions is None:
            self._build_weyl_table()
        return self._weyl_inversions

    def _build_weyl_table(self):
        """Breadth-first search over the Weyl orbit of the probe.

        z is tracked by v = z(probe), which determines it because the
        probe is regular. The left descents of z are the i with
        <v, alpha_i> < 0, so its least reduced word is (j,) + word(s_j z)
        for the smallest such j, and its inversion set is the positive
        roots beta with <v, beta> < 0. A step s_i v = v - <v, alpha_i>
        alpha_i^ updates the matrix by the rank-one form
        s_i z = z - alpha_i^ (alpha_i z). Every word goes into the word
        cache.
        """
        roots, coroots = self.simple_roots, self.simple_coroots

        def pairings(v, covectors):
            return [sum(map(mul, v, a)) for a in covectors]

        def reflect(v, i, p):
            return tuple(a - p * b for a, b in zip(v, coroots[i]))

        # v -> (matrix, least reduced word)
        table = {self._probe: (identity_matrix(self.n), ())}
        level = [self._probe]
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
                    az = [sum(map(mul, roots[i], col)) for col in zip(*z)]
                    su = tuple(
                        tuple(a - c * b for a, b in zip(row, az)) if c else row
                        for row, c in zip(z, coroots[i])
                    )
                    j, q = next((k, q) for k, q in enumerate(pairings(u, roots)) if q < 0)
                    table[u] = (su, (j + 1,) + table[reflect(u, j, q)][1])
                    nxt.append(u)
            level = nxt
        entries = sorted(table.items(), key=lambda e: (len(e[1][1]), e[1][1]))
        elements = []
        inversions = []
        for v, (z, word) in entries:
            mask = 0
            for k, p in enumerate(pairings(v, self.positive_roots)):
                if p < 0:
                    mask |= 1 << k
            elements.append(z)
            inversions.append(mask)
            self._word_cache.setdefault(z, word)
        self._weyl_elements = tuple(elements)
        self._weyl_inversions = tuple(inversions)

    # ---------------------------------------------------------------------

    def __repr__(self):
        return f"RootDatum({self.spec.datum_string()!r})"


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


_REGISTRY: dict[CartanSpec, RootDatum] = {}


def build_root_datum(spec: CartanSpec | str) -> RootDatum:
    """Build (or fetch the interned copy of) the datum for ``spec``.

    Interning makes datum comparison an identity check, which every
    element operation relies on.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    datum = _REGISTRY.get(spec)
    if datum is None:
        datum = RootDatum(spec)
        _REGISTRY[spec] = datum
    return datum
