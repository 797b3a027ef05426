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

Construction runs in integers. The Cartan matrix and the positive
roots' coefficient vectors come from the integer ambient realization;
every root and coroot is an integer vector mapped from them;
the dual bases come from the integer inverse of the Cartan matrix by
fraction-free elimination (:func:`adlvkit.linalg.integer_inverse`), and
on gl from that of the pairing matrix too. The Smith normal form runs
only for the lattice quotients: the Kottwitz quotient, and
``omega_quotient`` on first read. No system is solved over Q.
``Fraction`` appears only in the rational views ``rho``, ``two_rho``,
``fundamental_weights`` and ``fundamental_coweights``; class invariants
read Newton points with the integer numerators ``weight_numerators``
instead. These views, the matrices ``weyl_generators`` and the quotient
``omega_quotient`` are computed on first read
(``functools.cached_property``), so building a datum constructs no
``Fraction``.

The lattice data are fixed at construction. The per-datum caches are
not: construction leaves every one of them empty, any call may fill them
lazily, and there is no guarantee for concurrent use of one datum from
several threads. They are plain dicts named ``*_cache``:

``_finite_index_cache``, ``_finite_matrix_cache``, ``_inversion_cache``
    finite Weyl elements interned as indices 0, 1, 2, ... in the order
    calls first meet them (the identity is always 0), with each index's
    lattice matrix and inversion bitmask. Only elements some call has
    used are interned, so E7 and E8 data never tabulate their group.
``_left_cache``, ``_right_cache``
    per index, a row of rank+1 slots for the products r_i z and z r_i
    with the finite part r_i of each affine simple reflection
    (r_0 = s_theta); a slot is None until first asked for.
``_root_permutation_cache``
    per affine index i, the signed permutation of the positive roots by
    r_i, built the first time a left product r_i z is new.
``_root_image_cache``
    per (index, affine index j), the root z(alpha_j) and its sign, for
    right descents and twist permutations (:meth:`RootDatum.root_image`).

``_word_cache``, ``_reflection_length_cache``
    per index, its least reduced word and the twisted reflection length
    of z o delta.
``_length_cache``, ``_shift_class_cache``, ``_class_cache``,
``_mincox_cache``, ``_defect_cache``, ``_class_set_cache``
    per-element and per-class results of the layers above.
``_extrema_cache``, ``_interval_cache``
    per set of two or more classes, its extrema (None when it has no
    unique minimum or maximum), and per pair of distinct classes, the
    classes between them: the class poset's readings of reduction trees.
``_element_cache``, ``_class_value_cache``
    one element per (translation, finite index) and one class invariant
    per (dom, period, kottwitz), so equality is identity; a live object
    must stay the one of its value, so these go only with the datum.
``_move_cache``, ``_summary_cache``, ``_edge_cache``,
``_summary_value_cache``
    the reduction tree memos of :mod:`adlvkit.reduction_tree`: per
    (element, index order), the element's expansion (its two edges, or
    None at an endpoint) and its path summary; per move (element, index,
    shifts), its pair of edges, which every order that picks the move
    shares; and one interned object per distinct path summary.

Each of these grows at most linearly in the elements, classes or
bounds that calls have met; none holds pairwise products. Entries are
never removed. ``weyl_words()`` and ``weyl_elements()`` fill their own
tables, not these, and intern nothing; nothing else in the package
calls them.

A new element's inversion mask (bit k set when <z(probe), beta_k> < 0,
for the regular dominant probe) is derived from a neighbour's where the
tables allow: a left product r_i z takes z's mask through the signed
permutation of the positive roots by r_i, from
``_root_permutation_cache``; a right product z r_i, i >= 1, flips the
one bit of the positive root whose coroot is +-z(alpha_i^). Only z r_0
and matrices that come from outside the tables (``finite_index``) pair
z(probe) with every positive root, column by column
(:meth:`RootDatum.root_pairings`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import add, itemgetter, lt, mul
from typing import NamedTuple

from . import cartan
from .errors import UnsupportedDatumError, UsageError
from .linalg import (
    LatticeQuotient,
    dot,
    identity_matrix,
    integer_inverse,
    mat_vec,
    reflect_left,
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


class _CartanFields(NamedTuple):
    family: str
    rank: int
    lattice_preset: str
    twist_order: int = 1


class CartanSpec(_CartanFields):
    """What to build: family, rank, lattice preset, twist order.

    Validated on construction, also through ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, family, rank, lattice_preset, twist_order=1):
        if family not in cartan.FAMILIES:
            raise UnsupportedDatumError(f"unknown family {family!r}")
        cartan.validate_family_rank(family, rank)
        if lattice_preset not in ("adjoint", "simply_connected", "gl"):
            raise UnsupportedDatumError(f"unknown lattice_preset {lattice_preset!r}")
        if lattice_preset == "gl" and family != "A":
            raise UnsupportedDatumError("the gl preset requires family A")
        if twist_order not in (1, 2, 3):
            raise UnsupportedDatumError("twist_order must be 1, 2 or 3")
        if twist_order not in cartan.automorphism_orders(family, rank):
            raise UnsupportedDatumError(
                f"twist_order {twist_order} is not admissible for {family}{rank}"
            )
        return super().__new__(cls, family, rank, lattice_preset, twist_order)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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
        """Build the lattice data of ``spec`` in integers (see the module docstring).

        Raises AssertionError if a construction tripwire fails: a coroot
        outside the lattice, a positivity probe that pairs nonpositively
        with a positive root, or a twist that moves the highest coroot.
        """
        self.spec = spec
        self.rank = spec.rank
        family = spec.family

        simple_amb = cartan.simple_roots_ambient(family, spec.rank)
        norms = [dot(a, a) for a in simple_amb]
        # cartan_matrix[i][j] = <alpha_i^, alpha_j>
        self.cartan_matrix = tuple(
            tuple(2 * dot(a, b) // norm for b in simple_amb)
            for a, norm in zip(simple_amb, norms)
        )
        coefficients = cartan.positive_roots(simple_amb)
        cartan.highest_root(self.cartan_matrix, coefficients)  # theta is the last one
        roots, coroots = self._simple_lattice_coordinates(simple_amb)
        self.n = len(roots[0])
        self.simple_roots = roots
        self.simple_coroots = coroots

        # The change of basis from simple root coefficients: a positive
        # root with coefficients c is the covector c . roots. With the
        # squared lengths scaled to integers l_k, u = sum c_k l_k coroot_k
        # is a positive multiple of its coroot and <u, beta> = 2 l_beta, so
        # the coroot is 2u / <u, beta>. Integers throughout. root_coroot
        # holds every root with its coroot, for reflections by any root.
        shortest = min(norms)
        # the transposes of the simple roots and of the scaled coroots l_k
        # coroot_k, so that each change of basis is one mat_vec
        root_rows = tuple(zip(*roots))
        coroot_rows = tuple(
            zip(*[[norm // shortest * x for x in v] for norm, v in zip(norms, coroots)])
        )
        self.root_coroot = {}
        # each coroot and its negative -> the bit of its positive root in
        # the inversion masks
        self._coroot_bit = {}
        positive = []
        for c in coefficients:
            beta = mat_vec(root_rows, c)
            u = mat_vec(coroot_rows, c)
            q = dot(u, beta)
            if any(2 * x % q for x in u):
                raise AssertionError("coroot outside the lattice")
            coroot = tuple([2 * x // q for x in u])
            negative = tuple([-x for x in coroot])
            self.root_coroot[beta] = coroot
            self.root_coroot[tuple([-x for x in beta])] = negative
            self._coroot_bit[coroot] = self._coroot_bit[negative] = 1 << len(positive)
            positive.append(beta)
        self.positive_roots = tuple(positive)
        # coordinate j of every positive root, for root_pairings
        self._root_columns = tuple(zip(*positive))
        # bit k of the inversion masks stands for the k-th positive root
        self.root_bits = tuple(1 << k for k in range(len(positive)))
        # the coefficients of each positive root over the simple roots
        self.root_coefficients = tuple(coefficients)
        self.theta = self.positive_roots[-1]
        self.theta_coroot = self.root_coroot[self.theta]

        self.delta_diagram = cartan.diagram_automorphism(family, spec.rank, spec.twist_order)
        self.delta = self._delta_matrix()
        # a signed permutation matrix: its inverse is its transpose
        self.delta_inv = tuple(zip(*self.delta))

        # gl preset: the lattice has a central line spanned by (1,...,1)
        self.central_rank = self.n - self.rank
        self.central_vector = (1,) * self.n if self.central_rank else None
        # the covectors that vanish on every coroot: the central covector
        # on gl, none on adj and sc; with the fundamental weights below,
        # the class poset reads Newton points in these coordinates
        self.central_covectors = (self.central_vector,) if self.central_rank else ()

        # the covectors dual to the simple coroots: column j of A^(-1) for
        # the Cartan matrix A holds the root coefficients of omega_j; class
        # invariants pair with the integer numerators d omega_j
        self._weight_denominator, cartan_adj = integer_inverse(self.cartan_matrix)
        self.weight_numerators = tuple(vec_mat(col, roots) for col in zip(*cartan_adj))

        # (d, columns): the inverse of the pairing matrix P, whose rows are
        # the simple roots and, on gl, (1,...,1). The lattice vector with
        # simple-root pairings p_k (and, on gl, coordinate sum s) is
        # (sum p_k columns[k] + s columns[rank]) / d. The first rank
        # columns over d pair to delta_kj with the simple roots and to 0
        # with (1,...,1): they are the fundamental coweights in the coroot
        # span. P is the identity on sc and A^T on adj, whose inverse has
        # the rows of A^(-1) as its columns; only gl inverts P itself.
        if spec.lattice_preset == "gl":
            denom, adj = integer_inverse(roots + (self.central_vector,))
            columns = tuple(zip(*adj))
        elif spec.lattice_preset == "adjoint":
            denom, columns = self._weight_denominator, cartan_adj
        else:
            denom, columns = 1, roots
        self.pairing_inverse = (denom, columns)

        # integer vector with strictly positive pairing against every
        # positive root (the sum of the fundamental coweights in the
        # coroot span, times the least integer that clears its
        # denominator); root sign tests reduce to one dot product
        total = tuple(map(sum, zip(*columns[: self.rank])))
        g = math.gcd(denom, *total)
        self._probe = tuple(c // g for c in total)
        if min(self.root_pairings(self._probe)) <= 0:
            raise AssertionError("positivity probe failed")

        gens = [list(c) for c in self.simple_coroots]
        delta_minus_1 = [
            tuple(self.delta[i][j] - (1 if i == j else 0) for i in range(self.n))
            for j in range(self.n)
        ]
        # zero columns (all of them when untwisted) span nothing and never
        # become Smith pivots, so leaving them out keeps the quotient's keys
        self.kottwitz_quotient = LatticeQuotient(
            self.n, gens + [col for col in delta_minus_1 if any(col)]
        )

        # affine index i -> (root, coroot) of the reflection r_i behind
        # s_i, with r_0 = s_theta; the twist fixes theta^, so sigma(s_0) = s_0
        # and sigma(s_i) = s_(delta_diagram[i])
        self._reflection_roots = ((self.theta, self.theta_coroot),) + tuple(
            zip(self.simple_roots, self.simple_coroots)
        )
        if mat_vec(self.delta, self.theta_coroot) != self.theta_coroot:
            raise AssertionError("the twist moves the highest coroot")
        # the simple affine roots (1, theta), (0, -alpha_i) and their indices
        self.affine_simple = ((1, self.theta),) + tuple(
            (0, tuple(-a for a in alpha)) for alpha in self.simple_roots
        )
        self.affine_simple_index = {a: i for i, a in enumerate(self.affine_simple)}
        # bit of the simple root alpha_i in the inversion masks, i = 1..rank
        self._simple_bits = tuple(
            1 << self.positive_roots.index(alpha) for alpha in self.simple_roots
        )

        # caches filled lazily by any call (see the module docstring)
        self._finite_index_cache = {}
        self._finite_matrix_cache = {}
        self._inversion_cache = {}
        self._root_permutation_cache = {}
        self._root_image_cache = {}
        self._left_cache = {}
        self._right_cache = {}
        self._word_cache = {}
        self._reflection_length_cache = {}
        self._element_cache = {}
        self._class_value_cache = {}
        self._weyl_words = None
        self._weyl_elements = None
        self._length_cache = {}
        self._shift_class_cache = {}
        self._class_cache = {}
        self._move_cache = {}
        self._summary_cache = {}
        self._edge_cache = {}
        self._summary_value_cache = {}
        self._mincox_cache = {}
        self._defect_cache = {}
        self._class_set_cache = {}
        self._extrema_cache = {}
        self._interval_cache = {}

    # -- views computed on first read -------------------------------------

    @cached_property
    def rho(self):
        """Half the sum of the positive roots, as a ``Fraction`` covector."""
        return tuple(Fraction(sum(col), 2) for col in zip(*self.positive_roots))

    @cached_property
    def two_rho(self):
        return tuple(2 * c for c in self.rho)

    @cached_property
    def weyl_generators(self):
        """The lattice matrices of the finite simple reflections s_1, ..., s_rank."""
        return tuple(
            self._reflection_matrix(alpha, coroot)
            for alpha, coroot in zip(self.simple_roots, self.simple_coroots)
        )

    @cached_property
    def fundamental_coweights(self):
        """In ``Fraction``s: e_1 + ... + e_k on gl, else those in the coroot span."""
        if self.spec.lattice_preset == "gl":
            return tuple(
                tuple(Fraction(1 if i < k else 0) for i in range(self.n))
                for k in range(1, self.n + 1)
            )
        denom, columns = self.pairing_inverse
        return tuple(tuple(Fraction(c, denom) for c in v) for v in columns[: self.rank])

    @cached_property
    def fundamental_weights(self):
        """The covectors dual to the simple coroots, in ``Fraction``s."""
        return tuple(
            tuple(Fraction(c, self._weight_denominator) for c in num)
            for num in self.weight_numerators
        )

    @cached_property
    def omega_quotient(self):
        """X modulo the coroot lattice."""
        return LatticeQuotient(self.n, [list(c) for c in self.simple_coroots])

    # -- construction helpers -------------------------------------------

    def _simple_lattice_coordinates(self, simple_amb):
        """Simple roots (covectors) and simple coroots in lattice coordinates.

        With A the Cartan matrix: on gl both are the ambient e_i - e_(i+1).
        On the adjoint lattice the basis is the simple coroots, so root k
        pairs with basis vector j as A[j][k]. On the simply connected
        lattice the basis is the fundamental coweights, so root k is the
        k-th unit covector and coroot k has coordinates
        <alpha_k^, alpha_j> = A[k][j].
        """
        preset = self.spec.lattice_preset
        if preset == "gl":
            roots = tuple(simple_amb)
            return roots, roots
        unit = identity_matrix(self.rank)
        if preset == "adjoint":
            return tuple(zip(*self.cartan_matrix)), unit
        return unit, self.cartan_matrix

    def _reflection_matrix(self, root_cov, coroot_vec):
        n = self.n
        return tuple(
            tuple((1 if i == j else 0) - coroot_vec[i] * root_cov[j] for j in range(n))
            for i in range(n)
        )

    def _delta_matrix(self):
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

    # -- basic operations ------------------------------------------------

    def pair(self, v, a):
        """Canonical pairing of a lattice vector with a covector."""
        return dot(v, a)

    def root_pairings(self, v):
        """The list of <v, beta_k> over the positive roots beta_k.

        Summed column by column over the nonzero coordinates of v, so a
        sparse vector, such as most translations, costs little.
        """
        out = None
        for c, column in zip(v, self._root_columns):
            if c:
                scaled = map(mul, column, repeat(c))
                out = list(scaled) if out is None else list(map(add, out, scaled))
        return [0] * len(self.positive_roots) if out is None else out

    def is_dominant(self, v) -> bool:
        return all(dot(v, alpha) >= 0 for alpha in self.simple_roots)

    def dominant(self, v):
        """The dominant Weyl-orbit representative of v, by greedy descent.

        Applies s_i v = v - <v, alpha_i> alpha_i^ while some pairing is
        negative; integer vectors stay integer.
        """
        cur = tuple(v)
        while True:
            for alpha, coroot in zip(self.simple_roots, self.simple_coroots):
                p = dot(cur, alpha)
                if p < 0:
                    cur = tuple(a - p * c for a, c in zip(cur, coroot))
                    break
            else:
                return cur

    # -- finite Weyl elements as interned indices ---------------------------

    def finite_index(self, z) -> int:
        """The index of the finite Weyl element with lattice matrix z.

        Interns z on first sight, with its inversion bitmask: bit k is set
        when z^(-1) sends the k-th positive root to a negative root, that
        is when <z(probe), beta_k> < 0. The identity is interned first, so
        its index is always 0.
        """
        index = self._finite_index_cache.get(z)
        if index is not None:
            return index
        if not self._finite_index_cache and z != identity_matrix(self.n):
            self.finite_index(identity_matrix(self.n))
        pairings = self.root_pairings(mat_vec(z, self._probe))
        return self._intern(z, sum(compress(self.root_bits, map(lt, pairings, repeat(0)))))

    def _intern(self, z, mask) -> int:
        """Give the new matrix z the next index, with its inversion bitmask."""
        index = len(self._finite_index_cache)
        self._finite_index_cache[z] = index
        self._finite_matrix_cache[index] = z
        self._inversion_cache[index] = mask
        self._left_cache[index] = [None] * (self.rank + 1)
        self._right_cache[index] = [None] * (self.rank + 1)
        return index

    def _root_permutation(self, i):
        """(permute, flips) of the reflection r_i acting on the positive roots.

        beta_k - <alpha^, beta_k> alpha = +-beta_(pi(k)) for the root pair
        of affine index i; flips has bit k set when the sign is minus.
        ``permute`` maps the binary string of a mask, most significant bit
        first, to the string whose bit k is bit pi(k) of the mask.
        """
        table = self._root_permutation_cache.get(i)
        if table is None:
            alpha, coroot = self._reflection_roots[i]
            roots = self.positive_roots
            position = {beta: k for k, beta in enumerate(roots)}
            last = len(roots) - 1
            image = list(range(last + 1))
            flips = 0
            for k, p in enumerate(self.root_pairings(coroot)):
                if p:  # r_i fixes the roots orthogonal to alpha^
                    gamma = tuple([b - p * a for a, b in zip(alpha, roots[k])])
                    j = position.get(gamma)
                    if j is None:
                        j = position[tuple([-x for x in gamma])]
                        flips |= 1 << k
                    image[k] = j
            # string position t holds bit last - t
            permute = itemgetter(*[last - image[last - t] for t in range(last + 1)])
            table = self._root_permutation_cache[i] = (permute, flips)
        return table

    def finite_left(self, w: int, i: int) -> int:
        """The index of r_i z for z = w and r_i the finite part of s_i.

        r_i = 1 - alpha^ (x) alpha for the root pair of affine index i, so
        the product is the rank-one update r_i z = z - alpha^ (alpha z).
        A new product's mask is z's mask under the signed permutation of
        the roots by r_i: <r_i z(probe), beta> = <z(probe), r_i beta>.
        """
        u = self._left_cache[w][i]
        if u is None:
            alpha, coroot = self._reflection_roots[i]
            z = reflect_left(self._finite_matrix_cache[w], alpha, coroot)
            u = self._finite_index_cache.get(z)
            if u is None:
                permute, flips = self._root_permutation(i)
                bits = format(self._inversion_cache[w], f"0{len(self.positive_roots)}b")
                u = self._intern(z, int("".join(permute(bits)), 2) ^ flips)
            self._left_cache[w][i] = u
            self._left_cache[u][i] = w
        return u

    def finite_right(self, w: int, i: int) -> int:
        """The index of z r_i, by the rank-one update z - (z alpha^) alpha.

        For a simple reflection (i >= 1) the inversion set changes by the
        one root z(alpha_i), whose coroot is +-z(alpha_i^).
        """
        u = self._right_cache[w][i]
        if u is None:
            alpha, coroot = self._reflection_roots[i]
            z = self._finite_matrix_cache[w]
            zc = mat_vec(z, coroot)
            product = tuple(
                [tuple([a - c * b for a, b in zip(row, alpha)]) if c else row for row, c in zip(z, zc)]
            )
            if not i:
                u = self.finite_index(product)
            else:
                u = self._finite_index_cache.get(product)
                if u is None:
                    u = self._intern(product, self._inversion_cache[w] ^ self._coroot_bit[zc])
            self._right_cache[w][i] = u
            self._right_cache[u][i] = w
        return u

    def root_image(self, w: int, j: int):
        """(beta, positive) for the root beta = z(alpha_j) of z = w, alpha_0 = theta."""
        image = self._root_image_cache.get((w, j))
        if image is None:
            coroot = mat_vec(self._finite_matrix_cache[w], self._reflection_roots[j][1])
            beta = self.positive_roots[self._coroot_bit[coroot].bit_length() - 1]
            positive = self.root_coroot[beta] == coroot
            image = (beta if positive else tuple([-c for c in beta]), positive)
            self._root_image_cache[w, j] = image
        return image

    def finite_word(self, w: int) -> tuple:
        """Lexicographically least reduced word of w, as generator indices.

        Strips the smallest left descent repeatedly; the left descents of
        z are the i whose simple root is in its inversion set. Every
        suffix met on the way is memoized too.
        """
        cache = self._word_cache
        path = []
        cur = w
        while cur and cur not in cache:
            mask = self._inversion_cache[cur]
            i = next((i for i, bit in enumerate(self._simple_bits, 1) if mask & bit), None)
            if i is None:
                raise AssertionError("descent-free non-identity matrix")
            path.append((cur, i))
            cur = self.finite_left(cur, i)
        word = cache.get(cur, ())
        for node, i in reversed(path):
            word = (i,) + word
            cache[node] = word
        return word

    def finite_inverse(self, w: int) -> int:
        """The index of z^(-1): the reversed word walked through the right table."""
        inv = 0
        for i in reversed(self.finite_word(w)):
            inv = self.finite_right(inv, i)
        return inv

    def finite_sigma(self, w: int) -> int:
        """The index of delta z delta^(-1).

        The twist sends the generator s_i to s_(delta_diagram[i]), so the
        image is the word of z with its letters permuted, walked through
        the right table.
        """
        img = 0
        for i in self.finite_word(w):
            img = self.finite_right(img, self.delta_diagram[i])
        return img

    def weyl_word(self, z):
        """Least reduced word of the finite Weyl element with matrix z."""
        return self.finite_word(self.finite_index(z))

    def weyl_inverse(self, z):
        """The matrix of z^(-1)."""
        return self._finite_matrix_cache[self.finite_inverse(self.finite_index(z))]

    def weyl_words(self):
        """Least reduced words of all finite Weyl elements, sorted by (length, word)."""
        if self._weyl_words is None:
            self._build_weyl_table()
        return self._weyl_words

    def weyl_elements(self):
        """The lattice matrices aligned with :meth:`weyl_words`.

        Built on first request and interned nowhere. The table's words
        are closed under dropping the first letter, so each matrix is a
        rank-one update of a shorter one: s_j z = z - alpha_j^ (alpha_j z).
        """
        if self._weyl_elements is None:
            roots, coroots = self.simple_roots, self.simple_coroots
            matrices = {(): identity_matrix(self.n)}
            for word in self.weyl_words()[1:]:
                j = word[0] - 1
                matrices[word] = reflect_left(matrices[word[1:]], roots[j], coroots[j])
            self._weyl_elements = tuple(matrices.values())
        return self._weyl_elements

    def _build_weyl_table(self):
        """Breadth-first search over the Weyl orbit of rho^.

        z is tracked by the pairings v_k = <z(rho^), alpha_k>, which
        determine it because rho^ is regular. The left descents of z are
        the k with v_k < 0, so its least reduced word is (j,) + word(s_j z)
        for the smallest such j. A step s_i changes v by -v_i times row i
        of the Cartan matrix. No matrix is built.
        """
        cartan_rows = self.cartan_matrix

        def reflect(v, i):
            p = v[i]
            return tuple(a - p * b for a, b in zip(v, cartan_rows[i]))

        start = (1,) * self.rank
        # v -> least reduced word
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
        self._weyl_words = tuple(sorted(table.values(), key=lambda word: (len(word), word)))

    # ---------------------------------------------------------------------

    def __repr__(self):
        return f"RootDatum({self.spec.datum_string()!r})"


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
