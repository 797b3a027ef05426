"""Exact linear algebra over the integers.

All matrices here are small and dense (bounded by the rank of a root
system), so everything is tuples of tuples of Python ints. Ranks and
inverses are computed by fraction-free (Bareiss) elimination, lattice
quotients by the Smith normal form; nothing here solves a system
over Q. ``Fraction`` only enters through ``mat_vec`` and ``dot`` with
rational vectors (the datum's rational views and the test oracles; class
invariants are integer), and ``as_int_vector`` casts rationals with
denominator 1 back to ints. No floating point is used anywhere in the
package.

>>> smith_normal_form(((2, 4), (6, 8)))[1]
((2, 0), (0, 4))
>>> integer_inverse(((2, -1), (-1, 2)))
(3, ((2, 1), (1, 2)))
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Sequence

Vector = tuple
Matrix = tuple


def identity_matrix(n: int) -> Matrix:
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(n))


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Apply ``m`` to the column vector ``v``."""
    return tuple([sum(map(mul, row, v)) for row in m])


def vec_mat(v: Vector, m: Matrix) -> Vector:
    """Row vector times matrix; transports covectors along a lattice map."""
    return tuple([sum(map(mul, v, col)) for col in zip(*m)])


def reflect_left(m: Matrix, root: Vector, coroot: Vector) -> Matrix:
    """r m for the reflection r = 1 - coroot (x) root: the rank-one update m - coroot (root m).

    root m sums the rows of m over the nonzero entries of root, which
    are few for a simple root.
    """
    rm = None
    for a, row in zip(root, m):
        if a:
            scaled = row if a == 1 else [a * x for x in row]
            rm = scaled if rm is None else list(map(add, rm, scaled))
    if rm is None:
        return m
    return tuple(
        [tuple([a - c * b for a, b in zip(row, rm)]) if c else row for row, c in zip(m, coroot)]
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, arow, col)) for col in cols]) for arow in a])


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple([a + b for a, b in zip(u, v)])


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def dot(u: Vector, v: Vector):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def as_int_vector(v: Sequence) -> Vector:
    """Cast exact rationals with denominator 1 back to ints."""
    out = []
    for a in v:
        f = Fraction(a)
        if f.denominator != 1:
            raise ValueError(f"vector entry {a} is not an integer")
        out.append(int(f))
    return tuple(out)


def mat_rank(m: Matrix) -> int:
    """Rank of an integer matrix, by fraction-free (Bareiss) elimination.

    Each step replaces row i below the pivot row r by
    (p * row_i - a * row_r) / p_prev, with p the pivot, a the entry of
    row i in the pivot column and p_prev the previous pivot. Every entry
    stays a minor of ``m``, so the division is exact and no ``Fraction``
    is made. Entries must be ints.

    >>> mat_rank(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    2
    """
    rows = [list(row) for row in m]
    if any(type(a) is not int for row in rows for a in row):
        raise TypeError("mat_rank takes integer matrices")
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, nrows):
            a = rows[i][c]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def smith_normal_form(a: Matrix):
    """Return (u, d, v) with u @ a @ v = d, u and v unimodular over Z.

    ``d`` is diagonal with nonnegative entries and each diagonal entry
    divides the next. Standard pivoting algorithm, without reduction of
    the transforms. The package gives it only the generators of a
    datum's lattice quotients, as columns: the simple coroots, the
    nonzero columns of delta - 1 and, for ``scan --coset`` on gl, the
    central vector. On those, u and v stay small: entries at most 14 up
    to rank 8, which the tests bound at 64. General integer matrices are
    unsupported: their transform entries can grow to thousands of digits.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    m = [list(row) for row in a]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row_dst -= q*row_src
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in m:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(nr, nc):
        # locate a smallest nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            reduced = True
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    addmul_row(i, t, q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    addmul_col(j, t, q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % m[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, -1)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return mat_from_rows(u), mat_from_rows(m), mat_from_rows(v)


def integer_inverse(m: Matrix):
    """(d, adj) with d the least positive integer that makes d * m^(-1)
    integral, and adj = d * m^(-1).

    Fraction-free (Bareiss) Gauss-Jordan elimination on [m | 1]: each
    step replaces every row other than the pivot row r by
    (p * row_i - a * row_r) / p_prev, with p the pivot, a the entry of
    row i in the pivot column and p_prev the previous pivot. Every entry
    stays a minor, so the division is exact, and the elimination ends at
    [D 1 | D m^(-1)] with D = +-det m. Dividing |D| and the signed right
    block by their gcd gives the least d. A zero pivot column means m is
    singular and raises ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if not n:
        raise ValueError("matrix is singular")
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        p = top[c]
        for i in range(n):
            if i != c:
                a = rows[i][c]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    adj = [[sign * x for x in row[n:]] for row in rows]
    g = math.gcd(prev, *(x for row in adj for x in row))
    return abs(prev) // g, tuple(tuple(x // g for x in row) for row in adj)


class LatticeQuotient:
    """Z^n modulo the integer column span of a generator list.

    Built once per root datum via Smith normal form; afterwards class
    keys cost one matrix-vector product. Keys are additive modulo the
    elementary divisors, so quotient classes compare as keys.
    """

    def __init__(self, n: int, generators: Sequence[Vector]):
        self.n = n
        self.generators = tuple(tuple(g) for g in generators)
        if self.generators:
            a = tuple(tuple(g[i] for g in self.generators) for i in range(n))
            u, d, _v = smith_normal_form(a)
            self._u = u
            k = len(self.generators)
            self._diag = tuple(
                d[i][i] if i < min(n, k) else 0 for i in range(n)
            )
        else:
            self._u = identity_matrix(n)
            self._diag = (0,) * n

    def key(self, v: Vector) -> tuple:
        y = mat_vec(self._u, v)
        return tuple(
            (y[i] % d) if d else y[i] for i, d in enumerate(self._diag)
        )

    @property
    def is_finite(self) -> bool:
        return all(d != 0 for d in self._diag)

    @property
    def order(self):
        if not self.is_finite:
            return None
        out = 1
        for d in self._diag:
            out *= d
        return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
