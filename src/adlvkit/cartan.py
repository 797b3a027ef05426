"""Finite root systems in fixed Euclidean realizations.

Simple roots follow the Bourbaki numbering for every family, realized as
integer vectors in an ambient space with the standard inner product:
the Bourbaki vectors, doubled for E and F4, whose roots have half-integer
coordinates. One positive factor on every simple root changes no Cartan
integer and no order of ambient coordinates. The coroot of a root a is
2a/(a,a) under the same identification. These realizations are what make
element syntax and test values reproducible bit for bit.
"""

from __future__ import annotations

from operator import mul

from .errors import UnsupportedDatumError
from .linalg import vec_sub

FAMILIES = frozenset("ABCDEFG")


def validate_family_rank(family: str, rank: int) -> None:
    ok = (
        (family == "A" and rank >= 1)
        or (family == "B" and rank >= 2)
        or (family == "C" and rank >= 2)
        or (family == "D" and rank >= 4)
        or (family == "E" and rank in (6, 7, 8))
        or (family == "F" and rank == 4)
        or (family == "G" and rank == 2)
    )
    if not ok:
        raise UnsupportedDatumError(
            f"unsupported (family, rank) combination: ({family}, {rank})"
        )


def ambient_dim(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family in "BCD":
        return rank
    if family == "E":
        return 8
    if family == "F":
        return 4
    if family == "G":
        return 3


def _e(n, i, c=1):
    v = [0] * n
    v[i] = c
    return tuple(v)


def simple_roots_ambient(family: str, rank: int):
    """Simple roots alpha_1..alpha_rank as integer ambient vectors (Bourbaki, E and F4 doubled)."""
    validate_family_rank(family, rank)
    n = ambient_dim(family, rank)
    if family == "A":
        return [vec_sub(_e(n, i), _e(n, i + 1)) for i in range(rank)]
    if family == "B":
        roots = [vec_sub(_e(n, i), _e(n, i + 1)) for i in range(rank - 1)]
        roots.append(_e(n, rank - 1))
        return roots
    if family == "C":
        roots = [vec_sub(_e(n, i), _e(n, i + 1)) for i in range(rank - 1)]
        roots.append(_e(n, rank - 1, 2))
        return roots
    if family == "D":
        roots = [vec_sub(_e(n, i), _e(n, i + 1)) for i in range(rank - 1)]
        roots.append(tuple(a + b for a, b in zip(_e(n, rank - 2), _e(n, rank - 1))))
        return roots
    if family == "G":
        return [vec_sub(_e(n, 0), _e(n, 1)), (-2, 1, 1)]
    if family == "F":
        return [
            vec_sub(_e(n, 1, 2), _e(n, 2, 2)),
            vec_sub(_e(n, 2, 2), _e(n, 3, 2)),
            _e(n, 3, 2),
            (1, -1, -1, -1),
        ]
    if family == "E":
        a1 = (1, -1, -1, -1, -1, -1, -1, 1)
        a2 = tuple(a + b for a, b in zip(_e(8, 0, 2), _e(8, 1, 2)))
        rest = [vec_sub(_e(8, i, 2), _e(8, i - 1, 2)) for i in range(1, 7)]
        roots = [a1, a2] + rest
        return roots[:rank]


def positive_roots(simple):
    """Coefficient vectors of the positive roots over the integer ``simple``,
    sorted by (height, ambient coordinates).

    The closure runs upward on the integer coefficient vectors c over
    the simple roots: s_i raises c_i by -<beta, alpha_i^> = -sum_j c_j
    <alpha_j, alpha_i^> when that pairing is negative. Every positive
    root is reached so from a simple root, since a non-simple positive
    root beta pairs positively with some alpha_i^ and s_i beta is a
    positive root of smaller height.
    """
    r = len(simple)
    # column i: the pairings <alpha_j, alpha_i^> over j
    cartan_columns = [
        tuple([2 * sum(map(mul, a, b)) // norm for a in simple])
        for b, norm in zip(simple, [sum(map(mul, b, b)) for b in simple])
    ]
    start = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    seen = set(start)
    frontier = start
    while frontier:
        new = []
        for c in frontier:
            for i, column in enumerate(cartan_columns):
                p = sum(map(mul, c, column))
                if p < 0:
                    img = c[:i] + (c[i] - p,) + c[i + 1:]
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
        frontier = new
    ambient_columns = tuple(zip(*simple))
    return sorted(
        seen,
        key=lambda c: (sum(c), tuple([sum(map(mul, c, col)) for col in ambient_columns])),
    )


def highest_root(cartan_matrix, positive):
    """The last of ``positive``, the output of ``positive_roots``.

    ``cartan_matrix[i][j]`` is <alpha_i^, alpha_j>. The highest root is
    the unique dominant root of maximal height, so it must pair
    nonnegatively with every simple coroot.
    """
    theta = positive[-1]
    for row in cartan_matrix:
        if sum(map(mul, row, theta)) < 0:
            raise AssertionError("highest root is not dominant")
    return theta


# Diagram automorphisms, as permutations of {1..rank}, one canonical
# representative per order. A5 with order 2 flips the diagram; D4 with
# order 3 is the triality rotation.
def automorphism_orders(family: str, rank: int):
    if family == "A" and rank >= 2:
        return (1, 2)
    if family == "D" and rank == 4:
        return (1, 2, 3)
    if family == "D" and rank > 4:
        return (1, 2)
    if family == "E" and rank == 6:
        return (1, 2)
    return (1,)


def diagram_automorphism(family: str, rank: int, order: int):
    """The canonical diagram automorphism of the given order, as a dict."""
    if order == 1:
        return {i: i for i in range(1, rank + 1)}
    if order not in automorphism_orders(family, rank):
        raise UnsupportedDatumError(
            f"twist_order {order} is not admissible for {family}{rank}"
        )
    if family == "A":
        return {i: rank + 1 - i for i in range(1, rank + 1)}
    if family == "D" and order == 2:
        perm = {i: i for i in range(1, rank + 1)}
        perm[rank - 1], perm[rank] = rank, rank - 1
        return perm
    if family == "D" and order == 3:
        return {1: 3, 3: 4, 4: 1, 2: 2}
    if family == "E":
        return {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    raise UnsupportedDatumError(
        f"twist_order {order} is not admissible for {family}{rank}"
    )
