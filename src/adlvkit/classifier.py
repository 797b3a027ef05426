"""Coxeter-type detection and the closed-form path and dimension formulas.

An element of minimal length has *minimal Coxeter type* when some
length-preserving conjugate factors as c_K x with

* K a spherical set of affine simple indices (finite parabolic),
* x straight, minimal in its double coset, and stabilizing K through
  the twist (x sigma(K) = K),
* c_K in W_K using exactly one generator from each orbit of the index
  permutation i -> j, x sigma(a_i) = a_j.

*Geometric Coxeter type* asks that every class of tree endpoints is hit
by exactly one reduction path (strong multiplicity one) and that every
endpoint has minimal Coxeter type. For such elements the number of type
I and type II edges on any path, and the dimension attached to each
class, are given by closed formulas which this module evaluates and the
test suite replays against brute-force tree enumeration.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

from .affine_weyl import (
    AffineElement,
    format_element,
    identity,
    length,
    multiply,
    right_by_simple,
    sigma_on_affine_index,
    strip_left_descents,
)
from .bg_poset import chain_length, defect, extrema, interval, sort_classes
from .conjugacy import (
    DEFAULT_BFS_CAP,
    ClassInvariant,
    ShiftClass,
    class_invariant,
    classical_reflection_length,
    is_min_len,
    is_straight,
    permutation_orbits,
    replay_moves,
    twist_orbits,
)
from .errors import (
    InternalInvariantError,
    NotComparableError,
    NotMinLenError,
    NoUniqueExtremumError,
    UsageError,
)
from .linalg import dot
from .reduction_tree import (
    enumerate_paths,
    path_summary,
    seed_trees,
    summary_classes,
)

DEFAULT_SEEDS = tuple(range(10))


# -- spherical parabolic subsets ---------------------------------------------


def spherical_subsets(datum):
    """All spherical subsets of affine indices, by size then lexicographic.

    Every supported affine Dynkin diagram is connected, so a set of
    affine indices generates a finite parabolic subgroup exactly when it
    is a proper subset.
    """
    indices = range(datum.rank + 1)
    return [
        subset
        for size in range(datum.rank + 1)
        for subset in itertools.combinations(indices, size)
    ]


# -- parabolic decomposition --------------------------------------------------


def coset_decompose(w: AffineElement, K):
    """Split w = u . x with x minimal in its double coset, or None.

    x is the unique minimal-length element of W_K w (greedy descents
    inside K, :func:`strip_left_descents`), u = w x^(-1) is the product
    of the stripped generators.
    Returns None when x does not stabilize K through the twist (which
    implies that x is minimal on the right against sigma(K) as well).
    K may be any iterable of indices; it is validated here, and a set
    that is not a proper subset of the affine indices raises UsageError.
    """
    K = tuple(sorted(K))
    if len(set(K)) != len(K) or not set(K) < set(range(w.datum.rank + 1)):
        raise UsageError(f"index set {K} is not spherical")
    dec = _coset_split(w, K)
    return None if dec is None else dec[:3]


def _coset_split(w: AffineElement, K, u_length=None):
    """:func:`coset_decompose` and the twist permutation of x on K; ``letters`` spell u reduced.

    K is trusted: a sorted tuple of distinct affine indices forming a
    proper subset, as :func:`spherical_subsets` yields and
    :func:`coset_decompose` checks. With ``u_length`` given, a split
    whose u has another length is None at once, before u is built and
    the recomposition is checked.
    """
    x, letters = strip_left_descents(w, K)
    if u_length is not None and len(letters) != u_length:
        return None
    u = reduce(right_by_simple, letters, identity(w.datum))
    if multiply(u, x) != w:
        raise InternalInvariantError("coset decomposition does not recompose")
    # x(a_j) < 0 exactly when x s_j is shorter, and twist stability sends
    # every a_j, j in sigma(K), to a simple affine root: it implies right-minimality
    perm = twist_permutation(x, K)
    if perm is None:
        return None
    return u, x, letters, perm


def twist_permutation(x: AffineElement, K):
    """The permutation i -> j on K with x sigma(a_i) = a_j, or None.

    Index transport convention: sigma acts first on the affine simple
    root, then x moves it; membership of every image in K is exactly the
    stability x sigma(K) = K. With beta = z(alpha_j), x = t^lambda z sends
    a_0 to (1 + <lambda, beta>, beta) and a_j, j >= 1, to (-<lambda, beta>, -beta).
    """
    datum = x.datum
    perm = {}
    for i in K:
        j = sigma_on_affine_index(datum, i)
        beta, _positive = datum.root_image(x.finite_index, j)
        p = dot(x.translation, beta)
        image = (-p, tuple([-c for c in beta])) if j else (1 + p, beta)
        j = datum.affine_simple_index.get(image)
        if j not in K:
            return None
        perm[i] = j
    return perm if sorted(perm.values()) == sorted(K) else None


def reduced_word_in_parabolic(u: AffineElement, K):
    """Least reduced word of u, asserting all letters lie in K."""
    cur, word = strip_left_descents(u, range(u.datum.rank + 1))
    if length(cur) > 0:
        raise InternalInvariantError("positive length with no descent")
    if not cur.is_identity():
        raise UsageError("element is not in the parabolic subgroup")
    if any(i not in K for i in word):
        raise UsageError(f"element has support {sorted(set(word))} outside {K}")
    return word


def _one_letter_per_orbit(word, perm) -> bool:
    """The reduced ``word``, with letters in K, has one generator per orbit of ``perm``.

    Its length and support, which no choice of reduced word changes, are
    the number of orbits and a set meeting each orbit once.
    """
    orbits = permutation_orbits(perm)
    support = set(word)
    return len(word) == len(orbits) and all(len(support & orbit) == 1 for orbit in orbits)


def is_twisted_coxeter(u: AffineElement, K, x: AffineElement) -> bool:
    """One generator from each orbit of the transported twist on K."""
    perm = twist_permutation(x, K)
    return perm is not None and _one_letter_per_orbit(reduced_word_in_parabolic(u, K), perm)


# -- minimal Coxeter type ------------------------------------------------------


class MinCoxWitness(NamedTuple):
    K: tuple
    x: AffineElement
    c: AffineElement
    shift_sequence: tuple

    def as_dict(self):
        return {
            "K": list(self.K),
            "x": format_element(self.x),
            "c": format_element(self.c),
            "shift_sequence": list(self.shift_sequence),
        }


def is_minimal_coxeter_type(w: AffineElement, cap: int = DEFAULT_BFS_CAP):
    """Search for a minimal Coxeter type witness; None when exhausted.

    Search order is fixed for reproducibility: spherical K by size then
    lexicographically, then conjugates in breadth-first order. Raises
    NotMinLenError when w is not of minimal length, and CapExceededError
    when its shift class has more than ``cap`` members, also when the
    result is memoized.
    """
    datum = w.datum
    graph = ShiftClass.of(w, cap)
    if w in datum._mincox_cache:
        return datum._mincox_cache[w]
    if graph.drops:
        raise NotMinLenError(f"{format_element(w)} is not of minimal length")
    members = list(graph.bfs(w, range(datum.rank + 1)))
    # Exact prune. A witness w' = u x is a shift-class member of w, so
    # len(w') = len(w); the descents are stripped greedily, so len(w') =
    # len(u) + len(x); x is straight, so len(x) = <nu_x, 2 rho>; x sigma
    # normalizes the finite group W_K, so (u x sigma)^m lies in W_K
    # (x sigma)^m and nu_x = nu_w; and a twisted Coxeter u has len(u) =
    # #orbits <= |K|. Hence |K| >= len(w) - <nu_w, 2 rho>. The search
    # order is by |K| first, so skipping the smaller K keeps the first
    # witness. For the same reasons a witness has len(u) = #orbits =
    # len(letters) and len(x) = <nu_w, 2 rho>, so len(letters) is exactly
    # len(w) - <nu_w, 2 rho>: a (member, K) pair whose stripped letters
    # number otherwise is skipped before u is recomposed and x is tested
    # for twist stability and straightness.
    smallest = length(w) - class_invariant(w).pairing_two_rho
    witness = None
    for K in spherical_subsets(datum):
        if len(K) < smallest:
            continue
        for member, shifts in members:
            dec = _coset_split(member, K, u_length=smallest)
            if dec is None:
                continue
            u, x, letters, perm = dec
            if is_straight(x) and _one_letter_per_orbit(letters, perm):
                witness = MinCoxWitness(K, x, u, shifts)
                break
        if witness is not None:
            break
    datum._mincox_cache[w] = witness
    return witness


# -- geometric Coxeter type -----------------------------------------------------


def strong_multiplicity_one(trees):
    """One path per endpoint class, in every given tree.

    A tree object given more than once (see :func:`seed_trees`) is
    read once, in first-occurrence order. Returns (bool, the first
    offending class in tree order or None).
    """
    for tree in dict.fromkeys(trees):
        counts = {}
        for (cls, _c1, _c2, _lend), mult in path_summary(tree).items():
            counts[cls] = counts.get(cls, 0) + mult
        for cls, mult in counts.items():
            if mult > 1:
                return False, cls
    return True, None


class GeoCoxResult(NamedTuple):
    is_geo_cox: bool
    smo: bool
    offending_class: object
    endpoint_witnesses: dict  # endpoint -> MinCoxWitness | None


def is_geometric_coxeter_type(trees, cap=DEFAULT_BFS_CAP):
    """Strong multiplicity one and a witness at every endpoint.

    Reads the given trees (one per seed, all with the same root), each
    distinct tree object once in first-occurrence order; ``cap`` bounds
    the minimal Coxeter type search on each endpoint.
    """
    smo, offending = strong_multiplicity_one(trees)
    witnesses = {}
    all_witnessed = True
    for tree in dict.fromkeys(trees):
        for endpoint in tree.endpoints():
            if endpoint not in witnesses:
                witnesses[endpoint] = is_minimal_coxeter_type(endpoint, cap=cap)
            if witnesses[endpoint] is None:
                all_witnessed = False
    return GeoCoxResult(
        is_geo_cox=smo and all_witnessed,
        smo=smo,
        offending_class=offending,
        endpoint_witnesses=witnesses,
    )


# -- closed formulas -------------------------------------------------------------


def dim_formula(w: AffineElement, c: ClassInvariant):
    """(len(w) + refl(cl w) - <nu, 2 rho> - def(c)) / 2, asserted integral.

    Meaningful (and proved) for geometric Coxeter type elements and
    classes in their endpoint set; evaluating elsewhere is allowed but
    flagged by callers as outside the guarantee.
    """
    value = length(w) + classical_reflection_length(w) - c.pairing_two_rho - defect(c)
    if value % 2 != 0 or value < 0:
        raise InternalInvariantError(f"dimension formula gave {value}/2 for {format_element(w)}")
    return value // 2


def ell1_formula(datum, c_min: ClassInvariant, c: ClassInvariant) -> int:
    """Twist-orbit count of I(nu_min) minus the part surviving into I(nu_c).

    Counted on the set difference I(nu_min) - I(nu_c): when I(nu_c) is
    contained in I(nu_min) this is the plain difference of orbit counts,
    but the containment can fail (C2 already has elements where the two
    zero sets are incomparable) and the difference count is what the
    reduction trees realize.
    """
    return len(twist_orbits(datum, c_min.zero_set - c.zero_set))


def ell2_formula(w: AffineElement, c: ClassInvariant, c_max: ClassInvariant) -> int:
    """(len(w) - refl(cl w) - <nu, 2 rho> + def(c)) / 2, cross-checked.

    The same number is the chain length from c to the top class; both
    expressions are evaluated and must agree.
    """
    value = length(w) - classical_reflection_length(w) - c.pairing_two_rho + defect(c)
    if value % 2 != 0 or value < 0:
        raise InternalInvariantError(f"type-II formula gave {value}/2 for {format_element(w)}")
    value //= 2
    alt = chain_length(c, c_max)
    if alt != value:
        raise InternalInvariantError(f"type-II count {value} disagrees with chain length {alt}")
    return value


def mct_inequality(w: AffineElement):
    """Slack of len(w) >= <nu, 2 rho> + refl(cl w) - def([w]).

    The slack is invariant under twisted conjugation of the right side
    only; equality holds exactly when the minimal-length conjugates of w
    carry a minimal Coxeter type witness, which is cross-checked by the
    test suite.
    """
    c = class_invariant(w)
    rhs = c.pairing_two_rho + classical_reflection_length(w) - defect(c)
    slack = length(w) - rhs
    if slack < 0:
        raise InternalInvariantError(f"negative slack {slack} for {format_element(w)}")
    return {"slack": slack, "equality": slack == 0}


# -- purity ----------------------------------------------------------------------


def purity_report(tree):
    """Extrema and saturation of the endpoint class set plus branching replay checks.

    ``extrema`` is (c_min, c_max) of the endpoint classes of ``tree``, or
    None beside a ``note``. Saturation compares the classes with the full
    order interval between their extrema. The helper checks walk the tree
    and verify at every branching: the minimum travels along the type II
    edge, the maximum along the type I edge, and the I(nu) sets of the two
    branch minima differ by exactly one twist orbit of simple roots. Each
    node's extrema are computed once per call.
    """
    datum = tree.root.datum
    memo = {}  # node -> extrema of its endpoint classes, or the error

    def node_extrema(node):
        if node not in memo:
            try:
                memo[node] = extrema(summary_classes(path_summary(tree, start=node)))
            except NoUniqueExtremumError as exc:
                memo[node] = exc
        return memo[node]

    classes = summary_classes(path_summary(tree))
    root = node_extrema(tree.root)
    if isinstance(root, NoUniqueExtremumError):
        return {"saturated": None, "interval_diff": [], "helper_checks": [],
                "extrema": None, "note": str(root)}
    between = set(interval(*root))

    helper = []
    for node, exp in tree.expansions.items():
        if exp is None:
            continue
        edge_one, edge_two = exp
        pivot = replay_moves(node, edge_one.witness_shifts)
        found = [node_extrema(x) for x in (edge_one.target, edge_two.target, node)]
        error = next((e for e in found if isinstance(e, NoUniqueExtremumError)), None)
        if error is not None:
            helper.append({"node": format_element(node), "pivot": format_element(pivot),
                           "note": str(error)})
            continue
        (one_min, one_max), (two_min, _two_max), (node_min, node_max) = found
        helper.append(
            {
                "node": format_element(node),
                "pivot": format_element(pivot),
                "min_follows_type_II": node_min == two_min,
                "max_follows_type_I": node_max == one_max,
                "i_set_difference_is_one_orbit": (
                    len(twist_orbits(datum, node_min.zero_set - one_min.zero_set)) == 1
                ),
            }
        )
    return {
        "saturated": between == classes,
        "interval_diff": sort_classes(between ^ classes),
        "helper_checks": helper,
        "extrema": root,
    }


# -- the full report --------------------------------------------------------------


class BgwRow(NamedTuple):
    invariant: ClassInvariant
    defect: int
    num_paths: int
    observed: tuple  # sorted (count_I, count_II) pairs over paths
    # formula values are None outside the geometric Coxeter type guarantee
    ell1: int | None
    ell2: int | None
    dim: int | None
    formula_delta: tuple | None
    endpoint: AffineElement
    witness: object
    shape: str


class ClassificationReport(NamedTuple):
    element: AffineElement
    seeds: tuple
    min_len: bool
    straight: bool
    min_cox: object
    smo: bool
    geo_cox: bool
    mct: dict
    bgw_table: list
    purity: dict
    outside_guarantee: bool


def classify(
    w: AffineElement, seeds=DEFAULT_SEEDS, cap=DEFAULT_BFS_CAP
) -> ClassificationReport:
    """Run the whole pipeline on one element.

    Builds one tree per index order; seeds whose trees are equal share
    the first one (:func:`seed_trees`), so the tree readers do its work
    once.
    The extrema of the first tree's endpoint classes, which the formulas
    read, come from its :func:`purity_report`.
    """
    datum = w.datum
    minimal = is_min_len(w, cap=cap).is_min_len
    min_cox = is_minimal_coxeter_type(w, cap=cap) if minimal else None
    trees = seed_trees(w, seeds, cap)
    geo = is_geometric_coxeter_type(trees, cap=cap)

    first_tree = trees[0]
    summary = path_summary(first_tree)
    per_class = {}
    for (cls, c1, c2, _lend), mult in summary.items():
        per_class.setdefault(cls, []).extend([(c1, c2)] * mult)
    classes = sort_classes(per_class)
    purity = purity_report(first_tree)
    if purity["extrema"] is not None:
        c_min, c_max = purity["extrema"]
    elif geo.is_geo_cox:
        # cannot happen for endpoint-class sets unless conventions broke
        raise NoUniqueExtremumError(purity["note"])
    else:
        # outside the guarantee we still want the report, minus formulas
        c_min = c_max = None

    endpoint_by_class = {}
    for path in enumerate_paths(first_tree):
        endpoint_by_class.setdefault(path.end_class, path.end)

    rows = []
    for cls in classes:
        ell1 = ell2 = dim = None
        if c_min is not None:
            try:
                ell1 = ell1_formula(datum, c_min, cls)
                ell2 = ell2_formula(w, cls, c_max)
                dim = dim_formula(w, cls)
            except (InternalInvariantError, NotComparableError):
                # the formulas are only claimed on geometric Coxeter type
                if geo.is_geo_cox:
                    raise
                ell1 = ell2 = dim = None
        observed = tuple(sorted(per_class[cls]))
        delta = None
        if ell1 is not None:
            delta = tuple(
                (c1 - ell1, c2 - ell2)
                for (c1, c2) in observed
                if (c1, c2) != (ell1, ell2)
            )
        endpoint = endpoint_by_class[cls]
        wit = geo.endpoint_witnesses.get(endpoint)
        shape = None
        if wit is not None and ell1 is not None:
            k_text = "{" + ",".join(str(i) for i in wit.K) + "}"
            shape = f"DL({k_text},{format_element(wit.c)}) x Gm^{ell1} x A^{ell2}"
        rows.append(
            BgwRow(
                invariant=cls,
                defect=defect(cls),
                num_paths=len(per_class[cls]),
                observed=observed,
                ell1=ell1,
                ell2=ell2,
                dim=dim,
                formula_delta=delta,
                endpoint=endpoint,
                witness=wit,
                shape=shape,
            )
        )

    report = ClassificationReport(
        element=w,
        seeds=tuple(seeds),
        min_len=minimal,
        straight=is_straight(w),
        min_cox=min_cox,
        smo=geo.smo,
        geo_cox=geo.is_geo_cox,
        mct=mct_inequality(w),
        bgw_table=rows,
        purity=purity,
        outside_guarantee=not geo.is_geo_cox,
    )
    if report.geo_cox:
        for row in rows:
            if row.formula_delta:
                raise InternalInvariantError(
                    f"formula mismatch on a geometric Coxeter type element: "
                    f"{format_element(w)} class {row.invariant}"
                )
    return report


REPORT_SCHEMA = "adlvkit.report/1"


def report_to_dict(report: ClassificationReport) -> dict:
    """JSON-ready form of a report, deterministic for a given input."""
    w = report.element
    datum = w.datum
    inv = class_invariant(w)
    return {
        "schema": REPORT_SCHEMA,
        "datum": datum.spec.datum_string(),
        "element": format_element(w),
        "length": length(w),
        "seeds": list(report.seeds),
        "min_len": report.min_len,
        "straight": report.straight,
        **inv.as_dict(),
        "min_cox": report.min_cox.as_dict() if report.min_cox else None,
        "smo": report.smo,
        "geo_cox": report.geo_cox,
        "outside_guarantee": report.outside_guarantee,
        "mct": report.mct,
        "bgw": [
            {
                **row.invariant.as_dict(),
                "defect": row.defect,
                "num_paths": row.num_paths,
                "observed": [list(p) for p in row.observed],
                "ell1": row.ell1,
                "ell2": row.ell2,
                "dim": row.dim,
                "formula_delta": None
                if row.formula_delta is None
                else [list(p) for p in row.formula_delta],
                "endpoint": format_element(row.endpoint),
                "witness": row.witness.as_dict() if row.witness else None,
                "shape": row.shape,
            }
            for row in report.bgw_table
        ],
        "purity": {
            "saturated": report.purity["saturated"],
            "interval_diff": [d.as_dict() for d in report.purity["interval_diff"]],
            "helper_checks": report.purity["helper_checks"],
            "note": report.purity.get("note"),
        },
    }
