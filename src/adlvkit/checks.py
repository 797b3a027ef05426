"""Invariant suites over enumerated element corpora.

A corpus is every element up to a length bound (normalized modulo
central translations when the lattice has any). The suites replay the
closed formulas against brute-force tree enumeration, certify tree
structure, and probe the poset and conjugation invariants. Each check
returns its violations instead of raising, so a run reports everything
at once; integrality assertions inside the library still raise, and the
runner records those as violations of the integrality suite.

Soft observations (seed-to-seed variation of per-class edge-count
multisets on elements without strong multiplicity one) are collected as
findings, never as failures.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import bg_poset, classifier, conjugacy
from .affine_weyl import (
    affine_reflection,
    format_element,
    identity,
    length,
    multiply,
    omega_element,
    sigma_act,
)
from .conjugacy import class_invariant, is_min_len, is_straight
from .errors import AdlvkitError, InternalInvariantError, NoUniqueExtremumError, UsageError
from .linalg import dot, mat_mul, mat_vec, vec_mat
from .reduction_tree import path_summary, seed_trees, summary_classes, verify_edge
from .root_datum import build_root_datum

CHECK_NAMES = (
    "datum_invariants",
    "length_properties",
    "class_invariance",
    "straight_implies_minlen",
    "conservation",
    "endpoint_certificates",
    "seed_invariance",
    "contains_own_class",
    "formula_type_counts",
    "dimension_consistency",
    "saturation",
    "purity_equalities",
    "helper_replay",
    "min_class_is_own",
    "reflection_additivity",
    "mct_slack",
    "rankedness",
    "defect_witness_independence",
    "integrality",
)


class SuiteResult:
    """One suite's tally: checks run, violations and findings, filled in by the audit."""

    def __init__(self, name):
        self.name = name
        self.violations = []
        self.findings = []
        self.checked = 0

    @property
    def passed(self):
        return not self.violations


class AuditReport(NamedTuple):
    datum_string: str
    max_length: int
    seeds: tuple
    results: dict
    corpus_size: int = 0
    elapsed: float = 0.0
    geo_cox_count: int = 0

    @property
    def passed(self):
        return all(r.passed for r in self.results.values())

    def lines(self):
        out = []
        for name in CHECK_NAMES:
            r = self.results[name]
            status = "PASS" if r.passed else "FAIL"
            extra = f" ({len(r.violations)} violations)" if r.violations else ""
            note = f" [{len(r.findings)} findings]" if r.findings else ""
            out.append(f"{status} {name}: {r.checked} checks{extra}{note}")
        return out


def corpus(datum, max_length, budget=bg_poset.DEFAULT_ENUM_BUDGET):
    """Every element of length <= max_length, sorted by (length, text).

    The one owner of the order audits and scans report in. Lattices with
    a central line are enumerated modulo central translations (see
    :func:`bg_poset.iter_elements`), the only way the corpus is finite.
    """
    return sorted(
        bg_poset.iter_elements(datum, max_length, budget=budget),
        key=lambda x: (length(x), format_element(x)),
    )


def audit(
    datum,
    max_length,
    seeds=classifier.DEFAULT_SEEDS,
    bfs_cap=conjugacy.DEFAULT_BFS_CAP,
    enum_budget=bg_poset.DEFAULT_ENUM_BUDGET,
    progress=None,
) -> AuditReport:
    """Run every suite over the corpus; never raises for check failures."""
    start_time = time.monotonic()
    results = {name: SuiteResult(name) for name in CHECK_NAMES}

    def fail(name, element, detail):
        results[name].violations.append(
            {"element": element, "detail": detail}
        )

    def bump(name, k=1):
        results[name].checked += k

    _audit_datum(datum, fail, bump)

    elements = corpus(datum, max_length, budget=enum_budget)
    geo_count = 0
    memo = _AuditMemo()
    for pos, w in enumerate(elements):
        if progress is not None:
            progress(pos, len(elements), w)
        try:
            geo_count += _audit_element(w, seeds, bfs_cap, results, fail, bump, memo)
        except InternalInvariantError as exc:
            fail("integrality", format_element(w), str(exc))
        except AdlvkitError as exc:
            fail("integrality", format_element(w), f"{type(exc).__name__}: {exc}")
    bump("integrality", len(elements))

    _audit_length_properties(datum, elements, fail, bump)
    bound = min(max_length, 4)
    straight = [x for x in elements if length(x) <= bound and is_straight(x)]
    _audit_rankedness(datum, straight, fail, bump)
    _audit_defect_independence(datum, straight, fail, bump)

    return AuditReport(
        datum_string=datum.spec.datum_string(),
        max_length=max_length,
        seeds=tuple(seeds),
        results=results,
        corpus_size=len(elements),
        elapsed=time.monotonic() - start_time,
        geo_cox_count=geo_count,
    )


# -- per-datum checks ----------------------------------------------------------


def _audit_datum(datum, fail, bump):
    name = "datum_invariants"
    tag = datum.spec.datum_string()
    for i, coroot in enumerate(datum.simple_coroots):
        if dot(coroot, datum.simple_roots[i]) != 2:
            fail(name, tag, f"Cartan diagonal at {i + 1} is not 2")
        if dot(coroot, datum.rho) != 1:
            fail(name, tag, f"rho does not pair to 1 with coroot {i + 1}")
        bump(name, 2)
    # pairing invariance under every generator, over all roots
    for g in datum.weyl_generators:
        ginv = datum.weyl_inverse(g)
        for alpha, coroot in datum.root_coroot.items():
            if dot(mat_vec(g, coroot), vec_mat(alpha, ginv)) != dot(coroot, alpha):
                fail(name, tag, "generator breaks the pairing")
            bump(name)
    # twist behaviour
    delta = datum.delta
    for alpha, coroot in datum.root_coroot.items():
        if dot(mat_vec(delta, coroot), vec_mat(alpha, datum.delta_inv)) != dot(coroot, alpha):
            fail(name, tag, "twist breaks the pairing")
        bump(name)
    for i in range(datum.rank):
        img = mat_vec(delta, datum.simple_coroots[i])
        if img != datum.simple_coroots[datum.delta_diagram[i + 1] - 1]:
            fail(name, tag, f"twist does not permute coroot {i + 1} correctly")
        bump(name)
    dom = tuple(datum.fundamental_coweights[0])
    if not datum.is_dominant(mat_vec(delta, dom)):
        fail(name, tag, "twist does not preserve dominance")
    bump(name)
    # positive root count equals the length of the longest element, read
    # off its greedy ascent word without tabulating the group
    from .levi import longest_word

    if len(longest_word(datum, range(1, datum.rank + 1))) != len(datum.positive_roots):
        fail(name, tag, "positive root count differs from len(w0)")
    bump(name)
    if not datum.is_dominant(datum.theta_coroot):
        fail(name, tag, "highest coroot is not dominant")
    bump(name)


def _audit_length_properties(datum, elements, fail, bump):
    name = "length_properties"
    tag = datum.spec.datum_string()
    sample = elements[:: max(1, len(elements) // 40)]
    taus = [identity(datum)]
    for k in range(1, datum.rank + 1):
        try:
            taus.append(omega_element(datum, k))
        except UsageError:
            pass
    for x in sample:
        sx = sigma_act(x)
        if length(sx) != length(x):
            fail(name, format_element(x), "twist changed the length")
        bump(name)
        for y in sample[:8]:
            if length(multiply(x, y)) > length(x) + length(y):
                fail(name, format_element(x), "length is superadditive")
            if sigma_act(multiply(x, y)) != multiply(sx, sigma_act(y)):
                fail(name, format_element(x), "twist is not a homomorphism")
            bump(name, 2)
        for tau in taus:
            if length(multiply(tau, multiply(x, tau.inverse()))) != length(x):
                fail(name, format_element(x), "length-zero conjugation moved length")
            bump(name)
    for root in (datum.theta, datum.simple_roots[0]):
        for level in (-2, -1, 0, 1, 2):
            refl = affine_reflection(datum, (level, root))
            if not multiply(refl, refl).is_identity():
                fail(name, tag, f"affine reflection ({level}) is not an involution")
            bump(name)


def _audit_rankedness(datum, straight, fail, bump):
    """Chain lengths add up over the classes of the corpus's straight elements.

    On a central line only the classes at the identity's Kottwitz point
    are compared.
    """
    name = "rankedness"
    classes = {class_invariant(x) for x in straight}
    if datum.central_rank:
        trivial = class_invariant(identity(datum)).kottwitz
        classes = {c for c in classes if c.kottwitz == trivial}
    classes = bg_poset.sort_classes(classes)
    for a in classes:
        for b in classes:
            if not bg_poset.leq(a, b):
                continue
            for c in classes:
                if bg_poset.leq(b, c):
                    lhs = bg_poset.chain_length(a, c)
                    rhs = bg_poset.chain_length(a, b) + bg_poset.chain_length(b, c)
                    if lhs != rhs:
                        fail(name, repr((a, b, c)), f"chain lengths {lhs} != {rhs}")
                    gap = bg_poset.essential_gap(a, b)
                    if gap + bg_poset.defect(a) - bg_poset.defect(b) != bg_poset.chain_length(a, b):
                        fail(name, repr((a, b)), "gap/defect identity broken")
                    bump(name, 2)


def _audit_defect_independence(datum, straight, fail, bump):
    name = "defect_witness_independence"
    per_class = {}
    for x in straight:
        per_class.setdefault(class_invariant(x), []).append(x)
    for cls, witnesses in per_class.items():
        values = {conjugacy.classical_reflection_length(x) for x in witnesses}
        if len(values) != 1:
            fail(name, repr(cls), f"witness defects disagree: {sorted(values)}")
        if max(values) > datum.rank:
            fail(name, repr(cls), "defect exceeds the rank")
        bump(name, len(witnesses))


# -- per-element checks ----------------------------------------------------------


class _AuditMemo:
    """Checks that one audit runs once and replays for every element.

    Made afresh by each :func:`audit` call and never kept beyond it, so a
    check that starts failing after an audit is seen by the next one.
    """

    def __init__(self):
        self.additivity = {}  # MinCoxWitness -> its additivity failures
        self.verdicts = {}  # Edge -> verify_edge(edge)


class _TreeReading(NamedTuple):
    """What the audit reads off one distinct tree, replayed for every seed that built it."""

    summary: dict  # the interned path summary
    classes: set  # its endpoint classes
    paths: int
    misses: list  # conservation misses, "len(w) != lend+c1+2*c2"
    certificate_failures: list  # why each failing endpoint or edge fails
    certificates: int  # endpoints plus edges


def _read_tree(tree, base_len, bfs_cap, verdicts) -> _TreeReading:
    summary = path_summary(tree)
    misses = [
        f"{base_len} != {lend}+{c1}+2*{c2}"
        for (_cls, c1, c2, lend) in summary
        if base_len != lend + c1 + 2 * c2
    ]
    certificates = _certificate_failures(tree, bfs_cap, verdicts)
    return _TreeReading(
        summary,
        summary_classes(summary),
        sum(summary.values()),
        misses,
        [detail for detail in certificates if detail is not None],
        len(certificates),
    )


def _audit_element(w, seeds, bfs_cap, results, fail, bump, memo=None) -> int:
    """Run the tree, class and formula suites on one element.

    Each distinct index order's tree is built once and seeds whose trees
    are equal share one tree (:func:`seed_trees`). The path summary,
    conservation misses, endpoint certificates and edge replays of each
    distinct tree are read once (:class:`_TreeReading`), the formula scan
    runs once per distinct path summary, and each seed reports the stored
    outcomes in seed order, so the suites read as if every seed had been
    checked on its own. ``memo`` (an :class:`_AuditMemo`) holds the edge
    replay verdicts and the witness additivity failures
    (:func:`_check_witness_additivity`) across the elements of one audit,
    whose trees share their edges through the datum's memo. The extrema
    and the saturation verdict of the endpoint classes come from the
    first tree's :func:`classifier.purity_report`.

    Returns 1 when the element has geometric Coxeter type.
    """
    datum = w.datum
    text = format_element(w)
    base_len = length(w)
    if memo is None:
        memo = _AuditMemo()

    members = conjugacy.shift_class(w, cap=bfs_cap)
    inv = class_invariant(w)
    # sorted: a set of elements iterates in address order
    for moved in sorted(format_element(m) for m in members if class_invariant(m) != inv):
        fail("class_invariance", text, f"invariant moved at {moved}")
    bump("class_invariance", len(members))

    if is_straight(w):
        if not is_min_len(w, cap=bfs_cap).is_min_len:
            fail("straight_implies_minlen", text, "straight but not minimal")
        bump("straight_implies_minlen")

    trees = seed_trees(w, seeds, bfs_cap)
    readings = {}  # tree -> its _TreeReading
    per_seed = []
    for seed, tree in zip(seeds, trees):
        reading = readings.get(tree)
        if reading is None:
            reading = readings[tree] = _read_tree(tree, base_len, bfs_cap, memo.verdicts)
        for miss in reading.misses:
            fail("conservation", text, f"seed {seed}: {miss}")
        for detail in reading.certificate_failures:
            fail("endpoint_certificates", text, detail)
        per_seed.append(reading)
    bump("conservation", sum(reading.paths for reading in per_seed))
    bump("endpoint_certificates", sum(reading.certificates for reading in per_seed))

    first = per_seed[0]
    key_set = first.classes
    if inv not in key_set:
        fail("contains_own_class", text, "own class missing from endpoint classes")
    bump("contains_own_class")

    # the datum interns path summaries, so identity finds the repeats
    distinct = list({id(r.summary): r.summary for r in readings.values()}.values())
    smo = all(
        sum(mult for (cls2, _a, _b, _l), mult in summary.items() if cls2 == cls) == 1
        for summary in distinct
        for cls in summary_classes(summary)
    )
    for seed, reading in zip(seeds, per_seed):
        if reading.summary is first.summary:
            continue
        if reading.classes != key_set:
            fail("seed_invariance", text, f"seed {seed} changed the endpoint class set")
        if smo:
            fail("seed_invariance", text, f"seed {seed} changed the path multiset")
        else:
            results["seed_invariance"].findings.append(
                {
                    "element": text,
                    "detail": f"per-class count multiset varies between seeds {seeds[0]} and {seed}",
                }
            )
    bump("seed_invariance", len(seeds))

    geo = classifier.is_geometric_coxeter_type(trees, cap=bfs_cap)
    if geo.smo != smo:
        fail("seed_invariance", text, "smo flag disagrees with raw multiplicity count")

    # slack of the characterizing inequality, and its equality case: zero
    # slack needs the element itself minimal and a witness on its class
    mct = classifier.mct_inequality(w)
    minimal_rep, _moves = conjugacy.descend_to_min_len(w, cap=bfs_cap)
    witness = classifier.is_minimal_coxeter_type(minimal_rep, cap=bfs_cap)
    w_minimal = is_min_len(w, cap=bfs_cap).is_min_len
    if mct["equality"] != (w_minimal and witness is not None):
        fail(
            "mct_slack",
            text,
            f"slack {mct['slack']}, min-len {w_minimal}, "
            f"witness {'exists' if witness else 'missing'}",
        )
    bump("mct_slack")

    if witness is not None:
        _check_witness_additivity(datum, witness, text, fail, bump, memo.additivity)
    for endpoint_witness in geo.endpoint_witnesses.values():
        if endpoint_witness is not None:
            _check_witness_additivity(datum, endpoint_witness, text, fail, bump, memo.additivity)

    if not geo.is_geo_cox:
        return 0

    purity = classifier.purity_report(trees[0])
    if purity["extrema"] is None:
        raise NoUniqueExtremumError(purity["note"])
    c_min, c_max = purity["extrema"]

    # closed formulas against every path of every seed's tree
    classes = bg_poset.sort_classes(key_set)
    if c_min != inv:
        fail("min_class_is_own", text, f"minimum {c_min} is not the element's class")
    bump("min_class_is_own")

    for cls in classes:
        ell1 = classifier.ell1_formula(datum, c_min, cls)
        ell2 = classifier.ell2_formula(w, cls, c_max)
        dim = classifier.dim_formula(w, cls)
        scans = {id(summary): _formula_scan(summary, cls, (ell1, ell2)) for summary in distinct}
        checked = 0
        for seed, reading in zip(seeds, per_seed):
            mismatches, paths, _top = scans[id(reading.summary)]
            for c1, c2 in mismatches:
                fail(
                    "formula_type_counts",
                    text,
                    f"seed {seed} class {cls}: path ({c1},{c2}) != formulas ({ell1},{ell2})",
                )
            checked += paths
        bump("formula_type_counts", checked)
        tops = [top for _m, _p, top in scans.values() if top is not None]
        best = max(tops) if tops else None
        if best != dim:
            fail("dimension_consistency", text, f"class {cls}: formula {dim} vs tree {best}")
        bump("dimension_consistency")
        gap = bg_poset.essential_gap(cls, c_max)
        if dim - classifier.dim_formula(w, c_max) != gap:
            fail("purity_equalities", text, f"class {cls}: dimension jump is not the gap")
        bump("purity_equalities")

    if not purity["saturated"]:
        # the interval's size, read off its symmetric difference with key_set
        diff = purity["interval_diff"]
        between = len(key_set) + sum(-1 if c in key_set else 1 for c in diff)
        fail(
            "saturation",
            text,
            f"interval has {between} classes, endpoints give {len(classes)}",
        )
    bump("saturation")

    for check in purity["helper_checks"]:
        for key in ("min_follows_type_II", "max_follows_type_I", "i_set_difference_is_one_orbit"):
            if not check.get(key, False):
                fail("helper_replay", text, f"{key} failed at node {check['node']}")
            bump("helper_replay")
    return 1


def _certificate_failures(tree, bfs_cap, verdicts) -> list:
    """Per endpoint, then per edge: None if its certificate holds, else why not.

    Each edge is replayed once per ``verdicts``, the memo of one audit.
    """
    failures = [
        None if is_min_len(endpoint, cap=bfs_cap).is_min_len
        else f"endpoint {format_element(endpoint)} not minimal"
        for endpoint in tree.endpoints()
    ]
    for edge in tree.edges:
        verdict = verdicts.get(edge)
        if verdict is None:
            verdict = verdicts[edge] = verify_edge(edge)
        failures.append(None if verdict else "edge witness replay failed")
    return failures


def _formula_scan(summary, cls, formulas):
    """The paths of ``summary`` that end in ``cls``, against the formulas.

    Returns the (count_I, count_II) of each summary entry that misses
    ``formulas``, the number of paths, and the largest dimension
    candidate (None without a path).
    """
    mismatches, paths, top = [], 0, None
    for (cls2, c1, c2, lend), mult in summary.items():
        if cls2 != cls:
            continue
        if (c1, c2) != formulas:
            mismatches.append((c1, c2))
        paths += mult
        candidate = c1 + c2 + (lend - cls.pairing_two_rho)
        top = candidate if top is None else max(top, candidate)
    return mismatches, paths, top


def _check_witness_additivity(datum, witness, text, fail, bump, memo):
    """Reflection lengths add along the witness decomposition.

    Also pins the relative term to the orbit count of the transported
    twist, which is what makes the Coxeter condition quantitative. The
    check runs once per witness; ``memo`` keeps its failures, which later
    elements with the same witness report under their own name.
    """
    failures = memo.get(witness)
    if failures is None:
        failures = memo[witness] = _additivity_failures(datum, witness)
    for detail in failures:
        fail("reflection_additivity", text, detail)
    bump("reflection_additivity", 2)


def _additivity_failures(datum, witness) -> list:
    failures = []
    total = conjugacy.classical_reflection_length(multiply(witness.c, witness.x))
    base = conjugacy.classical_reflection_length(witness.x)
    twist = mat_mul(witness.x.finite, datum.delta)
    relative = conjugacy.relative_reflection_length(datum, witness.c.finite, twist)
    if total != base + relative:
        failures.append(f"{total} != {base} + {relative}")
    perm = classifier.twist_permutation(witness.x, witness.K)
    orbit_count = len(conjugacy.permutation_orbits(perm)) if perm is not None else 0
    if relative != orbit_count:
        failures.append(f"relative length {relative} != orbit count {orbit_count}")
    return failures


# -- convenience entry point -------------------------------------------------------


def audit_datum_string(datum_string, max_length, seeds=classifier.DEFAULT_SEEDS, **kw):
    return audit(build_root_datum(datum_string), max_length, seeds=seeds, **kw)
