"""Differential oracle for the tree-reading functions.

``strong_multiplicity_one``, ``is_geometric_coxeter_type`` and
``purity_report`` read trees that their caller built once per seed, and
``path_summary`` memoizes per (node, index order) on the datum. The
functions prefixed ``ref_`` are the forms they replaced: each builds its
own trees from ``(w, seeds, cap)``, path summaries share one memo keyed
by ``(node, seed)`` across every tree of every datum, and the zero sets
I(nu) come from ``Fraction`` dots instead of the class invariant.

Each index order's tree is now built once and seeds whose trees are
equal share one tree object (``seed_trees``), as
``matrix_reference.share_equal_trees`` shares every seed's own tree, and
``checks._audit_element`` reads each distinct tree and scans each
distinct summary once, replaying the counts and failures per seed.
``ref_audit_element`` is the per-seed form it replaced, which builds and
checks every seed's tree on its own; the suites must come out the same,
also when a check is made to fail.

``bg_poset.extrema`` and ``bg_poset.interval`` memoize per datum; on
every node class set of the audit corpora they must match the unmemoized
forms ``matrix_reference.pairwise_extrema`` and
``matrix_reference.unmemoized_interval``, and a whole audit computes each
class set's extrema and each interval once.
"""

import functools
import types

import pytest

import matrix_reference as ref
from adlvkit import bg_poset, checks, conjugacy, levi
from adlvkit import classifier as cl
from adlvkit import reduction_tree as rt
from adlvkit.affine_weyl import format_element, length, multiply, parse_element
from adlvkit.bg_poset import extrema, interval
from adlvkit.conjugacy import (
    DEFAULT_BFS_CAP,
    class_invariant,
    is_straight,
    replay_moves,
)
from adlvkit.errors import NoUniqueExtremumError, NotComparableError, UsageError
from adlvkit.linalg import dot, mat_mul
from adlvkit.root_datum import RootDatum, build_root_datum, parse_spec

CORPORA = (("A2:adj", 6), ("C2:sc", 6), ("2A3:sc", 4))
SEEDS = tuple(range(10))

# (node, seed) -> path summary, shared by every tree as the datum-wide memo was
_REF_MEMO = {}


def ref_newton_zero_set(datum, nu):
    """I(nu) from Fraction dots, as computed before class invariants stored it."""
    return frozenset(
        i + 1 for i in range(datum.rank) if dot(nu, datum.simple_roots[i]) == 0
    )


@functools.lru_cache(maxsize=None)
def corpus(spec, max_length):
    return tuple(checks.corpus(build_root_datum(spec), max_length))


def ref_path_summary(tree, start=None):
    def node_summary(node):
        key = (node, tree.seed)
        cached = _REF_MEMO.get(key)
        if cached is not None:
            return cached
        exp = tree.expansions[node]
        if exp is None:
            result = {(class_invariant(node), 0, 0, length(node)): 1}
        else:
            result = {}
            for edge in exp:
                inc_one = 1 if edge.kind == "I" else 0
                for (cls, c1, c2, lend), mult in node_summary(edge.target).items():
                    k = (cls, c1 + inc_one, c2 + (1 - inc_one), lend)
                    result[k] = result.get(k, 0) + mult
        _REF_MEMO[key] = result
        return result

    return node_summary(tree.root if start is None else start)


def ref_strong_multiplicity_one(w, seeds, cap=DEFAULT_BFS_CAP):
    for seed in seeds:
        tree = rt.build_tree(w, seed=seed, cap=cap)
        counts = {}
        for (cls, _c1, _c2, _lend), mult in ref_path_summary(tree).items():
            counts[cls] = counts.get(cls, 0) + mult
        for cls, mult in counts.items():
            if mult > 1:
                return False, cls
    return True, None


def ref_is_geometric_coxeter_type(w, seeds, cap=DEFAULT_BFS_CAP):
    smo, offending = ref_strong_multiplicity_one(w, seeds, cap)
    witnesses = {}
    all_witnessed = True
    for seed in seeds:
        tree = rt.build_tree(w, seed=seed, cap=cap)
        for endpoint in tree.endpoints():
            if endpoint not in witnesses:
                witnesses[endpoint] = cl.is_minimal_coxeter_type(endpoint, cap=cap)
            if witnesses[endpoint] is None:
                all_witnessed = False
    return cl.GeoCoxResult(
        is_geo_cox=smo and all_witnessed,
        smo=smo,
        offending_class=offending,
        endpoint_witnesses=witnesses,
    )


def _sorted_classes(summary):
    return sorted(rt.summary_classes(summary), key=ref.class_sort_key)


def ref_purity_report(w, seed, cap=DEFAULT_BFS_CAP):
    datum = w.datum
    tree = rt.build_tree(w, seed=seed, cap=cap)
    classes = _sorted_classes(ref_path_summary(tree))
    try:
        c_min, c_max = extrema(classes)
        between = interval(c_min, c_max)
    except (NoUniqueExtremumError, NotComparableError) as exc:
        return {"saturated": None, "interval_diff": [], "helper_checks": [],
                "extrema": None, "note": str(exc)}
    diff = sorted(
        set(between).symmetric_difference(classes), key=ref.class_sort_key
    )
    helper = []
    for node, exp in tree.expansions.items():
        if exp is None:
            continue
        edge_one, edge_two = exp
        pivot = replay_moves(node, edge_one.witness_shifts)
        try:
            sub_min = {
                label: extrema(_sorted_classes(ref_path_summary(tree, start=child)))
                for label, child in (("I", edge_one.target), ("II", edge_two.target))
            }
            node_min, node_max = extrema(_sorted_classes(ref_path_summary(tree, start=node)))
        except NoUniqueExtremumError as exc:
            helper.append({"node": format_element(node), "pivot": format_element(pivot),
                           "note": str(exc)})
            continue
        i_min = ref_newton_zero_set(datum, node_min.newton)
        i_one = ref_newton_zero_set(datum, sub_min["I"][0].newton)
        helper.append(
            {
                "node": format_element(node),
                "pivot": format_element(pivot),
                "min_follows_type_II": node_min == sub_min["II"][0],
                "max_follows_type_I": node_max == sub_min["I"][1],
                "i_set_difference_is_one_orbit": (
                    len(conjugacy.twist_orbits(datum, i_min - i_one)) == 1
                ),
            }
        )
    return {
        "saturated": set(between) == set(classes),
        "interval_diff": diff,
        "helper_checks": helper,
        "extrema": (c_min, c_max),
    }


def brute_force_summary(tree, start):
    out = {}
    for path in rt.enumerate_paths(tree, start=start):
        key = (path.end_class, path.count_I, path.count_II, length(path.end))
        out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_tree_readers_match_rebuilding_references(spec, max_length):
    for w in corpus(spec, max_length):
        text = format_element(w)
        trees = [rt.build_tree(w, seed=s) for s in SEEDS]
        smo = ref_strong_multiplicity_one(w, SEEDS)
        assert cl.strong_multiplicity_one(trees) == smo, text
        geo = ref_is_geometric_coxeter_type(w, SEEDS)
        assert cl.is_geometric_coxeter_type(trees) == geo, text
        for seed, tree in zip(SEEDS, trees):
            assert cl.purity_report(tree) == ref_purity_report(w, seed), (text, seed)


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_tree_memo_matches_datum_memo_and_brute_force(spec, max_length):
    # the root's summary leaves one (node, order) entry in the datum's
    # memo for every node the tree reaches, and path_summary reads it
    for w in corpus(spec, max_length):
        datum = w.datum
        for seed in SEEDS:
            tree = rt.build_tree(w, seed=seed)
            rt.path_summary(tree)
            for node, exp in tree.expansions.items():
                key = (node, tree.order)
                assert datum._move_cache[key] is exp
                summary = datum._summary_cache[key]
                assert rt.path_summary(tree, start=node) is summary
                assert summary == ref_path_summary(tree, start=node)
                assert summary == brute_force_summary(tree, node), (format_element(w), seed)


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_classify_does_not_depend_on_what_warmed_the_datum(spec, max_length):
    # the tree memos are shared by every element of a datum: a report on
    # a datum warmed by the corpus in reverse order, its seeds reversed
    # too, equals the report on a fresh datum
    texts = [format_element(w) for w in corpus(spec, max_length)]
    warm = RootDatum(parse_spec(spec))
    for text in reversed(texts):
        cl.classify(parse_element(warm, text), seeds=SEEDS[::-1])
    for text in texts:
        fresh = parse_element(RootDatum(parse_spec(spec)), text)
        expected = cl.report_to_dict(cl.classify(fresh, seeds=SEEDS))
        assert cl.report_to_dict(cl.classify(parse_element(warm, text), seeds=SEEDS)) == expected, text


def test_strong_multiplicity_one_reads_every_tree():
    # smo does not vary by seed on any corpus above, so the order of a
    # good and a bad tree is the only way to see that a later tree counts
    datum = build_root_datum("A2:adj")
    good = rt.build_tree(parse_element(datum, "t(1,1) s1 s2"))
    bad = rt.build_tree(parse_element(datum, "s0 s1 s2 s1 s0"))
    flagged = cl.strong_multiplicity_one([bad])
    assert not flagged[0]
    assert cl.strong_multiplicity_one([good, bad]) == flagged
    assert cl.strong_multiplicity_one([good]) == (True, None)


# -- each pipeline builds one tree per index order -----------------------------


@pytest.fixture
def build_count(monkeypatch):
    calls = []
    build_tree = rt.build_tree

    def counting(w, seed=0, cap=DEFAULT_BFS_CAP):
        calls.append(seed)
        return build_tree(w, seed=seed, cap=cap)

    monkeypatch.setattr(rt, "build_tree", counting)
    return calls


def first_seed_of_each_order(datum, seeds):
    firsts = {}
    for seed in seeds:
        firsts.setdefault(rt._index_order(datum.rank + 1, seed), seed)
    return sorted(firsts.values())


# the first is not of geometric Coxeter type, so its audit stops before purity
ELEMENTS = (("s0 s1 s2 s1 s0", 0), ("t(1,1) s1 s2", 1))


@pytest.mark.parametrize("text,_geo", ELEMENTS)
def test_classify_builds_one_tree_per_index_order(build_count, text, _geo):
    datum = build_root_datum("A2:adj")
    cl.classify(parse_element(datum, text), seeds=SEEDS)
    assert sorted(build_count) == first_seed_of_each_order(datum, SEEDS)
    assert len(build_count) == 6


@pytest.mark.parametrize("text,geo", ELEMENTS)
def test_audit_element_builds_one_tree_per_index_order(build_count, text, geo):
    datum = build_root_datum("A2:adj")
    w = parse_element(datum, text)
    results = {name: checks.SuiteResult(name) for name in checks.CHECK_NAMES}
    failures = []

    def fail(name, element, detail):
        failures.append((name, element, detail))

    def bump(name, k=1):
        results[name].checked += k

    assert checks._audit_element(w, SEEDS, DEFAULT_BFS_CAP, results, fail, bump) == geo
    assert failures == []
    assert sorted(build_count) == first_seed_of_each_order(datum, SEEDS)
    assert len(build_count) == 6


def sharing(trees):
    """Each tree's seed and expansions, and the position of its first occurrence."""
    return [
        (tree.seed, tree.expansions, next(i for i, t in enumerate(trees) if t is tree))
        for tree in trees
    ]


def test_seed_trees_share_as_every_seed_built():
    seeds = tuple(range(20))
    # twenty seeds give six index orders at rank 2 and fifteen at rank 3
    for (spec, max_length), orders in ((("A2:adj", 6), 6), (("2A3:sc", 4), 15)):
        size = build_root_datum(spec).rank + 1
        assert len({rt._index_order(size, s) for s in seeds}) == orders
        for w in corpus(spec, max_length):
            trees = rt.seed_trees(w, seeds)
            per_seed = ref.share_equal_trees([rt.build_tree(w, seed=s) for s in seeds])
            assert sharing(trees) == sharing(per_seed), format_element(w)


def test_an_empty_seed_list_is_a_usage_error():
    datum = build_root_datum("A2:adj")
    w = parse_element(datum, "s0 s1 s0")
    with pytest.raises(UsageError, match="at least one strategy seed"):
        rt.seed_trees(w, ())
    with pytest.raises(UsageError, match="at least one strategy seed"):
        cl.classify(w, seeds=())
    with pytest.raises(UsageError, match="at least one strategy seed"):
        checks.audit(datum, 2, seeds=())


# -- the purity report reads the endpoint extrema and interval once ------------


@pytest.fixture
def poset_calls(monkeypatch):
    """The class sets given to ``extrema`` and the pairs given to ``interval``, per call."""
    calls = {"extrema": [], "interval": []}

    def counting(name, original):
        def wrapper(*args):
            calls[name].append(set(args[0]) if name == "extrema" else args)
            return original(*args)

        return wrapper

    for name in calls:
        wrapper = counting(name, getattr(bg_poset, name))
        monkeypatch.setattr(bg_poset, name, wrapper)
        monkeypatch.setattr(cl, name, wrapper)
    return calls


# of geometric Coxeter type, with two endpoint classes
GEO_COX_A1 = ("A1:adj", "s0 s1 s0")


def test_audit_element_reads_the_interval_once(poset_calls):
    w = parse_element(build_root_datum(GEO_COX_A1[0]), GEO_COX_A1[1])
    geo, suites = element_suites(checks._audit_element, w, SEEDS)
    assert geo == 1 and all(not violations for _c, violations, _f in suites.values())
    assert len(poset_calls["interval"]) == 1


def test_classify_reads_the_root_extrema_once(poset_calls):
    w = parse_element(build_root_datum(GEO_COX_A1[0]), GEO_COX_A1[1])
    report = cl.classify(w, seeds=SEEDS)
    root = rt.summary_classes(rt.path_summary(rt.build_tree(w)))
    assert report.geo_cox and len(root) == 2
    assert [classes for classes in poset_calls["extrema"] if classes == root] == [root]


# -- sharing equal trees --------------------------------------------------------


def test_share_equal_trees_keeps_one_object_per_distinct_tree():
    # the oracle that test_seed_trees_share_as_every_seed_built reads
    for spec, max_length in CORPORA:
        for w in corpus(spec, max_length):
            trees = [rt.build_tree(w, seed=s) for s in SEEDS]
            shared = ref.share_equal_trees(trees)
            assert len(shared) == len(trees)
            for tree, kept in zip(trees, shared):
                first = next(t for t in trees if t.expansions == tree.expansions)
                assert kept is first
            distinct = list(dict.fromkeys(shared))
            assert all(
                a.expansions != b.expansions
                for i, a in enumerate(distinct)
                for b in distinct[i + 1:]
            )


def _bad_trees():
    """A C2:sc tree with strong multiplicity one and two without it."""
    datum = build_root_datum("C2:sc")
    return [
        rt.build_tree(parse_element(datum, text))
        for text in ("s0 s1 s2", "t(1,-1) s1", "t(-1,2) s2")
    ]


def test_strong_multiplicity_one_reports_first_offender_with_repeats():
    good, bad_a, bad_b = _bad_trees()
    offending_a = cl.strong_multiplicity_one([bad_a])
    offending_b = cl.strong_multiplicity_one([bad_b])
    assert cl.strong_multiplicity_one([good]) == (True, None)
    assert not offending_a[0] and not offending_b[0]
    assert offending_a != offending_b
    assert cl.strong_multiplicity_one([good, bad_b, good, bad_a, bad_b]) == offending_b
    assert cl.strong_multiplicity_one([good, good, bad_a, bad_b, bad_a]) == offending_a
    assert cl.strong_multiplicity_one([good, good, good]) == (True, None)


def test_geometric_coxeter_type_reads_repeats_once():
    good, bad_a, bad_b = _bad_trees()
    repeated = cl.is_geometric_coxeter_type([good, bad_a, good, bad_b, bad_a])
    once = cl.is_geometric_coxeter_type([good, bad_a, bad_b])
    assert repeated == once
    assert list(repeated.endpoint_witnesses) == list(once.endpoint_witnesses)


# -- the per-seed audit as the reference ----------------------------------------


def ref_audit_element(w, seeds, bfs_cap, results, fail, bump, _additivity=None) -> int:
    """The audit of one element with every seed's tree checked on its own."""
    datum = w.datum
    text = format_element(w)
    base_len = length(w)

    members = conjugacy.shift_class(w, cap=bfs_cap)
    inv = class_invariant(w)
    for member in members:
        if class_invariant(member) != inv:
            fail("class_invariance", text, f"invariant moved at {format_element(member)}")
    bump("class_invariance", len(members))

    if is_straight(w):
        if not checks.is_min_len(w, cap=bfs_cap).is_min_len:
            fail("straight_implies_minlen", text, "straight but not minimal")
        bump("straight_implies_minlen")

    trees = [rt.build_tree(w, seed=seed, cap=bfs_cap) for seed in seeds]
    summaries = {}
    for seed, tree in zip(seeds, trees):
        summary = rt.path_summary(tree)
        summaries[seed] = summary
        for (cls, c1, c2, lend), mult in summary.items():
            if base_len != lend + c1 + 2 * c2:
                fail("conservation", text, f"seed {seed}: {base_len} != {lend}+{c1}+2*{c2}")
            bump("conservation", mult)
        for endpoint in tree.endpoints():
            if not checks.is_min_len(endpoint, cap=bfs_cap).is_min_len:
                fail("endpoint_certificates", text, f"endpoint {format_element(endpoint)} not minimal")
            bump("endpoint_certificates")
        for edge in tree.edges:
            if not checks.verify_edge(edge):
                fail("endpoint_certificates", text, "edge witness replay failed")
            bump("endpoint_certificates")

    first = summaries[seeds[0]]
    key_set = rt.summary_classes(first)
    if inv not in key_set:
        fail("contains_own_class", text, "own class missing from endpoint classes")
    bump("contains_own_class")

    smo = all(
        sum(
            mult
            for (cls2, _a, _b, _l), mult in summary.items()
            if cls2 == cls
        ) == 1
        for summary in summaries.values()
        for cls in rt.summary_classes(summary)
    )
    for seed, summary in summaries.items():
        if rt.summary_classes(summary) != key_set:
            fail("seed_invariance", text, f"seed {seed} changed the endpoint class set")
        if smo:
            if summary != first:
                fail("seed_invariance", text, f"seed {seed} changed the path multiset")
        else:
            if summary != first:
                results["seed_invariance"].findings.append(
                    {
                        "element": text,
                        "detail": f"per-class count multiset varies between seeds {seeds[0]} and {seed}",
                    }
                )
        bump("seed_invariance")

    geo = ref_is_geometric_coxeter_type(w, seeds, bfs_cap)
    if geo.smo != smo:
        fail("seed_invariance", text, "smo flag disagrees with raw multiplicity count")

    mct = cl.mct_inequality(w)
    minimal_rep, _moves = conjugacy.descend_to_min_len(w, cap=bfs_cap)
    witness = cl.is_minimal_coxeter_type(minimal_rep, cap=bfs_cap)
    w_minimal = checks.is_min_len(w, cap=bfs_cap).is_min_len
    if mct["equality"] != (w_minimal and witness is not None):
        fail(
            "mct_slack",
            text,
            f"slack {mct['slack']}, min-len {w_minimal}, "
            f"witness {'exists' if witness else 'missing'}",
        )
    bump("mct_slack")

    if witness is not None:
        ref_check_witness_additivity(datum, witness, text, fail, bump)
    for endpoint_witness in geo.endpoint_witnesses.values():
        if endpoint_witness is not None:
            ref_check_witness_additivity(datum, endpoint_witness, text, fail, bump)

    if not geo.is_geo_cox:
        return 0

    classes = sorted(key_set, key=ref.class_sort_key)
    c_min, c_max = bg_poset.extrema(classes)
    if c_min != inv:
        fail("min_class_is_own", text, f"minimum {c_min} is not the element's class")
    bump("min_class_is_own")

    for cls in classes:
        ell1 = cl.ell1_formula(datum, c_min, cls)
        ell2 = cl.ell2_formula(w, cls, c_max)
        dim = cl.dim_formula(w, cls)
        best = None
        for seed, summary in summaries.items():
            for (cls2, c1, c2, lend), mult in summary.items():
                if cls2 != cls:
                    continue
                if (c1, c2) != (ell1, ell2):
                    fail(
                        "formula_type_counts",
                        text,
                        f"seed {seed} class {cls}: path ({c1},{c2}) != formulas ({ell1},{ell2})",
                    )
                bump("formula_type_counts", mult)
                candidate = c1 + c2 + (lend - cls.pairing_two_rho)
                best = candidate if best is None else max(best, candidate)
        if best != dim:
            fail("dimension_consistency", text, f"class {cls}: formula {dim} vs tree {best}")
        bump("dimension_consistency")
        gap = bg_poset.essential_gap(cls, c_max)
        if dim - cl.dim_formula(w, c_max) != gap:
            fail("purity_equalities", text, f"class {cls}: dimension jump is not the gap")
        bump("purity_equalities")

    between = bg_poset.interval(c_min, c_max)
    if set(between) != set(classes):
        fail(
            "saturation",
            text,
            f"interval has {len(between)} classes, endpoints give {len(classes)}",
        )
    bump("saturation")

    purity = cl.purity_report(trees[0])
    for check in purity["helper_checks"]:
        for key in ("min_follows_type_II", "max_follows_type_I", "i_set_difference_is_one_orbit"):
            if not check.get(key, False):
                fail("helper_replay", text, f"{key} failed at node {check['node']}")
            bump("helper_replay")
    return 1


def ref_check_witness_additivity(datum, witness, text, fail, bump):
    total = cl.classical_reflection_length(multiply(witness.c, witness.x))
    base = cl.classical_reflection_length(witness.x)
    twist = mat_mul(witness.x.finite, datum.delta)
    relative = conjugacy.relative_reflection_length(datum, witness.c.finite, twist)
    if total != base + relative:
        fail("reflection_additivity", text, f"{total} != {base} + {relative}")
    perm = cl.twist_permutation(witness.x, witness.K)
    orbit_count = len(conjugacy.permutation_orbits(perm)) if perm is not None else 0
    if relative != orbit_count:
        fail(
            "reflection_additivity",
            text,
            f"relative length {relative} != orbit count {orbit_count}",
        )
    bump("reflection_additivity", 2)


def suites(report):
    return {
        name: (r.checked, r.violations, r.findings)
        for name, r in report.results.items()
    }


def audit_both(monkeypatch, spec, max_length, seeds):
    """The audit's suites with the shared-tree element audit and with the reference."""
    datum = build_root_datum(spec)
    shared = checks.audit(datum, max_length, seeds=seeds)
    with monkeypatch.context() as patch:
        patch.setattr(checks, "_audit_element", ref_audit_element)
        reference = checks.audit(datum, max_length, seeds=seeds)
    assert (shared.corpus_size, shared.geo_cox_count) == (
        reference.corpus_size,
        reference.geo_cox_count,
    )
    return suites(shared), suites(reference)


AUDIT_CORPORA = (("A2:adj", 6), ("C2:sc", 6), ("G2:sc", 6), ("2A3:sc", 4))


@pytest.mark.parametrize(
    "seeds", [SEEDS, tuple(range(10, 20)), tuple(range(20))], ids=["0-9", "10-19", "0-19"]
)
@pytest.mark.parametrize("spec,max_length", AUDIT_CORPORA)
def test_audit_matches_per_seed_reference(monkeypatch, spec, max_length, seeds):
    shared, reference = audit_both(monkeypatch, spec, max_length, seeds)
    assert shared == reference


def element_suites(element_audit, w, seeds):
    results = {name: checks.SuiteResult(name) for name in checks.CHECK_NAMES}

    def fail(name, element, detail):
        results[name].violations.append({"element": element, "detail": detail})

    def bump(name, k=1):
        results[name].checked += k

    geo = element_audit(w, seeds, DEFAULT_BFS_CAP, results, fail, bump)
    return geo, {name: (r.checked, r.violations, r.findings) for name, r in results.items()}


def partly_shared(pick):
    """An A2:adj element and a ``pick`` of its first tree missing from a later tree."""
    for w in corpus("A2:adj", 6):
        trees = ref.share_equal_trees([rt.build_tree(w, seed=s) for s in SEEDS])
        for other in trees[1:]:
            missing = [x for x in pick(trees[0]) if x not in pick(other)]
            if missing:
                return w, trees, missing[0]
    raise AssertionError("every A2:adj <= 6 element has one tree for all seeds")


def test_failed_edge_is_reported_per_seed(monkeypatch):
    w, trees, bad = partly_shared(lambda tree: tree.edges)
    monkeypatch.setattr(checks, "verify_edge", lambda edge: edge != bad and rt.verify_edge(edge))
    geo, shared = element_suites(checks._audit_element, w, SEEDS)
    assert (geo, shared) == element_suites(ref_audit_element, w, SEEDS)
    seeds_with_edge = sum(bad in tree.edges for tree in trees)
    assert 0 < seeds_with_edge < len(SEEDS)
    checked, violations, _findings = shared["endpoint_certificates"]
    assert checked == sum(len(t.endpoints()) + len(t.edges) for t in trees)
    assert [v["detail"] for v in violations] == ["edge witness replay failed"] * seeds_with_edge


def test_edge_fault_after_a_warm_audit_is_seen(monkeypatch):
    # edge verdicts are shared by the elements of one audit only: an edge
    # that starts failing after a clean audit fails in the next one
    assert checks.audit(build_root_datum("C2:sc"), 4, seeds=SEEDS).passed
    bad = next(edge for w in corpus("C2:sc", 4) for edge in rt.build_tree(w).edges)
    monkeypatch.setattr(checks, "verify_edge", lambda edge: edge != bad and rt.verify_edge(edge))
    shared, reference = audit_both(monkeypatch, "C2:sc", 4, SEEDS)
    assert shared == reference
    _checked, violations, _findings = shared["endpoint_certificates"]
    assert violations and {v["detail"] for v in violations} == {"edge witness replay failed"}


def test_failed_endpoint_is_reported_per_seed(monkeypatch):
    w, trees, bad = partly_shared(lambda tree: tree.endpoints())

    def is_min_len(x, cap=DEFAULT_BFS_CAP):
        if x == bad:
            return types.SimpleNamespace(is_min_len=False)
        return conjugacy.is_min_len(x, cap=cap)

    monkeypatch.setattr(checks, "is_min_len", is_min_len)
    geo, shared = element_suites(checks._audit_element, w, SEEDS)
    assert (geo, shared) == element_suites(ref_audit_element, w, SEEDS)
    seeds_with_endpoint = sum(bad in tree.endpoints() for tree in trees)
    assert 0 < seeds_with_endpoint < len(SEEDS)
    detail = f"endpoint {format_element(bad)} not minimal"
    _checked, violations, _findings = shared["endpoint_certificates"]
    assert [v["detail"] for v in violations] == [detail] * seeds_with_endpoint


def test_failed_witness_additivity_is_reported_per_element(monkeypatch):
    # one relative length off by one: every element with a witness whose
    # Coxeter part is s1 fails, also after an earlier element filled the memo
    datum = build_root_datum("C2:sc")
    target = datum.weyl_generators[0]
    relative = conjugacy.relative_reflection_length

    def off_by_one(datum_, c_finite, twist):
        return relative(datum_, c_finite, twist) + (c_finite == target)

    monkeypatch.setattr(conjugacy, "relative_reflection_length", off_by_one)
    shared, reference = audit_both(monkeypatch, "C2:sc", 6, SEEDS)
    assert shared == reference
    _checked, violations, _findings = shared["reflection_additivity"]
    assert len({v["element"] for v in violations}) > 1


# -- saturation under a faulty interval -----------------------------------------


def drops_the_top_class(original):
    return lambda c_lo, c_hi: [c for c in original(c_lo, c_hi) if c != c_hi]


def adds_a_class(original):
    # the class of a far translation, above every interval of a short corpus
    def faulty(c_lo, c_hi):
        return original(c_lo, c_hi) + [class_invariant(parse_element(c_lo.datum, "t(9,9)"))]

    return faulty


INTERVAL_FAULTS = {"drops_the_top_class": drops_the_top_class, "adds_a_class": adds_a_class}


@pytest.mark.parametrize("fault", INTERVAL_FAULTS)
@pytest.mark.parametrize("spec", ("A2:adj", "C2:sc"))
def test_interval_fault_gives_the_reference_violations(monkeypatch, spec, fault):
    # the audit reads the interval through purity_report, the reference
    # through bg_poset; both must see the fault and report it alike
    faulty = INTERVAL_FAULTS[fault](bg_poset.interval)
    monkeypatch.setattr(bg_poset, "interval", faulty)
    monkeypatch.setattr(cl, "interval", faulty)
    shared, reference = audit_both(monkeypatch, spec, 5, SEEDS)
    assert shared == reference
    _checked, violations, _findings = shared["saturation"]
    assert violations
    assert all(v["detail"].startswith("interval has ") for v in violations)


# -- the class poset's memos -----------------------------------------------------


@pytest.mark.parametrize("spec,max_length", AUDIT_CORPORA)
def test_memoized_extrema_and_interval_match_the_reference_on_tree_nodes(spec, max_length):
    # a fresh datum, so every class set and pair meets an empty memo first
    datum = RootDatum(parse_spec(spec))
    sets, pairs = set(), set()
    for w in checks.corpus(datum, max_length):
        for tree in dict.fromkeys(rt.seed_trees(w, SEEDS)):
            for node in tree.expansions:
                classes = frozenset(rt.summary_classes(rt.path_summary(tree, start=node)))
                if classes in sets:
                    continue
                sets.add(classes)
                assert classes not in datum._extrema_cache
                try:
                    want = ref.pairwise_extrema(classes)
                except NoUniqueExtremumError:
                    for _ in range(2):
                        with pytest.raises(NoUniqueExtremumError):
                            extrema(classes)
                    continue
                assert extrema(classes) == want == extrema(classes)
                if want in pairs:
                    continue
                pairs.add(want)
                assert want not in datum._interval_cache
                between = ref.unmemoized_interval(*want)
                assert interval(*want) == between == interval(*want)
    assert len(datum._extrema_cache) == sum(len(c) > 1 for c in sets)
    assert len(datum._interval_cache) == sum(lo is not hi for lo, hi in pairs)


@pytest.fixture
def poset_work(monkeypatch):
    """The class sets whose extrema are computed and the Levi walks of the intervals."""
    work = {"extrema": [], "levi_classes": 0}
    least_and_greatest = bg_poset._least_and_greatest
    levi_classes = levi.levi_classes

    def counting_extrema(classes):
        work["extrema"].append(classes)
        return least_and_greatest(classes)

    def counting_levi_classes(*args, **kw):
        work["levi_classes"] += 1
        return levi_classes(*args, **kw)

    monkeypatch.setattr(bg_poset, "_least_and_greatest", counting_extrema)
    monkeypatch.setattr(levi, "levi_classes", counting_levi_classes)
    return work


def test_audit_computes_each_extrema_and_interval_once(poset_calls, poset_work):
    datum = RootDatum(parse_spec("A2:adj"))
    assert checks.audit(datum, 8, seeds=SEEDS).passed
    asked_sets = {frozenset(classes) for classes in poset_calls["extrema"]}
    asked_pairs = {pair for pair in poset_calls["interval"] if pair[0] is not pair[1]}
    computed = poset_work["extrema"]
    assert len(computed) == len(set(computed))
    assert set(computed) == {classes for classes in asked_sets if len(classes) > 1}
    assert poset_work["levi_classes"] == len(asked_pairs) == len(datum._interval_cache)
    # the memos are read: more requests than computations
    assert len(poset_calls["extrema"]) > len(computed) > 0
    assert len(poset_calls["interval"]) > len(asked_pairs) > 0
