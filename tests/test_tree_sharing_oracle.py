"""Differential oracle for the tree-reading functions.

``strong_multiplicity_one``, ``is_geometric_coxeter_type`` and
``purity_report`` read trees that their caller built once per seed, and
``path_summary`` memoizes on the tree. The functions prefixed ``ref_``
are the forms they replaced: each builds its own trees from
``(w, seeds, cap)``, path summaries share one memo keyed by
``(node, seed)`` across every tree of every datum, and the zero sets
I(nu) come from ``Fraction`` dots instead of the class invariant.
"""

import functools

import pytest

from adlvkit import checks
from adlvkit import classifier as cl
from adlvkit import reduction_tree as rt
from adlvkit.affine_weyl import format_element, length, parse_element
from adlvkit.bg_poset import extrema, interval
from adlvkit.conjugacy import DEFAULT_BFS_CAP, class_invariant, replay_moves
from adlvkit.errors import NoUniqueExtremumError, NotComparableError
from adlvkit.linalg import dot
from adlvkit.root_datum import build_root_datum

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
    return sorted(rt.summary_classes(summary), key=lambda c: c.sort_key())


def ref_purity_report(w, seed, cap=DEFAULT_BFS_CAP):
    datum = w.datum
    tree = rt.build_tree(w, seed=seed, cap=cap)
    classes = _sorted_classes(ref_path_summary(tree))
    try:
        c_min, c_max = extrema(classes)
        between = interval(c_min, c_max)
    except (NoUniqueExtremumError, NotComparableError) as exc:
        return {"saturated": None, "interval_diff": [], "helper_checks": [],
                "note": str(exc)}
    diff = sorted(
        set(between).symmetric_difference(classes), key=lambda c: c.sort_key()
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
                    cl.count_orbit_classes(datum, i_min - i_one) == 1
                ),
            }
        )
    return {
        "saturated": set(between) == set(classes),
        "interval_diff": diff,
        "helper_checks": helper,
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
    for w in corpus(spec, max_length):
        for seed in SEEDS:
            tree = rt.build_tree(w, seed=seed)
            for node in tree.expansions:
                summary = rt.path_summary(tree, start=node)
                assert summary == ref_path_summary(tree, start=node)
                assert summary == brute_force_summary(tree, node), (format_element(w), seed)
            assert set(tree.summaries) == set(tree.expansions)


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


# -- each pipeline builds one tree per seed ---------------------------------------


@pytest.fixture
def build_count(monkeypatch):
    calls = []

    def counting(w, seed=0, cap=DEFAULT_BFS_CAP):
        calls.append(seed)
        return rt.build_tree(w, seed=seed, cap=cap)

    monkeypatch.setattr(cl, "build_tree", counting)
    monkeypatch.setattr(checks, "build_tree", counting)
    return calls


# the first is not of geometric Coxeter type, so its audit stops before purity
ELEMENTS = (("s0 s1 s2 s1 s0", 0), ("t(1,1) s1 s2", 1))


@pytest.mark.parametrize("text,_geo", ELEMENTS)
def test_classify_builds_one_tree_per_seed(build_count, text, _geo):
    w = parse_element(build_root_datum("A2:adj"), text)
    cl.classify(w, seeds=SEEDS)
    assert sorted(build_count) == list(SEEDS)


@pytest.mark.parametrize("text,geo", ELEMENTS)
def test_audit_element_builds_one_tree_per_seed(build_count, text, geo):
    w = parse_element(build_root_datum("A2:adj"), text)
    results = {name: checks.SuiteResult(name) for name in checks.CHECK_NAMES}
    failures = []

    def fail(name, element, detail):
        failures.append((name, element, detail))

    def bump(name, k=1):
        results[name].checked += k

    assert checks._audit_element(w, SEEDS, DEFAULT_BFS_CAP, results, fail, bump) == geo
    assert failures == []
    assert sorted(build_count) == list(SEEDS)
