import pytest

from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import classifier as cl
from adlvkit import conjugacy as cj
from adlvkit import reduction_tree as rt
from adlvkit.errors import NotMinLenError, UsageError
from adlvkit.root_datum import build_root_datum
from conftest import length_ball


# -- spherical subsets --------------------------------------------------------


def test_spherical_subsets_a1(a1):
    subsets = cl.spherical_subsets(a1)
    assert () in subsets
    assert (0,) in subsets and (1,) in subsets
    assert (0, 1) not in subsets  # the whole affine diagram is not finite


def test_spherical_matches_subgroup_growth(a2, c2sc):
    # oracle: a subset is spherical iff closing the generators saturates
    def closes(datum, K, cap=4000):
        seen = {aw.identity(datum)}
        frontier = list(seen)
        while frontier:
            new = []
            for x in frontier:
                for i in K:
                    y = aw.multiply(x, aw.simple_reflection(datum, i))
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > cap:
                            return False
                        new.append(y)
            frontier = new
        return True

    import itertools

    g2 = build_root_datum("G2:sc")
    a3tw = build_root_datum("2A3:sc")
    for datum in (a2, c2sc, g2, a3tw):
        # sizes up to rank + 1, so the full index set meets the oracle too
        expected = [
            K
            for size in range(datum.rank + 2)
            for K in itertools.combinations(range(datum.rank + 1), size)
            if closes(datum, K)
        ]
        assert cl.spherical_subsets(datum) == expected


# -- coset decomposition --------------------------------------------------------


def test_coset_decompose_empty_K(a2):
    w = aw.parse_element(a2, "s1 s2 s0")
    u, x, letters = cl.coset_decompose(w, ())
    assert u.is_identity() and x == w and letters == ()


def test_coset_decompose_a5(a5gl):
    w = aw.parse_element(a5gl, "s4 tau3")
    result = cl.coset_decompose(w, (1, 4))
    assert result is not None
    u, x, _letters = result
    assert x == aw.omega_element(a5gl, 3)
    assert u == aw.simple_reflection(a5gl, 4)


def test_coset_decompose_c2(c2sc):
    w = aw.parse_element(c2sc, "s1 tau2")
    result = cl.coset_decompose(w, (1,))
    assert result is not None
    u, x, _letters = result
    assert x == aw.omega_element(c2sc, 2)
    assert u == aw.simple_reflection(c2sc, 1)


def test_coset_decompose_stability_failure(a5gl):
    # tau3 moves index 1 to 4, so K = {1} cannot be stable
    w = aw.parse_element(a5gl, "tau3 s4")
    assert cl.coset_decompose(w, (1,)) is None


def test_coset_decompose_rejects_affine_K(a1, a2):
    with pytest.raises(UsageError):
        cl.coset_decompose(aw.identity(a1), (0, 1))
    # indices outside 0..rank and repeated indices name no spherical set
    w = aw.parse_element(a2, "s1 s2")
    for K in ((5,), (1, 3), (-1,), (1, 1)):
        with pytest.raises(UsageError):
            cl.coset_decompose(w, K)


# -- twisted Coxeter test ----------------------------------------------------------


def test_twisted_coxeter_empty(a2):
    assert cl.is_twisted_coxeter(aw.identity(a2), (), aw.identity(a2))


def test_twisted_coxeter_fused_orbit(a4tw):
    # the twist fuses indices 0 and 1 into a single orbit through tau1
    tau1 = aw.omega_element(a4tw, 1)
    assert cl.is_twisted_coxeter(aw.simple_reflection(a4tw, 1), (0, 1), tau1)
    assert cl.is_twisted_coxeter(aw.simple_reflection(a4tw, 0), (0, 1), tau1)
    both = aw.multiply(aw.simple_reflection(a4tw, 0), aw.simple_reflection(a4tw, 1))
    assert not cl.is_twisted_coxeter(both, (0, 1), tau1)


def test_twisted_coxeter_a5_single_orbit(a5gl):
    # {1, 4} is one orbit under conjugation by tau3, so s1 s4 is too long
    tau3 = aw.omega_element(a5gl, 3)
    perm = cl.twist_permutation(tau3, (1, 4))
    assert perm == {1: 4, 4: 1}
    s1s4 = aw.parse_element(a5gl, "s1 s4")
    assert not cl.is_twisted_coxeter(s1s4, (1, 4), tau3)
    assert cl.is_twisted_coxeter(aw.simple_reflection(a5gl, 4), (1, 4), tau3)


def test_twisted_coxeter_rejects_outsiders(a2):
    with pytest.raises(UsageError):
        cl.is_twisted_coxeter(aw.simple_reflection(a2, 2), (1,), aw.identity(a2))


# -- minimal Coxeter type -------------------------------------------------------------


def test_min_cox_length_zero(a5gl, c2sc):
    for datum, k in ((a5gl, 3), (c2sc, 2)):
        tau = aw.omega_element(datum, k)
        wit = cl.is_minimal_coxeter_type(tau)
        assert wit is not None
        assert wit.K == () and wit.x == tau and wit.c.is_identity()


def test_min_cox_finite_coxeter(a2):
    # a twisted Coxeter element of a finite parabolic is its own witness
    w = aw.parse_element(a2, "s1 s2")
    wit = cl.is_minimal_coxeter_type(w)
    assert wit is not None
    assert wit.x.is_identity()
    assert set(wit.K) == {1, 2}


def test_min_cox_straight_element(a1):
    w = aw.parse_element(a1, "s1 s0")
    wit = cl.is_minimal_coxeter_type(w)
    assert wit is not None
    assert wit.K == () and wit.x == w and wit.c.is_identity()


def test_min_cox_paper_witnesses(a5gl, c2sc, a4tw):
    cases = [
        (a5gl, "s4 tau3", (1, 4), 3, "s4"),
        (c2sc, "s1 tau2", (1,), 2, "s1"),
        (a4tw, "s1 tau1", (0, 1), 1, "s1"),
    ]
    for datum, text, K, tau_k, c_text in cases:
        wit = cl.is_minimal_coxeter_type(aw.parse_element(datum, text))
        assert wit is not None
        assert wit.K == K
        assert wit.x == aw.omega_element(datum, tau_k)
        assert wit.c == aw.parse_element(datum, c_text)
        # replaying the shifts lands on c x at constant length
        target = cj.replay_moves(aw.parse_element(datum, text), wit.shift_sequence)
        assert target == aw.multiply(wit.c, wit.x)
        assert aw.length(target) == aw.length(aw.parse_element(datum, text))


def test_min_cox_requires_min_len(a1):
    with pytest.raises(NotMinLenError):
        cl.is_minimal_coxeter_type(aw.parse_element(a1, "s0 s1 s0"))


def test_min_cox_negative_case(c2sc):
    # the longest finite element is minimal but has no Coxeter witness
    w0 = aw.parse_element(c2sc, "s1 s2 s1 s2")
    assert cj.is_min_len(w0).is_min_len
    assert cl.is_minimal_coxeter_type(w0) is None


# -- strong multiplicity one and geometric type ------------------------------------------


def trees(w, seeds):
    return [rt.build_tree(w, seed=s) for s in seeds]


def test_smo_min_len(a5gl):
    ok, offending = cl.strong_multiplicity_one(trees(aw.parse_element(a5gl, "tau3 s4"), (0, 1)))
    assert ok and offending is None


def test_smo_a1(a1):
    ok, _ = cl.strong_multiplicity_one(trees(aw.parse_element(a1, "s0 s1 s0"), range(5)))
    assert ok


def test_geo_cox_examples(a1, a5gl):
    assert cl.is_geometric_coxeter_type(trees(aw.parse_element(a5gl, "s4 tau3"), (0, 1))).is_geo_cox
    res = cl.is_geometric_coxeter_type(trees(aw.parse_element(a1, "s0 s1 s0"), range(5)))
    assert res.is_geo_cox
    assert all(w is not None for w in res.endpoint_witnesses.values())


def test_dominant_translation_times_coxeter_is_geo(a2, c2sc):
    # dominant translation times a partial twisted Coxeter element, taken
    # minimal in its finite-Weyl coset, has geometric Coxeter type
    cases = [
        (a2, "t(1,1) s1 s2"),
        (a2, "t(2,1) s1"),
        (c2sc, "t(1,1) s1 s2"),
        (c2sc, "t(1,0) s1"),
    ]
    for datum, text in cases:
        w = aw.parse_element(datum, text)
        left_minimal = all(
            aw.length(aw.multiply(aw.simple_reflection(datum, i), w)) > aw.length(w)
            for i in range(1, datum.rank + 1)
        )
        assert left_minimal, text
        assert cl.is_geometric_coxeter_type(trees(w, (0, 1, 2))).is_geo_cox, text


# -- the closed formulas -------------------------------------------------------------------


def test_formulas_a1(a1):
    w = aw.parse_element(a1, "s0 s1 s0")
    grouped = rt.bgw(w, seed=0)
    classes = bg.sort_classes(grouped)
    c_min, c_max = bg.extrema(classes)
    basic = cj.class_invariant(aw.identity(a1))
    top = cj.class_invariant(aw.parse_element(a1, "t(1)"))
    assert (c_min, c_max) == (basic, top)
    assert cl.dim_formula(w, basic) == 2
    assert cl.dim_formula(w, top) == 1
    assert cl.ell1_formula(a1, c_min, top) == 1
    assert cl.ell1_formula(a1, c_min, basic) == 0
    assert cl.ell2_formula(w, basic, c_max) == 1
    assert cl.ell2_formula(w, top, c_max) == 0
    # simple reflection: the one-dimensional classical case
    assert cl.dim_formula(aw.parse_element(a1, "s1"), basic) == 1


def test_ell1_difference_form(c2sc):
    # the two Newton zero sets need not be nested; the count lives on the
    # set difference (this element is the smallest such case in C2)
    w = aw.parse_element(c2sc, "t(0,-1) s2")
    grouped = rt.bgw(w, seed=0)
    classes = bg.sort_classes(grouped)
    c_min, c_max = bg.extrema(classes)
    z_min, z_max = c_min.zero_set, c_max.zero_set
    assert not z_max <= z_min and not z_min <= z_max
    assert cl.ell1_formula(c2sc, c_min, c_max) == 1
    ((path,),) = [grouped[c_max]]
    assert (path.count_I, path.count_II) == (1, 0)


def test_mct_inequality_values(a1, a5gl):
    assert cl.mct_inequality(aw.omega_element(a5gl, 3)) == {"slack": 0, "equality": True}
    assert cl.mct_inequality(aw.parse_element(a1, "s1")) == {"slack": 0, "equality": True}
    assert cl.mct_inequality(aw.parse_element(a1, "s1 s0 s1")) == {
        "slack": 2,
        "equality": False,
    }


def test_purity_report_a1(a1):
    report = cl.purity_report(rt.build_tree(aw.parse_element(a1, "s0 s1 s0"), seed=0))
    assert report["saturated"]
    assert report["interval_diff"] == []
    (check,) = report["helper_checks"]
    assert check["min_follows_type_II"]
    assert check["max_follows_type_I"]
    assert check["i_set_difference_is_one_orbit"]


def test_purity_report_min_len(c2sc):
    report = cl.purity_report(rt.build_tree(aw.omega_element(c2sc, 2), seed=0))
    assert report["saturated"]
    assert report["helper_checks"] == []


# -- the end-to-end report -------------------------------------------------------------------


def test_classify_report_roundtrip(a1):
    report = cl.classify(aw.parse_element(a1, "s0 s1 s0"), seeds=(0, 1, 2))
    data = cl.report_to_dict(report)
    assert data["schema"] == "adlvkit.report/1"
    assert data["geo_cox"] and data["smo"]
    assert [row["dim"] for row in data["bgw"]] == [2, 1]
    assert [row["ell1"] for row in data["bgw"]] == [0, 1]
    assert [row["ell2"] for row in data["bgw"]] == [1, 0]
    assert all(row["formula_delta"] == [] for row in data["bgw"])
    import json

    json.dumps(data)  # must be serializable as-is


def test_formulas_match_oracle_small_corpus(a2):
    for w in length_ball(a2, 4):
        geo = cl.is_geometric_coxeter_type(trees(w, (0, 1, 2)))
        if not geo.is_geo_cox:
            continue
        summary = rt.path_summary(rt.build_tree(w, seed=0))
        classes = bg.sort_classes(rt.summary_classes(summary))
        c_min, c_max = bg.extrema(classes)
        for (cls, c1, c2, _lend), _mult in summary.items():
            assert (c1, c2) == (
                cl.ell1_formula(a2, c_min, cls),
                cl.ell2_formula(w, cls, c_max),
            )
