"""Differential oracle for descents and shift moves read off root signs.

``affine_weyl.left_descent`` and ``right_descent`` decide whether s_i x or
x s_j is shorter by one pairing and one root sign, where the package used
to build the product and compare lengths. Here every sign is compared
with the length difference, on random elements of many data (E6:sc, E7:sc
and E8:sc included) and on every element of length <= 4 of five data.
The paths the signs replaced are kept in ``matrix_reference`` and
compared with their replacements: the shift class graph that measures
every conjugate (``length_shift_class``), on every class of the ten
acceptance corpora; the twist permutation that reads
``act_on_affine_root``, on every spherical K; and the ``parse_element``
that multiplies by every factor, on random texts. The ``scan
--left-minimal`` filter must print the rows of the length filter it
replaced.
"""

import functools
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import checks, cli
from adlvkit import classifier as cl
from adlvkit import conjugacy as cj
from adlvkit.linalg import vec_mat
from adlvkit.root_datum import build_root_datum
from test_acceptance import CORPORA as ACCEPTANCE
from test_acceptance_rank4 import CORPORA as ACCEPTANCE_RANK4
from test_datum_oracle import DATA


@functools.lru_cache(maxsize=None)
def corpus(spec, max_length):
    return tuple(checks.corpus(build_root_datum(spec), max_length))


def random_element(data, datum):
    lam = data.draw(st.lists(st.integers(-3, 3), min_size=datum.n, max_size=datum.n))
    word = data.draw(st.lists(st.integers(0, datum.rank), max_size=10))
    x = aw.translation(datum, lam)
    for i in word:
        x = aw.right_by_simple(x, i)
    return x


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_sign_is_the_length_difference(data):
    spec = data.draw(st.sampled_from(DATA + ("E6:sc", "E7:sc", "E8:sc")), label="datum")
    datum = build_root_datum(spec)
    x = random_element(data, datum)
    base = aw.length(x)
    for i in range(datum.rank + 1):
        assert aw.left_descent(x, i) == (aw.length(aw.left_by_simple(x, i)) < base), (spec, i)
        assert aw.right_descent(x, i) == (aw.length(aw.right_by_simple(x, i)) < base), (spec, i)


@pytest.mark.parametrize("spec", ("A1:adj", "C2:sc", "G2:sc", "A3:gl", "2A3:sc"))
def test_signs_on_a_length_ball(spec):
    # every element of length <= 4 with every finite part met, the q = 0
    # and p = 0 ties included
    datum = build_root_datum(spec)
    for x in corpus(spec, 4):
        base = aw.length(x)
        for i in range(datum.rank + 1):
            assert aw.left_descent(x, i) == (aw.length(aw.left_by_simple(x, i)) < base)
            assert aw.right_descent(x, i) == (aw.length(aw.right_by_simple(x, i)) < base)


def test_root_image_is_the_image_of_the_root():
    datum = build_root_datum("2A4:sc")
    for x in corpus("2A4:sc", 3):
        zinv = datum.weyl_inverse(x.finite)
        for j, (alpha, _coroot) in enumerate(datum._reflection_roots):
            beta, positive = datum.root_image(x.finite_index, j)
            assert beta == vec_mat(alpha, zinv)
            assert positive == (beta in datum.positive_roots)


@pytest.mark.parametrize("spec,max_length", ACCEPTANCE + ACCEPTANCE_RANK4)
def test_shift_class_matches_the_length_graph(spec, max_length):
    datum = build_root_datum(spec)
    done = set()
    fixed = 0
    for x in corpus(spec, max_length):
        if x in done:
            continue
        graph = cj.ShiftClass(x, cj.DEFAULT_BFS_CAP)
        members, neighbours, drops = ref.length_shift_class(x)
        assert graph.members == members, (spec, aw.format_element(x))
        assert graph.neighbours == neighbours
        assert graph.drops == drops
        done |= members
        fixed += sum(y is cur for cur, flat in neighbours.items() for y in flat.values())
    # s_i x sigma(s_i) = x, where the signs alone cannot decide
    assert fixed, spec


@pytest.mark.parametrize("spec,max_length", ACCEPTANCE[:5] + ACCEPTANCE_RANK4[2:3])
def test_twist_permutation_matches_the_affine_root_action(spec, max_length):
    datum = build_root_datum(spec)
    subsets = cl.spherical_subsets(datum)
    found = 0
    for x in corpus(spec, min(max_length, 4)):
        for K in subsets:
            perm = cl.twist_permutation(x, K)
            assert perm == ref.affine_root_twist_permutation(x, K), (aw.format_element(x), K)
            found += perm is not None and len(K) > 0
    assert found


def texts(datum):
    letters = st.integers(0, datum.rank).map(lambda i: f"s{i}")
    limit = datum.n if datum.spec.lattice_preset == "gl" else datum.rank
    taus = [
        f"tau{k}"
        for k in range(limit + 1)
        if k == 0
        or (datum.spec.lattice_preset == "gl" and k == datum.n)
        or all(c.denominator == 1 for c in datum.fundamental_coweights[k - 1])
    ]
    coords = st.lists(st.integers(-3, 3), min_size=datum.n, max_size=datum.n)
    translations = coords.map(lambda c: "t(" + ",".join(map(str, c)) + ")")
    token = st.one_of(letters, st.sampled_from(taus), translations)
    return st.lists(token, max_size=8).map(" ".join)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_parse_element_matches_the_multiply_form(data):
    datum = build_root_datum(data.draw(st.sampled_from(DATA), label="datum"))
    text = data.draw(texts(datum), label="text")
    assert aw.parse_element(datum, text) is ref.multiply_parse_element(datum, text)


def scan_rows(argv):
    out = io.StringIO()
    assert cli.main(argv, out=out) == 0
    return out.getvalue()


def test_scan_left_minimal_matches_the_length_filter(monkeypatch):
    argv = ["scan", "--datum", "A3:gl", "--max-length", "4", "--left-minimal", "1,2"]
    argv += ["--format", "jsonl", "--jobs", "1"]
    rows = scan_rows(argv)
    monkeypatch.setattr(
        cli,
        "left_descent",
        lambda x, i: aw.length(aw.left_by_simple(x, i)) < aw.length(x),
    )
    assert scan_rows(argv) == rows
    assert 0 < rows.count("\n") < len(corpus("A3:gl", 4))
