"""Differential oracle for the work a cold ``classify`` skips.

Three shortcuts, each kept exact:

* ``bg_poset.interval(c, c)`` returns ``[c]`` without walking the Levi
  class set (the order is antisymmetric). ``matrix_reference.levi_interval``
  still filters ``levi.levi_classes``; the two agree on the class of every
  minimal-length element of the ten acceptance corpora, a set holding
  every endpoint class of their reduction trees. A guard classifies the
  paper examples, whose intervals are points, with ``levi_classes`` made
  to raise.
* ``classifier.is_minimal_coxeter_type`` skips a (member, K) pair whose
  stripped letters do not number len(w) - <nu_w, 2 rho>.
  ``matrix_reference.letter_unpruned_minimal_coxeter_type`` decomposes
  every pair; the witnesses agree on every minimal element of the ten
  acceptance corpora and of three rank 6-7 corpora (``WITNESS_RANK67``),
  and the skip saves recompositions there.
* ``RootDatum`` computes ``rho``, ``two_rho``, ``weyl_generators``,
  ``fundamental_coweights``, ``fundamental_weights`` and
  ``omega_quotient`` on first read; ``matrix_reference.eager_rational_views``
  builds them as the constructor did, and they agree on every datum of
  ``test_datum_oracle.DATA``.
"""

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import checks
from adlvkit import classifier as cl
from adlvkit import conjugacy as cj
from adlvkit import levi
from adlvkit.root_datum import RootDatum, parse_spec
from test_acceptance import CORPORA as ACCEPTANCE
from test_acceptance_rank4 import CORPORA as ACCEPTANCE_RANK4
from test_datum_oracle import DATA

PAPER_EXAMPLES = (("A5:gl", "s4 tau3"), ("C2:sc", "s1 tau2"), ("2A4:sc", "s1 tau1"))
# the ranks where the witness search dominates an audit, with many basic
# classes: 85, 268 and 212 minimal elements
WITNESS_RANK67 = (("E7:sc", 2), ("A7:gl", 2), ("E6:sc", 3))


def minimal_elements(spec, max_length):
    """The minimal-length elements of a corpus on a fresh datum."""
    datum = RootDatum(parse_spec(spec))
    return [w for w in checks.corpus(datum, max_length) if cj.is_min_len(w).is_min_len]


@pytest.mark.parametrize("spec,max_length", ACCEPTANCE + ACCEPTANCE_RANK4)
def test_point_interval_matches_the_levi_filter(spec, max_length):
    classes = {cj.class_invariant(w) for w in minimal_elements(spec, max_length)}
    assert len(classes) > 1
    for c in classes:
        assert bg.interval(c, c) == [c] == ref.levi_interval(c, c), c


@pytest.mark.parametrize("datum_string,text", PAPER_EXAMPLES)
def test_paper_examples_classify_without_the_levi_class_walk(datum_string, text, monkeypatch):
    datum = RootDatum(parse_spec(datum_string))
    w = aw.parse_element(datum, text)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("levi_classes called")

    monkeypatch.setattr(levi, "levi_classes", forbidden)
    report = cl.classify(w)
    assert report.geo_cox and report.purity["saturated"]
    c_min, c_max = report.purity["extrema"]
    assert c_min == c_max


@pytest.mark.parametrize("spec,max_length", ACCEPTANCE + ACCEPTANCE_RANK4 + WITNESS_RANK67)
def test_letter_pruned_witness_search_matches_the_unpruned_one(spec, max_length, monkeypatch):
    # the searches visit the same pairs up to the same witness; each pair
    # the reference decomposes is one recomposition, so the difference in
    # recompositions counts the pairs the prune skipped
    recomposed = [0]
    multiply = cl.multiply

    def counting(*args):
        recomposed[0] += 1
        return multiply(*args)

    monkeypatch.setattr(cl, "multiply", counting)
    skipped = 0
    for w in minimal_elements(spec, max_length):
        recomposed[0] = 0
        expected = ref.letter_unpruned_minimal_coxeter_type(w)
        unpruned = recomposed[0]
        recomposed[0] = 0
        assert cl.is_minimal_coxeter_type(w) == expected, w
        assert recomposed[0] <= unpruned
        skipped += unpruned - recomposed[0]
    assert skipped > 0


@pytest.mark.parametrize("spec", DATA)
def test_lazy_rational_views_match_the_eager_ones(spec):
    datum = RootDatum(parse_spec(spec))
    assert not {"rho", "omega_quotient", "fundamental_weights"} & set(vars(datum))
    for name, value in ref.eager_rational_views(datum).items():
        lazy = getattr(datum, name)
        if name == "omega_quotient":
            assert vars(lazy) == vars(value)
            assert lazy.order == value.order
        else:
            # repr tells Fraction(1, 1) from 1, so the entry types match too
            assert repr(lazy) == repr(value), name
        assert getattr(datum, name) is lazy
