"""Smoke coverage for the corpus audit machinery on small corpora.

The acceptance suite runs the full corpora; here the point is that the
runner itself is stable, reports sizes sensibly, and classifies soft
observations as findings rather than failures.
"""

import pytest
from test_acceptance import CORPORA as ACCEPTANCE
from test_acceptance_rank4 import CORPORA as ACCEPTANCE_RANK4

from adlvkit import checks
from adlvkit.affine_weyl import format_element, length
from adlvkit.root_datum import RootDatum, parse_spec


def test_audit_a1_small():
    report = checks.audit_datum_string("A1:adj", 4, seeds=(0, 1, 2))
    assert report.passed
    assert report.corpus_size == 9
    assert report.geo_cox_count == 9
    assert set(report.results) == set(checks.CHECK_NAMES)
    assert all(r.checked > 0 for r in report.results.values())


def test_audit_c2_adjoint_small():
    report = checks.audit_datum_string("C2:adj", 4, seeds=(0, 1))
    assert report.passed


def test_audit_gl_small():
    report = checks.audit_datum_string("A1:gl", 3, seeds=(0, 1))
    assert report.passed
    # the normalized corpus sees both Kottwitz cosets
    assert report.corpus_size > 4


def test_audit_twisted_small():
    report = checks.audit_datum_string("2A3:sc", 3, seeds=(0, 1))
    assert report.passed


def test_lines_format():
    report = checks.audit_datum_string("A1:adj", 2, seeds=(0,))
    lines = report.lines()
    assert len(lines) == len(checks.CHECK_NAMES)
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


@pytest.mark.parametrize("spec,max_length", ACCEPTANCE + ACCEPTANCE_RANK4)
def test_corpus_is_strictly_increasing_in_length_then_text(spec, max_length):
    # checks.corpus owns the order: bg_poset.iter_elements promises none
    elements = checks.corpus(RootDatum(parse_spec(spec)), max_length)
    keys = [(length(x), format_element(x)) for x in elements]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_audit_violations_follow_the_corpus_order(monkeypatch):
    # every edge replay fails, so every element with an edge is reported
    monkeypatch.setattr(checks, "verify_edge", lambda edge: False)
    datum = RootDatum(parse_spec("C2:sc"))
    order = {format_element(x): pos for pos, x in enumerate(checks.corpus(datum, 4))}
    report = checks.audit(datum, 4, seeds=(0, 1))
    named = [v["element"] for v in report.results["endpoint_certificates"].violations]
    assert named
    positions = [order[text] for text in named]
    assert positions == sorted(positions)
