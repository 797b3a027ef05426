"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 2 through 8 run over the fixed corpora (length 8 for the rank-2
data, length 6 for the rank-3 data) with ten strategy seeds, entirely
through the audit runner; each criterion then asserts its slice of the
results at zero tolerance. Criterion 1 replays the named witnesses
exactly and enforces the per-element runtime budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
The corpus criteria read only the ``audits`` fixture, so
``tests/test_acceptance_rank4.py`` runs them again over its own corpora.
"""

import json
import time
from pathlib import Path

import pytest

from adlvkit import affine_weyl as aw
from adlvkit import checks
from adlvkit import classifier as cl
from adlvkit.root_datum import build_root_datum

SEEDS = tuple(range(10))

CORPORA = (
    ("A1:adj", 8),
    ("A2:adj", 8),
    ("C2:sc", 8),
    ("G2:sc", 8),
    ("A3:gl", 6),
    ("2A3:sc", 6),
)


def audit_corpora(corpora):
    """Audit reports keyed by datum string, in corpus order."""
    return {
        datum_string: checks.audit_datum_string(datum_string, max_length, seeds=SEEDS)
        for datum_string, max_length in corpora
    }


@pytest.fixture(scope="module")
def audits():
    return audit_corpora(CORPORA)


def _criterion(number, description, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    for v in violations[:10]:
        print(f"    {v}")
    assert not violations, f"criterion {number} failed with {len(violations)} violations"


def _collect(audits, *suite_names):
    out = []
    for datum_string, report in audits.items():
        for name in suite_names:
            for v in report.results[name].violations:
                out.append({"datum": datum_string, "suite": name, **v})
    return out


def test_criterion_1_paper_examples():
    cases = [
        ("A5:gl", "s4 tau3", (1, 4), 3, "s4"),
        ("C2:sc", "s1 tau2", (1,), 2, "s1"),
        ("2A4:sc", "s1 tau1", (0, 1), 1, "s1"),
    ]
    violations = []
    for datum_string, text, K, tau_k, c_text in cases:
        datum = build_root_datum(datum_string)
        w = aw.parse_element(datum, text)
        start = time.monotonic()
        witness = cl.is_minimal_coxeter_type(w)
        elapsed = time.monotonic() - start
        expected_x = aw.omega_element(datum, tau_k)
        expected_c = aw.parse_element(datum, c_text)
        if witness is None:
            violations.append(f"{datum_string} {text}: no witness")
            continue
        if witness.K != tuple(sorted(K)):
            violations.append(f"{datum_string} {text}: K = {witness.K}")
        if witness.x != expected_x:
            violations.append(f"{datum_string} {text}: wrong straight part")
        if witness.c != expected_c:
            violations.append(f"{datum_string} {text}: wrong Coxeter part")
        if elapsed >= 1.0:
            violations.append(f"{datum_string} {text}: took {elapsed:.2f}s")
    # every length-zero element is witnessed by (empty K, itself, identity)
    for datum_string, k in (("A5:gl", 3), ("C2:sc", 2), ("2A4:sc", 1), ("A1:gl", 1)):
        datum = build_root_datum(datum_string)
        tau = aw.omega_element(datum, k)
        start = time.monotonic()
        witness = cl.is_minimal_coxeter_type(tau)
        elapsed = time.monotonic() - start
        if witness is None or witness.K != () or witness.x != tau or not witness.c.is_identity():
            violations.append(f"{datum_string} tau{k}: wrong witness")
        if elapsed >= 1.0:
            violations.append(f"{datum_string} tau{k}: took {elapsed:.2f}s")
    _criterion(1, "named witnesses reproduce exactly, under one second each", violations)


def test_criterion_2_type_counts_match_formulas(audits):
    violations = _collect(audits, "formula_type_counts")
    total = sum(report.elapsed for report in audits.values())
    _criterion(
        2,
        f"every path's (type I, type II) counts equal the closed formulas "
        f"(corpus walk {total:.0f}s)",
        violations,
    )


def test_criterion_3_dimension_consistency(audits):
    _criterion(
        3,
        "dimension formula equals the tree-derived maximum on every class",
        _collect(audits, "dimension_consistency", "purity_equalities"),
    )


def test_criterion_4_saturation(audits):
    _criterion(
        4,
        "endpoint classes fill the whole interval between their extrema",
        _collect(audits, "saturation"),
    )


def test_criterion_5_reflection_additivity(audits):
    _criterion(
        5,
        "reflection lengths add along every witness decomposition",
        _collect(audits, "reflection_additivity"),
    )


def test_criterion_6_inequality_and_equality_case(audits):
    _criterion(
        6,
        "length bound slack is nonnegative and vanishes exactly on witnessed classes",
        _collect(audits, "mct_slack"),
    )


def test_criterion_7_structural_conservation(audits):
    _criterion(
        7,
        "per-path conservation, replayable certificates, seed-stable multisets",
        _collect(
            audits,
            "conservation",
            "endpoint_certificates",
            "seed_invariance",
            "contains_own_class",
            "min_class_is_own",
            "helper_replay",
        ),
    )


def test_criterion_8_integrality_tripwires(audits):
    violations = _collect(
        audits, "integrality", "rankedness", "defect_witness_independence"
    )
    _criterion(
        8,
        "chain lengths, gaps, dimensions and type-II counts are integers throughout",
        violations,
    )


def test_corpus_accounting(audits):
    sizes = {d: report.corpus_size for d, report in audits.items()}
    geo = {d: report.geo_cox_count for d, report in audits.items()}
    total = sum(report.elapsed for report in audits.values())
    print(
        "corpus sizes "
        + ", ".join(f"{d}:{n}" for d, n in sizes.items())
        + f"; geometric Coxeter type {sum(geo.values())} of {sum(sizes.values())}"
        + f"; total audit time {total:.0f}s"
    )
    assert all(n > 0 for n in sizes.values())
    for report in audits.values():
        assert report.results["datum_invariants"].passed
        assert report.results["length_properties"].passed
        assert report.results["class_invariance"].passed
        assert report.results["straight_implies_minlen"].passed


def test_audit_counts_match_golden(audits):
    """Checked counts, corpus sizes and geometric-Coxeter counts are unchanged.

    ``tests/golden/acceptance.json`` was recorded by ``tests/golden/record.py``.
    """
    assert_counts_match_golden(audits, "acceptance.json")


def assert_counts_match_golden(audits, name):
    golden = json.loads((Path(__file__).resolve().parent / "golden" / name).read_text())
    assert sorted(golden) == sorted(audits)
    for datum_string, report in audits.items():
        counts = {
            "corpus_size": report.corpus_size,
            "geo_cox_count": report.geo_cox_count,
            "checked": {name: r.checked for name, r in sorted(report.results.items())},
            "violations": sum(len(r.violations) for r in report.results.values()),
        }
        assert counts == golden[datum_string], datum_string
