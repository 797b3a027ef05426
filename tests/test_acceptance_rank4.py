"""Rank-3/4 acceptance tier: the corpus criteria over larger data.

``B3:adj`` and ``C3:sc`` to length 6, the twisted ``2A4:sc`` and the
triality-twisted ``3D4:sc`` to length 4 run through the same audit, ten
strategy seeds and zero-tolerance criteria 2 to 8 as
``tests/test_acceptance.py``; criterion 1 replays the paper's named
witnesses and does not depend on the corpora. The checked counts, corpus
sizes and geometric-Coxeter counts must equal
``tests/golden/acceptance_rank4.json``, recorded by
``tests/golden/record.py``.

Run with ``pytest tests/test_acceptance_rank4.py -s`` to see the status
lines.
"""

import pytest

# the criteria are collected again here, in this order, and read this
# module's fixture
from test_acceptance import (  # noqa: F401
    assert_counts_match_golden,
    audit_corpora,
    test_criterion_2_type_counts_match_formulas,
    test_criterion_3_dimension_consistency,
    test_criterion_4_saturation,
    test_criterion_5_reflection_additivity,
    test_criterion_6_inequality_and_equality_case,
    test_criterion_7_structural_conservation,
    test_criterion_8_integrality_tripwires,
    test_corpus_accounting,
)

CORPORA = (
    ("B3:adj", 6),
    ("C3:sc", 6),
    ("2A4:sc", 4),
    ("3D4:sc", 4),
)


@pytest.fixture(scope="module")
def audits():
    return audit_corpora(CORPORA)


def test_audit_counts_match_golden(audits):
    assert_counts_match_golden(audits, "acceptance_rank4.json")
