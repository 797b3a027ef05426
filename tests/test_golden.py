"""Golden classify reports: the JSON of ``report_to_dict`` must not change.

``tests/golden/reports.jsonl`` holds one line per element, recorded by
``tests/golden/record.py``: the paper's three examples, and per datum an
affine Coxeter word and an element outside geometric Coxeter type.
``tests/golden/tail_reports.jsonl`` holds the slowest classify calls
known, rank-4 and rank-5 elements whose defects need the largest
straight-element enumerations. Each line is recomputed and compared
byte for byte.
"""

import json
from pathlib import Path

import pytest

from adlvkit import affine_weyl as aw
from adlvkit import classifier as cl
from adlvkit.root_datum import build_root_datum

GOLDEN = Path(__file__).resolve().parent / "golden"
LINES = (GOLDEN / "reports.jsonl").read_text().splitlines()
TAIL_LINES = (GOLDEN / "tail_reports.jsonl").read_text().splitlines()


def stable_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _line_id(line):
    return " ".join(json.loads(line)[k] for k in ("datum", "text"))


@pytest.mark.parametrize("line", LINES, ids=_line_id)
def test_report_bytes_match_golden(line):
    _assert_report_matches(line)


@pytest.mark.parametrize("line", TAIL_LINES, ids=_line_id)
def test_tail_report_bytes_match_golden(line):
    _assert_report_matches(line)


def _assert_report_matches(line):
    recorded = json.loads(line)
    w = aw.parse_element(build_root_datum(recorded["datum"]), recorded["text"])
    report = cl.report_to_dict(cl.classify(w))
    assert stable_json({"datum": recorded["datum"], "text": recorded["text"], "report": report}) == line


def test_golden_covers_every_datum():
    data = {json.loads(line)["datum"] for line in LINES}
    assert data == {
        "A1:adj", "A2:adj", "C2:sc", "G2:sc", "A3:gl", "2A3:sc",
        "B3:adj", "C3:sc", "2A4:sc", "3D4:sc", "A5:gl",
    }
    assert len(LINES) == 30
