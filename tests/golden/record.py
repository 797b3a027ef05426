"""Record the golden classify reports and acceptance audit counts.

Run from the repository root on the commit whose outputs are to be kept:

    PYTHONPATH=src python tests/golden/record.py

It writes ``reports.jsonl`` (one classify report per line, as
``report_to_dict`` with sorted keys), ``tail_reports.jsonl`` (the same
for the slowest classify calls known, whose defects need the largest
straight-element enumerations), and ``acceptance.json`` and
``acceptance_rank4.json`` (the checked counts, corpus sizes and
geometric-Coxeter counts of the two acceptance tiers).
``tests/test_golden.py``, ``tests/test_acceptance.py`` and
``tests/test_acceptance_rank4.py`` compare the same computations with
these bytes. Re-record only when a change of output is intended and
explained.
"""

import json
from pathlib import Path

from adlvkit import affine_weyl as aw
from adlvkit import checks
from adlvkit import classifier as cl
from adlvkit.root_datum import build_root_datum

HERE = Path(__file__).resolve().parent

# (datum, element): the paper's three examples, then per datum the affine
# Coxeter word s0 s1 ... sr and an element that is not of geometric Coxeter
# type (the first one of length >= 2 in corpus order; A1:adj has none of
# length <= 4, so it gets a non-minimal element instead), then a few more
# words with translations and length-zero factors
ELEMENTS = (
    ("A5:gl", "s4 tau3"),
    ("C2:sc", "s1 tau2"),
    ("2A4:sc", "s1 tau1"),
    ("A1:adj", "s0 s1"),
    ("A1:adj", "s1 s0 s1"),
    ("A2:adj", "s0 s1 s2"),
    ("A2:adj", "t(0,0) s1 s2 s1"),
    ("C2:sc", "s0 s1 s2"),
    ("C2:sc", "t(1,-1) s1"),
    ("G2:sc", "s0 s1 s2"),
    ("G2:sc", "t(0,0) s1 s2 s1"),
    ("A3:gl", "s0 s1 s2 s3"),
    ("A3:gl", "t(1,0,1,0) s1 s3"),
    ("2A3:sc", "s0 s1 s2 s3"),
    ("2A3:sc", "t(-1,1,0) s2"),
    ("B3:adj", "s0 s1 s2 s3"),
    ("B3:adj", "t(0,0,0) s1 s2 s1"),
    ("C3:sc", "s0 s1 s2 s3"),
    ("C3:sc", "t(0,0,1) s1 s2 s3 s2 s1 s3 s2 s3"),
    ("2A4:sc", "s0 s1 s2 s3 s4"),
    ("2A4:sc", "t(-1,1,0,0) s2 s3"),
    ("3D4:sc", "s0 s1 s2 s3 s4"),
    ("3D4:sc", "t(-1,1,0,0) s2 s3 s4 s2"),
    ("A2:adj", "s0 s1 s2 s1 s0"),
    ("A2:adj", "t(1,1) s1 s2"),
    ("C2:sc", "t(1,0) s1 s2 s1"),
    ("G2:sc", "s0 s1 s2 s1 s2"),
    ("A3:gl", "s1 s2 s3 tau1"),
    ("2A3:sc", "s1 s2 s3 s2"),
    ("B3:adj", "t(1,0,0) s1 s2 s3"),
)

# the tail of the classify cost: rank-4 and rank-5 calls whose defects
# enumerate straight elements up to the largest bounds
TAIL_ELEMENTS = (
    ("A5:gl", "s0 s1 s2 s3 s4 s5"),
    ("2A4:sc", "t(1,1,-1,0) s1 s2 s1 s3 s4 s3"),
    ("A4:adj", "t(1,1,1,1) s2 s1 s3 s2 s4 s3 s2"),
    ("3D4:sc", "s0 s1 s2 s3 s4"),
)

# the corpora and seeds of tests/test_acceptance.py
CORPORA = (
    ("A1:adj", 8),
    ("A2:adj", 8),
    ("C2:sc", 8),
    ("G2:sc", 8),
    ("A3:gl", 6),
    ("2A3:sc", 6),
)
# the corpora of tests/test_acceptance_rank4.py, same seeds
RANK4_CORPORA = (
    ("B3:adj", 6),
    ("C3:sc", 6),
    ("2A4:sc", 4),
    ("3D4:sc", 4),
)
SEEDS = tuple(range(10))


def stable_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def report_line(datum_string, text):
    w = aw.parse_element(build_root_datum(datum_string), text)
    report = cl.report_to_dict(cl.classify(w))
    return stable_json({"datum": datum_string, "text": text, "report": report})


def audit_counts(report):
    return {
        "corpus_size": report.corpus_size,
        "geo_cox_count": report.geo_cox_count,
        "checked": {name: r.checked for name, r in sorted(report.results.items())},
        "violations": sum(len(r.violations) for r in report.results.values()),
    }


def main():
    lines = [report_line(d, text) for d, text in ELEMENTS]
    (HERE / "reports.jsonl").write_text("\n".join(lines) + "\n")
    tail = [report_line(d, text) for d, text in TAIL_ELEMENTS]
    (HERE / "tail_reports.jsonl").write_text("\n".join(tail) + "\n")
    for name, corpora in (("acceptance.json", CORPORA), ("acceptance_rank4.json", RANK4_CORPORA)):
        counts = {
            d: audit_counts(checks.audit_datum_string(d, n, seeds=SEEDS)) for d, n in corpora
        }
        (HERE / name).write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
