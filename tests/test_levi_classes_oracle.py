"""Differential oracle for the Levi witnesses behind defect and interval.

``bg_poset.defect`` used to take the twisted reflection length of the
first straight witness that ``enumerate_straight`` met for the class,
and ``bg_poset.interval`` filtered the same enumeration. Both now read
length-zero elements of Levi subgroups: ``levi.levi_witness`` builds one
element per class and ``levi.levi_classes`` parametrizes every class
below a bound without building finite parts. Here the two are compared with the
enumeration, kept for the audit suites, and with the old ``interval``,
kept as ``matrix_reference.straight_interval``: defects, the class set
of every Kottwitz point and the interval of every comparable pair, on
untwisted and twisted data up to rank 6. The old interval enumerates
again at the upper class's bound, so it runs on rank <= 3 only; above,
the intervals are compared with the same filter of one enumeration. A
wrong finite part or one dropped class must show up as a disagreement.
A guard runs ``classify`` with the Weyl table and the enumeration made
to raise, and another checks that importing the package leaves
``adlvkit.levi`` unimported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import classifier as cl
from adlvkit import levi
from adlvkit.conjugacy import class_invariant
from adlvkit.errors import CapExceededError, InternalInvariantError, UsageError
from adlvkit.root_datum import RootDatum, parse_spec

# (datum, straight enumeration bound), every Kottwitz point of each
DATA = (
    ("A1:adj", 16),
    ("A2:adj", 12),
    ("C2:sc", 12),
    ("G2:sc", 16),
    ("2A3:sc", 10),
    ("A3:gl", 8),
    ("C3:sc", 10),
    ("B3:adj", 10),
    ("2A4:sc", 6),
    ("3D4:sc", 6),
    ("2D4:sc", 6),
    ("D4:sc", 6),
    ("A4:adj", 7),
    ("F4:adj", 8),
    ("B4:adj", 8),
    ("C4:sc", 7),
    ("A5:gl", 4),
    ("D5:sc", 4),
    ("2A2:adj", 12),
    ("2A3:adj", 10),
    ("2A4:adj", 7),
    ("2D4:adj", 7),
    ("3D4:adj", 7),
    ("2A5:adj", 5),
    ("2E6:adj", 2),
    ("2A2:sc", 12),
    ("2A5:sc", 4),
)


def fresh(spec):
    return RootDatum(parse_spec(spec))


def straight_records(datum, bound):
    """The enumeration's records up to ``bound``, grouped by Kottwitz point in class order."""
    filters = [None]
    if datum.central_rank:
        filters = [class_invariant(aw.omega_element(datum, k)) for k in range(datum.n)]
    groups = {}
    for f in filters:
        for record in bg.enumerate_straight(datum, bound, kottwitz=f):
            groups.setdefault(record.invariant.kottwitz, []).append(record)
    return groups


def disagreements(spec, bound):
    """Every way the Levi path differs from the enumeration on a fresh datum."""
    datum = fresh(spec)
    out = []
    for kappa, records in straight_records(datum, bound).items():
        classes = [r.invariant for r in records]
        try:
            got = list(levi.levi_classes(datum, bound, classes[0]))
            if got != classes:
                out.append(f"kappa {kappa}: classes {got} != {classes}")
            for r in records:
                if bg.defect(r.invariant) != r.defect:
                    out.append(f"{r.invariant}: defect {bg.defect(r.invariant)} != {r.defect}")
            for lo in classes:
                for hi in classes:
                    if not bg.leq(lo, hi):
                        continue
                    # the enumeration is exhaustive up to its bound, so the
                    # old interval is this filter; on rank <= 3 it runs too
                    want = [c for c in classes if bg.leq(lo, c) and bg.leq(c, hi)]
                    if datum.rank <= 3:
                        assert ref.straight_interval(lo, hi) == want
                    if bg.interval(lo, hi) != want:
                        out.append(f"interval {lo}..{hi}")
        except InternalInvariantError as exc:
            out.append(f"kappa {kappa}: {exc}")
    return out


@pytest.mark.parametrize("spec,bound", DATA)
def test_levi_defects_classes_and_intervals_match_the_enumeration(spec, bound):
    assert disagreements(spec, bound) == []


@pytest.mark.parametrize("spec,bound", (("C2:sc", 8), ("A3:gl", 6), ("2A3:sc", 6)))
def test_levi_witnesses_have_length_zero_in_their_levi(spec, bound):
    datum = fresh(spec)
    for records in straight_records(datum, bound).values():
        for r in records:
            tau = levi.levi_witness(r.invariant)
            assert class_invariant(tau) == r.invariant
            # every positive root of J pairs with lambda to 0 or 1, and to 1
            # exactly when z^(-1) sends it below zero
            mask = datum._inversion_cache[tau.finite_index]
            for k, c in enumerate(datum.root_coefficients):
                if all(i + 1 in r.invariant.zero_set for i, ck in enumerate(c) if ck):
                    p = sum(a * b for a, b in zip(tau.translation, datum.positive_roots[k]))
                    assert p == (1 if mask >> k & 1 else 0), (tau, k)


def test_a_wrong_finite_part_is_caught(monkeypatch):
    assert disagreements("C2:sc", 8) == []
    original = levi._levi_element
    # z = w_(0,J) w_(0,J) = 1 in place of w_(0,J_lambda) w_(0,J)
    monkeypatch.setattr(
        levi, "_levi_element", lambda datum, J, ones, lam: original(datum, J, frozenset(), lam)
    )
    assert disagreements("C2:sc", 8)
    assert disagreements("A3:gl", 6)


def test_one_dropped_class_is_caught(monkeypatch):
    assert disagreements("A2:adj", 8) == []
    original = levi._stable_subsets
    # without J = all nodes the basic class, one class, goes missing
    monkeypatch.setattr(
        levi, "_stable_subsets", lambda datum: [J for J in original(datum) if len(J) < datum.rank]
    )
    found = disagreements("A2:adj", 8)
    assert any("classes" in line for line in found)


@pytest.mark.parametrize(
    "spec,text",
    (
        ("A5:gl", "s0 s1 s2 s3 s4 s5"),
        ("A5:gl", "s4 tau3"),
        ("2A4:sc", "s1 tau1"),
        ("2A4:sc", "t(1,1,-1,0) s1 s2 s1 s3 s4 s3"),
        ("C3:sc", "s0 s1 s2 s3"),
        ("C3:sc", "s2 s0 s1"),
    ),
)
def test_classify_builds_no_weyl_table(spec, text, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("classify reached the Weyl table or the straight enumeration")

    monkeypatch.setattr(RootDatum, "_build_weyl_table", refuse)
    monkeypatch.setattr(bg, "enumerate_straight", refuse)
    datum = fresh(spec)
    report = cl.classify(aw.parse_element(datum, text))
    assert report.bgw_table and report.purity["saturated"] is not None
    assert datum._weyl_words is None


def test_a_tiny_budget_still_raises():
    datum = fresh("C3:sc")
    lo = class_invariant(aw.parse_element(datum, ""))
    hi = class_invariant(aw.parse_element(datum, "s0 s1 s2 s3"))
    with pytest.raises(CapExceededError, match="Levi class enumeration"):
        levi.levi_classes(datum, hi.pairing_two_rho, lo, budget=3)
    # nothing was cached by the failed call
    assert bg.interval(lo, hi) == ref.straight_interval(lo, hi)


def test_a_moved_central_line_still_raises():
    datum = fresh("2A3:gl")
    c = class_invariant(aw.parse_element(datum, "s1"))
    for call in (bg.defect, levi.levi_witness, lambda c: levi.levi_classes(datum, 2, c)):
        with pytest.raises(UsageError, match="cannot pin the central direction"):
            call(c)


def test_the_package_import_leaves_the_levi_module_for_first_use():
    code = "import sys, adlvkit; print('adlvkit.levi' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(levi.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_levi_classes_computes_each_component_once(monkeypatch):
    """A7's 128 twist-stable J have 28 distinct components, the intervals of nodes."""
    datum = RootDatum(parse_spec("A7:gl"))
    calls = []
    coweights = levi._minuscule_coweights

    def counted(datum, comp):
        calls.append(comp)
        return coweights(datum, comp)

    monkeypatch.setattr(levi, "_minuscule_coweights", counted)
    levi.levi_classes(datum, 2, class_invariant(aw.identity(datum)))
    assert len(calls) <= 28
    assert len(set(calls)) == len(calls)
