"""Cap errors say how far the capped search got.

``CapExceededError.reached`` counts the members the shift-class search
had seen, the elements the corpus walk had enumerated, or the tuples the
Levi class walk had visited; the message keeps its old text and appends
`` (reached N)``. One test per raise site.
"""

import pytest

from adlvkit import affine_weyl as aw
from adlvkit import bg_poset as bg
from adlvkit import checks
from adlvkit import conjugacy as cj
from adlvkit import levi
from adlvkit.conjugacy import class_invariant
from adlvkit.errors import CapExceededError
from adlvkit.root_datum import RootDatum, parse_spec


def fresh(spec):
    return RootDatum(parse_spec(spec))


def raised(call):
    with pytest.raises(CapExceededError) as info:
        call()
    return info.value


def large_class():
    """An A5:gl element whose shift class has 180 members, on a fresh datum."""
    return aw.parse_element(fresh("A5:gl"), "t(3,1,0,-1,0,0) s1 s3")


def test_the_message_keeps_its_text_without_a_count():
    exc = CapExceededError(5, "synthetic search")
    assert (exc.cap, exc.what, exc.reached) == (5, "synthetic search", None)
    assert str(exc) == "synthetic search exceeded the configured cap of 5"


def test_the_shift_class_search_reports_the_members_it_saw():
    exc = raised(lambda: cj.ShiftClass.of(large_class(), 2))
    assert (exc.cap, exc.what, exc.reached) == (2, "shift class BFS", 3)
    assert str(exc) == "shift class BFS exceeded the configured cap of 2 (reached 3)"


def test_a_cached_shift_class_reports_all_its_members():
    w = large_class()
    assert len(cj.ShiftClass.of(w).members) == 180
    exc = raised(lambda: cj.ShiftClass.of(w, 2))
    assert (exc.cap, exc.reached) == (2, 180)
    assert str(exc).endswith("cap of 2 (reached 180)")


def test_the_corpus_walk_reports_its_length_zero_elements():
    # A3:sc has four length-zero elements
    exc = raised(lambda: list(bg.iter_elements(fresh("A3:sc"), 2, budget=3)))
    assert (exc.cap, exc.reached) == (3, 4)
    assert str(exc) == "corpus enumeration at length 0 exceeded the configured cap of 3 (reached 4)"


def test_the_corpus_walk_reports_the_elements_it_enumerated():
    # A2:adj has 1 + 3 elements up to length 1 and 6 more of length 2
    exc = raised(lambda: list(bg.iter_elements(fresh("A2:adj"), 2, budget=9)))
    assert (exc.cap, exc.reached) == (9, 10)
    assert str(exc) == "corpus enumeration at length 2 exceeded the configured cap of 9 (reached 10)"


def test_the_levi_class_walk_reports_the_tuples_it_visited():
    datum = fresh("C3:sc")
    lo = class_invariant(aw.parse_element(datum, ""))
    hi = class_invariant(aw.parse_element(datum, "s0 s1 s2 s3"))
    exc = raised(lambda: levi.levi_classes(datum, hi.pairing_two_rho, lo, budget=3))
    assert (exc.cap, exc.what, exc.reached) == (3, "Levi class enumeration", 4)
    assert str(exc).endswith("cap of 3 (reached 4)")


def test_an_audit_raises_a_bfs_cap_hit_inside_its_element_loop():
    exc = raised(lambda: checks.audit(fresh("A2:adj"), 4, bfs_cap=2))
    assert (exc.cap, exc.what, exc.reached) == (2, "shift class BFS", 3)
