"""Differential oracle for the shift class graph.

The functions prefixed ``ref_`` are the four breadth-first searches that
walked each shift class on their own before ``conjugacy.ShiftClass``
replaced them. They conjugate afresh at every step and share no cache.
The minimal-length reference carries the one correction: it only walks
through conjugates of the starting length, so its witness replays as
cyclic shifts.
"""

import functools
import random

import pytest

from adlvkit import checks
from adlvkit import conjugacy as cj
from adlvkit import reduction_tree as rt
from adlvkit.affine_weyl import length
from adlvkit.root_datum import build_root_datum

CORPORA = (("A2:adj", 6), ("C2:sc", 6), ("2A3:sc", 5))


@functools.lru_cache(maxsize=None)
def corpus(spec, max_length):
    return tuple(checks.corpus(build_root_datum(spec), max_length))


def ref_shift_class(x):
    datum = x.datum
    base = length(x)
    seen = {x}
    frontier = [x]
    while frontier:
        new = []
        for cur in frontier:
            for i in range(datum.rank + 1):
                y = cj.conjugate_by_simple(cur, i)
                if y not in seen and length(y) == base:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def ref_min_len_witness(x):
    """None when x is minimal, else the witness shift sequence."""
    datum = x.datum
    base = length(x)
    seen = {x}
    queue = [(x, ())]
    while queue:
        nxt = []
        for cur, path in queue:
            for i in range(datum.rank + 1):
                y = cj.conjugate_by_simple(cur, i)
                ylen = length(y)
                if ylen < base:
                    return path + (i,)
                if ylen == base and y not in seen:
                    seen.add(y)
                    nxt.append((y, path + (i,)))
        queue = nxt
    return None


def ref_find_reduction_move(w, seed):
    datum = w.datum
    order = list(range(datum.rank + 1))
    random.Random(seed).shuffle(order)
    base = length(w)
    seen = {w}
    queue = [(w, ())]
    while queue:
        nxt = []
        for cur, path in queue:
            for i in order:
                y = cj.conjugate_by_simple(cur, i)
                ylen = length(y)
                if ylen == base - 2:
                    return cur, i, path
                if ylen == base and y not in seen:
                    seen.add(y)
                    nxt.append((y, path + (i,)))
        queue = nxt
    return None


def ref_class_members_bfs(w):
    datum = w.datum
    base = length(w)
    seen = {w}
    out = [(w, ())]
    queue = [(w, ())]
    while queue:
        nxt = []
        for cur, path in queue:
            for i in range(datum.rank + 1):
                y = cj.conjugate_by_simple(cur, i)
                if y not in seen and length(y) == base:
                    seen.add(y)
                    entry = (y, path + (i,))
                    out.append(entry)
                    nxt.append(entry)
        queue = nxt
    return out


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_shift_class_matches_reference(spec, max_length):
    for x in corpus(spec, max_length):
        assert cj.shift_class(x) == ref_shift_class(x)


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_min_len_matches_corrected_reference(spec, max_length):
    for x in corpus(spec, max_length):
        res = cj.is_min_len(x)
        witness = ref_min_len_witness(x)
        assert res.is_min_len == (witness is None)
        assert res.witness == witness


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_reduction_move_matches_reference(spec, max_length):
    for w in corpus(spec, max_length):
        for seed in range(3):
            assert rt.find_reduction_move(w, seed=seed) == ref_find_reduction_move(w, seed)


@pytest.mark.parametrize("spec,max_length", CORPORA)
def test_witness_search_order_matches_reference(spec, max_length):
    for w in corpus(spec, max_length):
        order = range(w.datum.rank + 1)
        assert list(cj.ShiftClass.of(w).bfs(w, order)) == ref_class_members_bfs(w)
