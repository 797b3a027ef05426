"""Differential oracle for hash-consed elements and class invariants.

``AffineElement`` and ``ClassInvariant`` used to compare by value, with
Python-level ``__eq__`` and ``__hash__``; that equality is kept as
``matrix_reference.structural_key`` and ``class_key``. Each datum now
interns both, one object per value, so equality is identity and hashing
is ``object``'s. Here elements reached by different routes (``multiply``,
chains of one-sided simple products, conjugation and the text form) must
be one object exactly when their structural keys agree, and class
invariants exactly when their (dom, period, kottwitz) agree.

Hashes are now addresses, so a set of elements iterates in another order
in every process. The last test runs the command line in two processes
whose objects lie at different addresses and compares their output byte
for byte.
"""

import copy
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import adlvkit
import matrix_reference as ref
from adlvkit import affine_weyl as aw
from adlvkit import conjugacy as cj
from adlvkit.levi import levi_witness
from adlvkit.root_datum import build_root_datum
from test_datum_oracle import DATA


def routes(datum, lam, word):
    """t^lam s_(word[0]) ... s_(word[-1]), reached four ways."""
    start = aw.translation(datum, lam)
    by_multiply = reduce(aw.multiply, [aw.simple_reflection(datum, i) for i in word], start)
    return (
        by_multiply,
        reduce(aw.right_by_simple, word, start),
        aw.multiply(start, reduce(aw.left_by_simple, reversed(word), aw.identity(datum))),
        aw.parse_element(datum, aw.format_element(by_multiply)),
    )


def test_the_interned_classes_use_objects_equality_and_hash():
    for cls in (aw.AffineElement, cj.ClassInvariant):
        assert cls.__eq__ is object.__eq__
        assert cls.__ne__ is object.__ne__
        assert cls.__hash__ is object.__hash__


def test_the_datum_has_no_node_cache():
    assert not hasattr(build_root_datum("A2:adj"), "_node_cache")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_one_object_per_value(data):
    # DATA holds E6:sc, the largest datum here
    datum = build_root_datum(data.draw(st.sampled_from(DATA), label="datum"))
    letters = st.integers(0, datum.rank)
    elements = []
    for _ in range(data.draw(st.integers(1, 4))):
        lam = data.draw(st.lists(st.integers(-2, 2), min_size=datum.n, max_size=datum.n))
        found = routes(datum, lam, data.draw(st.lists(letters, max_size=8)))
        assert all(x is found[0] for x in found)
        i = data.draw(letters)
        s = aw.simple_reflection(datum, i)
        shifted = cj.conjugate_by_simple(found[0], i)
        assert shifted is aw.multiply(aw.multiply(s, found[0]), aw.sigma_act(s))
        elements += [found[0], shifted, shifted.inverse().inverse()]

    keys = [ref.structural_key(x) for x in elements]
    for x, kx in zip(elements, keys):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        for y, ky in zip(elements, keys):
            assert (x is y) == (kx == ky) == (x == y)

    classes = [cj.class_invariant(x) for x in elements]
    fractions = [ref.fraction_class_invariant(x) for x in elements]
    for x, c, fc in zip(elements, classes, fractions):
        assert copy.copy(c) is c and copy.deepcopy(c) is c
        # the Levi witness and a scaled orbit sum reach c by other routes
        assert cj.class_invariant(levi_witness(c)) is c
        period, total = cj._orbit_sum(x)
        assert cj.invariant_from_sum(datum, 2 * period, [2 * a for a in total], c.kottwitz) is c
        for d, fd in zip(classes, fractions):
            assert (c is d) == (ref.class_key(c) == ref.class_key(d)) == (fc == fd) == (c == d)


# the paper's three examples, then a scan with sets of several hundred elements
COMMANDS = [
    ["classify", "--datum", "A5:gl", "s4 tau3"],
    ["classify", "--datum", "C2:sc", "s1 tau2"],
    ["classify", "--datum", "2A4:sc", "s1 tau1"],
    ["scan", "--datum", "2A3:sc", "--max-length", "4", "--jobs", "1"],
]

SCRIPT = f"""
import sys
from adlvkit import cli
# throwaway objects, so that every later one lies at another address
padding = [object() for _ in range(int(sys.argv[1]))]
for argv in {COMMANDS!r}:
    if cli.main(argv):
        sys.exit(1)
"""


def cli_output(padding: int) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(Path(adlvkit.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, str(padding)], capture_output=True, check=True, env=env
    ).stdout


def test_command_line_output_does_not_depend_on_addresses():
    plain = cli_output(0)
    assert plain.count(b"\n") > 100
    assert cli_output(100_003) == plain
