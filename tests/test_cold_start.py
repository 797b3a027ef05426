"""Start-up cost: what importing the package loads, and the records it uses.

With ``PYTHONDONTWRITEBYTECODE=1`` every module an import loads is compiled
again in each interpreter, so ``import adlvkit.cli`` loads neither
``dataclasses`` (the package's records are NamedTuples and small classes)
nor the worker pool or hashing modules, which only a pool scan and a
result cache use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adlvkit
from adlvkit import bg_poset, checks, classifier, conjugacy
from adlvkit.affine_weyl import parse_element
from adlvkit.errors import UnsupportedDatumError
from adlvkit.reduction_tree import build_tree, enumerate_paths
from adlvkit.root_datum import CartanSpec, RootDatum, build_root_datum, parse_spec

PACKAGE = Path(adlvkit.__file__).parent

UNLOADED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "hashlib")


def test_the_cli_import_loads_no_dataclasses_pool_or_hashing():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import adlvkit, adlvkit.checks, adlvkit.cli\n"
        f"print(sorted((set(sys.modules) - before) & set({UNLOADED!r})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names if name == "dataclasses"]
    assert found == []


RECORDS = (
    "CartanSpec",
    "ShiftMove",
    "MinLenResult",
    "ClassInvariant",
    "ClassRecord",
    "Edge",
    "ReductionPath",
    "MinCoxWitness",
    "GeoCoxResult",
    "BgwRow",
    "ClassificationReport",
    "AuditReport",
)


@pytest.fixture(scope="module")
def made():
    """One of each record type, from a small classify and audit, by type name."""
    datum = build_root_datum("A1:adj")
    w = parse_element(datum, "s0 s1 s0")
    s1 = parse_element(datum, "s1")
    tree = build_tree(w, seed=0)
    report = classifier.classify(w, seeds=(0,))
    out = (
        datum.spec,
        conjugacy.cyclic_shift(s1, 1),
        conjugacy.is_min_len(w),
        conjugacy.class_invariant(w),
        bg_poset.enumerate_straight(datum, 2)[0],
        tree.edges[0],
        enumerate_paths(tree)[0],
        classifier.is_minimal_coxeter_type(s1),
        classifier.is_geometric_coxeter_type([tree]),
        report.bgw_table[0],
        report,
        checks.audit(datum, 1, seeds=(0,)),
    )
    return {type(record).__name__: record for record in out}


def test_every_record_type_is_made(made):
    assert sorted(made) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(made, name):
    record = made[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_class_invariants_of_different_data_differ():
    # equal fields except the datum: the classes of s1 in two builds of A2:adj
    one, two = (RootDatum(parse_spec("A2:adj")) for _ in range(2))
    a = conjugacy.class_invariant(parse_element(one, "s1"))
    b = conjugacy.class_invariant(parse_element(two, "s1"))
    assert a[1:] == b[1:]
    assert a != b and not a == b
    same = conjugacy.class_invariant(parse_element(one, "s1"))
    assert a == same and not a != same
    assert hash(a) == hash(same)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CartanSpec("B", 2, "gl"),
        lambda: CartanSpec("A", 2, "weight"),
        lambda: CartanSpec(family="A", rank=2, lattice_preset="adjoint", twist_order=3),
        lambda: CartanSpec("A", 2, "adjoint")._replace(family="Q"),
        lambda: CartanSpec._make(("G", 2, "adjoint", 2)),
    ],
    ids=["gl-off-A", "preset", "twist", "replace", "make"],
)
def test_an_invalid_cartan_spec_still_raises(make):
    with pytest.raises(UnsupportedDatumError):
        make()
