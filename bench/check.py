"""The output check: each operation of a pass against golden.json.

For the default workload seed every output is compared byte for byte
(through its sha256). For any seed, the parts that no strategy seed can
change are compared too: corpus sizes, scan row counts and the seed-free
digest of classify reports (see ``passes.seed_free_digest``). The cached
scans must equal an uncached scan of the same corpus byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import DEFAULT_SEED

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def _expect(failures, op, what, got, want):
    if got != want:
        failures.append(f"{op}: {what} {got!r} != expected {want!r}")


def check_ops(workload, seed, ops, golden, reference=None):
    """Failure messages, at most one per failed operation."""
    failures = []
    expected = golden[workload]
    exact = seed == DEFAULT_SEED
    for op in ops:
        name = op["op"]
        found = []
        if op["error"] is not None:
            found.append(f"{name}: {op['error']}")
        elif workload == "audit":
            want = expected[name]
            _expect(found, name, "corpus size", op["corpus"], want["corpus"])
            if exact:
                _expect(found, name, "geometric Coxeter count", op["geo_cox"], want["geo_cox"])
                _expect(found, name, "checked counts", op["checked"], want["checked"])
        elif workload == "classify-cold":
            want = expected.get(name)
            if want is None:
                if exact:
                    found.append(f"{name}: not in golden.json")
            else:
                _expect(found, name, "seed-free digest", op["seed_free"], want["seed_free"])
                if exact:
                    _expect(found, name, "report sha256", op["sha256"], want["sha256"])
        else:
            want = expected[name]
            _expect(found, name, "rows", op["items"], want["rows"])
            _expect(found, name, "seed-free digest", op["seed_free"], want["seed_free"])
            if exact:
                _expect(found, name, "stdout sha256", op["sha256"], want["sha256"])
            if "cache_entries" in op:
                _expect(found, name, "cache entries", op["cache_entries"], op["items"])
                if reference is not None:
                    key = ("prefix_sha256", "sha256")[op["cache_scan"]]
                    _expect(found, name, "stdout sha256 against an uncached scan", op["sha256"], reference[key])
        if found:
            failures.append(found[0])
    return failures


def check_same_outputs(untraced, traced):
    """The traced pass must reproduce the untraced pass's outputs."""
    failures = []
    for a, b in zip(untraced, traced):
        for key in ("sha256", "seed_free", "corpus", "geo_cox", "checked", "items"):
            if a.get(key) != b.get(key):
                failures.append(f"{a['op']}: traced {key} differs from the untraced pass")
                break
    if len(untraced) != len(traced):
        failures.append("the traced pass ran a different number of operations")
    return failures
