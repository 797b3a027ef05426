"""The timed part of each workload, run inside a fresh pass interpreter.

Every pass returns a list of operations. An operation is one corpus audit,
one classify call or one command line invocation; it carries an ``error``
(None when it ran cleanly) and the output summary that ``check.py``
compares with golden.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from adlvkit import checks, classifier, root_datum
from adlvkit.affine_weyl import parse_element
from adlvkit.errors import AdlvkitError
from adlvkit.root_datum import RootDatum, build_root_datum, parse_spec

from proc import ProcessTimeout, run_process
from workloads import AUDIT_CORPORA, RESUME, SCAN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# filled by RootDatum.weyl_elements(), which set-up calls on purpose
SETUP_CACHES = frozenset({"_word_cache", "_inv_cache"})

# fields of a classify report that no strategy seed can change
SEED_FREE_FIELDS = (
    "datum",
    "element",
    "length",
    "min_len",
    "straight",
    "newton",
    "kottwitz",
    "min_cox",
    "mct",
)


class ColdStateError(RuntimeError):
    """A pass would have measured a datum or cache that earlier work warmed."""


def stable_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def seed_free_digest(reports) -> str:
    """Digest of the parts of classify reports that every seed must reproduce."""
    rows = []
    for report in reports:
        row = {k: report[k] for k in SEED_FREE_FIELDS}
        row["classes"] = sorted(
            (c["newton"], c["kottwitz"], c["defect"]) for c in report["bgw"]
        )
        row["saturated"] = report["purity"]["saturated"]
        rows.append(stable_json(row))
    return sha256("\n".join(rows))


def warm_caches(datum) -> list:
    """Names of the datum's caches that hold entries set-up does not make."""
    caches = {k: v for k, v in vars(datum).items() if k.endswith("_cache")}
    if not caches:
        raise ColdStateError(f"{datum!r} exposes no caches: the cold check cannot see them")
    return sorted(k for k, v in caches.items() if v and k not in SETUP_CACHES)


def check_cold(datum):
    warm = warm_caches(datum)
    if warm:
        raise ColdStateError(f"{datum!r} starts warm: {', '.join(warm)}")


def check_fresh_interpreter(datum_strings):
    """The registry holds exactly the set-up data, each with cold caches."""
    built = sorted(spec.datum_string() for spec in root_datum._REGISTRY)
    if built != sorted(datum_strings):
        raise ColdStateError(f"interpreter holds data {built}, set-up built {sorted(datum_strings)}")
    for datum in root_datum._REGISTRY.values():
        check_cold(datum)


def set_up(datum_strings):
    for spec in datum_strings:
        build_root_datum(spec).weyl_elements()


def rusage_peak_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


# -- audit -------------------------------------------------------------------------


def _selected(count, units):
    """Indices of the units a pass runs: all of them, or the chosen ones."""
    return range(count) if units is None else sorted(set(units))


def audit_pass(seeds, units=None, **_ctx):
    ops = []
    for unit in _selected(len(AUDIT_CORPORA), units):
        spec, max_length = AUDIT_CORPORA[unit]
        op = {"op": f"audit {spec} <= {max_length}", "unit": unit, "error": None}
        start = time.perf_counter()
        try:
            report = checks.audit(build_root_datum(spec), max_length, seeds=seeds)
        except AdlvkitError as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
            ops.append(op)
            continue
        op.update(
            wall_s=time.perf_counter() - start,
            items=report.corpus_size,
            corpus=report.corpus_size,
            geo_cox=report.geo_cox_count,
            checked={name: r.checked for name, r in report.results.items()},
            violations=sum(len(r.violations) for r in report.results.values()),
        )
        if op["violations"]:
            first = next(
                f"{r.name}: {r.violations[0]}" for r in report.results.values() if r.violations
            )
            op["error"] = f"{op['violations']} audit violations, first {first}"
        ops.append(op)
    return ops


# -- classify-cold -----------------------------------------------------------------


def fresh_datum(spec):
    """A datum built the way one CLI call builds it, skipping interning."""
    return RootDatum(parse_spec(spec))


def classify_pass(seeds, calls, make_datum=fresh_datum, units=None, **_ctx):
    ops = []
    clock = time.perf_counter
    for unit in _selected(len(calls), units):
        spec, text = calls[unit]
        op = {"op": f"classify {spec} {text}", "unit": unit, "error": None, "items": 1}
        start = clock()
        try:
            datum = make_datum(spec)
            if datum is root_datum._REGISTRY.get(datum.spec):
                raise ColdStateError(f"{spec}: the call reuses the interned datum")
            check_cold(datum)
            report = classifier.report_to_dict(
                classifier.classify(parse_element(datum, text), seeds=seeds)
            )
            blob = stable_json(report)
        except (AdlvkitError, ColdStateError) as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
        else:
            op["wall_s"] = clock() - start
            op["sha256"] = sha256(blob)
            op["seed_free"] = seed_free_digest([report])
        ops.append(op)
    return ops


# -- the command line --------------------------------------------------------------


def cli_env(report_path, trace_dir):
    env = {k: v for k, v in os.environ.items() if k not in ("ADLVKIT_CACHE", "ADLVKIT_BENCH_TRACE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["ADLVKIT_BENCH_REPORT"] = str(report_path)
    if trace_dir is not None:
        env["ADLVKIT_BENCH_TRACE"] = str(trace_dir)
    return env


def run_cli(label, argv, seeds, work_dir, trace_dir, deadline):
    """One ``adlvkit`` invocation through cli_boot.py; returns (op, stdout)."""
    report_path = Path(work_dir) / f"cli-{os.getpid()}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "cli_boot.py"), *argv, "--seeds", ",".join(map(str, seeds))]
    op = {"op": label, "error": None}
    try:
        code, out, err, wall = run_process(
            cmd, cli_env(report_path, trace_dir), deadline - time.monotonic()
        )
    except ProcessTimeout as exc:
        op["error"] = str(exc)
        return op, b""
    if code != 0:
        op["error"] = f"exit code {code}: {err.decode(errors='replace').strip()[-400:]}"
    try:
        op["cli"] = json.loads(report_path.read_text())
        report_path.unlink()
    except (OSError, ValueError):
        op["cli"] = None
        op["error"] = op["error"] or "the command line wrote no usage report"
    lines = out.decode().splitlines()
    op.update(items=len(lines), wall_s=wall, sha256=sha256(out))
    try:
        rows = [json.loads(line) for line in lines]
        op["seed_free"] = seed_free_digest(rows)
    except (ValueError, KeyError, TypeError) as exc:
        op["error"] = op["error"] or f"unreadable scan row: {exc}"
    return op, out


def _scan_argv(datum, max_length, *extra):
    return ["scan", "--datum", datum, "--max-length", str(max_length), *extra]


def scan_pass(seeds, work_dir, trace_dir, deadline, units=None, **_ctx):
    """The pool scan (unit 0), then the two scans that share a result cache (unit 1)."""
    chosen = _selected(2, units)
    ops = []
    if 0 in chosen:
        ops.append(pool_scan_op(seeds, work_dir, trace_dir, deadline))
    if 1 in chosen:
        ops += resume_ops(seeds, work_dir, trace_dir, deadline)
    return ops


def pool_scan_op(seeds, work_dir, trace_dir, deadline):
    op, _out = run_cli(
        f"scan {SCAN['datum']} <= {SCAN['max_length']} --jobs {SCAN['jobs']}",
        _scan_argv(SCAN["datum"], SCAN["max_length"], "--jobs", str(SCAN["jobs"])),
        seeds,
        work_dir,
        trace_dir,
        deadline,
    )
    cli = op.get("cli")
    if cli:
        # pool workers are the command line's children
        op["pool_cpu_utilization"] = cli["cpu_children_s"] / (cli["wall_s"] * SCAN["jobs"])
        op["pool_cpu_s"] = cli["cpu_children_s"]
        op["parent_cpu_s"] = cli["cpu_self_s"]
    op["unit"] = 0
    return op


def resume_ops(seeds, work_dir, trace_dir, deadline):
    cache = Path(work_dir) / f"cache-{os.getpid()}"
    if cache.exists() and any(cache.iterdir()):
        raise ColdStateError(f"result cache {cache} is not empty")
    ops = []
    for index, max_length in enumerate(RESUME["max_lengths"]):
        op, _out = run_cli(
            f"scan {RESUME['datum']} <= {max_length} --cache",
            _scan_argv(RESUME["datum"], max_length, "--cache", str(cache)),
            seeds,
            work_dir,
            trace_dir,
            deadline,
        )
        op["unit"] = 1
        op["cache_scan"] = index
        # every row is a hit or a fresh entry, so the cache holds all rows
        op["cache_entries"] = sum(1 for p in cache.glob("*.json"))
        ops.append(op)
    return ops


def reference_pass(seeds, work_dir, deadline, **_ctx):
    """An uncached scan of the cached scans' corpus, for the byte-identity check."""
    datum, bound = RESUME["datum"], RESUME["max_lengths"][-1]
    op, out = run_cli(
        f"reference scan {datum} <= {bound}",
        _scan_argv(datum, bound, "--jobs", "2"),
        seeds,
        work_dir,
        None,
        deadline,
    )
    if op["error"] is None:
        # rows are ordered by length first, so the shorter scan is a prefix
        first_bound = RESUME["max_lengths"][0]
        lines = out.decode().splitlines(True)
        prefix = [line for line in lines if json.loads(line)["length"] <= first_bound]
        op["prefix_sha256"] = sha256("".join(prefix))
    return [op]


PASSES = {
    "audit": audit_pass,
    "classify-cold": classify_pass,
    "scan": scan_pass,
    "reference": reference_pass,
}

