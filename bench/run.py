"""adlvkit benchmark: one workload, timed end to end or traced layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload audit --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --record-golden

Every set-up and every pass runs in a fresh interpreter (``child.py``), so
the per-datum caches start empty, as they do for a command line user.
Passes repeat while another one fits in ``--seconds``; each end-to-end
metric is a median (throughput: of each operation's times across passes;
``setup_s``: of all set-ups), and each time is first divided by the
slowdown a calibration saw around it (``calibrate.py``). With
``--trace 1`` the run makes one untraced and one traced pass and prints
the per-layer metrics of the traced one, with the tracing overhead.

Human-readable lines come first, then one provenance line, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``. README.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import check
from calibrate import REFERENCE_S
from proc import ProcessTimeout, run_process
from workloads import DEFAULT_SEED, WORKLOADS, strategy_seeds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

RUN_BUDGET_S = 170.0  # every run ends well inside three minutes
SETUP_RUNS = 9  # set-up samples per untraced run, the passes' own set-ups included

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_STATS = ("calls", "total_s", "self_s")

# (metric, unit): "<record>.<calls|total_s|self_s>" reads the merged trace;
# the rest are derived in per_layer_metrics()
PER_LAYER = (
    ("root_datum.build.calls", "count"),
    ("root_datum.build.total_s", "s"),
    ("affine_weyl.multiply.calls", "count"),
    ("affine_weyl.multiply.self_s", "s"),
    ("affine_weyl.sigma_act.calls", "count"),
    ("affine_weyl.sigma_act.self_s", "s"),
    ("affine_weyl.length.calls", "count"),
    ("affine_weyl.length.self_s", "s"),
    ("affine_weyl.length.cache_hit_ratio", "ratio"),
    ("conjugacy.conjugate_by_simple.calls", "count"),
    ("conjugacy.conjugate_by_simple.self_s", "s"),
    ("conjugacy.shift_class.calls", "count"),
    ("conjugacy.shift_class.total_s", "s"),
    ("conjugacy.is_min_len.calls", "count"),
    ("conjugacy.is_min_len.total_s", "s"),
    ("conjugacy.class_invariant.calls", "count"),
    ("conjugacy.class_invariant.total_s", "s"),
    ("reduction_tree.build_tree.calls", "count"),
    ("reduction_tree.build_tree.total_s", "s"),
    ("reduction_tree.trees_per_element", "trees/element"),
    ("reduction_tree.find_reduction_move.calls", "count"),
    ("reduction_tree.find_reduction_move.self_s", "s"),
    ("reduction_tree.find_reduction_move.memo_hit_ratio", "ratio"),
    ("reduction_tree.path_summary.total_s", "s"),
    ("bg_poset.leq.calls", "count"),
    ("bg_poset.leq.self_s", "s"),
    ("bg_poset.defect.calls", "count"),
    ("bg_poset.defect.total_s", "s"),
    ("bg_poset.enumerate_straight.calls", "count"),
    ("bg_poset.enumerate_straight.total_s", "s"),
    ("bg_poset.iter_elements.yielded", "count"),
    ("bg_poset.extrema.total_s", "s"),
    ("bg_poset.interval.total_s", "s"),
    ("classifier.classify.calls", "count"),
    ("classifier.classify.total_s", "s"),
    ("classifier.is_geometric_coxeter_type.total_s", "s"),
    ("classifier.strong_multiplicity_one.total_s", "s"),
    ("classifier.purity_report.total_s", "s"),
    ("classifier.is_minimal_coxeter_type.total_s", "s"),
    ("classifier.mct_inequality.total_s", "s"),
    ("checks.audit.total_s", "s"),
    ("checks.corpus.total_s", "s"),
    ("checks.corpus.elements", "count"),
    ("cli.pool.cpu_utilization", "ratio"),
    ("cli.cache.hits", "count"),
    ("cli.cache.writes", "count"),
    ("cli.cache.reverified", "count"),
    ("cli.cache.read_s", "s"),
    ("cli.cache.write_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
)


class HarnessError(RuntimeError):
    pass


def calibrate(deadline):
    """Seconds the calibration takes now, timed in its own interpreter, so
    that its memory stays out of this process and of the passes."""
    cmd = [sys.executable, str(BENCH / "calibrate.py")]
    try:
        code, out, err, _wall = run_process(cmd, child_env(), deadline - time.monotonic())
    except ProcessTimeout as exc:
        raise HarnessError(f"calibration: {exc}") from exc
    if code != 0:
        raise HarnessError(f"calibration exited {code}: {err.decode(errors='replace')[-2000:]}")
    return float(out)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("ADLVKIT_CACHE", "ADLVKIT_BENCH_TRACE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(mode, workload, seed, trace, work_dir, deadline, units=None):
    spec = {
        "mode": mode,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "work_dir": str(work_dir),
        "timeout_s": deadline - time.monotonic(),
        "units": units,
    }
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
    try:
        code, out, err, _wall = run_process(cmd, child_env(), deadline - time.monotonic())
    except ProcessTimeout as exc:
        raise HarnessError(f"{mode} of {workload}: {exc}") from exc
    if code != 0:
        raise HarnessError(f"{mode} of {workload} exited {code}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().splitlines()[-1])


def pass_items(result):
    return sum(op.get("items", 0) for op in result["ops"] if op["error"] is None)


def slowdown(result):
    """How many times slower than the reference machine the memory-bound
    calibration ran around a set-up or pass (see calibrate.py)."""
    return statistics.mean(result["calibration_s"]) / REFERENCE_S


def items_per_s(passes, unit=None, scaled=True):
    """Items of one full pass over the sum, across operations, of each one's median time.

    An operation's times come from every pass that ran it; taking the
    median per operation, not per pass, keeps a slow spell of the machine
    during one operation from moving the figure. Scaled, each time is
    first divided by its pass's slowdown. ``unit`` restricts the figure to
    the operations of one unit.
    """
    times, items = {}, {}
    for result in passes:
        slow = slowdown(result) if scaled else 1.0
        for op in result["ops"]:
            if op["error"] is None and unit in (None, op["unit"]):
                times.setdefault(op["op"], []).append(op["wall_s"] / slow)
                items[op["op"]] = op["items"]
    seconds = sum(statistics.median(t) for t in times.values())
    return sum(items.values()) / seconds if seconds else 0.0


def setup_s(setups, passes, scaled=True):
    return statistics.median(r["setup_s"] / (slowdown(r) if scaled else 1.0) for r in setups + passes)


def full(passes):
    return [p for p in passes if p["units"] is None]


def classify_quantiles(result):
    times = sorted(op["wall_s"] * 1000.0 for op in result["ops"] if op["error"] is None)
    return statistics.quantiles(times, n=4) if len(times) >= 4 else None


# -- provenance --------------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "adlvkit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def provenance():
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "loadavg": loadavg,
        "platform": platform.platform(),
    }


# -- one run -----------------------------------------------------------------------


def unit_seconds(result):
    """Seconds each unit of a pass took."""
    seconds = {}
    for op in result["ops"]:
        seconds[op["unit"]] = seconds.get(op["unit"], 0.0) + op.get("wall_s", 0.0)
    return seconds


def plan(longest, left):
    """The units the next pass runs: all when they fit in ``left`` seconds,
    else as many of the longest ones as fit, longest first (None: all)."""
    if 1.1 * sum(longest.values()) <= left:
        return None
    chosen, used = [], 0.0
    for unit in sorted(longest, key=longest.get, reverse=True):
        if 1.1 * (used + longest[unit]) <= left:
            chosen.append(unit)
            used += longest[unit]
    return sorted(chosen)


def measure(workload, seed, seconds, trace, work_dir, deadline):
    """Run set-ups and passes; returns (setups, passes, traced pass or None, reference).

    The first pass runs every unit of the workload (a unit is a corpus, a
    classify call, or a command line with the calls that depend on it).
    An untraced run then starts further passes while they end within
    ``seconds``, judged by the longest time each unit has taken: full
    passes while one fits, then one pass of the longest units that fit.
    So the run's length does not depend on how slow the machine is, and
    the time left over by the last full pass still yields samples.

    The calibration is timed between every two interpreters, so each
    set-up and pass carries the two samples around it.
    """
    setups, passes, traced, reference = [], [], None, None
    start = time.monotonic()
    if workload == "scan" and seed != DEFAULT_SEED:
        # golden.json holds the cached scans' bytes for the default seed only;
        # for another, an uncached scan is made first, inside the run's time
        reference = run_child("reference", workload, seed, False, work_dir, deadline)["ops"][0]
        if reference["error"] is not None:
            raise HarnessError(f"uncached reference scan failed: {reference['error']}")
    calibration = [calibrate(deadline)]

    def child(mode, units=None, trace=False):
        result = run_child(mode, workload, seed, trace, work_dir, deadline, units)
        calibration.append(calibrate(deadline))
        result["calibration_s"] = calibration[-2:]
        return result

    longest, overhead, setup_wall = {}, 0.0, 0.0
    units = None
    while True:
        began = time.monotonic()
        # set-ups are spread over the run, so a slow spell of the machine
        # cannot hit all of them
        if not trace:
            setups.append(child("setup"))
            setup_wall = max(setup_wall, time.monotonic() - began)
        result = child("pass", units)
        result["units"] = units
        passes.append(result)
        spent = unit_seconds(result)
        for unit, secs in spent.items():
            longest[unit] = max(longest.get(unit, 0.0), secs)
        # interpreter starts, set-ups, cold checks and calibrations
        overhead = max(overhead, time.monotonic() - began - sum(spent.values()))
        print(f"pass {len(passes)} ({'all' if units is None else len(units)} units): {result['wall_s']:.3f} s")
        if trace:
            traced = child("pass", trace=True)
            print(f"traced pass: {traced['wall_s']:.3f} s")
            break
        if units is not None:
            break
        owed = max(SETUP_RUNS - len(setups) - len(passes) - 2, 0) * setup_wall
        left = min(start + seconds, deadline - 15) - time.monotonic() - owed - overhead
        units = plan(longest, left)
        if units == []:
            break
    while not trace and len(setups) + len(passes) < SETUP_RUNS:
        setups.append(child("setup"))
    return setups, passes, traced, reference


def end_to_end_metrics(workload, setups, passes):
    """The time metrics, scaled to the reference machine's speed (see calibrate.py):
    set-up always, throughput where the pass does its work in its own interpreter."""
    return {
        "setup_s": setup_s(setups, passes),
        "items_per_s": items_per_s(passes, scaled=WORKLOADS[workload].in_process),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in full(passes)),
    }


def per_layer_metrics(traced, untraced):
    trace = traced["trace"]
    layers, counts, growth = trace["layers"], trace["counts"], trace["growth"]

    def stat(record, key):
        return layers.get(record, {}).get(key, 0)

    def hit_ratio(record):
        calls = stat(record, "calls")
        return 1.0 - growth.get(record, 0) / calls if calls else 0.0

    items = pass_items(traced)
    pool = [op["pool_cpu_utilization"] for op in traced["ops"] if "pool_cpu_utilization" in op]
    derived = {
        "affine_weyl.length.cache_hit_ratio": hit_ratio("affine_weyl.length"),
        "reduction_tree.find_reduction_move.memo_hit_ratio": hit_ratio(
            "reduction_tree.find_reduction_move"
        ),
        "reduction_tree.trees_per_element": stat("reduction_tree.build_tree", "calls") / items,
        "bg_poset.iter_elements.yielded": counts.get("bg_poset.iter_elements.yielded", 0),
        "checks.corpus.elements": counts.get("checks.corpus.elements", 0),
        "cli.pool.cpu_utilization": pool[0] if pool else 0.0,
        "cli.cache.hits": counts.get("cli.cache.hits", 0),
        "cli.cache.writes": stat("cli.cache.write", "calls"),
        "cli.cache.reverified": counts.get("cli.cache.reverified", 0),
        "cli.cache.read_s": stat("cli.cache.read", "total_s"),
        "cli.cache.write_s": stat("cli.cache.write", "total_s"),
        "tracing.overhead_ratio": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            record, _, key = name.rpartition(".")
            if key not in _STATS:
                raise HarnessError(f"no rule for per-layer metric {name}")
            value = stat(record, key)
        out[name] = {"value": value, "unit": unit}
    return out


def pool_fell_back(op):
    """Rows came out while the pool workers did almost none of the work."""
    return op["items"] > 0 and op["pool_cpu_s"] < 0.05 * (op["pool_cpu_s"] + op["parent_cpu_s"])


def describe(workload, seed, setups, passes, traced, failures, attempted):
    w = WORKLOADS[workload]
    seeds = strategy_seeds(seed)
    print(f"workload {workload} (seed {seed}, strategy seeds {seeds[0]}..{seeds[-1]}): {w.why}")
    slow = statistics.median(slowdown(r) for r in setups + passes)
    print(f"  calibration: the machine ran {slow:.3f} times slower than the reference "
        f"(median of {len(setups + passes)} interpreters); figures raw / scaled to the reference")
    print(f"  {w.item:24s} {items_per_s(passes, scaled=False):10.4f} / {items_per_s(passes):10.4f} 1/s  "
        f"(items_per_s is the {'scaled' if w.in_process else 'raw'} one; {len(full(passes))} full passes "
        f"of {pass_items(passes[0])} items, "
        f"{len(passes) - len(full(passes))} partial)")
    if workload == "scan":
        for name, unit in (("scan_rows_per_s", 0), ("resume_rows_per_s", 1)):
            print(f"  {name:24s} {items_per_s(passes, unit, False):10.4f} / "
                f"{items_per_s(passes, unit):10.4f} 1/s  (unit {unit} alone)")
    if workload == "classify-cold":
        quartiles = [q for q in map(classify_quantiles, full(passes)) if q]
        if quartiles:
            for label, i in (("p50", 1), ("p75", 2)):
                value = statistics.median(q[i] for q in quartiles)
                print(f"  classify_ms.{label:14s} {value:10.2f} ms               (raw; 40 calls a pass, "
                    "median over full passes)")
    print(f"  {'setup_s':24s} {setup_s(setups, passes, False):10.4f} / {setup_s(setups, passes):10.4f} s    "
        f"(median of {len(setups + passes)})")
    print(f"  {'peak_rss_mb':24s} {statistics.median(p['peak_rss_mb'] for p in full(passes)):10.2f} MB")
    print(f"  {'error_rate':24s} {len(failures) / attempted:10.4f} ratio ({len(failures)} of {attempted} operations)")
    for op in (op for p in passes for op in p["ops"] if "pool_cpu_utilization" in op):
        print(f"  pool: workers used {op['pool_cpu_s']:.2f} s CPU, utilization {op['pool_cpu_utilization']:.3f}")
        if pool_fell_back(op):
            print(
                "  WARNING: scan produced rows while its pool workers used almost no CPU: "
                "the command line fell back to serial execution (cli._cmd_scan catches "
                "OSError from the process pool and runs serially)"
            )
    if traced is not None:
        t = traced["trace"]
        print(f"  traced pass: {t['processes']} processes recorded, spans in {t['dir']}")
        if workload == "scan" and t["worker_processes"] == 0:
            print("  NOTE: no pool worker records were collected; per-layer figures cover the "
                "command line's parent process only, plus cli.pool.cpu_utilization")
    print(f"  output check: {'PASS' if not failures else 'FAIL'}")
    for message in failures[:20]:
        print(f"    {message}")


def run(args, work_dir):
    deadline = time.monotonic() + RUN_BUDGET_S
    golden = check.load_golden()
    setups, passes, traced, reference = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), work_dir, deadline
    )
    records = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    records.parent.mkdir(exist_ok=True)
    records.write_text(json.dumps({"setups": setups, "passes": passes}))
    if traced is not None:
        kept = OUT / f"trace-{args.workload}-seed{args.seed}"
        shutil.rmtree(kept, ignore_errors=True)
        shutil.move(traced["trace"]["dir"], kept)
        traced["trace"]["dir"] = str(kept.relative_to(ROOT))
    failures, attempted = [], 0
    for result in passes + ([traced] if traced else []):
        attempted += len(result["ops"])
        failures += check.check_ops(args.workload, args.seed, result["ops"], golden, reference)
    if traced is not None:
        failures += check.check_same_outputs(passes[0]["ops"], traced["ops"])
    describe(args.workload, args.seed, setups, passes, traced, failures, attempted)

    if traced is not None:
        metrics = per_layer_metrics(traced, passes[0])
        for name, m in metrics.items():
            print(f"  {name:50s} {m['value']:14.6g} {m['unit']}")
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end_metrics(args.workload, setups, passes).items()}
    print(json.dumps({"provenance": provenance(), "workload": args.workload, "seed": args.seed}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def record_golden(work_dir):
    """Write golden.json from one untraced pass of every workload at the default seed."""
    deadline = time.monotonic() + 600
    seed = DEFAULT_SEED
    golden = {"seed": seed, "strategy_seeds": list(strategy_seeds(seed))}
    for workload in WORKLOADS:
        ops = run_child("pass", workload, seed, False, work_dir, deadline)["ops"]
        errors = [op["error"] for op in ops if op["error"] is not None]
        if errors:
            raise HarnessError(f"{workload}: {errors[0]}")
        keep = ("corpus", "geo_cox", "checked") if workload == "audit" else ("sha256", "seed_free")
        golden[workload] = {op["op"]: {k: op[k] for k in keep} for op in ops}
        if workload == "scan":
            for op in ops:
                golden[workload][op["op"]]["rows"] = op["items"]
            reference = run_child("reference", workload, seed, False, work_dir, deadline)["ops"][0]
            first, second = ops[1:]
            if (first["sha256"], second["sha256"]) != (reference["prefix_sha256"], reference["sha256"]):
                raise HarnessError("cached scans differ from an uncached scan of the same corpus")
        print(f"recorded {workload}: {len(ops)} operations")
    check.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "adlvkit" / "__init__.py").is_file():
        print(f"error: no adlvkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_golden:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.record_golden:
            record_golden(work_dir)
            return 0
        return 0 if run(args, work_dir)["correct"] else 1
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
