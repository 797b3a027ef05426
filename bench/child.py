"""One set-up or one timed pass of a workload, in a fresh interpreter.

Usage: ``python3 child.py '<json spec>'``, with ``src`` on ``PYTHONPATH``.
The spec holds ``mode`` (``setup``, ``pass`` or ``reference``),
``workload``, ``seed``, ``trace``, ``work_dir``, ``timeout_s`` and
``units``, the units of the workload a pass runs (null for all). The
result is printed as one JSON line.

Set-up is timed from just before ``import adlvkit`` until every datum the
workload names is built with its ``weyl_elements()``. The pass then checks
that nothing but set-up has touched the data before its clock starts.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import spans
import workloads


def main(spec):
    if any(m == "adlvkit" or m.startswith("adlvkit.") for m in sys.modules):
        raise RuntimeError("the pass interpreter imported adlvkit before set-up")
    mode, name, seed = spec["mode"], spec["workload"], spec["seed"]
    deadline = time.monotonic() + spec["timeout_s"]
    datums = workloads.WORKLOADS[name].datums if mode != "reference" else ()

    start = time.perf_counter()
    import adlvkit  # noqa: F401  (timed: part of set-up)

    recorder = spans.install() if spec["trace"] else None
    import passes

    passes.set_up(datums)
    result = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        return result

    passes.check_fresh_interpreter(datums)
    trace_dir = None
    if recorder is not None:
        trace_dir = Path(spec["work_dir"]) / f"trace-{os.getpid()}"
        trace_dir.mkdir()
    context = {
        "seeds": workloads.strategy_seeds(seed),
        "calls": workloads.classify_calls(seed),
        "work_dir": spec["work_dir"],
        "trace_dir": trace_dir,
        "deadline": deadline,
        "units": spec.get("units"),
    }
    start = time.perf_counter()
    ops = passes.PASSES[name if mode == "pass" else "reference"](**context)
    result["wall_s"] = time.perf_counter() - start
    result["ops"] = ops
    result["peak_rss_mb"] = passes.rusage_peak_mb()
    if recorder is not None:
        spans.uninstall()
        recorder.write(trace_dir / f"spans-{os.getpid()}.json.gz")
        result["trace"] = collect(trace_dir, os.getpid())
    return result


def collect(trace_dir, own_pid):
    """Merge the records of this process, the command lines and their workers."""
    dumps = [spans.load(p) for p in sorted(Path(trace_dir).glob("spans-*.json.gz"))]
    counts, growth = {}, {}
    for dump in dumps:
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in dump["growth"].items():
            growth[key] = growth.get(key, 0) + value
    return {
        "layers": spans.merge(spans.summarize(d) for d in dumps),
        "counts": counts,
        "growth": growth,
        "processes": len(dumps),
        # pool workers: processes other than this one that ran no command line
        "worker_processes": sum(
            1
            for d in dumps
            if d["pid"] != own_pid and not any(s[1] == "cli.main" for s in d["spans"])
        ),
        "dir": str(trace_dir),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
