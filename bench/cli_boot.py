"""Run the ``adlvkit`` command line for the benchmark: ``python3 cli_boot.py <args>``.

It calls ``adlvkit.cli.main`` with the given arguments, exactly as the
``adlvkit`` entry point does, and afterwards writes this process's wall
time and CPU use (its own and that of its pool workers) as JSON to the file
named by ``ADLVKIT_BENCH_REPORT``.

When ``ADLVKIT_BENCH_TRACE`` names a directory, the span wrappers are
installed before the command runs and the records are written there, one
file per process. Installing happens at import time so that pool workers
started with ``spawn`` (which re-import this file) are traced too; forked
workers inherit the wrappers and start with empty records.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import spans

_TRACE_DIR = os.environ.get("ADLVKIT_BENCH_TRACE")
_RECORDER = None
if _TRACE_DIR:
    _RECORDER = spans.install()
    _RECORDER.dump_in_workers(_TRACE_DIR)


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv):
    from adlvkit import cli

    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        report = {
            "wall_s": wall,
            "cpu_self_s": _cpu(own),
            "cpu_children_s": _cpu(children),
            "maxrss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024.0,
        }
        if _RECORDER is not None:
            _RECORDER.write(os.path.join(_TRACE_DIR, f"spans-{os.getpid()}.json.gz"))
        path = os.environ.get("ADLVKIT_BENCH_REPORT")
        if path:
            with open(path, "w") as fh:
                json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
