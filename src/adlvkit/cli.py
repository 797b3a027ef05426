"""Command line front end.

One verb per artifact: classify an element, emit a reduction tree, print
the endpoint-class table, scan a length range, or run the invariant
suites. All randomness is seed-derived; identical configurations produce
byte-identical JSON. Results can be cached in content-addressed files
keyed by a hash of the full request, the package version, the report
schema and the package's source files, so interrupted scans resume for
free and entries written by other code are never read back.

Exit codes: 0 ok, 1 usage, 2 resource cap, 3 invariant failure, 4 a scan
whose worker pool failed after it had written rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__, bg_poset, classifier, conjugacy
from .affine_weyl import ASCII_DIGITS, format_element, left_descent, omega_element, parse_element
from .classifier import REPORT_SCHEMA, classify, report_to_dict
from .errors import AdlvkitError, CapExceededError, InternalInvariantError, UsageError
from .linalg import LatticeQuotient
from .reduction_tree import build_tree, export_tree
from .root_datum import build_root_datum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_INVARIANT = 3
EXIT_POOL = 4

_VERIFY_FRACTION = 100  # re-verify roughly 1 in this many cache hits
_SCAN_CHUNK = 8  # rows per task a pool worker takes


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _stable_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the names and bytes of the package's ``*.py`` files."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class ResultCache:
    """Content-addressed JSON files; atomic writes, last writer wins.

    ``unreadable`` counts the entries that existed but could not be read
    back as a report of the requested datum; :meth:`read` treats them as
    misses, so they are recomputed and overwritten.
    """

    def __init__(self, root):
        self.root = root
        self.unreadable = 0
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cache directory {root!r} cannot be made: {exc.strerror or exc}") from exc

    @staticmethod
    def key(payload: dict) -> str:
        """Hash of the request, the report schema and the package sources.

        An entry written by other code (another version, schema or source
        file) gets another key, so it is never served as fresh.
        """
        import hashlib

        blob = _stable_json(
            {
                "version": __version__,
                "schema": REPORT_SCHEMA,
                "source": _source_digest(),
                **payload,
            }
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def path(self, key):
        return os.path.join(self.root, key + ".json")

    def read(self, key, datum):
        """The report stored under ``key``, or None on a miss.

        An entry that is not valid JSON, or not a dict with the report
        schema and the datum string ``datum``, is unreadable.
        """
        try:
            with open(self.path(key)) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            data = None
        if isinstance(data, dict) and data.get("schema") == REPORT_SCHEMA and data.get("datum") == datum:
            return data
        self.unreadable += 1
        return None

    def write(self, key, data):
        tmp = self.path(key) + f".tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(_stable_json(data))
        os.replace(tmp, self.path(key))

    @staticmethod
    def should_reverify(key) -> bool:
        # deterministic sampling, no wall clock or OS entropy
        return int(key[:8], 16) % _VERIFY_FRACTION == 0


def _build_parser():
    parser = _Parser(prog="adlvkit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=True, corpus=False):
        p.add_argument("--datum", required=True, help="datum string, e.g. A5:gl or 2A4:sc")
        if seeds:
            p.add_argument(
                "--seeds",
                default=",".join(map(str, classifier.DEFAULT_SEEDS)),
                help="comma separated strategy seeds: distinct nonnegative integers",
            )
        p.add_argument("--cap-bfs", default=conjugacy.DEFAULT_BFS_CAP)
        if corpus:
            # the commands that enumerate a corpus up to --max-length
            p.add_argument("--max-length", required=True)
            p.add_argument("--cap-enum", default=bg_poset.DEFAULT_ENUM_BUDGET)

    p = sub.add_parser("classify", help="full report for one element")
    common(p)
    p.add_argument("element")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("tree", help="emit one reduction tree")
    common(p, seeds=False)
    p.add_argument("element")
    p.add_argument("--seed", default=0)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("bgw", help="endpoint classes with path counts")
    common(p)
    p.add_argument("element")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("scan", help="classify every element up to a length bound")
    common(p, corpus=True)
    p.add_argument(
        "--filter",
        default=None,
        help="comma separated subset of straight,minlen,mincox,geocox,smo",
    )
    p.add_argument(
        "--coset",
        default=None,
        help="restrict to the coset of tauK, e.g. tau1; on a gl datum the coset "
        "is taken modulo central translations, as the corpus is",
    )
    p.add_argument(
        "--left-minimal",
        default=None,
        help="comma separated finite indices; keep only elements of minimal "
        "length in their coset under the corresponding parabolic",
    )
    p.add_argument("--format", choices=("jsonl", "table"), default="jsonl")
    p.add_argument(
        "--jobs",
        default=0,
        help="worker processes, 0 = available parallelism; a result cache "
        "(--cache or ADLVKIT_CACHE) makes the scan serial, with a warning "
        "when --jobs asks for more than one",
    )

    p = sub.add_parser("check", help="run the invariant suites over a scan corpus")
    common(p, corpus=True)

    for name in ("classify", "bgw", "scan"):  # the verbs that call _cache_from
        sub.choices[name].add_argument("--cache", help="cache directory (or ADLVKIT_CACHE)")

    return parser


def _integer_list(text, what):
    """Comma separated nonnegative integers in ASCII digits.

    int() alone would accept '-1', whose random.Random shuffles like 1's,
    and read '٣' as 3 and '1_0' as 10.
    """
    parts = text.split(",")
    if not all(ASCII_DIGITS.fullmatch(p) for p in parts):
        raise UsageError(f"bad {what} {text!r}: expected nonnegative integers in ASCII digits")
    return tuple(int(p) for p in parts)


def _parse_seeds(text):
    seeds = _integer_list(text, "seed list")
    if len(set(seeds)) != len(seeds):
        raise UsageError("seeds must be distinct")
    return seeds


def _cache_from(args):
    root = args.cache or os.environ.get("ADLVKIT_CACHE")
    return ResultCache(root) if root else None


def _warn_unreadable(cache):
    n = 0 if cache is None else cache.unreadable
    if n:
        what = "entry was" if n == 1 else "entries were"
        print(f"warning: {n} unreadable result-cache {what} recomputed and overwritten", file=sys.stderr)


def _classify_payload(datum, text, seeds, cap):
    w = parse_element(datum, text)
    return report_to_dict(classify(w, seeds=seeds, cap=cap))


def _classified(datum, text, seeds, cap, cache):
    if cache is None:
        return _classify_payload(datum, text, seeds, cap)
    datum_string = datum.spec.datum_string()
    key = cache.key(
        {
            "command": "classify",
            "datum": datum_string,
            "element": text,
            "seeds": list(seeds),
            "cap": cap,
        }
    )
    hit = cache.read(key, datum_string)
    if hit is not None:
        if cache.should_reverify(key):
            fresh = _classify_payload(datum, text, seeds, cap)
            if fresh != hit:
                raise InternalInvariantError(
                    f"cache entry {key} disagrees with a fresh run"
                )
        return hit
    data = _classify_payload(datum, text, seeds, cap)
    cache.write(key, data)
    return data


def _report_table(data) -> str:
    lines = [
        f"element   {data['element']}   (datum {data['datum']}, length {data['length']})",
        f"min-len {data['min_len']}   straight {data['straight']}   "
        f"smo {data['smo']}   geo-cox {data['geo_cox']}",
        f"slack {data['mct']['slack']}   newton ({','.join(data['newton'])})   "
        f"kottwitz ({','.join(str(k) for k in data['kottwitz'])})",
    ]
    if data["min_cox"]:
        wit = data["min_cox"]
        lines.append(
            f"witness  K={{{','.join(str(i) for i in wit['K'])}}}  x = {wit['x']}  c = {wit['c']}"
        )
    lines.append("classes:")
    for row in data["bgw"]:
        lines.append(
            f"  nu=({','.join(row['newton'])}) kappa=({','.join(str(k) for k in row['kottwitz'])})"
            f"  paths={row['num_paths']}  ell1={row['ell1']} ell2={row['ell2']} dim={row['dim']}"
            + (f"  {row['shape']}" if row["shape"] else "")
        )
    lines.append(
        f"saturated {data['purity']['saturated']}"
        + ("" if not data["purity"]["interval_diff"] else "  (interval differs!)")
    )
    return "\n".join(lines)


# -- scan worker (module level so process pools can pickle it) ----------------


class _PoolFailure(Exception):
    """The scan's worker pool broke after some rows were already written."""


_WORKER_STATE = {}


def _scan_worker_init(datum_string, seeds, cap):
    _WORKER_STATE["datum"] = build_root_datum(datum_string)
    _WORKER_STATE["seeds"] = seeds
    _WORKER_STATE["cap"] = cap


def _scan_worker(text):
    datum = _WORKER_STATE["datum"]
    return _classify_payload(datum, text, _WORKER_STATE["seeds"], _WORKER_STATE["cap"])


def _process_pool(max_workers, initargs):
    """The scan's worker pool, each worker set up by :func:`_scan_worker_init`.

    ``concurrent.futures`` is imported here, so only a pool scan loads it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=_scan_worker_init, initargs=initargs
    )


def _available_cpus():
    """The CPUs this process may run on, which ``--jobs 0`` asks for."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_FILTERS = {
    "straight": lambda d: d["straight"],
    "minlen": lambda d: d["min_len"],
    "mincox": lambda d: d["min_cox"] is not None,
    "geocox": lambda d: d["geo_cox"],
    "smo": lambda d: d["smo"],
}


def _check_nonnegative(args):
    """Read the given integer flags as ASCII decimals; reject '-1', '٣', '1_0', '²'."""
    for flag in ("--seed", "--max-length", "--cap-bfs", "--cap-enum", "--jobs"):
        name = flag[2:].replace("-", "_")
        value = getattr(args, name, None)
        if isinstance(value, str):
            if not ASCII_DIGITS.fullmatch(value):
                raise UsageError(f"{flag} expects a nonnegative integer in ASCII digits, got {value!r}")
            setattr(args, name, int(value))


def _cmd_scan(args, out):
    from . import checks

    datum = build_root_datum(args.datum)
    seeds = _parse_seeds(args.seeds)
    cache = _cache_from(args)
    if cache is not None and args.jobs > 1:
        print(
            f"warning: --jobs {args.jobs} is ignored with a result cache; "
            "scanning serially",
            file=sys.stderr,
        )
    filters = []
    if args.filter:
        for name in args.filter.split(","):
            if name not in _FILTERS:
                raise UsageError(f"unknown filter {name!r}")
            filters.append(_FILTERS[name])

    elements = checks.corpus(datum, args.max_length, budget=args.cap_enum)
    if args.coset:
        k = args.coset[3:]
        if not (args.coset.startswith("tau") and ASCII_DIGITS.fullmatch(k)):
            raise UsageError(f"--coset expects tauK, got {args.coset!r}")
        # the corpus holds one element per class modulo central
        # translations, so the cosets are compared modulo them too
        quotient = datum.omega_quotient
        if datum.central_rank:
            quotient = LatticeQuotient(datum.n, quotient.generators + (datum.central_vector,))
        target = quotient.key(omega_element(datum, int(k)).translation)
        elements = [x for x in elements if quotient.key(x.translation) == target]
    if args.left_minimal:
        indices = _integer_list(args.left_minimal, "index list")
        if any(not 1 <= i <= datum.rank for i in indices):
            raise UsageError("--left-minimal expects finite simple indices")
        elements = [x for x in elements if not any(left_descent(x, i) for i in indices)]
    texts = [format_element(x) for x in elements]

    jobs = args.jobs or _available_cpus()

    def row_stream():
        if jobs > 1 and cache is None and len(texts) > 1:
            from concurrent.futures.process import BrokenProcessPool

            # with the fork start method every worker starts at the first
            # submit, so start no more than there are chunks
            workers = min(jobs, -(-len(texts) // _SCAN_CHUNK))
            rows = 0
            try:
                with _process_pool(workers, (args.datum, seeds, args.cap_bfs)) as pool:
                    for data in pool.map(_scan_worker, texts, chunksize=_SCAN_CHUNK):
                        rows += 1
                        yield data
                    return
            except (OSError, BrokenProcessPool) as exc:
                if rows:
                    # a serial restart would repeat the rows already written
                    raise _PoolFailure(
                        f"worker pool failed after {rows} of {len(texts)} rows: {exc!r}"
                    ) from exc
                print(
                    f"warning: worker pool failed before its first row ({exc!r}); "
                    "scanning serially",
                    file=sys.stderr,
                )
        for text in texts:
            yield _classified(datum, text, seeds, args.cap_bfs, cache)

    emitted = 0
    truncated = None
    code = EXIT_OK
    try:
        for data in row_stream():
            if any(not f(data) for f in filters):
                continue
            emitted += 1
            if args.format == "jsonl":
                out.write(_stable_json(data) + "\n")
            else:
                out.write(
                    f"{data['element']:40s} len={data['length']:2d} "
                    f"minlen={int(data['min_len'])} straight={int(data['straight'])} "
                    f"smo={int(data['smo'])} geocox={int(data['geo_cox'])} "
                    f"classes={len(data['bgw'])}\n"
                )
    except CapExceededError as exc:
        truncated, code = str(exc), EXIT_CAP
    except _PoolFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        truncated, code = str(exc), EXIT_POOL
    _warn_unreadable(cache)
    if truncated is not None:
        # partial results stay flushed; the marker records the cut
        if args.format == "jsonl":
            out.write(_stable_json({"truncated": True, "reason": truncated}) + "\n")
        else:
            out.write(f"# truncated: {truncated}\n")
        return code
    if args.format == "table":
        out.write(f"# {emitted} of {len(texts)} elements shown\n")
    return EXIT_OK


def _cmd_check(args, out):
    from . import checks

    datum = build_root_datum(args.datum)
    seeds = _parse_seeds(args.seeds)
    report = checks.audit(
        datum,
        args.max_length,
        seeds=seeds,
        bfs_cap=args.cap_bfs,
        enum_budget=args.cap_enum,
    )
    for line in report.lines():
        out.write(line + "\n")
    for result in report.results.values():
        for finding in result.findings:
            out.write(f"FINDING {result.name}: {_stable_json(finding)}\n")
        for violation in result.violations[:20]:
            out.write(f"VIOLATION {result.name}: {_stable_json(violation)}\n")
    out.write(
        f"# corpus {report.corpus_size} elements, {report.geo_cox_count} geometric "
        f"Coxeter type, {report.elapsed:.1f}s\n"
    )
    return EXIT_OK if report.passed else EXIT_INVARIANT


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_nonnegative(args)
        if args.command in ("classify", "bgw"):
            datum = build_root_datum(args.datum)
            seeds = _parse_seeds(args.seeds)
            cache = _cache_from(args)
            data = _classified(datum, args.element, seeds, args.cap_bfs, cache)
            _warn_unreadable(cache)
        if args.command == "classify":
            if args.format == "json":
                out.write(_stable_json(data) + "\n")
            else:
                out.write(_report_table(data) + "\n")
            return EXIT_OK
        if args.command == "tree":
            datum = build_root_datum(args.datum)
            w = parse_element(datum, args.element)
            tree = build_tree(w, seed=args.seed, cap=args.cap_bfs)
            text = export_tree(tree, format=args.format)
            out.write(text if text.endswith("\n") else text + "\n")
            return EXIT_OK
        if args.command == "bgw":
            table = {
                "schema": REPORT_SCHEMA,
                "datum": data["datum"],
                "element": data["element"],
                "bgw": data["bgw"],
            }
            if args.format == "json":
                out.write(_stable_json(table) + "\n")
            else:
                for row in data["bgw"]:
                    out.write(
                        f"nu=({','.join(row['newton'])}) "
                        f"kappa=({','.join(str(k) for k in row['kottwitz'])}) "
                        f"paths={row['num_paths']} ell1={row['ell1']} "
                        f"ell2={row['ell2']} dim={row['dim']}\n"
                    )
            return EXIT_OK
        if args.command == "scan":
            return _cmd_scan(args, out)
        if args.command == "check":
            return _cmd_check(args, out)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalInvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except AdlvkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
