import io
import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from adlvkit import classifier, cli, root_datum


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_classify_json_deterministic():
    code1, out1 = run(["classify", "--datum", "A1:adj", "s0 s1 s0"])
    code2, out2 = run(["classify", "--datum", "A1:adj", "s0 s1 s0"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema"] == "adlvkit.report/1"
    assert data["geo_cox"] is True
    assert len(data["bgw"]) == 2


def test_classify_paper_example_table():
    code, out = run(["classify", "--datum", "A5:gl", "s4 tau3", "--format", "table"])
    assert code == 0
    assert "geo-cox True" in out
    assert "K={1,4}" in out


def test_classify_usage_errors():
    code, _ = run(["classify", "--datum", "A1:adj", "bogus"])
    assert code == 1
    code, _ = run(["classify", "--datum", "Z9:adj", "s1"])
    assert code == 1
    code, _ = run(["classify", "--datum", "A1:adj", "s1", "--seeds", "1,1"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--datum", "A1:adj", "s1"],
        ["bgw", "--datum", "A1:adj", "s1"],
        ["scan", "--datum", "A1:adj", "--max-length", "2"],
        ["check", "--datum", "A1:adj", "--max-length", "2"],
    ],
)
def test_seeds_default_is_the_classifier_default(argv):
    args = cli._build_parser().parse_args(argv)
    assert cli._parse_seeds(args.seeds) == classifier.DEFAULT_SEEDS


@pytest.mark.parametrize("seeds", ["1,-1", "\u0663,4", "1_0", "0,,1", "", " 1", "+1"])
def test_seed_lists_take_ascii_digits_only(seeds):
    # Random(-1) shuffles like Random(1); int() reads '\u0663' as 3, '1_0' as 10
    code, out = run(["classify", "--datum", "A1:adj", "s1", "--seeds", seeds])
    assert code == cli.EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("indices", ["\u0661", "1,-1", "1_0", "1,"])
def test_left_minimal_takes_ascii_digits_only(indices):
    argv = ["scan", "--datum", "A2:adj", "--max-length", "2", "--jobs", "1"]
    code, out = run(argv + ["--left-minimal", indices])
    assert code == cli.EXIT_USAGE
    assert out == ""


def test_cap_exit_code(monkeypatch):
    # an empty registry, so the command builds a cold datum and no cache
    # warmed by other tests can hide the cap
    monkeypatch.setattr(root_datum, "_REGISTRY", {})
    code, _ = run(["classify", "--datum", "B3:adj", "s0 s1 s2 s3 s2 s1", "--cap-bfs", "1"])
    assert code == 2


def test_cap_bfs_zero_exceeds_the_cap_cold_and_warm(monkeypatch):
    # every shift class has at least one member, more than a cap of 0;
    # s1 on A1:adj meets only one-member classes, so a cap of 1 passes
    monkeypatch.setattr(root_datum, "_REGISTRY", {})
    argv = ["classify", "--datum", "A1:adj", "s1", "--seeds", "0"]
    assert run(argv + ["--cap-bfs", "0"])[0] == cli.EXIT_CAP
    assert run(argv + ["--cap-bfs", "1"])[0] == 0
    assert run(argv)[0] == 0
    # the datum is now warm: its graphs and memos are cached
    assert run(argv + ["--cap-bfs", "0"])[0] == cli.EXIT_CAP


def test_a_bfs_cap_inside_check_is_a_resource_cap(capsys):
    # the cap is hit inside the element loop, not as an integrality violation
    code, out = run(["check", "--datum", "A2:adj", "--max-length", "4", "--cap-bfs", "2"])
    assert code == cli.EXIT_CAP
    assert "FAIL integrality" not in out
    assert capsys.readouterr().err == (
        "resource cap exceeded: shift class BFS exceeded the configured cap of 2 (reached 3)\n"
    )


@pytest.mark.parametrize(
    "datum,text",
    [("E6:sc", "s0 s1 s2 s3 s4 s5 s6"), ("A7:gl", "s0 s1 s2 s3 s4 s5 s6 s7")],
)
def test_rank_six_and_seven_coxeter_classify(datum, text, monkeypatch):
    # these exited 2 while defects came from the straight enumeration
    monkeypatch.setattr(root_datum, "_REGISTRY", {})
    code, out = run(["classify", "--datum", datum, text])
    assert code == 0
    data = json.loads(out)
    assert data["geo_cox"] is True and data["purity"]["saturated"] is True


def test_classify_on_a_moved_central_line_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(root_datum, "_REGISTRY", {})
    code, out = run(["classify", "--datum", "2A3:gl", "s1"])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "Kottwitz filters cannot pin the central direction" in capsys.readouterr().err


def test_tree_formats():
    code, out = run(["tree", "--datum", "A1:adj", "s0 s1 s0", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph") and '"I"' in out and '"II"' in out
    code, out = run(["tree", "--datum", "A1:adj", "s1", "--format", "dot"])
    assert code == 0
    assert "->" not in out  # minimal length element: single vertex
    code, out = run(["tree", "--datum", "A1:adj", "s0 s1 s0", "--format", "json"])
    data = json.loads(out)
    assert len(data["nodes"]) == 3 and len(data["edges"]) == 2


def test_tree_seed_variation_consistent():
    outputs = set()
    for seed in range(4):
        code, out = run(
            ["tree", "--datum", "A2:adj", "s0 s1 s2 s1 s0", "--seed", str(seed)]
        )
        assert code == 0
        outputs.add(out)
    # at least one seed should reproduce another run byte for byte
    for seed in range(4):
        _, again = run(
            ["tree", "--datum", "A2:adj", "s0 s1 s2 s1 s0", "--seed", str(seed)]
        )
        assert again in outputs


def test_bgw_table():
    code, out = run(["bgw", "--datum", "A1:adj", "s0 s1 s0", "--format", "table"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "ell1=1" in out and "ell2=1" in out


def test_scan_filters_and_formats():
    code, out = run(
        ["scan", "--datum", "A1:adj", "--max-length", "3", "--format", "jsonl", "--jobs", "1"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 7
    assert all(row["schema"] == "adlvkit.report/1" for row in rows)
    code, out = run(
        [
            "scan",
            "--datum",
            "A1:adj",
            "--max-length",
            "3",
            "--filter",
            "straight",
            "--format",
            "jsonl",
            "--jobs",
            "1",
        ]
    )
    straight = [json.loads(line) for line in out.strip().splitlines()]
    assert 0 < len(straight) < len(rows)
    assert all(row["straight"] for row in straight)


def test_scan_coset_restriction():
    code, out = run(
        [
            "scan",
            "--datum",
            "A1:gl",
            "--max-length",
            "1",
            "--coset",
            "tau1",
            "--format",
            "jsonl",
            "--jobs",
            "1",
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows
    assert all(sum(int(c) for c in row["kottwitz"]) % 2 == 1 for row in rows)


def test_scan_coset_is_compared_modulo_central_translations():
    # the gl corpus holds one element per central translation class, of
    # coordinate sum 0..n-1, so tau4 = t(1,1,1,1) on A3:gl is tau0's coset
    def scan(coset):
        return run(
            ["scan", "--datum", "A3:gl", "--max-length", "1", "--coset", coset,
             "--format", "table", "--jobs", "1"]
        )

    code, out = scan("tau4")
    assert code == 0
    assert out == scan("tau0")[1]
    assert not out.endswith("# 0 of 0 elements shown\n")
    sums = [sum(map(int, row[2 : row.index(")")].split(","))) for row in out.splitlines()[:-1]]
    assert sums and all(total % 4 == 0 for total in sums)
    assert scan("tau1")[1] != out


@pytest.mark.parametrize("coset", ["tauX", "tau", "tau-1", "tau\u00b2", "tau\u0661"])
def test_scan_bad_coset_is_a_usage_error(coset, capsys):
    code, out = run(
        ["scan", "--datum", "A2:adj", "--max-length", "1", "--coset", coset, "--jobs", "1"]
    )
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --coset expects tauK")


@pytest.mark.parametrize("text", ["s\u00b2", "tau\u00b2", "s\u0661", "t(\u0661,0)", "t(1_0,0)"])
def test_classify_non_ascii_digits_is_a_parse_error(text, capsys):
    # '²' passes str.isdigit() but not int(); '١' and '1_0' pass int()
    code, out = run(["classify", "--datum", "A2:adj", text])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error:")


def test_scan_negative_jobs_is_a_usage_error(capsys):
    code, out = run(["scan", "--datum", "A1:adj", "--max-length", "1", "--jobs", "-3"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --jobs")


@pytest.mark.parametrize("command", ["scan", "check"])
def test_negative_max_length_is_a_usage_error(command, capsys):
    code, out = run([command, "--datum", "A2:adj", "--max-length", "-1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --max-length")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["classify", "--datum", "C3:sc", "s0 s1 s2 s3", "--cap-bfs", "-3"], "--cap-bfs"),
        (["tree", "--datum", "A1:adj", "s0", "--cap-bfs", "-1"], "--cap-bfs"),
        (["bgw", "--datum", "A1:adj", "s0", "--cap-bfs", "-1"], "--cap-bfs"),
        (["scan", "--datum", "A1:adj", "--max-length", "2", "--cap-bfs", "-1"], "--cap-bfs"),
        (["check", "--datum", "A1:adj", "--max-length", "2", "--cap-bfs", "-1"], "--cap-bfs"),
        (["scan", "--datum", "A1:adj", "--max-length", "2", "--cap-enum", "-1"], "--cap-enum"),
        (["check", "--datum", "A1:adj", "--max-length", "2", "--cap-enum", "-1"], "--cap-enum"),
    ],
)
def test_negative_cap_is_a_usage_error(argv, flag, capsys):
    code, out = run(argv)
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: {flag}")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["tree", "--datum", "A1:adj", "s0 s1 s0", "--seed", "\u0663"], "--seed"),
        (["check", "--datum", "A1:adj", "--max-length", "1_0"], "--max-length"),
        (["scan", "--datum", "A1:adj", "--max-length", "1", "--jobs", "\u00b2"], "--jobs"),
        (["classify", "--datum", "A1:adj", "s0", "--cap-bfs", "+5"], "--cap-bfs"),
        (["scan", "--datum", "A1:adj", "--max-length", "1", "--cap-enum", " 7"], "--cap-enum"),
    ],
)
def test_integer_flags_take_only_ascii_digits(argv, flag, capsys):
    # int() reads all of these but the superscript two as numbers
    code, out = run(argv)
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: {flag}")


@pytest.mark.parametrize("command", ["classify", "tree", "bgw"])
def test_cap_enum_is_only_for_corpus_commands(command, capsys):
    code, out = run([command, "--datum", "A1:adj", "s0", "--cap-enum", "5"])
    assert code == 1
    assert out == ""
    assert "--cap-enum" in capsys.readouterr().err


def test_cap_enum_bounds_the_scan_corpus(capsys):
    code, out = run(["scan", "--datum", "A2:adj", "--max-length", "2", "--cap-enum", "5"])
    assert code == 2
    assert out == ""
    assert "corpus enumeration" in capsys.readouterr().err


def test_cap_enum_counts_the_corpus_elements(capsys):
    # A2:adj has 1 + 3 + 6 = 10 elements of length at most 2
    argv = ["scan", "--datum", "A2:adj", "--max-length", "2", "--jobs", "1", "--cap-enum"]
    code, out = run(argv + ["10"])
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    capsys.readouterr()
    code, out = run(argv + ["9"])
    assert code == 2
    assert out == ""
    assert "corpus enumeration at length 2 exceeded the configured cap of 9" in capsys.readouterr().err


def test_scan_length_zero_all_geo():
    code, out = run(
        ["scan", "--datum", "A5:gl", "--max-length", "0", "--format", "jsonl", "--jobs", "1"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 6  # one length-zero element per normalized coset
    assert all(row["geo_cox"] and row["min_cox"] is not None for row in rows)


def test_cache_roundtrip(tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = ["classify", "--datum", "A1:adj", "s0 s1 s0", "--cache", cache_dir]
    code1, out1 = run(argv)
    files = os.listdir(cache_dir)
    assert len(files) == 1
    code2, out2 = run(argv)
    assert (code1, out1) == (code2, out2)
    assert os.listdir(cache_dir) == files


def test_cache_env_var(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "envcache")
    monkeypatch.setenv("ADLVKIT_CACHE", cache_dir)
    code, _ = run(["classify", "--datum", "A1:adj", "s1"])
    assert code == 0
    assert os.listdir(cache_dir)


def test_cache_key_covers_schema_and_sources(monkeypatch):
    payload = {"command": "classify", "datum": "A1:adj", "element": "s1"}
    key = cli.ResultCache.key(payload)
    assert cli.ResultCache.key(payload) == key
    monkeypatch.setattr(cli, "REPORT_SCHEMA", "adlvkit.report/0")
    assert cli.ResultCache.key(payload) != key
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cli.ResultCache.key(payload) != key


def test_check_subcommand_passes():
    code, out = run(
        ["check", "--datum", "A1:adj", "--max-length", "4", "--seeds", "0,1,2"]
    )
    assert code == 0
    assert "FAIL" not in out
    assert "PASS formula_type_counts" in out


def test_check_exit_code_on_invariant_breakage(monkeypatch):
    from adlvkit import checks
    from adlvkit.errors import InternalInvariantError

    def broken(*args, **kwargs):
        raise InternalInvariantError("synthetic breakage")

    monkeypatch.setattr(checks.classifier, "mct_inequality", broken)
    code, out = run(
        ["check", "--datum", "A1:adj", "--max-length", "2", "--seeds", "0,1"]
    )
    assert code == 3
    assert "FAIL integrality" in out


def test_scan_parallel_matches_sequential():
    # branching trees, whose per-datum memos each worker warms with its
    # own share of the corpus; the pool runs first, on a datum that no
    # classify has warmed yet
    argv = ["scan", "--datum", "A2:adj", "--max-length", "5", "--format", "jsonl"]
    code2, par = run(argv + ["--jobs", "2"])
    code1, seq = run(argv + ["--jobs", "1"])
    assert code1 == code2 == 0
    assert seq == par


@pytest.mark.parametrize(
    "cache,jobs,warned",
    [
        ("flag", None, False),
        ("flag", "1", False),
        ("flag", "2", True),
        ("env", "3", True),
        (None, "2", False),
    ],
)
def test_scan_warns_when_a_cache_overrides_jobs(tmp_path, monkeypatch, capsys, cache, jobs, warned):
    # a result cache makes the scan serial; say so only when --jobs asked for more
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    argv = ["scan", "--datum", "A1:adj", "--max-length", "3"]
    _code, plain = run(argv + ["--jobs", "1"])
    capsys.readouterr()
    if cache == "flag":
        argv += ["--cache", str(tmp_path / "cache")]
    elif cache == "env":
        monkeypatch.setenv("ADLVKIT_CACHE", str(tmp_path / "cache"))
    if jobs is not None:
        argv += ["--jobs", jobs]
    code, out = run(argv)
    assert code == 0
    assert out == plain
    err = capsys.readouterr().err.splitlines()
    if warned:
        assert err == [f"warning: --jobs {jobs} is ignored with a result cache; scanning serially"]
    else:
        assert err == []


def test_scan_truncation_marker(monkeypatch):
    # classification blowing a cap mid-scan flushes a marker and exits 2
    from adlvkit import cli as cli_mod
    from adlvkit.errors import CapExceededError

    real = cli_mod._classify_payload
    calls = {"n": 0}

    def flaky(datum, text, seeds, cap):
        calls["n"] += 1
        if calls["n"] > 3:
            raise CapExceededError(cap, "synthetic scan budget")
        return real(datum, text, seeds, cap)

    monkeypatch.setattr(cli_mod, "_classify_payload", flaky)
    code, out = run(
        ["scan", "--datum", "A1:adj", "--max-length", "3", "--format", "jsonl", "--jobs", "1"]
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 4  # three rows then the marker
    assert json.loads(lines[-1])["truncated"] is True


def test_cache_reverification_detects_corruption(tmp_path, monkeypatch):
    from adlvkit import cli as cli_mod

    monkeypatch.setattr(cli_mod, "_VERIFY_FRACTION", 1)  # re-verify every hit
    cache_dir = str(tmp_path / "cache")
    argv = ["classify", "--datum", "A1:adj", "s1", "--cache", cache_dir]
    code, _ = run(argv)
    assert code == 0
    (name,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, name)
    data = json.load(open(path))
    data["length"] = 99
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, _ = run(argv)
    assert code == 3


def test_scan_left_minimal_restriction():
    code, out = run(
        [
            "scan",
            "--datum",
            "A2:adj",
            "--max-length",
            "4",
            "--left-minimal",
            "1,2",
            "--format",
            "jsonl",
            "--jobs",
            "1",
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows
    # these are the dominant-translation-type forms: every row is geo-cox
    assert all(row["geo_cox"] for row in rows)


def _failing_executor(fail_at, exc):
    """An in-process stand-in for ``cli._process_pool`` whose map raises ``exc``
    in place of row ``fail_at`` (None: opening the pool raises)."""

    class FakeExecutor:
        def __init__(self, max_workers, initargs):
            if fail_at is None:
                raise exc
            cli._scan_worker_init(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            for k, item in enumerate(items):
                if k == fail_at:
                    raise exc
                yield fn(item)

    return FakeExecutor


_SCAN_ARGV = ["scan", "--datum", "A1:adj", "--max-length", "3", "--format", "jsonl"]


@pytest.mark.parametrize(
    "exc", [OSError("synthetic pool failure"), BrokenProcessPool("synthetic worker death")]
)
def test_scan_pool_failure_after_rows_is_an_error(monkeypatch, capsys, exc):
    _code, serial = run(_SCAN_ARGV + ["--jobs", "1"])
    monkeypatch.setattr(cli, "_WORKER_STATE", {})
    monkeypatch.setattr(cli, "_process_pool", _failing_executor(3, exc))
    code, out = run(_SCAN_ARGV + ["--jobs", "2"])
    assert code == cli.EXIT_POOL
    lines = out.strip().splitlines()
    # three rows, none repeated by a serial restart, then the marker
    assert lines[:3] == serial.strip().splitlines()[:3]
    assert len(lines) == 4
    marker = json.loads(lines[-1])
    assert marker["truncated"] is True and "after 3 of 7 rows" in marker["reason"]
    err = capsys.readouterr().err
    assert err.startswith("error: worker pool failed after 3 of 7 rows")


@pytest.mark.parametrize("fail_at", [None, 0])
def test_scan_pool_failure_before_first_row_falls_back(monkeypatch, capsys, fail_at):
    _code, serial = run(_SCAN_ARGV + ["--jobs", "1"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "_WORKER_STATE", {})
    monkeypatch.setattr(
        cli, "_process_pool", _failing_executor(fail_at, OSError("no semaphores"))
    )
    code, out = run(_SCAN_ARGV + ["--jobs", "2"])
    assert code == 0
    assert out == serial
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: worker pool failed before its first row")


def _in_process_pool(opened):
    """A stand-in for ``cli._process_pool`` that records each ``max_workers``
    and runs the rows in this process, starting nothing."""

    class InProcessPool:
        def __init__(self, max_workers, initargs):
            opened.append(max_workers)
            cli._scan_worker_init(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    return InProcessPool


@pytest.mark.parametrize(
    "datum,max_length,jobs,workers",
    [
        # 7 rows make one chunk of 8
        ("A1:adj", "3", "8", 1),
        ("A1:adj", "3", "2", 1),
        # 31 rows make four chunks
        ("A2:adj", "4", "8", 4),
        ("A2:adj", "4", "3", 3),
    ],
)
def test_the_scan_pool_starts_no_worker_without_a_chunk(monkeypatch, datum, max_length, jobs, workers):
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    argv = ["scan", "--datum", datum, "--max-length", max_length]
    _code, serial = run(argv + ["--jobs", "1"])
    opened = []
    monkeypatch.setattr(cli, "_WORKER_STATE", {})
    monkeypatch.setattr(cli, "_process_pool", _in_process_pool(opened))
    code, out = run(argv + ["--jobs", jobs])
    assert (code, out) == (0, serial)
    assert opened == [workers]


@pytest.mark.parametrize("affinity", [True, False], ids=["sched_getaffinity", "cpu_count"])
def test_jobs_zero_counts_the_cpus_this_process_may_use(monkeypatch, affinity):
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    _code, serial = run(_SCAN_ARGV + ["--jobs", "1"])

    def no_pool(max_workers, initargs):
        raise AssertionError(f"a one-CPU scan opened a pool of {max_workers}")

    monkeypatch.setattr(cli, "_process_pool", no_pool)
    if affinity:
        # pinned to one CPU of eight
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, out = run(_SCAN_ARGV)
    assert (code, out) == (0, serial)


def test_unreadable_cache_entries_are_counted_and_rewritten(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    cache_dir = tmp_path / "cache"
    cached = _SCAN_ARGV + ["--jobs", "1", "--cache", str(cache_dir)]
    _code, plain = run(_SCAN_ARGV + ["--jobs", "1"])
    assert run(cached) == (0, plain)
    names = sorted(os.listdir(cache_dir))
    assert len(names) == 7
    assert capsys.readouterr().err == ""  # misses are not unreadable entries
    for name in names[:2]:
        (cache_dir / name).write_bytes(b"\xff garbage")
    assert run(cached) == (0, plain)
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: 2 unreadable result-cache entries were recomputed and overwritten"]
    # the entries were rewritten, so every one reads back
    assert run(cached) == (0, plain)
    assert capsys.readouterr().err == ""
    (cache_dir / names[0]).write_text("{")
    cache = cli.ResultCache(str(cache_dir))
    key = names[0][: -len(".json")]
    assert cache.read(key, "A1:adj") is None and cache.read("0" * 64, "A1:adj") is None
    assert cache.unreadable == 1


_MALFORMED = {"{}": "{}", "[1,2]": "[1,2]", '"x"': '"x"', "null": "null"}


@pytest.mark.parametrize("entry", list(_MALFORMED.values()), ids=list(_MALFORMED))
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--datum", "A1:adj", "s1"],
        ["classify", "--datum", "A1:adj", "s1", "--format", "table"],
        ["bgw", "--datum", "A1:adj", "s1"],
        ["scan", "--datum", "A1:adj", "--max-length", "0", "--jobs", "1"],
    ],
    ids=["classify-json", "classify-table", "bgw", "scan"],
)
def test_a_malformed_cache_entry_is_recomputed(tmp_path, monkeypatch, capsys, argv, entry):
    # valid JSON of the wrong shape is no report: never served as a hit
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    fresh = run(argv)
    cached = argv + ["--cache", str(tmp_path)]
    assert run(cached) == fresh
    (name,) = os.listdir(tmp_path)
    (tmp_path / name).write_text(entry)
    capsys.readouterr()
    assert run(cached) == fresh
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: 1 unreadable result-cache entry was recomputed and overwritten"]
    assert run(cached) == fresh
    assert capsys.readouterr().err == ""


def test_a_report_of_another_datum_is_not_a_hit(tmp_path, monkeypatch):
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    argv = ["classify", "--datum", "A1:adj", "s1", "--cache", str(tmp_path)]
    _code, fresh = run(argv)
    (name,) = os.listdir(tmp_path)
    other = json.loads(fresh)
    other["datum"] = "A1:gl"
    (tmp_path / name).write_text(json.dumps(other))
    cache = cli.ResultCache(str(tmp_path))
    assert cache.read(name[: -len(".json")], "A1:adj") is None
    assert cache.unreadable == 1


def test_an_unreadable_classify_entry_is_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    argv = ["classify", "--datum", "A1:adj", "s1", "--cache", str(tmp_path)]
    _code, fresh = run(argv)
    (name,) = os.listdir(tmp_path)
    (tmp_path / name).write_text("not json")
    capsys.readouterr()
    assert run(argv) == (0, fresh)
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: 1 unreadable result-cache entry was recomputed and overwritten"]


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "--datum", "A1:adj", "s1"],
        ["check", "--datum", "A1:adj", "--max-length", "1", "--seeds", "0"],
    ],
    ids=["tree", "check"],
)
def test_verbs_without_a_result_cache_reject_the_flag(tmp_path, capsys, argv):
    # only classify, bgw and scan read a result cache; elsewhere the flag
    # would be accepted and ignored
    code, out = run(argv + ["--cache", str(tmp_path / "cache")])
    assert code == cli.EXIT_USAGE
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("how", ["flag", "env"])
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--datum", "A1:adj", "s1"],
        ["bgw", "--datum", "A1:adj", "s1"],
        ["scan", "--datum", "A1:adj", "--max-length", "1", "--jobs", "1"],
    ],
    ids=["classify", "bgw", "scan"],
)
def test_a_cache_path_that_is_a_file_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, how):
    path = tmp_path / "taken"
    path.write_text("not a directory")
    monkeypatch.delenv("ADLVKIT_CACHE", raising=False)
    if how == "flag":
        argv = argv + ["--cache", str(path)]
    else:
        monkeypatch.setenv("ADLVKIT_CACHE", str(path))
    code, out = run(argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
    assert path.read_text() == "not a directory"


def test_scan_rows_follow_the_corpus_order():
    from adlvkit import checks
    from adlvkit.affine_weyl import format_element

    code, out = run(["scan", "--datum", "C2:sc", "--max-length", "4", "--jobs", "1"])
    assert code == 0
    rows = [json.loads(line)["element"] for line in out.splitlines()]
    datum = root_datum.build_root_datum("C2:sc")
    assert rows == [format_element(x) for x in checks.corpus(datum, 4)]
