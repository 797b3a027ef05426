"""Self-tests of the benchmark harness: ``python3 -m pytest bench/test_harness.py -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import passes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from adlvkit import affine_weyl, classifier, root_datum  # noqa: E402


def test_self_time_arithmetic_on_nested_spans():
    dump = {
        "spans": [
            # (id, name, start, end, parent, parent_path)
            (1, "outer", 0.0, 10.0, 0, ""),
            (2, "inner", 1.0, 4.0, 1, ""),
            (3, "inner", 3.5, 6.0, 1, ""),  # overlaps span 2: the union counts once
            (4, "late", 9.5, 11.0, 1, ""),  # runs past its parent: clipped to 0.5
            (5, "deep", 7.0, 7.25, 1, "hot"),  # started inside a hot call
        ],
        "hot": [
            [1, "hot", 10, 2.0],
            [1, "hot/leaf", 5, 0.5],
            [2, "leaf", 3, 0.25],
        ],
        "generator_calls": {"gen": 2},
    }
    stats = spans.summarize(dump)
    # 10 - union(1..6, 9.5..10) - top-level hot 2.0
    assert stats["outer"]["self_s"] == pytest.approx(10 - 5.5 - 2.0)
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["total_s"] == pytest.approx(5.5)
    assert stats["inner"]["self_s"] == pytest.approx(5.5 - 0.25)
    assert stats["late"]["self_s"] == pytest.approx(1.5)
    assert stats["hot"]["self_s"] == pytest.approx(2.0 - 0.5 - 0.25)
    assert stats["leaf"] == {"calls": 8, "total_s": pytest.approx(0.75), "self_s": pytest.approx(0.75)}
    assert stats["deep"]["self_s"] == pytest.approx(0.25)
    assert stats["gen"]["calls"] == 2
    merged = spans.merge([stats, stats])
    assert merged["inner"]["calls"] == 4


def test_traced_calls_match_untraced_and_uninstall_restores():
    original = affine_weyl.multiply

    def report():
        datum = passes.fresh_datum("A2:adj")
        w = affine_weyl.parse_element(datum, "s0 s1 s2")
        return passes.stable_json(classifier.report_to_dict(classifier.classify(w, seeds=(0, 1))))

    plain = report()
    recorder = spans.install()
    try:
        assert affine_weyl.multiply is not original
        traced = report()
    finally:
        spans.uninstall()
    assert affine_weyl.multiply is original
    assert traced == plain
    stats = spans.summarize(recorder.dump())
    assert stats["affine_weyl.multiply"]["calls"] > 0
    assert stats["classifier.classify"]["calls"] == 1
    assert stats["root_datum.build"]["calls"] == 1
    for name, s in stats.items():
        assert -1e-6 <= s["self_s"] <= s["total_s"] + 1e-9, name
    assert 0 < recorder.growth["affine_weyl.length"] <= stats["affine_weyl.length"]["calls"]


def test_cold_check_rejects_a_warm_datum():
    datum = passes.fresh_datum("A1:adj")
    datum.weyl_elements()
    passes.check_cold(datum)
    classifier.classify(affine_weyl.parse_element(datum, "s0 s1"), seeds=(0,))
    with pytest.raises(passes.ColdStateError):
        passes.check_cold(datum)


def test_classify_pass_refuses_reused_or_warm_data(monkeypatch):
    monkeypatch.setattr(root_datum, "_REGISTRY", {})
    calls = [("A1:adj", "s0 s1"), ("A1:adj", "s1 s0")]
    ops = passes.classify_pass((0, 1), calls)
    assert [op["error"] for op in ops] == [None, None]
    # reusing the interned datum, as an in-process repeat loop would
    ops = passes.classify_pass((0, 1), calls, make_datum=root_datum.build_root_datum)
    assert all("ColdStateError" in op["error"] for op in ops)
    warm = passes.fresh_datum("A1:adj")
    passes.classify_pass((0,), calls[:1], make_datum=lambda _spec: warm)
    ops = passes.classify_pass((0,), calls[:1], make_datum=lambda _spec: warm)
    assert "ColdStateError" in ops[0]["error"]


def test_a_second_pass_in_one_interpreter_is_refused(monkeypatch):
    monkeypatch.setattr(root_datum, "_REGISTRY", {})
    passes.set_up(["A1:adj"])
    passes.check_fresh_interpreter(["A1:adj"])
    datum = root_datum.build_root_datum("A1:adj")
    classifier.classify(affine_weyl.parse_element(datum, "s0 s1 s0"), seeds=(0,))
    with pytest.raises(passes.ColdStateError):
        passes.check_fresh_interpreter(["A1:adj"])
    root_datum.build_root_datum("A2:adj")
    with pytest.raises(passes.ColdStateError):
        passes.check_fresh_interpreter(["A1:adj"])


def test_seeded_inputs():
    assert workloads.strategy_seeds(0) == tuple(range(10))
    for seed in range(5):
        seeds = workloads.strategy_seeds(seed)
        assert len(set(seeds)) == 10
        calls = workloads.classify_calls(seed)
        assert len(calls) == 40
        assert calls[:3] == list(workloads.PAPER_EXAMPLES)
        assert calls == workloads.classify_calls(seed)
    assert workloads.classify_calls(1) != workloads.classify_calls(2)


def test_a_silent_serial_fallback_is_flagged():
    pool = {"items": 276, "pool_cpu_s": 11.2, "parent_cpu_s": 1.5}
    serial = {"items": 276, "pool_cpu_s": 0.0, "parent_cpu_s": 9.7}
    assert not run.pool_fell_back(pool)
    assert run.pool_fell_back(serial)
    assert not run.pool_fell_back({**serial, "items": 0})


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == [BENCH.name]


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_leftover_time_goes_to_the_longest_units_that_fit():
    longest = {0: 1.0, 1: 6.0, 2: 2.0, 3: 0.5}
    assert run.plan(longest, 11.0) is None  # a full pass fits
    assert run.plan(longest, 8.5) == [0, 1, 3]  # with 6.0, 2.0 no longer fits
    assert run.plan(longest, 0.5) == []


def test_partial_passes_add_samples_and_times_are_scaled_by_their_pass():
    def op(name, wall, items=1):
        return {"op": name, "unit": 0, "error": None, "wall_s": wall, "items": items}

    ref = run.REFERENCE_S
    passes_ = [
        {"units": None, "calibration_s": [ref, ref], "ops": [op("a", 1.0, 10), op("b", 4.0, 30)]},
        # the calibration ran twice as slow around this pass
        {"units": None, "calibration_s": [1.5 * ref, 2.5 * ref], "ops": [op("a", 4.0, 10), op("b", 12.0, 30)]},
        {"units": [1], "calibration_s": [ref], "ops": [op("b", 4.5, 30)]},
    ]
    # scaled, a: median of 1.0, 2.0 is 1.5 s; b: median of 4.0, 6.0, 4.5 is 4.5 s; 40 items a pass
    assert run.items_per_s(passes_) == pytest.approx(40 / 6.0)
    # raw, a: 2.5 s, b: 4.5 s
    assert run.items_per_s(passes_, scaled=False) == pytest.approx(40 / 7.0)
    assert len(run.full(passes_)) == 2
