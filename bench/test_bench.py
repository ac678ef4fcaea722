"""Tests of the benchmark itself: tiny runs, span accounting, failure counting.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from relmonad import checker, kan  # noqa: E402
from relmonad.presheaf import PresheafMorphism  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)

TINY = {"suite": 1, "extend-large": 8}


def bench(workload, trace, env=None, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--items", str(TINY[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          env=dict(os.environ, **(env or {})))


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if len(ln.split()) >= 3}
    for metric in DECLARED[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"], metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
    assert printed["fail_frac"] == "ratio"


def test_traced_counts_do_not_depend_on_the_hash_seed():
    runs = []
    for hash_seed in ("1", "2"):
        proc = bench("suite", 1, env={"PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["checker.instances"] == len(checker.LAW_ORDER)


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("extend-large", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- span accounting -------------------------------------------------------------

def test_self_time_subtracts_the_part_children_cover():
    #  a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 9]
    names = ["a", "b", "c", "d"]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert spans.self_times(names, start, end, parent) == {"a": 3, "b": 2, "c": 1, "d": 4}


def test_layer_self_times_and_unattributed_add_up_to_the_wall():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.wrap(lambda: inner(), "checker.run_single")
    inner = tracer.wrap(lambda: leaf() + leaf(), "multimap.evaluate")
    leaf = tracer.wrap(lambda: 1, "presheaf.colimit")
    tracer.begin()             # t=0
    outer()                    # spans over t=1..8
    tracer.finish()            # t=9
    m = tracer.metrics(())
    assert (m["checker.self_s"], m["multimap.self_s"], m["presheaf.colimit.self_s"]) == (2, 3, 2)
    layer_total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_total + m["trace.unattributed_s"] == m["trace.wall_s"] == 9


# -- failures are counted, never fatal ---------------------------------------------

def test_a_raising_extension_counts_as_failed(monkeypatch):
    def broken(c):
        raise RuntimeError("deliberately broken")

    monkeypatch.setattr(kan, "theta_cell", broken)
    out = workloads.run_items(workloads.extend_inputs(5, 2), workloads.extend_item)
    assert out["failed"] == 2 and "deliberately broken" in out["errors"][0]


def test_a_non_bijective_collapse_counts_as_failed(monkeypatch):
    honest_theta = kan.theta_cell

    def constant(c):
        cell = honest_theta(c)

        def fn(args, honest=cell._fn):
            phi = honest(args)
            return PresheafMorphism(phi.src, phi.dst, tuple((0,) * len(r) for r in phi.components))

        cell._fn = fn
        return cell

    items = workloads.extend_inputs(5, 2)
    honest = workloads.run_items(items, workloads.extend_item)
    monkeypatch.setattr(kan, "theta_cell", constant)
    broken = workloads.run_items(items, workloads.extend_item)
    assert honest["failed"] == 0 and broken["failed"] == 2
    assert run.disagreements([honest, broken]) == 2


# -- scaling to the reference speed --------------------------------------------------

def test_a_child_in_a_slow_spell_reads_the_same_once_scaled():
    def child(slowdown):
        slice_s = calib.NOMINAL_SLICE_S * slowdown
        return {"latencies_s": [0.010 * slowdown, 0.030 * slowdown], "wall_s": 0.050 * slowdown,
                "setup_s": 0.200 * slowdown, "peak_rss_mb": 30.0,
                "calib_s": [slice_s] * 3, "setup_calib_s": [slice_s] * 3}

    fast, _, _ = run.end_to_end([child(1.0)] * 3)
    mixed, _, _ = run.end_to_end([child(1.0), child(1.6), child(1.3)])
    assert fast == pytest.approx(mixed)
    assert fast["wall_s"] == pytest.approx(0.050) and fast["setup_s"] == pytest.approx(0.200)


def test_a_reference_slice_that_computes_the_wrong_thing_is_refused(monkeypatch):
    monkeypatch.setattr(calib, "EXPECTED", (0, 0))
    with pytest.raises(RuntimeError):
        calib.one_slice()
