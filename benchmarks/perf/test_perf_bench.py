"""Self-test of the performance benchmark: ``pytest benchmarks/perf -q``.

Runs ``run.py --smoke`` (every workload on tiny instances, one pass
each) and checks the result against ``BENCHMARK.json``, the comparison
script against itself, and the wrapper timings against the trace spans.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

from workloads import QUALITY_METRICS, WORKLOADS, load_spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    start = time.perf_counter()
    proc = bench(str(HERE / "run.py"), "--smoke", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {
        "path": out,
        "result": json.loads(out.read_text()),
        "last": last_line(proc),
        "elapsed": elapsed,
    }


def test_smoke_run_is_quick_and_correct(smoke: dict) -> None:
    assert smoke["elapsed"] < 60
    assert smoke["last"]["correct"] is True
    assert smoke["last"]["failed"] == 0
    assert set(smoke["last"]) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_has_the_required_shape() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    names += [m["name"] for m in QUALITY_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_benchmark_name_is_emitted(smoke: dict) -> None:
    workloads = smoke["result"]["workloads"]
    assert set(workloads) == set(WORKLOADS)
    for name, result in workloads.items():
        for metric in SPEC["end_to_end"]:
            assert metric["name"] in result["metrics"], (name, metric)
        for metric in SPEC["per_layer"]:
            assert metric["name"] in result["layers"], (name, metric)
        flow_only = {m["name"] for m in QUALITY_METRICS if m["flow_only"]}
        reported = set(result["metrics"])
        assert reported.isdisjoint(flow_only) == WORKLOADS[name].global_only
        assert result["absent"] == []


def test_compare_against_itself_reports_no_worse(smoke: dict) -> None:
    path = str(smoke["path"])
    proc = bench(str(HERE / "compare.py"), path, path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    labels = [line.split()[-1] for line in proc.stdout.splitlines()[1:-1]]
    assert labels and set(labels) <= {"same", "unresolved"}


def test_wrapped_layer_times_match_trace_spans(smoke: dict) -> None:
    for result in smoke["result"]["workloads"].values():
        for check in result["layer_check"]:
            for layer, times in check.items():
                # 1 ms absolute slack: smoke-scale stages take about 1 ms.
                slack = 0.05 * times["span_s"] + 0.001
                assert abs(times["wrapper_s"] - times["span_s"]) <= slack, layer


def test_layer_self_times_account_for_the_traced_pass(smoke: dict) -> None:
    self_times = (
        "globalroute.route_s", "assign.layer_s", "assign.track_s",
        "detailed.route_s", "eval.evaluate_s", "multilevel.levelize_s",
    )
    for result in smoke["result"]["workloads"].values():
        layers = {k: v["value"] for k, v in result["layers"].items()}
        traced = sum(layers[k] for k in self_times) + layers["core.unattributed_s"]
        assert 0 <= layers["core.unattributed_s"] <= 0.05 * traced


def test_trace_overhead_needs_several_pairs(
    smoke: dict, tmp_path: pathlib.Path
) -> None:
    for result in smoke["result"]["workloads"].values():
        assert result["overhead_pairs"] == 1
        assert "observe.trace_overhead_pct" not in result["layers"]
    out = tmp_path / "pairs.json"
    proc = bench(
        str(HERE / "run.py"), "--smoke", "--workload", "firstpass_mcnc_5pct",
        "--repeats", "3", "--trace", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())["workloads"]["firstpass_mcnc_5pct"]
    assert result["overhead_pairs"] == 3
    assert result["layers"]["observe.trace_overhead_pct"]["n"] == 3


def test_timings_are_rescaled_to_the_reference_speed() -> None:
    import run

    def timing(cpu_s: float, slowdown: float) -> dict:
        return {"cpu_s": cpu_s, "wall_s": cpu_s, "probe_busy_s": 0.0,
                "speed": 1.0 / slowdown,
                "fastest_probe_s": slowdown * run.REFERENCE_PROBE_S}

    def untraced(calls: list[dict]) -> dict:
        quality = {"nets": 10, "routed": 8, "wirelength": 80, "vertex_overflow": 0}
        return {"setup": timing(0.5, 2.0), "route_calls": calls,
                "peak_rss_mb": 90.0, "quality": quality}

    # The second pass ran at half speed throughout: its speed samples
    # took twice as long, and so did its calls.
    passes = {
        "untraced": [untraced([timing(3.0, 1.0), timing(1.0, 1.0)]),
                     untraced([timing(6.0, 2.0), timing(2.0, 2.0)])],
        "traced": [],
        "setup": [],
    }
    metrics = run.end_to_end(
        WORKLOADS["global_stress_table4"], passes, load_spec()
    )
    assert metrics["route_s"]["samples"] == pytest.approx([4.0, 4.0])
    assert metrics["routed_nets_per_s"]["value"] == pytest.approx(2.0)
    assert metrics["setup_s"]["samples"] == pytest.approx([0.25, 0.25])


def test_time_off_the_cpu_is_not_counted() -> None:
    import child

    _, timing = child.SpeedProbe().timed(lambda: time.sleep(0.3))
    assert timing["wall_s"] >= 0.3
    assert timing["cpu_s"] < 0.05


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_workload_run_prints_its_section(trace: str, section: str) -> None:
    proc = bench(
        str(HERE / "run.py"), "--smoke", "--workload", "firstpass_mcnc_5pct",
        "--seed", "3", "--seconds", "1", "--trace", trace,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = last_line(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_router_sources(tmp_path: pathlib.Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("benchmarks/perf/run.py", "--workload", "ripup_s13207_10x",
                 "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
