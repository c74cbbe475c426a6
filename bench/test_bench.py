"""Tests of the benchmark itself; the runs use the smoke sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_names_every_metric(workload, trace):
    done = run_bench(ROOT, "--smoke", "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "psa-chi", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_plan_draws_the_grid_start_from_the_seed():
    first, again, other = (workloads.plan("squeezed-fine", s) for s in (3, 3, 4))
    assert first["argv"] == again["argv"] != other["argv"]
    assert 0.015 <= first["start"] <= 0.025
    assert first["argv"][first["argv"].index("--stop") + 1] == "pi"
    assert workloads.plan("verify", 3)["argv"] == ["verify"]


HEADER = ("model,g,chi,alpha2,r,eps2_numeric,eps2_analytic,eta2_numeric,eta2_analytic,"
          "hak,ozawa_lhs,bo_lhs,bot_lhs,flags\n")
ROW = "exact-coherent,0.5,1,4,0,0.353,{eps2},1.25,1.25,0.44,2.6,1.6,1.2,{flags}\n"
LAST = ("exact-coherent,3.14159265359,6.28,4,0,SINGULAR,SINGULAR,1e-28,0,"
        "SINGULAR,SINGULAR,SINGULAR,SINGULAR,SINGULAR\n")


@pytest.mark.parametrize("row, problems", [
    (ROW.format(eps2="0.353", flags=""), 0),
    (ROW.format(eps2="0.3530001", flags=""), 0),
    (ROW.format(eps2="0.354", flags=""), 1),
    (ROW.format(eps2="0.353", flags="SINGULAR"), 1),
])
def test_sweep_check(row, problems):
    spec = {"command": "sweep-g", "steps": 2}
    rows, found = workloads.check_sweep(spec, HEADER + row + LAST)
    assert rows == 2 and len(found) == problems, found


def test_verify_check_wants_five_passing_suites():
    five = "".join(f"suite s{i} PASS  max err 1e-13\n" for i in range(5))
    assert workloads.check_verify(five) == (5, [])
    assert workloads.check_verify(five.replace("PASS", "FAIL", 1))[1]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(60) == 83
    assert workloads.tail_percentile(1000) == 99
    assert workloads.tail_percentile(12) == 50


def test_spans_nest_and_self_time_excludes_children():
    trace = tracer.Tracer(run="r1")
    with trace.span("root"):
        with trace.span("child"):
            pass
    root, child = trace.spans
    assert (root.parent, child.parent, child.run) == (None, root.id, "r1")
    assert root.start <= child.start <= child.end <= root.end

    spans = [tracer.Span(0, "root", 0.0, 10.0, None, "r"),
             tracer.Span(1, "a", 1.0, 4.0, 0, "r"),
             tracer.Span(2, "b", 3.0, 6.0, 0, "r"),
             tracer.Span(3, "c", 2.0, 3.0, 1, "r")]
    assert tracer.self_times(spans) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    assert tracer.self_time_by_name(spans + [tracer.Span(4, "c", 7.0, 8.0, 0, "r")])["c"] == 2.0
