"""BENCHMARK.json agrees with the benchmark, and the benchmark refuses to run without the program."""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_tables_match_the_benchmark():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == [name for name in run.WORKLOADS if name not in run.UNGATED]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_result_line_carries_exactly_the_metrics_of_the_mode():
    outcome = run.Outcome({"setup_s": 1.0, "peak_rss_mb": 2.0, "wall_s": 3.0}, 3, 0, True, "d")
    ctx = run.Context.__new__(run.Context)
    ctx.trace = False
    line = run.result_line(ctx, outcome)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["wall_s"] == {"value": 3.0, "unit": "s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cold-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
