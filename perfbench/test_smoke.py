"""Smoke test of the benchmark at tiny sizes: outputs match their digests and
every metric BENCHMARK.json names is reported.  Timings are not checked.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _quiet(*_):
    pass


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    result = run.run(workload, seed=5, seconds=1, trace=trace, smoke=True, log=_quiet)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_trace_names_every_target():
    lines = []
    run.run("frontier", seed=5, seconds=1, trace=1, smoke=True, log=lines.append)
    assert "skipped: none" in lines


def test_wrong_digest_counts_as_failure():
    digests = run.load_digests()
    key = "frontier hermite_connection 3"
    digests[key] = "0" * 64
    result = run.run("frontier", seed=5, seconds=1, trace=0, smoke=True, digests=digests,
                     log=_quiet)
    assert result["failed"] == 1 and not result["correct"]


def test_tail_latency_leaves_ten_samples_beyond():
    value, pct, n = run.tail_latency([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and pct == 75.0
