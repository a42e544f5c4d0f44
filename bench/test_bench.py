"""Checks on the benchmark itself, at its smoke scale.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import os
import subprocess
import sys

import pytest

import workloads
from compare import compare
from repro.hw.content import PatternContent

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """Every workload at smoke scale, untraced and traced, as the one
    command runs them."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--scale",
         "smoke", "--seconds", "0", "--trace", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    assert done.returncode == 0, done.stdout[-3000:]
    with open(out) as handle:
        return json.load(handle)


def test_every_workload_reports_exactly_the_declared_metrics(smoke_report):
    declared = [entry["name"] for entry in SPEC["workloads"]]
    assert sorted(smoke_report["workloads"]) == sorted(declared)
    for name in declared:
        result = smoke_report["workloads"][name]
        for mode in ("end_to_end", "per_layer"):
            assert sorted(result[mode]["metrics"]) == sorted(
                metric["name"] for metric in SPEC[mode]), (name, mode)
        assert all(value > 0 for value in
                   result["end_to_end"]["metrics"].values()), name


def test_same_seed_runs_are_identical_on_the_simulated_clock(smoke_report):
    for name, result in smoke_report["workloads"].items():
        untraced, traced = result["end_to_end"], result["per_layer"]
        assert untraced["extra"]["sim_digest"] == \
            traced["extra"]["sim_digest"], name
        assert untraced["metrics"]["restore_ms"] == \
            traced["extra"]["restore_ms"], name


def test_a_report_compares_clean_against_itself(smoke_report):
    assert all(ok for _line, ok in compare(smoke_report, smoke_report,
                                           SPEC))


def test_a_corrupted_restore_fails_the_bit_exact_check(monkeypatch):
    original = workloads.check_restored

    def corrupt_then_check(instance, step_of, label):
        tensor = instance.tensors[0]
        tensor.allocation.write(0, PatternContent(seed=1,
                                                  size=tensor.size_bytes))
        original(instance, step_of, label)

    monkeypatch.setattr(workloads, "check_restored", corrupt_then_check)
    with pytest.raises(workloads.CorrectnessError, match="not bit-exact"):
        workloads.WORKLOADS["dedup_finetune"].run_pass(600, "smoke")
