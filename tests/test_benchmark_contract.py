"""The names `perfbench/` relies on exist in the program.

The benchmark wraps functions and counts ops by name; a rename it has not
followed would make it report `correct: false`. These checks make such a
rename fail the tests instead, and one round of the `pretrain` and
`probe_eval` workloads checks the calls they make into the program. They
only read `perfbench/`, `BENCHMARK.json` and the committed `BENCH_*.json`
records.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trimodal.gradcheck import OP_CASES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, os.fspath(PERFBENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_resolves():
    for module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(module_name)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        assert name in vars(owner), f"{module_name}.{attr}"


def test_gradcheck_ops_are_op_cases():
    assert set(workloads.GRADCHECK_OPS) <= set(OP_CASES)


def test_workloads_match_benchmark_json():
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_bench_records_name_declared_workloads_and_metrics():
    # each committed before/after record (`BENCH_*.json`) parses and names
    # only the workloads and metrics that BENCHMARK.json declares
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    names = {key: {entry["name"] for entry in declared[key]}
             for key in ("workloads", "end_to_end", "per_layer")}
    records = sorted(PERFBENCH.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        for workload, metrics in record["end_to_end"].items():
            assert workload in names["workloads"], (path.name, workload)
            assert set(metrics) <= names["end_to_end"], (path.name, set(metrics))
        for key in ("pairs", "correct", "failed"):
            assert set(record[key]) <= names["workloads"], (path.name, key)
        traced = set(record.get("traced", {})) - {"command"}
        assert traced <= names["per_layer"], (path.name, traced)


@pytest.mark.parametrize("workload", ["pretrain", "probe_eval"])
def test_one_round_is_correct(workload):
    # `--seconds 0` runs a single round; its last line is the JSON result
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
