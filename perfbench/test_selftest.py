"""Self-test of the benchmark's output checks.

    python3 -m pytest perfbench/test_selftest.py -q

Runs every workload at a tiny size through run.py, untraced and traced,
and requires a clean result with every declared metric. Then falsifies
one output at a time (a neighbor-table row, a k-NN prediction, a
checkpoint byte) and requires the run to count failed ops.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# workloads whose op builds neighbor tables
TABLE_WORKLOADS = ["a6proxy-excl"]


def run(workload, *extra, trace=0, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_reports_every_metric(workload, trace):
    result = result_of(run(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


CASES = (
    [(w, "neighbor") for w in TABLE_WORKLOADS]
    + [(w, "knn") for w in WORKLOADS]
    + [(w, "checkpoint") for w in WORKLOADS]
)


@pytest.mark.parametrize("workload,corruption", CASES)
def test_corrupted_output_counts_as_failed(workload, corruption):
    result = result_of(run(workload, "--corrupt", corruption))
    assert result["correct"] is False
    assert result["failed"] > 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 21))
    assert tail(values) == (10, 50.0, 20)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
