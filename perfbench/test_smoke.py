"""Smoke test of the benchmark itself, not part of the package's test suite.

    python3 -m pytest -q perfbench/test_smoke.py

Runs one short sample per workload in both modes and checks that every
metric BENCHMARK.json names appears with its unit, then checks that a
tampered report counts as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_report_counts_as_failed(tmp_path):
    import run
    import sample

    vmh = sample.import_vmhammer()
    call = sample.setup_matrix(vmh, sample.DEFAULT_SEED, str(tmp_path))[0]
    code = call.run()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["matrix"]
    untouched = sample.checked_outputs([call], [code], sample.DEFAULT_SEED, reference)[0]

    path = tmp_path / "matrix.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    flip = next(r for r in payload["reports"] if r.get("flips"))["flips"][0]
    flip["bit_index"] ^= 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    tampered = sample.checked_outputs([call], [code], sample.DEFAULT_SEED, reference)[0]

    attempted, failed = run.tally([{"outputs": untouched}, {"outputs": tampered}])
    assert (attempted, failed) == (2 * len(untouched), 1)
