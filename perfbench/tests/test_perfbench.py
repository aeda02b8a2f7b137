"""Tests of the benchmark itself, at smoke size.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.import_steercert()

from steercert import certify, harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# Spans each workload must exercise, named by the metric that counts or
# times them.
FIRES = {
    "conj1": [
        "sdp.solve.calls", "sdp.hvec.calls", "sdp.unhvec.calls", "sdp.rows.calls",
        "sdp.build.calls", "linalg.hermitian.constructed", "quantum.povm.constructed",
        "quantum.sample.s", "quantum.depolarize.s", "witness.ensemble.calls",
        "certify.jm.calls", "harness.run_s", "harness.post_selected",
    ],
    "seesaw": [
        "sdp.solve.calls", "sdp.hvec.calls", "sdp.unhvec.calls",
        "linalg.hermitian.constructed", "quantum.povm.constructed",
        "witness.seesaw.s", "witness.seesaw.restarts",
        "witness.seesaw.alternation_runs", "witness.seesaw.alternation_steps",
        "witness.seesaw.probes", "harness.run_s",
    ],
    "certify": [
        "sdp.solve.calls", "sdp.hvec.calls", "sdp.unhvec.calls", "sdp.rows.calls",
        "sdp.build.calls", "linalg.hermitian.constructed", "quantum.povm.constructed",
        "quantum.assemblage.s", "certify.jm.calls", "certify.lhs.calls",
        "harness.run_s",
    ],
}


def values(result) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    facts, result = bench.run(workload, seed=1, seconds=0.0, trace=False, smoke=True)
    assert facts["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(v > 0 for v in values(result).values())
    # Host-corrected figures come with the uncorrected ones and the
    # host factors that relate them.
    assert facts["uncorrected_records_per_s"] > 0
    assert 0 < facts["host_factor"]["min"] <= facts["host_factor"]["max"]
    if workload == "certify":
        labels = {f"{kind}.n{n}" for kind in ("jm", "lhs") for n in range(2, 5)}
        assert set(facts["call_ms.p50"]) == labels


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_traced_smoke_fires_spans_and_repeats_counts(workload):
    facts, first = bench.run(workload, seed=1, seconds=0.0, trace=True, smoke=True)
    # run() fails the result when traced and untraced records differ.
    assert facts["problems"] == []
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == PER_LAYER
    got = values(first)
    assert [name for name in FIRES[workload] if not got[name] > 0] == []

    _, second = bench.run(workload, seed=1, seconds=0.0, trace=True, smoke=True)
    counts = {n for n, m in first["metrics"].items() if m["unit"] == "count"}
    assert {n: got[n] for n in counts} == {n: values(second)[n] for n in counts}


def test_host_factor_is_one_at_the_reference_speed():
    clock = bench.HostClock()
    ref = clock.REFERENCE_S
    assert clock.factor(ref, ref) == 1.0
    assert clock.factor(ref, 3 * ref) == 2.0
    assert clock.kernel_s() > 0


def test_tracer_restores_every_binding():
    original = certify.jm_critical_visibility
    bench.run("certify", seed=1, seconds=0.0, trace=True, smoke=True)
    assert harness.jm_critical_visibility is original
    assert certify.jm_critical_visibility is original


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "conj1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
