"""Smoke test of the benchmark itself; run from the repository root with

    python3 -m pytest -q bench/test_smoke.py

Every workload runs at toy size, traced and untraced, and must pass the
output checks and report exactly the metrics ``BENCHMARK.json`` names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    script = cwd / "bench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_workload_passes_output_checks(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--size", "toy"
    )
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"], record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert not list(ROOT.glob(".bench-tmp-*"))


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_or_uncalled_wrapped_names_are_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import slmc.experiment
    import tracing

    monkeypatch.delattr(slmc.experiment, "empirical_w2")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        pass
    absent = tracer.absent()
    assert "slmc.experiment.empirical_w2" in absent
    assert "sampler.run_chain" in absent
    assert tracing.layer_metrics(tracer, 1.0)["sampler.steps"] == 0
