"""Toy-size self-test of the benchmark: python3 -m pytest perfbench -q (from the repository root).

Each workload runs at toy size, untraced and traced. The test checks
the result line's shape, that every metric BENCHMARK.json names is
emitted with its unit, that no answer check fails, that the exact work
counts repeat, that the benchmark refuses to run without the package
sources, and that the adaptive-exact reference covers every seed.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(proc) -> dict:
    info = json.loads(proc.stdout.strip().splitlines()[-2])
    return json.loads((ROOT / info["record"]).read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_work_counts_repeat(workload):
    first, second = (record_of(run(workload, 1)) for _ in range(2))
    assert first["exact_counts"] == second["exact_counts"]
    assert not first["missing_sites"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_adaptive_exact_reference_serves_every_seed():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    for seed in (0, 7, 12345):
        wl = SimpleNamespace(name="adaptive-exact", seed=seed, size="full", reference_per_seed=False)
        assert len(run.load_reference(wl)["values"]) == 12
    wl = SimpleNamespace(name="adaptive-sampled", seed=12345, size="full", reference_per_seed=True)
    assert run.load_reference(wl) is None
