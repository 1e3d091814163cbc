"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They run the harness in its reduced-size mode (``--quick``), so they take
about two minutes; they are not part of the package's own test suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_quick_mode_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("workload", ["q2_verify", "cli_files"])
def test_doctored_family_is_counted_as_failed(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--quick", "--doctor")
    assert proc.returncode == 1
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "independent" in proc.stderr


def test_same_seed_gives_same_inputs():
    state = workloads.setup_q3()

    def configs(seed):
        ctx = workloads.Context(seed=seed, sizes=workloads.QUICK, doctor=False)
        workloads.prepare_q3(state, ctx)
        return [job.run.__defaults__ for job in workloads.pass_q3(state, ctx, 0)
                if job.name.startswith("planes_meeting")]

    assert configs(5) == configs(5)
    assert configs(5) != configs(6)


def test_tracer_patches_every_binding_and_restores_it():
    from flagkneser import projective, verify
    meet = projective.meet
    tracer = Tracer(workloads.TARGETS)
    tracer.install()
    try:
        assert verify.meet is projective.meet is not meet
        frame = workloads.constructions.canonical_frame(2)
        verify.meet(frame["plane"], frame["four_space"])
        assert tracer.snapshot()["projective.meet.calls"] == 1
    finally:
        tracer.uninstall()
    assert verify.meet is meet and projective.meet is meet


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = run_bench("--workload", "q3_count", "--seed", "1", "--seconds", "1",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
