"""The benchmark's own checks: smoke runs, wrapper restore, the gate.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from one_run import run_once  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

#: simulated-horizon fraction of the smoke runs
SMOKE_SCALE = 0.25


def _invoke(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--horizon-scale", str(SMOKE_SCALE),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _invoke(workload, trace)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
        assert out["correct"] and out["failed"] == 0, proc.stdout
        assert out["attempted"] == 1 + trace
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("fleet_mixed", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _bindings():
    """Every current binding of every wrapped name (module functions in
    every ``repro.*`` module that holds them)."""
    import importlib

    out = {}
    for target in tracer.TARGETS:
        module = importlib.import_module(target.module)
        if target.owner is None:
            original = getattr(module, target.attr)
            for mod in tracer._repro_modules():
                for attr, value in vars(mod).items():
                    if value is original:
                        out[(mod.__name__, attr)] = value
        else:
            cls = getattr(module, target.owner)
            out[(target.module, target.owner, target.attr)] = cls.__dict__[target.attr]
    return out


def test_wrappers_leave_no_patched_name_behind():
    import repro.api  # noqa: F401  (loads the modules that import child_rng)

    before = _bindings()
    installation = tracer.install(tracer.Tracer())
    try:
        assert tracer.leftover_wrappers()
        population = sys.modules["repro.sim.population"]
        assert getattr(population.child_rng, tracer.MARK, False)
    finally:
        installation.restore()
    assert tracer.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_restores_and_records_spans():
    record = run_once("fleet_mixed", seed=0, trace=True, horizon_scale=0.1)
    assert record["leftover_wrappers"] == []
    assert record["failures"] == []
    assert record["spans"] > 0
    assert record["layers"]["engine.events"] > 0
    assert tracer.leftover_wrappers() == []


def _clean_report(unaccounted: int = 0) -> dict:
    return {
        "device_conservation_ok": True,
        "updates_conservation_ok": True,
        "tasks": {"train": {"unaccounted": unaccounted, "lost_buffered": 0}},
    }


STATS = {"train": SimpleNamespace(server_steps=3, final_loss=2.5)}


def test_gate_passes_a_clean_run():
    assert gate.gate_failures(_clean_report(), STATS, {"train": 4.0}, 0) == []


def test_unaccounted_update_counts_as_a_failed_run():
    failures = gate.gate_failures(_clean_report(unaccounted=1), STATS, {"train": 4.0}, None)
    assert failures == ["task train: 1 updates unaccounted"]
    runs = [
        {"fingerprint": "f", "failures": []},
        {"fingerprint": "f", "failures": failures},
    ]
    problems = run.judge(runs, None)
    assert len(problems) == 1 and problems[0].startswith("run 1:")


def test_gate_rejects_missing_progress_and_orphans():
    stats = {"train": SimpleNamespace(server_steps=0, final_loss=float("nan"))}
    failures = gate.gate_failures(_clean_report(), stats, {"train": 4.0}, 2)
    assert len(failures) == 3


def test_fingerprint_mismatch_and_leftover_wrappers_fail_the_run():
    runs = [{"fingerprint": "a", "failures": []}, {"fingerprint": "b", "failures": []}]
    traced = {"fingerprint": "a", "failures": [], "leftover_wrappers": ["x.y"]}
    problems = run.judge(runs, traced)
    assert [p.split(":")[0] for p in problems] == ["run 1", "traced run"]
