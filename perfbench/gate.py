"""The per-run correctness gate and the run fingerprint.

A run fails the gate when any of these does not hold:

* ``recovery_report`` finds device conservation and update conservation
  intact, with ``unaccounted == 0`` for every async task;
* every task made at least one server step, and its final loss is finite
  and below the loss of the initial model;
* a run with telemetry on ended with no orphan span in its own tracer.

The fourth check, that every run of one (workload, seed) has the same
:func:`fingerprint`, spans several runs and is made by ``run.py``.
Modelled client failures, timeouts and aborts are outcomes of the
simulation, not gate failures.
"""

from __future__ import annotations

import hashlib
import math


def fingerprint(result) -> str:
    """sha256 over participations and server steps.

    The same shape as ``repro.harness.obs._result_fingerprint``, restated
    here because importing the harness package would add over a second
    and tens of MiB to every run process.
    """
    h = hashlib.sha256()
    for p in result.trace.participations:
        h.update(
            repr((p.device_id, p.task, p.start_time, p.end_time, p.outcome)).encode()
        )
    for s in result.trace.server_steps:
        h.update(repr((s.time, s.task, s.version, s.num_updates, s.loss)).encode())
    return h.hexdigest()


def initial_losses(deployment) -> dict[str, float]:
    """Loss of every task's model before the run, without perturbing it.

    ``RealTrainingAdapter.current_loss`` advances its evaluation cadence,
    so the real trainer is evaluated directly on its held-out batch.
    """
    from repro.system.adapters import RealTrainingAdapter

    out = {}
    for task in deployment.spec.tasks:
        adapter = deployment.adapter(task.name)
        if isinstance(adapter, RealTrainingAdapter):
            out[task.name] = adapter.trainer.evaluate(
                adapter.state.current(), adapter._eval_x, adapter._eval_y
            )
        else:
            out[task.name] = adapter.current_loss()
    return out


def gate_failures(
    report: dict,
    task_stats: dict,
    initial: dict[str, float],
    orphan_spans: int | None,
) -> list[str]:
    """Every gate check that failed, as one line each (empty: the run passed).

    ``report`` is ``repro.sim.faults.recovery_report``'s dict, ``task_stats``
    the run's ``RunResult.task_stats``, ``initial`` the per-task losses of
    the initial model, ``orphan_spans`` the telemetry tracer's orphan count
    (None when the run had telemetry off).
    """
    failures = []
    if not report["device_conservation_ok"]:
        failures.append("device conservation broken")
    if not report["updates_conservation_ok"]:
        failures.append("update conservation broken")
    for name, counts in report["tasks"].items():
        if counts["unaccounted"] != 0:
            failures.append(f"task {name}: {counts['unaccounted']} updates unaccounted")
    for name, stats in task_stats.items():
        if stats.server_steps <= 0:
            failures.append(f"task {name}: no server step")
        if not math.isfinite(stats.final_loss):
            failures.append(f"task {name}: final loss {stats.final_loss} not finite")
        elif not stats.final_loss < initial[name]:
            failures.append(
                f"task {name}: final loss {stats.final_loss:.4f} not below "
                f"initial {initial[name]:.4f}"
            )
    if orphan_spans:
        failures.append(f"{orphan_spans} orphan telemetry spans")
    return failures


def check_run(deployment, result, initial: dict[str, float]) -> list[str]:
    """Apply :func:`gate_failures` to a finished deployment run."""
    from repro.sim.faults import recovery_report

    simulation = deployment.simulation
    telemetry = simulation.telemetry
    orphans = len(telemetry.tracer.orphans()) if telemetry is not None else None
    return gate_failures(
        recovery_report(simulation, result), result.task_stats, initial, orphans
    )
