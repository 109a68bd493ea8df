"""One workload run in this process; prints one JSON line of results.

``run.py`` starts this script once per run, in a fresh process, so the
peak resident memory it reports belongs to that run alone.

Untraced (``--trace 0``): parse the scenario document and build the
deployment repeatedly for ``--setup-seconds`` (the median is
``setup_s``), then run the last build once.  Traced (``--trace 1``):
install the layer wrappers of :mod:`tracer` before the single build,
run, restore every wrapped name, and report the per-layer split; the
spans are written to ``--spans``.

Both modes check the run with :mod:`gate` and report its fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: bounds on the number of set-up repetitions in one untraced run
MIN_BUILDS, MAX_BUILDS = 5, 200


def _counting_hooks(counts: dict) -> dict:
    """Post-call hooks that count results at the wrapped boundaries."""

    def assigned(args, kwargs, result):
        counts["control.assigned"] += result is not None

    def cohort(args, kwargs, result):
        counts["trainer.cohort_clients"] += len(result)

    def minted(args, kwargs, result):
        counts["secagg.legs_minted"] += len(result)

    def submitted(args, kwargs, result):
        counts["secagg.rejected"] += result is False

    def submitted_block(args, kwargs, result):
        counts["secagg.rejected"] += sum(1 for ok in result if not ok)

    return {
        "control:Coordinator.assign_client": assigned,
        "trainer:RealTrainingAdapter.train_cohort": cohort,
        "secagg:TrustedSecureAggregator.prepare_legs": minted,
        "secagg:SecAggServer.submit": submitted,
        "secagg:SecAggServer.submit_block": submitted_block,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, counts: dict, deployment, result, run_s: float):
    """``(metrics, layer self seconds)`` of one traced run.

    ``trace_overhead_pct`` is left to ``run.py``, which has the untraced runs.
    """
    from repro.sim.faults import recovery_report
    from tracer import HANDLER_SPAN

    names = tracer.by_name()

    def calls(*spans):
        return sum(names.get(s, (0, 0.0, 0.0))[0] for s in spans)

    def self_s(prefix):
        return sum(v[2] for k, v in names.items() if k.startswith(prefix))

    layer = tracer.layer_self_s()
    simulation = deployment.simulation
    train_calls = calls("trainer:SurrogateAdapter.train", "trainer:RealTrainingAdapter.train")
    cohort_calls = calls("trainer:RealTrainingAdapter.train_cohort")
    trainer_clients = train_calls + counts["trainer.cohort_clients"]
    sessions = calls("client:ClientSession.begin")
    checkins = calls("control:Selector.route_checkin")
    updates = calls("agg:FLTaskRuntime.process_update")
    loads = [
        rt.core.shard_loads()
        for rt in simulation.task_runtimes.values()
        if hasattr(rt.core, "shard_loads")
    ]
    imbalance = [max(v) / statistics.mean(v) for v in loads if sum(v) > 0]
    legs_used = calls("secagg:SecAggServer.assign_leg")
    telemetry = simulation.telemetry
    injector = simulation.fault_injector
    report = recovery_report(simulation, result)

    out = {
        "engine.events": simulation.sim.events_fired,
        "engine.handler_s": names.get(HANDLER_SPAN, (0, 0.0, 0.0))[1],
        "engine.self_s": layer["engine"],
        "rng.child_rng.calls": calls("rng:child_rng"),
        "rng.child_rng.s": layer["rng"],
        "population.calls": sum(
            v[0] for k, v in names.items() if k.startswith("population:")
        ),
        "population.s": layer["population"],
        "control.checkins": checkins,
        "control.assigned": counts["control.assigned"],
        "control.assign_ratio": _ratio(counts["control.assigned"], checkins),
        "control.s": layer["control"],
        "client.sessions": sessions,
    }
    outcomes = {o.value: n for o, n in result.trace.outcome_counts().items()}
    for outcome in ("aggregated", "discarded", "failed", "timeout", "aborted"):
        out[f"client.outcome.{outcome}"] = outcomes.get(outcome, 0)
    out.update({
        "client.useful_ratio": _ratio(out["client.outcome.aggregated"], sessions),
        "client.s": layer["client"],
        "trainer.clients": trainer_clients,
        "trainer.calls": train_calls + cohort_calls,
        "trainer.clients_per_call": _ratio(trainer_clients, train_calls + cohort_calls),
        "trainer.s": layer["trainer"],
        "agg.updates": updates,
        "agg.server_steps": calls("agg:FLTaskRuntime._on_server_step"),
        "agg.admit_ratio": _ratio(calls("client:ClientSession.complete"), updates),
        "agg.shard_load_imbalance": statistics.mean(imbalance) if imbalance else 1.0,
        "agg.s": layer["agg"],
        "secagg.modexp.calls": calls(
            "secagg:DHKeyPair.generate", "secagg:shared_key"
        ),
        "secagg.modexp.s": self_s("secagg:DHKeyPair.generate") + self_s("secagg:shared_key"),
        "secagg.tsa.s": self_s("secagg:TrustedSecureAggregator.")
        + self_s("secagg:TrustedShardReducer."),
        "secagg.server.s": self_s("secagg:SecAggServer."),
        "secagg.client.s": self_s("secagg:SecAggClient."),
        "secagg.s": layer["secagg"],
        "secagg.legs_minted": counts["secagg.legs_minted"],
        "secagg.legs_used": legs_used,
        "secagg.leg_use_ratio": _ratio(legs_used, counts["secagg.legs_minted"]),
        "secagg.rejected": counts["secagg.rejected"],
        "faults.fired": len(injector.fired) if injector is not None else 0,
        "faults.lost_buffered": sum(
            t["lost_buffered"] for t in report["tasks"].values()
        ),
        "telemetry.hook_calls": sum(
            v[0] for k, v in names.items()
            if k.startswith("obs:RunTelemetry.on_")
        ),
        "telemetry.s": layer["obs"],
        "telemetry.spans": (
            sum(telemetry.tracer.name_totals().values()) if telemetry is not None else 0
        ),
        "traced_run_s": run_s,
        "unattributed_s": run_s - sum(layer.values()),
    })
    return out, layer


def _build(doc: dict):
    from repro.api import Deployment, ScenarioSpec

    deployment = Deployment.from_spec(ScenarioSpec.from_dict(doc))
    deployment.build()
    return deployment


def run_once(workload: str, seed: int, trace: bool, setup_seconds: float = 0.0,
             horizon_scale: float = 1.0, spans_path: str | None = None) -> dict:
    """One run of ``workload``; returns the JSON-able result record.

    Set-up (spec parse plus ``Deployment.build()``) is repeated for at
    least ``setup_seconds`` (between :data:`MIN_BUILDS` and
    :data:`MAX_BUILDS` times); ``setup_s`` is the median, and the last
    build is the one that runs.
    """
    import gate
    from workloads import scenario_doc

    doc = scenario_doc(workload, seed, horizon_scale)
    installation = tracer = None
    if trace:
        from tracer import Tracer, install, leftover_wrappers

        tracer = Tracer()
        counts = {
            "control.assigned": 0, "trainer.cohort_clients": 0,
            "secagg.legs_minted": 0, "secagg.rejected": 0,
        }
        installation = install(tracer, _counting_hooks(counts))
    try:
        setup: list[float] = []
        deadline = time.perf_counter() + setup_seconds
        while True:
            # Every build starts from a collected heap, as a first build
            # does; the collection itself is not timed.
            deployment = None
            gc.collect()
            t0 = time.perf_counter()
            deployment = _build(doc)
            setup.append(time.perf_counter() - t0)
            if setup_seconds <= 0 or len(setup) >= MAX_BUILDS:
                break
            if len(setup) >= MIN_BUILDS and time.perf_counter() >= deadline:
                break
        gc.collect()
        initial = gate.initial_losses(deployment)
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        result = deployment.run()
        run_s = time.perf_counter() - t0
    finally:
        if installation is not None:
            installation.restore()
    out = {
        "setup_s": statistics.median(setup),
        "builds": len(setup),
        "run_s": run_s,
        "participations": len(result.trace.participations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": gate.fingerprint(result),
        "failures": gate.check_run(deployment, result, initial),
    }
    if tracer is not None:
        out["leftover_wrappers"] = leftover_wrappers()
        out["layers"], out["layer_self_s"] = layer_metrics(
            tracer, counts, deployment, result, run_s
        )
        out["spans"] = tracer.span_count
        if spans_path:
            os.makedirs(os.path.dirname(os.path.abspath(spans_path)), exist_ok=True)
            tracer.save(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-seconds", type=float, default=0.0)
    parser.add_argument("--horizon-scale", type=float, default=1.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        out = run_once(args.workload, args.seed, bool(args.trace), args.setup_seconds,
                       args.horizon_scale, args.spans)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
