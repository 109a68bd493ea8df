"""The benchmark's three workloads, as scenario documents.

Each workload is a plain ``ScenarioSpec`` document (the JSON shape of
``examples/scenarios/*.json``).  The benchmark parses it with
``ScenarioSpec.from_dict`` inside the timed set-up, so spec parsing is
part of ``setup_s``.  The workload seed is written into
``execution.seed``; the population, corpus and model seeds follow it
through the spec's defaults.

``horizon_scale`` shortens the simulated horizon (and moves any fault
inside it proportionally) for smoke tests; the benchmark itself always
runs at scale 1.
"""

from __future__ import annotations

import copy

#: simulated model payload of every task (bytes), the size used by
#: ``examples/scenarios/secure_shard_rekey.json``
MODEL_BYTES = 1_000_000

_FLEET_MIXED = {
    "population": {"n_devices": 5000},
    "tasks": [
        {"name": "async", "mode": "async", "concurrency": 150,
         "aggregation_goal": 10, "model_size_bytes": MODEL_BYTES},
        {"name": "sync", "mode": "sync", "concurrency": 100,
         "aggregation_goal": 100, "over_selection": 0.3,
         "model_size_bytes": MODEL_BYTES},
    ],
    "plane": {"name": "single"},
    "execution": {"t_end_s": 1200.0},
    "telemetry": {"enabled": True},
}

_LSTM_SHARDED = {
    "population": {"n_devices": 800},
    "tasks": [
        {"name": "lstm", "mode": "async", "concurrency": 32,
         "aggregation_goal": 8, "model_size_bytes": MODEL_BYTES,
         "trainer": "real_lstm"},
    ],
    "plane": {"name": "sharded", "num_shards": 2, "shard_routing": "hash",
              "executor": "inline"},
    "execution": {"t_end_s": 360.0},
}

_SECURE_REKEY = {
    "population": {"n_devices": 800},
    "tasks": [
        {"name": "train", "mode": "async", "concurrency": 48,
         "aggregation_goal": 8, "model_size_bytes": MODEL_BYTES},
    ],
    "plane": {"name": "secure_sharded", "num_shards": 2},
    "execution": {"t_end_s": 100.0},
    "faults": {
        "events": [
            {"kind": "aggregator_crash", "at_s": 40.0, "node": 1,
             "recover_after_s": 20.0},
        ]
    },
}

WORKLOADS: dict[str, dict] = {
    "fleet_mixed": _FLEET_MIXED,
    "lstm_sharded": _LSTM_SHARDED,
    "secure_rekey": _SECURE_REKEY,
}


def scenario_doc(name: str, seed: int, horizon_scale: float = 1.0) -> dict:
    """The scenario document of workload ``name`` at ``seed``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    doc = copy.deepcopy(WORKLOADS[name])
    doc["execution"]["seed"] = int(seed)
    doc["execution"]["t_end_s"] *= horizon_scale
    for event in doc.get("faults", {}).get("events", []):
        event["at_s"] *= horizon_scale
        if "recover_after_s" in event:
            event["recover_after_s"] *= horizon_scale
    return doc
