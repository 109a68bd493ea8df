"""The repo's end-to-end benchmark: one workload, several fresh-process runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet_mixed --seed 0 --seconds 20 --trace 0

Runs ``perfbench/one_run.py`` in a fresh child process, one at a time,
until ``--seconds`` have passed (at least one run).  Each run builds the
workload's ``ScenarioSpec`` through ``Deployment.from_spec(spec).build()``
and times ``.run()`` over the workload's fixed simulated horizon.  Every
run is checked by the correctness gate (``gate.py``), and every run of
the same (workload, seed) must produce the same fingerprint.

``--trace 1`` adds one traced run after the untraced ones: the layer
wrappers of ``tracer.py`` time every call into each layer, and the run
reports the per-layer split, including ``unattributed_s`` and
``trace_overhead_pct``.  The traced run must reproduce the untraced
fingerprint and leave no wrapped name behind.  Its spans are written to
``.perfbench-out/<workload>-seed<seed>-spans.npz``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (runs) and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over the runs); with
``--trace 1`` they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: every invocation must end within this many seconds
TIME_LIMIT_S = 170.0
#: seconds of repeated deployment builds per run; their median is the
#: run's set-up time
SETUP_SECONDS = 0.5
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")


def metric_units() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    ``BENCHMARK.json``, the one place the metric names are listed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    return {
        section: {m["name"]: m["unit"] for m in benchmark[section]}
        for section in ("end_to_end", "per_layer")
    }


def _child(workload: str, seed: int, trace: bool, horizon_scale: float,
           timeout: float) -> dict:
    """Run ``one_run.py`` once; the record it printed, or an ``error``."""
    cmd = [
        sys.executable, os.path.join(HERE, "one_run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--setup-seconds", "0" if trace else repr(SETUP_SECONDS),
        "--horizon-scale", repr(horizon_scale),
    ]
    if trace:
        cmd += ["--spans", os.path.join(SPANS_DIR, f"{workload}-seed{seed}-spans.npz")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, timeout)
        )
    except subprocess.TimeoutExpired:
        return {"error": f"run exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    if proc.returncode != 0 or "error" in record or not record:
        return {"error": record.get("error") or proc.stderr.strip()[-2000:]
                or f"exit code {proc.returncode}"}
    return record


def judge(runs: list[dict], traced: dict | None) -> list[str]:
    """One failure line per failed run (the gate, determinism, tracing)."""
    problems = []
    reference = next((r["fingerprint"] for r in runs if "fingerprint" in r), None)
    labelled = [(f"run {i}", r) for i, r in enumerate(runs)]
    if traced is not None:
        labelled.append(("traced run", traced))
    for label, record in labelled:
        reasons = []
        if "error" in record:
            reasons.append(record["error"].strip().splitlines()[-1])
        else:
            reasons += record["failures"]
            if record["fingerprint"] != reference:
                reasons.append("fingerprint differs from the first run of this seed")
            if record.get("leftover_wrappers"):
                reasons.append(f"wrappers left behind: {record['leftover_wrappers']}")
        if reasons:
            problems.append(f"{label}: " + "; ".join(reasons))
    return problems


def end_to_end(runs: list[dict]) -> dict[str, float]:
    ok = [r for r in runs if "error" not in r]
    if not ok:
        return {}
    return {
        "participations_per_s": statistics.median(
            r["participations"] / r["run_s"] for r in ok
        ),
        "run_s": statistics.median(r["run_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def _print_runs(runs: list[dict]) -> None:
    print(f"{'run':>4} {'run_s':>9} {'partic.':>8} {'setup_ms':>9} {'builds':>6} {'rss_MiB':>8}")
    for i, r in enumerate(runs):
        if "error" in r:
            print(f"{i:>4} error")
        else:
            print(f"{i:>4} {r['run_s']:9.3f} {r['participations']:8d} "
                  f"{r['setup_s'] * 1e3:9.3f} {r['builds']:6d} {r['peak_rss_mb']:8.1f}")


def _print_layers(traced: dict, overhead_pct: float) -> None:
    run_s = traced["run_s"]
    layer_s = traced["layer_self_s"]
    print(f"per-layer self time, traced run of {run_s:.3f} s:")
    print(f"{'layer':<14} {'self_s':>9} {'share':>7}")
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<14} {seconds:9.3f} {100 * seconds / run_s:6.1f}%")
    unattributed = traced["layers"]["unattributed_s"]
    print(f"{'unattributed_s':<14} {unattributed:9.3f} {100 * unattributed / run_s:6.1f}%")
    print(f"{'trace_overhead_pct':<14} {overhead_pct:9.2f}")
    print(f"largest layer: {max(layer_s, key=layer_s.get)}; "
          f"{traced['spans']} spans")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon-scale", type=float, default=1.0,
                        help="shorten the simulated horizon (smoke runs only)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    runs: list[dict] = []
    while True:
        remaining = TIME_LIMIT_S - (time.monotonic() - start)
        runs.append(_child(args.workload, args.seed, False, args.horizon_scale,
                           remaining))
        if "error" in runs[-1] or time.monotonic() - start >= args.seconds:
            break
    traced = None
    if args.trace:
        remaining = TIME_LIMIT_S - (time.monotonic() - start)
        traced = _child(args.workload, args.seed, True, args.horizon_scale, remaining)

    problems = judge(runs, traced)
    metrics = end_to_end(runs)
    _print_runs(runs)
    for line in problems:
        print(f"FAILED {line}")
    if args.trace:
        if "error" in traced or "run_s" not in metrics:
            metrics = {}
        else:
            overhead = 100.0 * (traced["run_s"] / metrics["run_s"] - 1.0)
            _print_layers(traced, overhead)
            metrics = dict(traced["layers"], trace_overhead_pct=overhead)
    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    attempted = len(runs) + (traced is not None)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
