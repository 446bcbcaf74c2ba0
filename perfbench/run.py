"""Host-time benchmark of the HFetch reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload montage --seed 2020 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # the four, one after another

Each repetition runs in a fresh ``worker.py`` process: set-up (several
times), one timed run, then the run's virtual-time outputs, digest and
counters.  Repetitions continue until ``--seconds`` is used up.  With
``--trace 0`` the repetitions are plain and the end-to-end metrics are
reported; with ``--trace 1`` plain and traced repetitions alternate and the
per-layer metrics are reported, tracing overhead included.

Outputs are correct when every repetition gives the same digest, the digest
matches the committed reference for the seed (``digests.json``, where one
exists) and the run's invariants hold.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"

#: Set-ups per repetition; ``setup_s`` is the median over all of them.
SETUPS = 5
#: Fewest repetitions (or plain/traced cycles) a run makes, time or not.
MIN_PLAIN_REPS = 3
MIN_TRACE_CYCLES = 2
#: A repetition that does not finish in this many seconds is a failure.
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "sim_makespan_s": "virtual_s",
}
#: End-to-end virtual-time metrics of only some workloads; printed with
#: the end-to-end ones, reported to the JSON line as per-layer metrics.
WORKLOAD_VIRTUAL = {
    "sim_read_time_s": "virtual_s",
    "hit_ratio": "fraction",
    "sim_consumed_per_s": "events/virtual_s",
}
LAYERS = (
    "sim", "runtime", "events", "core.monitor", "core.auditor", "dhm",
    "core.placement", "core.io_clients", "core.agents", "storage", "network",
    "prefetchers", "metrics", "telemetry", "diagnosis", "workloads", "clients",
)
COUNTS = {
    "sim.events": "count",
    "runtime.reads": "count",
    "runtime.writes": "count",
    "events.emitted": "count",
    "events.dropped": "count",
    "events.queue_max_level": "count",
    "core.monitor.file_events": "count",
    "core.auditor.events_processed": "count",
    "core.auditor.score_updates": "count",
    "dhm.calls": "count",
    "dhm.retries": "count",
    "core.placement.passes": "count",
    "core.placement.placed": "count",
    "core.placement.demoted": "count",
    "core.io_clients.moves_completed": "count",
    "core.io_clients.moves_failed": "count",
    "core.io_clients.bytes_moved": "B",
    "core.io_clients.moves_used_frac": "fraction",
    "core.agents.location_queries": "count",
    "storage.evictions": "count",
    "network.calls": "count",
    "prefetchers.evictions": "count",
}
#: Per-layer host times: per-unit ratios, pairs and the diagnosis passes.
DERIVED = {
    "sim.ns_per_event": "ns",
    "runtime.us_per_read": "us",
    "core.placement.ms_per_pass": "ms",
    "prefetchers.us_per_access": "us",
    "telemetry.overhead_s": "s",
    "diagnosis.derive_s": "s",
    "diagnosis.replay_s": "s",
    "diagnosis.waste_s": "s",
    "diagnosis.drift_s": "s",
    "diagnosis.oracle_s": "s",
    "workloads.gen_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}
DIAGNOSIS_SPANS = {
    "diagnosis.replay_s": "diagnosis.replay",
    "diagnosis.waste_s": "diagnosis.analyze_waste",
    "diagnosis.drift_s": "diagnosis.analyze_drift",
    "diagnosis.oracle_s": "diagnosis.analyze_oracle",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric (``--trace 1``) with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update(COUNTS)
    units.update(DERIVED)
    units.update(WORKLOAD_VIRTUAL)
    return units


class BenchError(Exception):
    """A repetition could not be measured."""


def run_worker(name: str, seed: int, mode: str, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(WORKER), name, str(seed), mode, str(SETUPS)]
    if trace_out is not None:
        cmd.append(str(trace_out))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} {mode}: no result within {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} {mode}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def repetitions(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run repetitions until ``seconds`` is used up (and the minimum is met)."""
    cycle = ["plain"]
    if trace:
        cycle.append("traced")
        if name == "wrf-diagnosed":
            cycle.append("telemetry-off")
    minimum = MIN_TRACE_CYCLES if trace else MIN_PLAIN_REPS
    trace_out = TRACE_DIR / f"{name}-seed{seed}.npz" if trace else None
    reps: list[dict] = []
    longest: dict[str, float] = {}
    start = time.monotonic()
    cycles = 0
    while True:
        planned = sum(longest.get(mode, 0.0) for mode in cycle)
        if cycles >= minimum and time.monotonic() - start + planned > seconds:
            break
        for mode in cycle:
            t0 = time.monotonic()
            reps.append(run_worker(name, seed, mode, trace_out if mode == "traced" else None))
            longest[mode] = max(longest.get(mode, 0.0), time.monotonic() - t0)
        cycles += 1
    return reps


def reference_digest(name: str, seed: int) -> str | None:
    refs = json.loads(DIGESTS.read_text())
    return refs.get(name, {}).get(str(seed))


def evaluate(name: str, seed: int, reps: list[dict], trace: bool) -> dict:
    """Aggregate the repetitions into metrics and a correctness verdict.

    A repetition's operations all count as failed when its digest differs
    from the reference (or, for a seed without one, from the first
    repetition's) or an invariant fails; otherwise its dropped events do.
    """
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced"]
    first = plain[0]
    reference = reference_digest(name, seed)
    expected = reference if reference is not None else first["digest"]
    notes = []
    failed = 0
    for r in reps:
        # telemetry-off repetitions lack the telemetry headline: no digest
        wrong = r["mode"] != "telemetry-off" and r["digest"] != expected
        if wrong:
            notes.append(f"{r['mode']}: digest {r['digest']} is not {expected}")
        notes.extend(f"{r['mode']}: {p}" for p in r["problems"])
        failed += r["attempted"] if wrong or r["problems"] else r["counts"].get("events.dropped", 0)
    virtual = first["virtual"]
    e2e = {
        "setup_s": median([s for r in plain for s in r["setup_s"]]),
        "run_s": median([r["run_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "sim_makespan_s": virtual["sim_makespan_s"],
    }
    report = {
        "name": name,
        "seed": seed,
        "digest": first["digest"],
        "reference": reference,
        "notes": notes,
        "correct": not notes and failed == 0,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "plain_reps": len(plain),
        "run_s_all": sorted(r["run_s"] for r in plain),
        "end_to_end": e2e,
        "virtual": {k: v for k, v in virtual.items() if k in WORKLOAD_VIRTUAL},
        "counts": first["counts"],
        "gen_s": median([g for r in plain for g in r["gen_s"]]),
    }
    if trace:
        report["per_layer"] = per_layer(report, plain, traced, reps)
    return report


def per_layer(report, plain, traced, reps) -> dict[str, float]:
    counts = report["counts"]
    out = {f"{layer}.self_s": median([r["layer_self_s"].get(layer, 0.0) for r in traced])
           for layer in LAYERS}
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    for key in WORKLOAD_VIRTUAL:
        out[key] = report["virtual"].get(key, 0.0)

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    reads = counts.get("runtime.reads", 0)
    out["sim.ns_per_event"] = ratio(out["sim.self_s"], counts["sim.events"], 1e9)
    out["runtime.us_per_read"] = ratio(out["runtime.self_s"], reads, 1e6)
    out["core.placement.ms_per_pass"] = ratio(
        out["core.placement.self_s"], counts.get("core.placement.passes", 0), 1e3
    )
    out["prefetchers.us_per_access"] = ratio(out["prefetchers.self_s"], reads, 1e6)
    off = [r["run_s"] for r in reps if r["mode"] == "telemetry-off"]
    # paired: each telemetry-off rep against the plain rep of its cycle
    out["telemetry.overhead_s"] = (
        median([p["run_s"] - o for p, o in zip(plain, off)]) if off else 0.0
    )
    out["diagnosis.derive_s"] = median(
        [r["counts"].get("diagnosis.derive_s", 0.0) for r in plain]
    )
    for key, span in DIAGNOSIS_SPANS.items():
        out[key] = median([r["spans"].get(span, {}).get("total_s", 0.0) for r in traced])
    out["workloads.gen_s"] = report["gen_s"]
    traced_run = median([r["run_s"] for r in traced])
    out["trace.run_s"] = traced_run
    out["trace.overhead_s"] = traced_run - report["end_to_end"]["run_s"]
    out["trace.overhead_frac"] = out["trace.overhead_s"] / report["end_to_end"]["run_s"]
    out["trace.unaccounted_s"] = median(
        [r["run_s"] - sum(r["layer_self_s"].values()) for r in traced]
    )
    out["trace.spans"] = median([r["span_count"] for r in traced])
    return out


def print_report(report: dict, trace: bool) -> None:
    name = report["name"]
    print(f"== {name}  seed {report['seed']}  plain repetitions {report['plain_reps']}")
    e2e = report["end_to_end"]
    for key, unit in END_TO_END.items():
        print(f"  {key:<22} {e2e[key]:>14.6g} {unit}")
    for key, value in report["virtual"].items():
        print(f"  {key:<22} {value:>14.6g} {WORKLOAD_VIRTUAL[key]}")
    runs = ", ".join(f"{v:.3f}" for v in report["run_s_all"])
    print(f"  run_s samples: {runs}")
    status = "no reference for this seed"
    if report["reference"] is not None:
        status = "matches reference" if report["reference"] == report["digest"] else "MISMATCH"
    print(f"  digest {report['digest']} ({status})")
    print(f"  operations attempted {report['attempted']}, failed {report['failed']}")
    for note in report["notes"]:
        print(f"  ! {note}")
    if trace:
        units = per_layer_units()
        layer = report["per_layer"]
        ranked = sorted(
            (k for k in layer if k.endswith(".self_s")), key=lambda k: -layer[k]
        )
        print("  per-layer self time (traced run):")
        for key in ranked:
            print(f"    {key:<28} {layer[key]:>12.6g} s")
        for key in sorted(k for k in layer if not k.endswith(".self_s")):
            print(f"    {key:<28} {layer[key]:>12.6g} {units[key]}")
    else:
        print("  counters:")
        for key in sorted(report["counts"]):
            print(f"    {key:<34} {report['counts'][key]}")


def metrics_json(report: dict, trace: bool) -> dict:
    if trace:
        units = per_layer_units()
        return {k: {"value": v, "unit": units[k]} for k, v in report["per_layer"].items()}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in report["end_to_end"].items()}


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the repetition in flight
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    names = NAMES if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reps = repetitions(name, args.seed, args.seconds, trace)
            report = evaluate(name, args.seed, reps, trace)
            print_report(report, trace)
            reports.append(report)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = metrics_json(reports[0], trace)
    else:
        metrics = {
            f"{r['name']}.{k}": v for r in reports for k, v in metrics_json(r, trace).items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
