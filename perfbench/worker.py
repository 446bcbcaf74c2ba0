"""One measured repetition of one workload, in a fresh process.

Usage (``run.py`` starts it; one JSON object is printed on stdout)::

    python3 perfbench/worker.py WORKLOAD SEED MODE SETUPS [TRACE_OUT]

MODE is ``plain`` (the end-to-end measurement), ``traced`` (entry points
wrapped, spans recorded) or ``telemetry-off`` (``wrf-diagnosed`` without
its telemetry handle, the other arm of the telemetry-overhead pair).  The
workload is set up SETUPS times; the last set-up is the one that runs.
A fresh process per repetition keeps each repetition's peak memory and
heap state its own.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def measure(name: str, seed: int, mode: str, setups: int, trace_out: str | None) -> dict:
    rec = handle = None
    if mode == "traced":
        rec = tracing.SpanRecorder()
        handle = tracing.install(rec)
    setup_s = []
    gen_s = []
    prepared = None
    for _ in range(setups):
        prepared = None
        gc.collect()
        t0 = perf_counter()
        prepared = workloads.build(name, seed, telemetry=mode != "telemetry-off")
        setup_s.append(perf_counter() - t0)
        gen_s.append(prepared.gen_s)
    gc.collect()
    if rec is not None:
        rec.reset()
        root = rec.name_id(tracing.ROOT, "sim")
        t0 = perf_counter()
        row = rec.open(root)
        prepared.run()
        rec.close(row)
        run_s = perf_counter() - t0
        handle.uninstall()
    else:
        t0 = perf_counter()
        prepared.run()
        run_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out, counts = prepared.outputs()
    result = {
        "mode": mode,
        "setup_s": setup_s,
        "gen_s": gen_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": prepared.attempted,
        "digest": workloads.digest(out),
        "virtual": workloads.virtual_metrics(name, out),
        "counts": counts,
        "problems": workloads.problems(name, out, counts),
    }
    if rec is not None:
        result["layer_self_s"] = rec.layer_self_s()
        result["spans"] = rec.by_name()
        result["span_count"] = len(rec)
        if trace_out:
            rec.save(Path(trace_out))
    return result


def main(argv: list[str]) -> int:
    name, seed, mode, setups = argv[0], int(argv[1]), argv[2], int(argv[3])
    trace_out = argv[4] if len(argv) > 4 else None
    print(json.dumps(measure(name, seed, mode, setups, trace_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
