"""Host-time spans around each layer's public entry points.

:func:`install` replaces the entry points listed in :data:`ENTRY_POINTS`
with wrappers that record one span per call (name, start, end, parent) in
a :class:`SpanRecorder`.  A generator entry point (``StorageTier.read``,
``PlacementEngine.run_pass``...) and every simulation process body are
timed per resume step, since that is when their code runs.  A layer's
self time is the time its spans cover minus the time their child spans
cover; time that no wrapped entry point covers falls to the root span,
which is charged to the DES kernel (``sim``).

Wrapping happens at class level and must precede the workload's set-up, so
that bound methods cached during construction are the wrapped ones.  The
program's own code is not modified; :func:`uninstall` restores it.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns
from types import GeneratorType

#: (module, class or None for a module-level function, names, layer).
ENTRY_POINTS = [
    ("repro.sim.core", "Environment", ("run", "step"), "sim"),
    ("repro.runtime.runner", "WorkflowRunner", ("run",), "runtime"),
    ("repro.workloads.spec", "WorkloadSpec", ("materialize",), "workloads"),
    (
        "repro.prefetchers.base",
        "Prefetcher",
        ("attach", "detach", "on_workload", "on_open", "plan_read", "on_access",
         "on_write", "on_close"),
        "prefetchers",
    ),
    ("repro.core.agents", "Agent", ("open", "read", "write", "close", "locate"),
     "core.agents"),
    ("repro.core.agents", "AgentManager",
     ("connect", "locate", "start_epoch", "end_epoch"), "core.agents"),
    ("repro.events.inotify", "SimInotify", ("emit", "add_watch", "rm_watch"), "events"),
    ("repro.events.queue", "EventQueue", ("push", "pop", "pop_ready", "cancel"), "events"),
    ("repro.core.monitor", "HardwareMonitor", ("start", "stop"), "core.monitor"),
    (
        "repro.core.auditor",
        "FileSegmentAuditor",
        ("on_event", "on_events", "batch_score", "build_heatmap", "drain_dirty",
         "start_epoch", "end_epoch", "score_of"),
        "core.auditor",
    ),
    (
        "repro.dhm.hashmap",
        "DistributedHashMap",
        ("get", "put", "update", "delete", "contains", "get_many", "update_many",
         "local_shard", "charge_batch"),
        "dhm",
    ),
    ("repro.core.placement", "PlacementEngine",
     ("run_pass", "invalidate_file", "start", "stop"), "core.placement"),
    ("repro.core.io_clients", "IOClientPool",
     ("submit", "serving_tier_name", "drop_in_flight", "start", "stop"),
     "core.io_clients"),
    ("repro.storage.tier", "StorageTier", ("read", "write", "admit", "drop"), "storage"),
    ("repro.storage.hierarchy", "StorageHierarchy",
     ("place", "evict", "evict_all", "invalidate_file", "locate"), "storage"),
    ("repro.network.comm", "NodeCommunicator",
     ("send_metadata", "bulk_transfer", "metadata_cost", "remote_read_overhead"),
     "network"),
    ("repro.metrics.collector", "MetricsCollector", ("record_read", "finalize"), "metrics"),
    ("repro.telemetry.handle", "Telemetry", ("finalize", "headline"), "telemetry"),
    ("repro.diagnosis.report", "DiagnosisReport", ("derive",), "diagnosis"),
    # DiagnosisReport.derive looks these up in its own module's globals
    ("repro.diagnosis.report", None,
     ("replay", "analyze_waste", "analyze_drift", "analyze_oracle"), "diagnosis"),
]

#: Layer of a process body, by the module its generator function lives in
#: (longest prefix wins; any other module's process counts as ``sim``).
PROCESS_LAYERS = {
    "repro.runtime": "runtime",
    "repro.core.monitor": "core.monitor",
    "repro.core.placement": "core.placement",
    "repro.core.io_clients": "core.io_clients",
    "repro.prefetchers": "prefetchers",
    # the tier-occupancy sampler runs only with telemetry on
    "repro.metrics.timeline": "telemetry",
    # the benchmark's own Fig. 3(a) client cores
    "workloads": "clients",
}

#: The root span: the benchmark's timed region.  Its self time is the
#: kernel's (event heap, process switching, everything no entry point
#: covers), so it is charged to ``sim``.
ROOT = "sim.root"


class SpanRecorder:
    """Spans kept in memory as columns: name, parent, start and end (ns).

    The hot path only appends to the columns; durations, self times and
    per-name totals are computed from them after the run.  A span's index
    is its row, assigned when it opens, so its parent is the row on top of
    the open-span stack at that moment (-1 for a root).
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        #: rows of the open spans, innermost last, over a -1 sentinel
        self.stack: list[int] = [-1]

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def reset(self) -> None:
        """Forget every span recorded so far (set-up's, before a run).

        Clears in place: the installed wrappers hold the columns."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        del self.stack[1:]

    def open(self, nid: int) -> int:
        """Open a span outside the wrapped entry points (the root)."""
        row = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(row)
        self.start.append(perf_counter_ns())
        return row

    def close(self, row: int) -> None:
        self.end[row] = perf_counter_ns()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # -- results -------------------------------------------------------
    def per_name(self):
        """(calls, self ns, total ns) per span name, as NumPy arrays."""
        import numpy as np

        n = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        return (
            np.bincount(name, minlength=n),
            np.bincount(name, weights=own, minlength=n),
            np.bincount(name, weights=dur, minlength=n),
        )

    def layer_self_s(self) -> dict[str, float]:
        _calls, own, _total = self.per_name()
        out: dict[str, float] = {}
        for layer, ns in zip(self.layers, own):
            out[layer] = out.get(layer, 0.0) + float(ns) / 1e9
        return out

    def by_name(self) -> dict[str, dict]:
        calls, own, total = self.per_name()
        return {
            name: {
                "layer": layer,
                "calls": int(c),
                "self_s": float(s) / 1e9,
                "total_s": float(t) / 1e9,
            }
            for name, layer, c, s, t in zip(self.names, self.layers, calls, own, total)
        }

    def save(self, path: Path) -> None:
        """Write the spans out (NumPy ``.npz``: one column per field)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            names=np.asarray(self.names),
            layers=np.asarray(self.layers),
        )


# The two wrappers below inline SpanRecorder.open/close: they run once per
# call or resume step, and whatever they spend outside the clock reads is
# charged to the caller's span.


def _traced_generator(gen, nid: int, rec: SpanRecorder):
    """Drive ``gen`` step by step, one span per resume step.

    Forwards sent values, thrown exceptions and ``close`` so that the kernel
    (or a ``yield from`` in the caller) sees the same generator protocol.
    """
    names, parents, starts, ends, stack = rec.name, rec.parent, rec.start, rec.end, rec.stack
    clock = perf_counter_ns
    value = None
    thrown = None
    while True:
        row = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0)
        stack.append(row)
        starts.append(clock())
        try:
            if thrown is None:
                item = gen.send(value)
            else:
                exc, thrown = thrown, None
                item = gen.throw(exc)
        except StopIteration as stop:
            ends[row] = clock()
            stack.pop()
            return stop.value
        except BaseException:
            ends[row] = clock()
            stack.pop()
            raise
        ends[row] = clock()
        stack.pop()
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # thrown in by the kernel; forwarded
            thrown = exc
            value = None
        item = None


_TRACED_CODE = _traced_generator.__code__


def _wrap(fn, nid: int, rec: SpanRecorder):
    names, parents, starts, ends, stack = rec.name, rec.parent, rec.start, rec.end, rec.stack
    clock = perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        row = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0)
        stack.append(row)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[row] = clock()
            stack.pop()
        if type(result) is GeneratorType:
            traced = _traced_generator(result, nid, rec)
            traced.__name__ = result.__name__
            return traced
        return result

    return wrapper


def _process_layer(module: str) -> str:
    best = ""
    for prefix in PROCESS_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return PROCESS_LAYERS.get(best, "sim")


def _all_subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(c for c in _all_subclasses(sub) if c not in seen)
    return seen


class Installed:
    """Handle returned by :func:`install`; restores the originals."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()


def install(rec: SpanRecorder) -> Installed:
    """Wrap every entry point and process body; return the restore handle."""
    # every prefetcher class must exist before subclasses are enumerated
    importlib.import_module("repro.prefetchers")
    importlib.import_module("repro.core.prefetcher")
    handle = Installed()
    for module_name, class_name, names, layer in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is None:
            for name in names:
                nid = rec.name_id(f"{layer}.{name}", layer)
                handle.patch(module, name, _wrap(getattr(module, name), nid, rec))
            continue
        base = getattr(module, class_name)
        for cls in _all_subclasses(base):
            for name in names:
                fn = cls.__dict__.get(name)
                if fn is None:
                    continue
                nid = rec.name_id(f"{layer}.{cls.__name__}.{name}", layer)
                if isinstance(fn, classmethod):
                    handle.patch(cls, name, classmethod(_wrap(fn.__func__, nid, rec)))
                else:
                    handle.patch(cls, name, _wrap(fn, nid, rec))

    from repro.sim.core import Environment

    original_process = Environment.process

    def process(env, generator, name=None):
        if type(generator) is GeneratorType and generator.gi_code is not _TRACED_CODE:
            module = generator.gi_frame.f_globals.get("__name__", "")
            layer = _process_layer(module)
            nid = rec.name_id(f"{layer}.{generator.__qualname__}", layer)
            traced = _traced_generator(generator, nid, rec)
            traced.__name__ = generator.__name__
            generator = traced
        return original_process(env, generator, name)

    handle.patch(Environment, "process", functools.wraps(original_process)(process))
    return handle
