"""The two DRAM-only prefetchers of Fig. 4(b).

* :class:`InMemoryOptimalPrefetcher` — the idealised comparator: every
  process owns a private partition of the RAM budget, knows its own
  future access sequence exactly (clairvoyance via the static workload
  spec), fetches ahead of itself and evicts Belady-optimally within its
  partition.  "each process brings data into its own cache."
* :class:`InMemoryNaivePrefetcher` — all processes share one LRU cache
  and issue uncoordinated read-ahead; they "compete for access to the
  prefetching cache", polluting each other and (at scale) interfering
  with application reads at the PFS, which is why enabling it can be
  *slower* than no prefetching at all.

Both are capped at the RAM budget — the whole point of Fig. 4(b) is
that HFetch can spill to NVMe and burst buffers while these cannot.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.util import ManagedCache
from repro.runtime.context import ReadPlan, RuntimeContext
from repro.storage.nextuse import NextUseIndex
from repro.storage.segments import SegmentKey
from repro.workloads.spec import WorkloadSpec

__all__ = ["InMemoryOptimalPrefetcher", "InMemoryNaivePrefetcher"]


class InMemoryOptimalPrefetcher(Prefetcher):
    """Per-process clairvoyant prefetching in private RAM partitions."""

    name = "In-Memory Optimal"

    def __init__(self, window: int = 8, ram_budget: Optional[float] = None):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.ram_budget = ram_budget
        self._caches: dict[int, ManagedCache] = {}
        self._traces: dict[int, list[SegmentKey]] = {}
        self._cursor: dict[int, int] = {}
        self._partition = 0.0

    # -- lifecycle ---------------------------------------------------------------
    def on_workload(self, workload: WorkloadSpec) -> None:
        assert self.ctx is not None
        ram = self.ctx.hierarchy.by_name("RAM")
        budget = self.ram_budget if self.ram_budget is not None else ram.capacity
        nprocs = max(1, workload.num_processes)
        self._partition = budget / nprocs
        for proc in workload.processes:
            trace = proc.segment_trace(self.ctx.fs)
            self._traces[proc.pid] = trace
            self._cursor[proc.pid] = 0
            if self._partition >= 1:
                # Belady within the partition: only this rank's own trace counts
                uses = NextUseIndex({proc.pid: trace})
                self._caches[proc.pid] = ManagedCache(
                    ram,
                    self._partition,
                    next_use=lambda key, uses=uses: uses.distance(key, self._cursor),
                )

    # -- runner hooks ----------------------------------------------------------------
    def plan_read(self, pid: int, node: int, key: SegmentKey) -> ReadPlan:
        assert self.ctx is not None
        cache = self._caches.get(pid)
        if cache is not None and cache.ready(key):
            cache.touch(key)
            return ReadPlan(tier=cache.tier)
        return self.ctx.origin_plan(key.file_id)

    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.ctx is not None
        cache = self._caches.get(pid)
        trace = self._traces.get(pid)
        if cache is None or trace is None:
            return
        f = self.ctx.fs.get(file_id)
        consumed = len(f.read_segments(offset, size))
        self._cursor[pid] = min(len(trace), self._cursor[pid] + consumed)
        # clairvoyant fetch-ahead of the next ``window`` future accesses
        cursor = self._cursor[pid]
        launched = 0
        for key in trace[cursor : cursor + 4 * self.window]:
            if launched >= self.window:
                break
            if cache.known(key):
                continue
            nbytes = self.ctx.segment_bytes(key)
            if nbytes == 0 or not cache.begin_fetch(key, nbytes):
                continue
            self.ctx.env.process(self._fetch(cache, key, nbytes), name="inmem-opt-fetch")
            launched += 1

    def _fetch(self, cache: ManagedCache, key: SegmentKey, nbytes: int) -> Generator:
        assert self.ctx is not None
        src = self.ctx.origin_tier(key.file_id)
        yield from src.read(nbytes, priority=src.pipe.PREFETCH)
        yield from cache.tier.write(nbytes, priority=cache.tier.pipe.PREFETCH)
        cache.commit_fetch(key)
        self.bytes_prefetched += nbytes
        self.prefetch_ops += 1

    # -- accounting ---------------------------------------------------------------------
    @property
    def ram_peak_bytes(self) -> float:
        return float(sum(c.peak_used for c in self._caches.values()))

    @property
    def cache_evictions(self) -> int:
        """Total evictions across all private partitions."""
        return sum(c.evictions for c in self._caches.values())


class InMemoryNaivePrefetcher(Prefetcher):
    """Uncoordinated shared-LRU read-ahead in RAM."""

    name = "In-Memory Naive"

    def __init__(self, window: int = 8, ram_budget: Optional[float] = None):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.ram_budget = ram_budget
        self.cache: Optional[ManagedCache] = None

    def attach(self, ctx: RuntimeContext) -> None:
        super().attach(ctx)
        ram = ctx.hierarchy.by_name("RAM")
        budget = self.ram_budget if self.ram_budget is not None else ram.capacity
        self.cache = ManagedCache(ram, budget)

    def plan_read(self, pid: int, node: int, key: SegmentKey) -> ReadPlan:
        assert self.ctx is not None and self.cache is not None
        if self.cache.ready(key):
            self.cache.touch(key)
            return ReadPlan(tier=self.cache.tier)
        return self.ctx.origin_plan(key.file_id)

    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.ctx is not None and self.cache is not None
        f = self.ctx.fs.get(file_id)
        keys = f.read_segments(offset, size)
        if not keys:
            return
        last = keys[-1].index
        # every process read-aheads for itself — no coordination at all
        for ahead in range(1, self.window + 1):
            idx = last + ahead
            if idx >= f.num_segments:
                break
            key = SegmentKey(file_id, idx)
            if self.cache.known(key):
                continue
            nbytes = self.ctx.segment_bytes(key)
            if nbytes == 0 or not self.cache.begin_fetch(key, nbytes):
                continue
            self.ctx.env.process(self._fetch(key, nbytes), name="inmem-naive-fetch")

    def _fetch(self, key: SegmentKey, nbytes: int) -> Generator:
        assert self.ctx is not None and self.cache is not None
        src = self.ctx.origin_tier(key.file_id)
        yield from src.read(nbytes, priority=src.pipe.PREFETCH)
        yield from self.cache.tier.write(nbytes, priority=self.cache.tier.pipe.PREFETCH)
        self.cache.commit_fetch(key)
        self.bytes_prefetched += nbytes
        self.prefetch_ops += 1

    @property
    def ram_peak_bytes(self) -> float:
        return float(self.cache.peak_used) if self.cache is not None else 0.0

    @property
    def cache_evictions(self) -> int:
        """Evictions (pollution) in the shared cache."""
        return self.cache.evictions if self.cache is not None else 0
