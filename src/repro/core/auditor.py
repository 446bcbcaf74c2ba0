"""The File Segment Auditor (paper §III-A.2).

Calculates file-segment statistics from the event stream: access
frequency, recency, and sequencing.  All records live in the distributed
hash map so the view is global across nodes without a synchronisation
barrier; score-relevant updates are accumulated in a *dirty vector* that
the placement engine drains on each trigger ("All updated scores are
pushed by the auditor into a vector which the engine processes",
§III-D).

The auditor is also HFetch's internal metadata manager: it owns the
segment→tier mappings (where in the hierarchy each segment currently is)
and the per-file prefetching-epoch accounting (a file is targeted for
prefetching only while open for reading, §III-B).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.core.config import HFetchConfig
from repro.core.heatmap import FileHeatmap, HeatmapStore
from repro.core.scoring_models import ScoringModel, get_scoring_model
from repro.core.stats import SegmentStats
from repro.dhm.hashmap import DistributedHashMap
from repro.events.types import EventType, FileEvent
from repro.storage.files import FileSystemModel
from repro.storage.segments import SegmentKey

__all__ = ["FileSegmentAuditor"]

# Hot-path constants for the per-event fold: an enum member read through
# its class is an attribute lookup per event, a module global is not, and
# ``tuple.__new__`` builds a key without the named tuple's Python-level
# ``__new__``.
_READ = EventType.READ
_WRITE = EventType.WRITE
_new_tuple = tuple.__new__


class FileSegmentAuditor:
    """Segment statistics, mappings and epochs, backed by the DHM."""

    def __init__(
        self,
        config: HFetchConfig,
        fs: FileSystemModel,
        stats_map: Optional[DistributedHashMap] = None,
        heatmaps: Optional[HeatmapStore] = None,
    ):
        self.config = config
        self.fs = fs
        self.stats_map = stats_map if stats_map is not None else DistributedHashMap(shards=1)
        self.heatmaps = heatmaps if heatmaps is not None else HeatmapStore()
        #: swappable scoring strategy (Eq. 1 by default)
        self.scoring_model: ScoringModel = get_scoring_model(config.scoring_model)
        # epoch refcounts: file_id -> number of concurrent read-openers
        self._epochs: dict[str, int] = {}
        self._epoch_serial: dict[str, int] = {}
        # sequencing: last segment accessed per (file, accessor stream).
        # The *scores* are global (data-centric), but predecessor links
        # must follow each process's own stream — interleaving thousands
        # of ranks into one chain would corrupt the logical map of
        # connected segments the engine walks for lookahead.
        self._last_segment: dict[tuple[str, int], SegmentKey] = {}
        # Per-file indexes (ordered de-dup dicts) so write invalidation
        # and epoch teardown touch only the written file's records
        # instead of scanning every key in the map / every stream.
        self._file_keys: dict[str, dict[SegmentKey, None]] = {}
        self._file_streams: dict[str, dict[tuple[str, int], None]] = {}
        # dirty vector (ordered de-dup) for the placement engine
        self._dirty: dict[SegmentKey, None] = {}
        # segment home node: node of the first accessor
        self._home_node: dict[SegmentKey, int] = {}
        # last content version seen per file (the stat-on-open check)
        self._seen_version: dict[str, int] = {}
        # listeners notified on every score update (engine count trigger)
        self._update_listeners: list[Callable[[int], None]] = []
        # invalidation hook installed by the server (hierarchy eviction)
        self.invalidate_hook: Optional[Callable[[str], None]] = None
        # instrumentation
        self.events_processed = 0
        self.batched_events = 0
        self.score_updates = 0
        self.invalidations = 0
        self.dirty_dropped = 0
        # telemetry (None in normal runs: zero overhead)
        self.telemetry = None
        self._tel_env = None
        self._fold_mark = None
        self._dhm_mark = None

    def bind_telemetry(self, telemetry) -> None:
        """Open the fold/DHM-update trace streams on a live handle."""
        from repro.telemetry.handle import live

        tel = live(telemetry)
        if tel is None:
            return
        self.telemetry = tel
        self._tel_env = tel.tracer.env
        self._fold_mark = tel.tracer.stream(
            "auditor.fold", "auditor", "auditor", fields=("segments",)
        ).append
        self._dhm_mark = tel.tracer.stream("dhm.update", "dhm", "dhm").append

    # -- wiring ----------------------------------------------------------------
    def add_update_listener(self, fn: Callable[[int], None]) -> None:
        """Register a callback invoked with the running update count."""
        self._update_listeners.append(fn)

    # -- epochs (fopen..fclose windows, §III-B) -----------------------------------
    def start_epoch(self, file_id: str) -> bool:
        """Begin (or join) a prefetching epoch; True when newly started."""
        first = self._epochs.get(file_id, 0) == 0
        self._epochs[file_id] = self._epochs.get(file_id, 0) + 1
        if first:
            self._epoch_serial[file_id] = self._epoch_serial.get(file_id, 0) + 1
            # stat-on-open: a write that happened while the file was
            # unwatched (no epoch, so no inotify events) must still
            # invalidate any stale prefetched copies
            if self.fs.exists(file_id):
                version = self.fs.get(file_id).version
                if self._seen_version.get(file_id, version) != version:
                    self._invalidate(file_id)
                self._seen_version[file_id] = version
            if self.config.persist_heatmaps:
                stored = self.heatmaps.load(file_id)
                if stored is not None:
                    self._seed_from_heatmap(file_id, stored)
        return first

    def end_epoch(self, file_id: str, now: float = 0.0) -> bool:
        """Leave an epoch; True when the last opener closed the file."""
        count = self._epochs.get(file_id, 0)
        if count <= 1:
            self._epochs.pop(file_id, None)
            for stream in self._file_streams.pop(file_id, ()):
                self._last_segment.pop(stream, None)
            if self.config.persist_heatmaps and self.fs.exists(file_id):
                self.heatmaps.save(self.build_heatmap(file_id, now))
            return True
        self._epochs[file_id] = count - 1
        return False

    def in_epoch(self, file_id: str) -> bool:
        """Whether the file is currently targeted for prefetching."""
        return self._epochs.get(file_id, 0) > 0

    @property
    def active_epochs(self) -> int:
        """Number of files currently in an open epoch."""
        return len(self._epochs)

    def _seed_from_heatmap(self, file_id: str, heatmap: FileHeatmap) -> None:
        """Warm the dirty vector from a stored heatmap on re-open.

        This is what lets HFetch start prefetching a re-opened file
        immediately, "in contrast to history-based prefetchers" that need
        a profiling run (§III-B): segments that were hot last epoch are
        handed to the engine as placement candidates right away.
        """
        f = self.fs.get(file_id)
        num_segments = f.num_segments
        scores = heatmap.scores
        # hottest() selects the top k via argpartition — O(n) in the
        # heatmap length rather than a full sort per re-open.
        for index in heatmap.hottest(k=min(heatmap.num_segments, 1024)):
            if scores[index] <= 0:
                break
            if index < num_segments:
                self._dirty[SegmentKey(file_id, index)] = None

    # -- event consumption (called by the hardware monitor's daemons) ---------------
    def on_event(self, event: FileEvent) -> None:
        """Fold one enriched file event into the statistics.

        Listeners are notified once per score update, with the running
        count.
        """
        self.events_processed += 1
        for _ in range(self._fold(event)):
            self.score_updates += 1
            for listener in self._update_listeners:
                listener(self.score_updates)

    def on_events(self, events: Iterable[FileEvent]) -> int:
        """Fold a batch of enriched events, in order.

        Each event goes through the same fold as :meth:`on_event`, so
        statistics, sequencing links, the dirty vector, invalidation
        order and DHM accounting are identical to calling
        :meth:`on_event` on each event.  The one difference: update
        listeners are notified once, after the batch, with the final
        running count, instead of once per score update.

        Returns the number of events folded.
        """
        fold = self._fold
        processed = 0
        score_updates = 0
        for event in events:
            processed += 1
            score_updates += fold(event)
        self.events_processed += processed
        self.batched_events += processed
        if score_updates:
            self.score_updates += score_updates
            count = self.score_updates
            for listener in self._update_listeners:
                listener(count)
        return processed

    def _fold(self, event: FileEvent) -> int:
        """Fold one event into the segment statistics; returns score updates.

        A WRITE invalidates the file.  A READ updates the record of every
        segment it covers, in place on its shard (through
        :meth:`~repro.dhm.hashmap.DistributedHashMap.local_shard`), and
        charges the event's map traffic with one
        :meth:`~repro.dhm.hashmap.DistributedHashMap.charge_batch`: per
        segment one update from the reader's node, and per sequencing
        link one local get plus, when the predecessor's record exists,
        one local update.  OPEN/CLOSE epochs are driven by the agent
        manager, which sees the open flags; the raw events carry no
        extra information here.
        """
        etype = event.etype
        if etype is not _READ:
            if etype is _WRITE:
                self._on_write(event)
            return 0
        fid = event.file_id
        try:
            f = self.fs.get(fid)
        except FileNotFoundError:
            return 0
        first, last = f.segment_span(event.offset, event.size)
        if last < first:
            return 0
        stats_map = self.stats_map
        nshards = stats_map.shards
        shard_of = stats_map.shard_of
        local_shard = stats_map.local_shard
        wal = stats_map.wal
        dirty = self._dirty
        dirty_cap = self.config.dirty_vector_capacity
        home_node = self._home_node
        tel = self.telemetry
        key_flow = tel.key_flow if tel is not None else None
        stream = (fid, event.pid)
        prev = self._last_segment.get(stream)
        when = event.timestamp
        node = event.node
        node_shard = node % nshards
        n_gets = 0
        n_local = 0
        n_remote = 0
        for index in range(first, last + 1):
            key = _new_tuple(SegmentKey, (fid, index))
            if key_flow is not None:
                key_flow[key] = event.eid
            sid = 0 if nshards == 1 else shard_of(key)
            shard = local_shard(sid)
            stats = shard.get(key)
            if stats is None:
                stats = SegmentStats(key, f.segment_bytes(key), self.config.max_history)
                shard[key] = stats
                fkeys = self._file_keys.get(fid)
                if fkeys is None:
                    self._file_keys[fid] = fkeys = {}
                fkeys[key] = None
            stats.record(when, prev)
            if node_shard == sid:
                n_local += 1
            else:
                n_remote += 1
            if wal is not None:
                wal.log_put(key, stats)
            if prev is not None and prev != key:
                # sequencing link on the predecessor: one local get, plus
                # one local update when its record exists
                prev_stats = local_shard(0 if nshards == 1 else shard_of(prev)).get(prev)
                n_gets += 1
                n_local += 1
                if prev_stats is not None:
                    prev_stats.link_successor(key)
                    n_local += 1
                    if wal is not None:
                        wal.log_put(prev, prev_stats)
            if key not in home_node:
                home_node[key] = node
            if key in dirty or len(dirty) < dirty_cap:
                dirty[key] = None
            else:
                # bounded vector: the placement hint is dropped (the stats
                # in the hash map survive and a later access can re-surface it)
                self.dirty_dropped += 1
            prev = key
        self._last_segment[stream] = prev
        fstreams = self._file_streams.get(fid)
        if fstreams is None:
            self._file_streams[fid] = fstreams = {}
        fstreams[stream] = None
        n = last - first + 1
        # every op above is a get or an update
        stats_map.charge_batch(n_local, n_remote, gets=n_gets, updates=n_local + n_remote - n_gets)
        if self._fold_mark is not None:
            now = self._tel_env.now
            self._fold_mark((now, event.eid, n))
            self._dhm_mark((now, event.eid))
        return n

    def _on_write(self, event: FileEvent) -> None:
        """Update events invalidate previously prefetched data (§III-B)."""
        if self.fs.exists(event.file_id):
            self._seen_version[event.file_id] = self.fs.get(event.file_id).version
        self._invalidate(event.file_id)

    def _invalidate(self, file_id: str) -> None:
        self.invalidations += 1
        # Drop statistics of the written file — its content changed.  The
        # per-file key index makes this O(segments-of-the-file) instead of
        # a scan over every key of every file in the map.
        for key in self._file_keys.pop(file_id, ()):
            self.stats_map.delete(key)
        for stream in self._file_streams.pop(file_id, ()):
            self._last_segment.pop(stream, None)
        stale = [k for k in self._dirty if k.file_id == file_id]
        for k in stale:
            del self._dirty[k]
        if self.invalidate_hook is not None:
            self.invalidate_hook(file_id)

    # -- queries --------------------------------------------------------------------
    def stats_of(self, key: SegmentKey) -> Optional[SegmentStats]:
        """Raw statistics record of a segment, if any."""
        return self.stats_map.get(key)

    def home_node(self, key: SegmentKey) -> int:
        """Node of the segment's first accessor (locality hint)."""
        return self._home_node.get(key, 0)

    def score_of(self, key: SegmentKey, now: float) -> float:
        """Current score of one segment under the configured model."""
        stats = self.stats_map.get(key)
        if stats is None:
            return 0.0
        return self.scoring_model.score(stats, now, self.config.decay_base)

    def drain_dirty(self) -> list[SegmentKey]:
        """Hand the accumulated dirty vector to the engine (clears it)."""
        dirty = list(self._dirty)
        self._dirty.clear()
        return dirty

    @property
    def pending_updates(self) -> int:
        """Dirty segments awaiting an engine pass."""
        return len(self._dirty)

    def batch_score(self, keys: Iterable[SegmentKey], now: float) -> np.ndarray:
        """Vectorised scores for ``keys`` under the configured model.

        Stats are fetched through the DHM's bulk shard-local path — one
        aggregated charge instead of one charged ``get`` per key, so a
        full-file :meth:`build_heatmap` no longer pays per-segment DHM
        overhead.
        """
        stats_list = self.stats_map.get_many(keys)
        return self.scoring_model.batch(stats_list, now, self.config.decay_base)

    def build_heatmap(self, file_id: str, now: float) -> FileHeatmap:
        """Materialise the file's current heatmap (§III-C)."""
        f = self.fs.get(file_id)
        keys = [SegmentKey(file_id, i) for i in range(f.num_segments)]
        scores = self.batch_score(keys, now)
        return FileHeatmap(file_id=file_id, scores=scores, captured_at=now)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FileSegmentAuditor events={self.events_processed} "
            f"updates={self.score_updates} dirty={len(self._dirty)}>"
        )
