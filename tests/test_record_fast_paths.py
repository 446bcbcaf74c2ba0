"""Pins for the per-event records: ``FileEvent``, lock requests, ``SegmentStats``.

Each file event builds a ``FileEvent``, makes one auditor-lock request
and folds into a ``SegmentStats``, so all three are built for speed.
These tests hold them to the behaviour of the plain versions they
replaced: an immutable event record with dataclass-style ``repr``,
equality and hash; exact wait-time accounting kept on the request
itself; a slotted statistics record that still round-trips through the
write-ahead log (its list window is pinned in ``test_core_stats_heatmap``).
"""

from collections import deque

import pytest

from repro.core.stats import SegmentStats
from repro.dhm.wal import WriteAheadLog
from repro.events.types import EventType, FileEvent
from repro.sim.core import Environment
from repro.sim.resources import PriorityResource, Resource
from repro.storage.segments import SegmentKey


# ------------------------------------------------------------------ FileEvent
def test_file_event_is_immutable():
    ev = FileEvent(EventType.READ, "f", offset=1, size=2)
    for name in ("etype", "file_id", "offset", "size", "timestamp", "node", "pid", "eid"):
        with pytest.raises(AttributeError):
            setattr(ev, name, 0)
    with pytest.raises(AttributeError):
        ev.extra = 1  # no per-instance dict either


def test_file_event_fields_and_defaults():
    ev = FileEvent(EventType.OPEN, "f")
    assert (ev.offset, ev.size, ev.timestamp, ev.node, ev.pid) == (0, 0, 0.0, 0, 0)
    assert FileEvent._fields == (
        "etype", "file_id", "offset", "size", "timestamp", "node", "pid", "eid"
    )


def test_file_event_repr_and_str_match_the_dataclass_forms():
    ev = FileEvent(EventType.READ, "/pfs/a", 4096, 512, 0.25, 3, 7, eid=42)
    assert repr(ev) == (
        "FileEvent(etype=<EventType.READ: 'read'>, file_id='/pfs/a', offset=4096, "
        "size=512, timestamp=0.25, node=3, pid=7, eid=42)"
    )
    assert str(ev) == "read(/pfs/a, off=4096, size=512, t=0.250000)"
    opened = FileEvent(EventType.OPEN, "/pfs/a", timestamp=1.5, eid=1)
    assert str(opened) == "open(/pfs/a, t=1.500000)"


def test_file_event_eq_and_hash_over_all_fields():
    fields = (EventType.WRITE, "f", 1, 2, 0.5, 1, 9, 77)
    a = FileEvent(*fields)
    b = FileEvent(*fields)
    assert a == b and hash(a) == hash(b)
    # the frozen dataclass hashed the tuple of its fields
    assert hash(a) == hash(fields)
    assert a != FileEvent(EventType.WRITE, "f", 1, 2, 0.5, 1, 9, 78)
    # unlike the dataclass, the named tuple also equals a plain tuple of its fields
    assert a == fields and tuple(a) == fields
    assert len({a, b}) == 1


def test_file_event_draws_one_id_per_construction():
    a = FileEvent(EventType.OPEN, "f")
    b = FileEvent(EventType.READ, "f", 0, 1)
    c = FileEvent(EventType.CLOSE, "f")
    assert (b.eid, c.eid) == (a.eid + 1, a.eid + 2)


def test_file_event_eid_override_draws_no_id():
    a = FileEvent(EventType.OPEN, "f")
    fixed = FileEvent(EventType.READ, "f", 0, 1, eid=-5)
    b = FileEvent(EventType.CLOSE, "f")
    assert fixed.eid == -5
    assert b.eid == a.eid + 1


# ------------------------------------------------------------------- requests
def _holds(resource, request) -> bool:
    """Whether any attribute of ``resource`` still refers to ``request``."""
    for value in vars(resource).values():
        if value is request:
            return True
        if isinstance(value, (list, deque)) and any(x is request for x in value):
            return True
        if isinstance(value, dict) and (
            id(request) in value or any(x is request for x in value.values())
        ):
            return True
    return False


def _contend(env, res, arrivals, hold, priority=None):
    """Workers arriving at ``arrivals``; returns waits in grant order."""
    waits = []

    def worker(at, prio):
        yield env.timeout(at)
        t0 = env.now
        req = res.request() if prio is None else res.request(priority=prio)
        yield req
        waits.append(env.now - t0)
        yield env.timeout(hold)
        res.release(req)

    for i, at in enumerate(arrivals):
        env.process(worker(at, None if priority is None else priority[i]))
    env.run()
    return waits


def _summed(waits):
    total = 0.0
    for w in waits:
        total += w
    return total


def test_resource_wait_time_is_exact_under_contention():
    env = Environment()
    res = Resource(env, capacity=1)
    waits = _contend(env, res, [0.0, 0.1, 0.1, 0.3, 0.7, 0.75], hold=0.37)
    assert res.total_requests == 6
    assert res.total_wait_time == _summed(waits)  # bit-exact, same float ops
    assert waits[0] == 0.0 and min(waits[1:]) > 0.0


def test_priority_resource_wait_time_is_exact_under_contention():
    env = Environment()
    res = PriorityResource(env, capacity=2)
    waits = _contend(
        env, res, [0.0, 0.0, 0.05, 0.1, 0.1, 0.2, 0.3], hold=0.29,
        priority=[0, 0, 3, 1, 2, 0, 1],
    )
    assert res.total_requests == 7
    assert res.total_wait_time == _summed(waits)


@pytest.mark.parametrize("cls", [Resource, PriorityResource])
def test_cancelled_request_leaves_no_per_request_state(cls):
    env = Environment()
    res = cls(env, capacity=1)
    holder = res.request()
    waiting = res.request()
    assert _holds(res, waiting)
    res.release(waiting)  # never granted: cancels it
    assert not _holds(res, waiting)
    assert res.queued == 0 and res.total_wait_time == 0.0
    res.release(holder)
    assert not _holds(res, holder)
    assert not waiting.triggered
    # later grants are accounted as before
    env.run()
    late = res.request()
    assert late.triggered and res.total_requests == 3 and res.total_wait_time == 0.0


# --------------------------------------------------------------- SegmentStats
def _stats(hist=4):
    return SegmentStats(key=SegmentKey("f", 0), nbytes=1 << 20, max_history=hist)


def test_segment_stats_is_slotted():
    s = _stats()
    assert not hasattr(s, "__dict__")
    with pytest.raises(AttributeError):
        s.unknown = 1


def test_segment_stats_round_trips_through_a_file_backed_wal(tmp_path):
    s = _stats(hist=3)
    for t in (1.0, 2.0, 3.0, 4.0):
        s.record(t, prev=SegmentKey("f", 9))
    s.link_successor(SegmentKey("f", 1))
    path = tmp_path / "stats.wal"
    with WriteAheadLog(path) as wal:
        wal.log_put(s.key, s)
        wal.flush()
    replay = WriteAheadLog(path)
    try:
        back = replay.recover()[s.key]
    finally:
        replay.close()
    assert back == s and back is not s
    assert back.times == [2.0, 3.0, 4.0] and type(back.times) is list
    assert back.prev == SegmentKey("f", 9)
    assert back.successors == {SegmentKey("f", 1): 1}
    back.record(5.0)
    assert back.times == [3.0, 4.0, 5.0]
