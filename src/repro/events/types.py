"""Event records produced by the simulated file-system layer.

The original ``inotify`` event carries only the event type and file name;
the paper's interception library additionally records the read offset,
request size and a timestamp (§III-B).  :class:`FileEvent` is that
enriched record.  :class:`CapacityEvent` models the second event family
HFetch's hardware monitor consumes: tier remaining-capacity updates
(§III-A.1: "events are either file accesses or tier remaining
capacity").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple, Optional

__all__ = ["EventType", "FileEvent", "CapacityEvent"]

_event_ids = count()


class EventType(enum.Enum):
    """The file-operation vocabulary of the enriched inotify."""

    OPEN = "open"
    READ = "read"
    WRITE = "write"
    CLOSE = "close"

    def __str__(self) -> str:
        return self.value


class _FileEventFields(NamedTuple):
    etype: EventType
    file_id: str
    offset: int = 0
    size: int = 0
    timestamp: float = 0.0
    node: int = 0
    pid: int = 0
    eid: Optional[int] = None


_new_tuple = tuple.__new__


class FileEvent(_FileEventFields):
    """One enriched file-system event.

    Attributes
    ----------
    etype:
        What happened (open/read/write/close).
    file_id:
        Which file the event refers to.
    offset, size:
        Location and length of the access (0 for open/close).
    timestamp:
        Virtual time the access was observed.
    node:
        Compute node that produced the event (for the distributed view).
    pid:
        Simulated process id of the accessor — carried for diagnostics
        only; HFetch's data-centric logic deliberately ignores it.
    eid:
        Monotonic event id (global arrival order tie-breaker), drawn
        from the shared counter unless given.

    Every file event builds one of these, so the record is an immutable
    named tuple whose ``__new__`` draws the id: half the construction
    cost of a frozen dataclass, with the same fields, defaults, ``repr``
    and hash.  Two events are equal when their fields are; as a
    tuple, a ``FileEvent`` also equals a plain tuple of the same fields,
    and it can be indexed, iterated and ordered.
    """

    __slots__ = ()

    def __new__(
        cls,
        etype: EventType,
        file_id: str,
        offset: int = 0,
        size: int = 0,
        timestamp: float = 0.0,
        node: int = 0,
        pid: int = 0,
        eid: Optional[int] = None,
    ) -> "FileEvent":
        if eid is None:
            eid = next(_event_ids)
        return _new_tuple(cls, (etype, file_id, offset, size, timestamp, node, pid, eid))

    def is_access(self) -> bool:
        """True for read/write events that carry offset+size payloads."""
        return self.etype in (EventType.READ, EventType.WRITE)

    def __str__(self) -> str:
        if self.is_access():
            return (
                f"{self.etype}({self.file_id}, off={self.offset}, "
                f"size={self.size}, t={self.timestamp:.6f})"
            )
        return f"{self.etype}({self.file_id}, t={self.timestamp:.6f})"


@dataclass(frozen=True, slots=True)
class CapacityEvent:
    """A tier remaining-capacity report consumed by the hardware monitor."""

    tier_name: str
    free_bytes: float
    timestamp: float = 0.0
    eid: int = field(default_factory=lambda: next(_event_ids))

    def __str__(self) -> str:
        return f"capacity({self.tier_name}, free={self.free_bytes:g}, t={self.timestamp:.6f})"
