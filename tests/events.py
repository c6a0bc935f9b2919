"""Event objects for streams written out by hand in tests.

The library has one event type, :class:`~repro.graphs.updates.UpdateColumns`.
A test that spells a stream out event by event builds it from these frozen
dataclasses with :func:`columns`, and :func:`events` turns columns back
into objects, so a test can compare a stream with a literal list or
dispatch on each event's kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from repro.graphs.updates import OP_DELETE, OP_INSERT, OP_REWEIGHT, Row, UpdateColumns


@dataclass(frozen=True)
class EdgeInsert:
    """Add the undirected edge ``{u, v}`` (no-op if already present)."""

    u: int
    v: int


@dataclass(frozen=True)
class EdgeDelete:
    """Remove the undirected edge ``{u, v}`` (no-op if absent)."""

    u: int
    v: int


@dataclass(frozen=True)
class WeightChange:
    """Set vertex ``v``'s weight to ``weight`` (must stay positive)."""

    v: int
    weight: float


GraphUpdate = Union[EdgeInsert, EdgeDelete, WeightChange]


def _row(event: GraphUpdate) -> Row:
    if isinstance(event, EdgeInsert):
        return OP_INSERT, event.u, event.v, 0.0
    if isinstance(event, EdgeDelete):
        return OP_DELETE, event.u, event.v, 0.0
    if isinstance(event, WeightChange):
        return OP_REWEIGHT, 0, event.v, event.weight
    raise TypeError(f"not a graph update: {type(event).__name__}")


def columns(events: Iterable[GraphUpdate]) -> UpdateColumns:
    """The events as :class:`UpdateColumns`, in order."""
    return UpdateColumns.from_rows(_row(event) for event in events)


def events(cols: UpdateColumns) -> List[GraphUpdate]:
    """The columns' events as objects (``ValueError`` on an unknown op code)."""
    out: List[GraphUpdate] = []
    for op, u, v, w in zip(
        cols.op.tolist(), cols.u.tolist(), cols.v.tolist(), cols.w.tolist()
    ):
        if op == OP_INSERT:
            out.append(EdgeInsert(u, v))
        elif op == OP_DELETE:
            out.append(EdgeDelete(u, v))
        elif op == OP_REWEIGHT:
            out.append(WeightChange(v, w))
        else:
            raise ValueError(f"unknown update op code {op!r}")
    return out
