"""Spans on the simulation clock, exportable to chrome://tracing.

The checkpoint path crosses four layers — client, daemon dispatch, the
transfer engine's lanes, and the PMem ingest limiter — and the paper's
Table I / Fig. 13 story is precisely *where inside that path the
nanoseconds go*.  A :class:`Span` is one named interval on the simulated
clock; a :class:`Tracer` collects them, grouped by *trace* (one trace id
per client request, propagated through the control-plane messages) and
by *track* (the ``process/thread`` pair chrome://tracing renders as
rows).

Zero-cost contract
------------------

Opening or closing a span reads ``env.now`` and appends to a Python
list — it never yields, schedules an event, or changes a wire size, so
a traced run is **bit-identical in simulated time** to an untraced one
(``tests/obs/test_zero_cost.py`` holds this line).  A disabled tracer
(`enabled=False`, the default everywhere) goes further and returns a
shared no-op span, so the fast path pays one attribute check.

Zero-*alloc* contract for hot sites: a disabled tracer must also cost
zero allocations per call, which is a caller-side discipline — the
per-WR sites in :mod:`repro.core.engine` check ``tracer.enabled`` before
building span names or keyword arguments, so an untraced fleet run pays
one attribute load per WR, not an f-string and a kwargs dict.  When
tracing *is* enabled, :class:`Span` is ``__slots__``-backed (no
per-span ``__dict__``) and stores its kwargs dict only when non-empty,
keeping traced fleet runs from being dominated by span bookkeeping.

Export
------

:meth:`Tracer.chrome_trace` renders the span list as Chrome
``trace_event`` JSON (phase-``X`` complete events plus ``M`` metadata
events naming the processes/threads), loadable in chrome://tracing or
Perfetto.  Timestamps are microseconds (the format's unit) derived from
integer simulated nanoseconds, so exports are deterministic.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


class Span:
    """One named interval on the simulation clock (context manager)."""

    __slots__ = ("env", "name", "cat", "trace_id", "span_id", "parent_id",
                 "track", "start_ns", "end_ns", "args")

    def __init__(self, env, name: str, cat: str, trace_id: Optional[int],
                 span_id: int, parent_id: Optional[int], track: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self.env = env
        self.name = name
        self.cat = cat
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.track = track
        self.start_ns = env.now
        self.end_ns: Optional[int] = None
        self.args = args

    @property
    def duration_ns(self) -> int:
        """Span length; 0 while still open."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    def finish(self, **args: Any) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_ns is None:
            self.end_ns = self.env.now
        if args:
            if self.args is None:
                self.args = {}
            self.args.update(args)

    def annotate(self, **args: Any) -> None:
        if self.args is None:
            self.args = {}
        self.args.update(args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc) -> None:
        self.finish()

    def __repr__(self) -> str:
        end = self.end_ns if self.end_ns is not None else "…"
        return f"<Span {self.name!r} [{self.start_ns}, {end}) " \
               f"trace={self.trace_id} track={self.track}>"


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    duration_ns = 0
    finished = True

    def finish(self, **_args: Any) -> None:
        pass

    def annotate(self, **_args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans; disabled by default (every call is a no-op).

    Trace ids and span ids come from plain counters — no wall clock, no
    randomness — so two runs of the same seeded simulation produce the
    same trace byte for byte.
    """

    __slots__ = ("enabled", "spans", "_next_trace", "_next_span")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._next_trace = 0
        self._next_span = 0

    # -- recording ----------------------------------------------------------------

    def new_trace(self) -> Optional[int]:
        """A fresh trace id (one per client request)."""
        if not self.enabled:
            return None
        self._next_trace += 1
        return self._next_trace

    def span(self, env, name: str, cat: str = "",
             trace_id: Optional[int] = None,
             parent: Optional[Span] = None, track: str = "main",
             **args: Any):
        """Open a span at ``env.now``; close with ``finish()`` or ``with``."""
        if not self.enabled:
            return NULL_SPAN
        self._next_span += 1
        span = Span(env, name, cat, trace_id, self._next_span,
                    parent.span_id if isinstance(parent, Span) else None,
                    track, args or None)
        self.spans.append(span)
        return span

    # -- queries ------------------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total_ns(self, name: str) -> int:
        """Summed duration of every span named *name*."""
        return sum(span.duration_ns for span in self.named(name))

    def one(self, name: str) -> Span:
        spans = self.named(name)
        if len(spans) != 1:
            raise ValueError(f"expected exactly one span named {name!r}, "
                             f"found {len(spans)}")
        return spans[0]

    # -- export -------------------------------------------------------------------

    def chrome_trace(self) -> List[Dict[str, Any]]:
        """The span list as Chrome ``trace_event`` objects.

        Each span's ``track`` ("process/thread", thread optional) maps to
        a (pid, tid) pair; ``M`` metadata events carry the names so the
        viewer shows readable rows.
        """
        pids: Dict[str, int] = {}
        tids: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for span in self.spans:
            process, _, thread = span.track.partition("/")
            thread = thread or "main"
            if process not in pids:
                pids[process] = len(pids) + 1
                events.append({"ph": "M", "name": "process_name",
                               "pid": pids[process], "tid": 0,
                               "args": {"name": process}})
            track_key = f"{process}/{thread}"
            if track_key not in tids:
                tids[track_key] = len(tids) + 1
                events.append({"ph": "M", "name": "thread_name",
                               "pid": pids[process], "tid": tids[track_key],
                               "args": {"name": thread}})
            args: Dict[str, Any] = dict(span.args or {})
            if span.trace_id is not None:
                args["trace_id"] = span.trace_id
            if span.parent_id is not None:
                args["parent_span"] = span.parent_id
            if not span.finished:
                args["unfinished"] = True
            event = {"ph": "X", "name": span.name, "cat": span.cat or "span",
                     "ts": span.start_ns / 1000.0,
                     "dur": span.duration_ns / 1000.0,
                     "pid": pids[span.track.partition("/")[0]],
                     "tid": tids[track_key]}
            if args:
                event["args"] = args
            events.append(event)
        return events

    def chrome_trace_json(self, indent: Optional[int] = None) -> str:
        return json.dumps({"traceEvents": self.chrome_trace(),
                           "displayTimeUnit": "ns"}, indent=indent,
                          sort_keys=True)

    def write(self, path: str, indent: Optional[int] = None) -> None:
        """Write the Chrome trace JSON to a host file."""
        with open(path, "w") as handle:
            handle.write(self.chrome_trace_json(indent=indent))
