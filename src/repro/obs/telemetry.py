"""Low-overhead, process-safe telemetry: spans, counters, gauges, events.

The subsystem is built around one module-global *active* :class:`Telemetry`
instance.  Instrumentation sites throughout the package call the free
functions :func:`emit`, :func:`incr`, :func:`gauge`, and :func:`span`; when
no telemetry session is active each of those is a single attribute load and
``None`` check (and :func:`span` returns a shared no-op context manager), so
disabled-by-default instrumentation costs essentially nothing.

Activate a session with :func:`telemetry_session`::

    with telemetry_session("out/telemetry", label="flow") as tel:
        result = run_flow(...)
    # out/telemetry/ now holds events-flow.jsonl, run_metrics.json,
    # metrics.prom

Spans are hierarchical -- ``run -> stage -> iteration -> kernel`` -- and are
recorded as "/"-joined path strings (``stage:enforce/kernel:hamiltonian_eig``)
with aggregate call counts and wall seconds per unique path.  Events are
structured dicts appended to an in-memory list and, when the session has a
directory, streamed line-by-line to a per-process JSONL sink, so campaign
workers in separate processes each write their own sidecar file which the
dispatcher merges afterwards (see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "Telemetry",
    "active",
    "emit",
    "gauge",
    "incr",
    "next_seq",
    "session",
    "span",
    "telemetry_session",
]

_ACTIVE: "Telemetry | None" = None

#: Events accumulated in memory per session before old ones are dropped.
#: The JSONL sink (when the session has a directory) always gets every
#: event; the in-memory buffer only feeds same-process summaries.
_MAX_BUFFERED_EVENTS = 200_000


class _NullSpan:
    """Reusable no-op context manager handed out when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager pushing one frame on the active span stack."""

    __slots__ = ("_telemetry", "_name", "_attrs", "_started")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict) -> None:
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._push(self._name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        seconds = time.perf_counter() - self._started
        self._telemetry._pop(self._name, seconds, self._attrs)
        return False

    def annotate(self, **attrs: Any) -> None:
        """Add attributes known only once the span's work is done."""
        self._attrs.update(attrs)


class Telemetry:
    """One telemetry session: events, counters, gauges, span aggregates.

    Usually managed through :func:`telemetry_session`; direct construction
    is useful in tests and for embedders that want in-memory-only capture
    (``directory=None``).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        label: str = "run",
        run_id: str | None = None,
        meta: dict | None = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.label = label
        self.run_id = run_id
        self.meta = dict(meta or {})
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: span path -> {"count": int, "seconds": float}
        self.span_totals: dict[str, dict[str, float]] = {}
        self._seqs: dict[str, int] = {}
        self._stack: list[str] = []
        self._dropped_events = 0
        self._sink = None
        self._started = time.time()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sink = open(self.sink_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Sink
    # ------------------------------------------------------------------
    @property
    def sink_path(self) -> Path:
        """Per-process JSONL event file (unique per label/run_id/pid)."""
        if self.directory is None:
            raise ValueError("telemetry session has no directory")
        parts = [self.label]
        if self.run_id:
            parts.append(str(self.run_id))
        parts.append(str(os.getpid()))
        return self.directory / ("events-" + "-".join(parts) + ".jsonl")

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # ------------------------------------------------------------------
    # Recording primitives
    # ------------------------------------------------------------------
    def emit(self, name: str, **fields: Any) -> None:
        """Record one structured event under the current span path."""
        event = {"event": name, "t": time.time() - self._started}
        if self._stack:
            event["span"] = "/".join(self._stack)
        event.update(fields)
        if len(self.events) < _MAX_BUFFERED_EVENTS:
            self.events.append(event)
        else:
            self._dropped_events += 1
        if self._sink is not None:
            json.dump(event, self._sink, default=_json_default)
            self._sink.write("\n")

    def incr(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def next_seq(self, name: str) -> int:
        """Monotonic per-session sequence number (0, 1, 2, ...) for ``name``.

        Used to disambiguate repeated solver invocations in one run, e.g.
        each :func:`repro.vectfit.core.fit_many` call gets its own batch
        number so refinement rounds do not collapse into one trajectory.
        """
        value = self._seqs.get(name, 0)
        self._seqs[name] = value + 1
        return value

    # Span-stack internals used by _Span.
    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, name: str, seconds: float, attrs: dict) -> None:
        path = "/".join(self._stack)
        if self._stack and self._stack[-1] == name:
            self._stack.pop()
        total = self.span_totals.setdefault(path, {"count": 0, "seconds": 0.0})
        total["count"] += 1
        total["seconds"] += seconds
        event = {"span": path, "seconds": seconds}
        if attrs:
            event.update(attrs)
        self.emit("span.finish", **event)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-compatible summary of this session (no raw event list)."""
        return {
            "label": self.label,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {
                path: dict(total)
                for path, total in sorted(self.span_totals.items())
            },
            "n_events": len(self.events) + self._dropped_events,
            "dropped_events": self._dropped_events,
        }


def _json_default(value: Any) -> Any:
    """Serialize numpy scalars and other oddballs without importing numpy."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


# ----------------------------------------------------------------------
# Module-global accessors (the near-free instrumentation surface)
# ----------------------------------------------------------------------
def active() -> Telemetry | None:
    """The currently active session, or ``None`` when telemetry is off."""
    return _ACTIVE


def emit(name: str, **fields: Any) -> None:
    """Record an event on the active session; no-op when telemetry is off."""
    t = _ACTIVE
    if t is not None:
        t.emit(name, **fields)


def incr(name: str, value: float = 1) -> None:
    """Bump a counter on the active session; no-op when telemetry is off."""
    t = _ACTIVE
    if t is not None:
        t.incr(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active session; no-op when telemetry is off."""
    t = _ACTIVE
    if t is not None:
        t.gauge(name, value)


def span(name: str, **attrs: Any):
    """Open a span on the active session; shared no-op when telemetry is off."""
    t = _ACTIVE
    if t is None:
        return _NULL_SPAN
    return t.span(name, **attrs)


def next_seq(name: str) -> int | None:
    """Next sequence number for ``name``; ``None`` when telemetry is off."""
    t = _ACTIVE
    if t is None:
        return None
    return t.next_seq(name)


class session:
    """Make ``telemetry`` the active session for the dynamic extent.

    Re-entrant in the nesting sense: the previously active session (if any)
    is restored on exit, so a campaign dispatcher session can wrap per-run
    sessions when scenarios execute serially in-process.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._previous: Telemetry | None = None

    def __enter__(self) -> Telemetry:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self.telemetry
        return self.telemetry

    def __exit__(self, *exc: object) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


class telemetry_session:
    """Activate a new session and, on exit, write its summary artifacts.

    ``directory=None`` still activates an in-memory session (useful for
    embedders that read :meth:`Telemetry.snapshot` directly); with a
    directory, exit writes ``run_metrics.json`` and ``metrics.prom``
    alongside the per-process ``events-*.jsonl`` sink unless
    ``write_metrics=False`` (campaign workers disable it; the dispatcher
    merges their snapshots into one campaign-level metrics file instead).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        label: str = "run",
        run_id: str | None = None,
        meta: dict | None = None,
        kind: str = "flow",
        write_metrics: bool = True,
    ) -> None:
        self.telemetry = Telemetry(
            directory, label=label, run_id=run_id, meta=meta
        )
        self.kind = kind
        self.write_metrics = write_metrics
        self._session = session(self.telemetry)

    def __enter__(self) -> Telemetry:
        return self._session.__enter__()

    def __exit__(self, *exc: object) -> bool:
        self._session.__exit__(*exc)
        self.telemetry.close()
        if self.write_metrics and self.telemetry.directory is not None:
            from repro.obs.metrics import write_metrics_files

            write_metrics_files(
                self.telemetry.directory, self.telemetry, kind=self.kind
            )
        return False


def events_of(telemetry: Telemetry, name: str) -> Iterator[dict]:
    """The session's buffered events with the given name, in order."""
    return (e for e in telemetry.events if e.get("event") == name)
