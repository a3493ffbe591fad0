"""Metrics artifacts built from telemetry sessions.

Turns a :class:`~repro.obs.telemetry.Telemetry` session into the two files
emitted alongside ``flow_summary.json``:

* ``run_metrics.json`` -- a versioned JSON document
  (``"format": "repro.run-metrics/1"``) with counters, gauges, span
  aggregates, and a ``convergence`` section distilled from the structured
  solver events (per-set vector-fitting pole-relocation residuals, per-cost
  passivity-enforcement worst-sigma trajectories);
* ``metrics.prom`` -- a Prometheus text exposition of the same counters,
  gauges, and span totals for scrape-style ingestion.

For campaigns, each worker process records its own session and ships a
:meth:`~repro.obs.telemetry.Telemetry.snapshot` back inside the run record;
:func:`build_campaign_metrics` merges those snapshots with the dispatcher's
session into one campaign-level payload (summed counters, merged span
totals, slowest scenarios, cache hit rates, BLAS configuration).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.telemetry import Telemetry

__all__ = [
    "METRICS_FORMAT",
    "build_campaign_metrics",
    "build_run_metrics",
    "convergence_from_events",
    "prometheus_exposition",
    "write_metrics_files",
]

METRICS_FORMAT = "repro.run-metrics/1"


# ----------------------------------------------------------------------
# Convergence extraction
# ----------------------------------------------------------------------
def convergence_from_events(events: Iterable[Mapping]) -> dict:
    """Distill solver iteration events into per-solver trajectories."""
    vf: dict[str, list[dict]] = {}
    enforcement: dict[str, list[dict]] = {}
    for event in events:
        name = event.get("event")
        if name == "vf.iteration":
            batch = event.get("batch")
            key = str(event.get("set", 0))
            if batch is not None:
                key = f"{batch}:{key}"
            vf.setdefault(key, []).append({
                "iteration": event.get("iteration"),
                "pole_change": event.get("pole_change"),
                "n_poles": event.get("n_poles"),
                "converged": event.get("converged"),
            })
        elif name == "enforce.iteration":
            key = str(event.get("cost", "standard"))
            enforcement.setdefault(key, []).append({
                "iteration": event.get("iteration"),
                "worst_sigma": event.get("worst_sigma"),
                "n_bands": event.get("n_bands"),
                "n_constraints": event.get("n_constraints"),
                "working_set": event.get("working_set"),
                "active_set": event.get("active_set"),
            })
    return {"vf": vf, "enforcement": enforcement}


# ----------------------------------------------------------------------
# Per-run metrics payload
# ----------------------------------------------------------------------
def build_run_metrics(
    telemetry: Telemetry, *, kind: str = "flow", extra: dict | None = None
) -> dict:
    """The ``run_metrics.json`` payload for one telemetry session."""
    snapshot = telemetry.snapshot()
    payload = {
        "format": METRICS_FORMAT,
        "kind": kind,
        "label": snapshot["label"],
        "run_id": snapshot["run_id"],
        "meta": snapshot["meta"],
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "spans": snapshot["spans"],
        "n_events": snapshot["n_events"],
        "convergence": convergence_from_events(telemetry.events),
    }
    if extra:
        payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# Campaign merge
# ----------------------------------------------------------------------
def _merge_counters(into: dict, counters: Mapping) -> None:
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value


def _merge_spans(into: dict, spans: Mapping) -> None:
    for path, total in spans.items():
        merged = into.setdefault(path, {"count": 0, "seconds": 0.0})
        merged["count"] += total.get("count", 0)
        merged["seconds"] += total.get("seconds", 0.0)


def cache_hit_rates(counters: Mapping) -> dict:
    """Hit rates for each ``<name>.hits``/``<name>.misses`` counter pair."""
    bases = {
        name[: name.rfind(".")]
        for name in counters
        if name.endswith(".hits") or name.endswith(".misses")
    }
    rates = {}
    for base in sorted(bases):
        hits = counters.get(f"{base}.hits", 0)
        misses = counters.get(f"{base}.misses", 0)
        lookups = hits + misses
        rates[base] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
        }
    return rates


def build_campaign_metrics(
    telemetry: Telemetry,
    runs: Iterable[Mapping],
    *,
    extra: dict | None = None,
) -> dict:
    """Campaign-level ``run_metrics.json``: dispatcher + worker snapshots.

    ``runs`` is an iterable of mappings with at least ``run_id``; a
    ``seconds`` entry feeds the slowest-scenario rollup and a ``snapshot``
    entry (a worker-session :meth:`Telemetry.snapshot`) contributes
    counters and span totals to the merged view.
    """
    counters = dict(telemetry.counters)
    spans = {p: dict(t) for p, t in telemetry.span_totals.items()}
    per_run = []
    for run in runs:
        entry = {
            "run_id": run.get("run_id"),
            "seconds": run.get("seconds"),
        }
        snapshot = run.get("snapshot")
        if snapshot:
            _merge_counters(counters, snapshot.get("counters", {}))
            _merge_spans(spans, snapshot.get("spans", {}))
            entry["counters"] = snapshot.get("counters", {})
        per_run.append(entry)
    timed = [r for r in per_run if r.get("seconds") is not None]
    slowest = sorted(timed, key=lambda r: r["seconds"], reverse=True)[:5]
    payload = {
        "format": METRICS_FORMAT,
        "kind": "campaign",
        "label": telemetry.label,
        "run_id": telemetry.run_id,
        "meta": dict(telemetry.meta),
        "counters": counters,
        "gauges": dict(telemetry.gauges),
        "spans": {path: spans[path] for path in sorted(spans)},
        "n_events": len(telemetry.events),
        "convergence": convergence_from_events(telemetry.events),
        "runs": per_run,
        "slowest_runs": [
            {"run_id": r["run_id"], "seconds": r["seconds"]} for r in slowest
        ],
        "cache_hit_rates": cache_hit_rates(counters),
    }
    if extra:
        payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"')


def prometheus_exposition(payload: Mapping) -> str:
    """Render a metrics payload as Prometheus text format (version 0.0.4)."""
    lines: list[str] = []
    for name in sorted(payload.get("counters", {})):
        metric = _metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {payload['counters'][name]}")
    for name in sorted(payload.get("gauges", {})):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {payload['gauges'][name]}")
    spans = payload.get("spans", {})
    if spans:
        lines.append("# TYPE repro_span_seconds_total counter")
        lines.append("# TYPE repro_span_calls_total counter")
        for path in sorted(spans):
            label = _escape_label(path)
            total = spans[path]
            lines.append(
                f'repro_span_seconds_total{{span="{label}"}} '
                f'{total.get("seconds", 0.0)}'
            )
            lines.append(
                f'repro_span_calls_total{{span="{label}"}} '
                f'{total.get("count", 0)}'
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# File emission
# ----------------------------------------------------------------------
def write_metrics_files(
    directory: str | Path,
    telemetry: Telemetry,
    *,
    kind: str = "flow",
    payload: dict | None = None,
) -> Path:
    """Write ``run_metrics.json`` + ``metrics.prom`` into ``directory``.

    Passing ``payload`` overrides the default per-run payload (the campaign
    dispatcher passes a merged :func:`build_campaign_metrics` document).
    Returns the path of ``run_metrics.json``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if payload is None:
        payload = build_run_metrics(telemetry, kind=kind)
    metrics_path = directory / "run_metrics.json"
    metrics_path.write_text(
        json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8"
    )
    (directory / "metrics.prom").write_text(
        prometheus_exposition(payload), encoding="utf-8"
    )
    return metrics_path
