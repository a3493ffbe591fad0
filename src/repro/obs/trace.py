"""Render telemetry from a finished run as a human-readable report.

Backs the ``repro trace RUN_DIR`` subcommand.  ``RUN_DIR`` may be:

* a telemetry directory (holds ``run_metrics.json`` and ``events-*.jsonl``),
* an output directory containing a ``telemetry/`` subdirectory,
* a campaign registry directory (``manifest.json`` + ``runs/<id>/
  result.json``) whose records carry worker-session telemetry snapshots,
* a directory with only ``events-*.jsonl`` sidecars, from which span
  totals and convergence trajectories are reconstructed.

The report shows per-iteration solver convergence (vector-fitting pole
relocation residual, passivity-enforcement worst sigma), per-stage and
per-kernel wall-time breakdowns, cache hit/miss counters, and -- for
campaigns -- slowest scenarios, cache hit rates, and BLAS configuration.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.obs.metrics import (
    METRICS_FORMAT,
    build_campaign_metrics,
    cache_hit_rates,
    convergence_from_events,
)
from repro.obs.telemetry import Telemetry

__all__ = ["load_trace_payload", "render_trace"]


# ----------------------------------------------------------------------
# Payload discovery
# ----------------------------------------------------------------------
def load_trace_payload(run_dir: str | Path) -> dict:
    """Locate and load the metrics payload for ``run_dir`` (see module doc)."""
    root = Path(run_dir)
    if root.is_file() and root.name == "run_metrics.json":
        return json.loads(root.read_text(encoding="utf-8"))
    if not root.is_dir():
        raise FileNotFoundError(f"no such run directory: {root}")
    for candidate in (root / "run_metrics.json",
                      root / "telemetry" / "run_metrics.json"):
        if candidate.exists():
            return json.loads(candidate.read_text(encoding="utf-8"))
    if (root / "manifest.json").exists():
        return _payload_from_registry(root)
    events = _read_event_files(root)
    if events:
        return _payload_from_events(events)
    raise FileNotFoundError(
        f"{root} holds no run_metrics.json, manifest.json, or "
        "events-*.jsonl; re-run with --telemetry to record a trace"
    )


def _read_event_files(root: Path) -> list[dict]:
    events: list[dict] = []
    for path in sorted(root.glob("events-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    return events


def _payload_from_events(events: list[dict]) -> dict:
    """Reconstruct span totals and convergence from raw JSONL sidecars."""
    spans: dict[str, dict[str, float]] = {}
    for event in events:
        if event.get("event") != "span.finish":
            continue
        path = event.get("span", "")
        total = spans.setdefault(path, {"count": 0, "seconds": 0.0})
        total["count"] += 1
        total["seconds"] += float(event.get("seconds", 0.0))
    return {
        "format": METRICS_FORMAT,
        "kind": "events",
        "counters": {},
        "gauges": {},
        "spans": {path: spans[path] for path in sorted(spans)},
        "n_events": len(events),
        "convergence": convergence_from_events(events),
    }


def _payload_from_registry(root: Path) -> dict:
    """Merge worker telemetry snapshots out of a campaign registry."""
    runs = []
    failures = []
    for result in sorted(root.glob("runs/*/result.json")):
        record = json.loads(result.read_text(encoding="utf-8"))
        runs.append({
            "run_id": record.get("run_id", result.parent.name),
            "seconds": record.get("duration_s"),
            "snapshot": record.get("telemetry"),
        })
        if record.get("status") == "failed":
            failures.append({
                "run_id": record.get("run_id", result.parent.name),
                "error_code": record.get("error_code"),
                "failed_stage": record.get("failed_stage"),
                "attempts": record.get("attempts", 1),
                "error": record.get("error"),
            })
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    telemetry = Telemetry(label="campaign", meta={
        "campaign": manifest.get("campaign"),
        "n_runs": len(runs),
    })
    extra = {"failures": failures} if failures else None
    return build_campaign_metrics(telemetry, runs, extra=extra)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value, width: int = 10) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, bool):
        return str(value).rjust(width)
    if isinstance(value, float):
        return f"{value:.3e}".rjust(width)
    return str(value).rjust(width)


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def _vf_key(key: str) -> tuple:
    """Numeric sort for ``batch:set`` convergence keys ("10:0" after "2:0")."""
    parts = str(key).split(":")
    return tuple(
        (0, int(part)) if part.isdigit() else (1, part) for part in parts
    )


def _render_convergence(convergence: Mapping) -> list[str]:
    lines: list[str] = []
    vf = convergence.get("vf", {})
    if vf:
        lines += _section("vector fitting: pole relocation")
        for key in sorted(vf, key=_vf_key):
            rows = vf[key]
            lines.append(f"  fit {key} ({len(rows)} iterations)")
            lines.append(
                "    iter   n_poles  pole_change  converged"
            )
            for row in rows:
                lines.append(
                    f"    {row.get('iteration', '?'):>4}"
                    f"  {_fmt(row.get('n_poles'), 8)}"
                    f"  {_fmt(row.get('pole_change'), 11)}"
                    f"  {_fmt(row.get('converged'), 9)}"
                )
    enforcement = convergence.get("enforcement", {})
    if enforcement:
        lines += _section("passivity enforcement: worst sigma")
        for key in sorted(enforcement):
            rows = enforcement[key]
            lines.append(f"  cost {key} ({len(rows)} iterations)")
            lines.append(
                "    iter  worst_sigma  bands  constraints  working_set"
                "  active_set"
            )
            for row in rows:
                lines.append(
                    f"    {row.get('iteration', '?'):>4}"
                    f"  {_fmt(row.get('worst_sigma'), 11)}"
                    f"  {_fmt(row.get('n_bands'), 5)}"
                    f"  {_fmt(row.get('n_constraints'), 11)}"
                    f"  {_fmt(row.get('working_set'), 11)}"
                    f"  {_fmt(row.get('active_set'), 10)}"
                )
    return lines


def _render_spans(spans: Mapping) -> list[str]:
    if not spans:
        return []
    lines = _section("time breakdown (span totals)")
    stage_totals: dict[str, dict] = {}
    kernel_totals: dict[str, dict] = {}
    for path, total in spans.items():
        head = path.split("/", 1)[0]
        leaf = path.rsplit("/", 1)[-1]
        if head.startswith("stage:"):
            agg = stage_totals.setdefault(
                head[len("stage:"):], {"count": 0, "seconds": 0.0}
            )
            if path == head:  # only the stage's own span, not children
                agg["count"] += total.get("count", 0)
                agg["seconds"] += total.get("seconds", 0.0)
        if leaf.startswith("kernel:"):
            agg = kernel_totals.setdefault(
                leaf[len("kernel:"):], {"count": 0, "seconds": 0.0}
            )
            agg["count"] += total.get("count", 0)
            agg["seconds"] += total.get("seconds", 0.0)
    if stage_totals:
        lines.append("  per stage:")
        for name, agg in sorted(
            stage_totals.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"    {name:<24} {agg['seconds']:10.3f}s"
                f"  x{agg['count']}"
            )
    if kernel_totals:
        lines.append("  per kernel:")
        for name, agg in sorted(
            kernel_totals.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"    {name:<24} {agg['seconds']:10.3f}s"
                f"  x{agg['count']}"
            )
    lines.append("  all spans:")
    width = max(48, *map(len, spans))
    for path, total in sorted(
        spans.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
    ):
        lines.append(
            f"    {path:<{width}} {total.get('seconds', 0.0):10.3f}s"
            f"  x{total.get('count', 0)}"
        )
    return lines


def _render_counters(counters: Mapping) -> list[str]:
    if not counters:
        return []
    lines = _section("counters")
    for name in sorted(counters):
        lines.append(f"    {name:<40} {counters[name]:>12g}")
    rates = cache_hit_rates(counters)
    if rates:
        lines.append("  cache hit rates:")
        for base, rate in rates.items():
            pct = (
                f"{100 * rate['hit_rate']:.1f}%"
                if rate["hit_rate"] is not None else "n/a"
            )
            lines.append(
                f"    {base:<28} hits={rate['hits']:<6g} "
                f"misses={rate['misses']:<6g} rate={pct}"
            )
    return lines


def _render_campaign(payload: Mapping) -> list[str]:
    lines: list[str] = []
    slowest = payload.get("slowest_runs") or []
    if slowest:
        lines += _section("slowest scenarios")
        for row in slowest:
            seconds = row.get("seconds")
            shown = f"{seconds:.3f}s" if seconds is not None else "-"
            lines.append(f"    {row.get('run_id'):<40} {shown:>10}")
    failures = payload.get("failures") or []
    if failures:
        lines += _section("failed runs")
        for row in failures:
            code = row.get("error_code") or "exception"
            stage = row.get("failed_stage") or "?"
            attempts = row.get("attempts", 1)
            tries = f", {attempts} attempts" if attempts and attempts > 1 else ""
            lines.append(f"    {row.get('run_id')} [{code} @ {stage}{tries}]")
            if row.get("error"):
                lines.append(f"        {row['error']}")
    meta = payload.get("meta") or {}
    blas = meta.get("blas") or meta.get("environment")
    if blas:
        lines += _section("BLAS configuration")
        if isinstance(blas, Mapping):
            for key in sorted(blas):
                lines.append(f"    {key}: {blas[key]}")
        else:
            lines.append(f"    {blas}")
    return lines


def render_trace(source: str | Path | Mapping) -> str:
    """The full human-readable trace report of a run.

    ``source`` is a run directory (see the module docstring) or a
    metrics payload such as :func:`repro.obs.metrics.build_run_metrics`
    returns for a live session.
    """
    if isinstance(source, Mapping):
        payload, name = source, source.get("label") or "session"
    else:
        payload, name = load_trace_payload(source), source
    kind = payload.get("kind", "flow")
    header = f"repro trace: {name}  (kind={kind}, " \
             f"{payload.get('n_events', 0)} events)"
    lines = [header, "=" * len(header)]
    if payload.get("run_id"):
        lines.append(f"run_id: {payload['run_id']}")
    lines += _render_convergence(payload.get("convergence", {}))
    lines += _render_spans(payload.get("spans", {}))
    lines += _render_counters(payload.get("counters", {}))
    if kind == "campaign":
        lines += _render_campaign(payload)
    return "\n".join(lines) + "\n"
