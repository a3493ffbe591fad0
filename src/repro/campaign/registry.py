"""On-disk registry of campaign results.

Layout (one directory per campaign)::

    <root>/
        manifest.json             # campaign spec + per-run index
        runs/<run_id>/
            result.json           # status, timings, metrics, scenario
            model.json            # passive model export + run pointer

``result.json`` files are self-contained JSON records so the registry can
be queried without loading any model artifacts.  ``model.json`` is the
:mod:`repro.statespace.serialization` export with ``{"run_id",
"cache_key"}`` as metadata.  It is written first and ``result.json`` last,
atomically, so a readable ``result.json`` marks a committed run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Container, Iterator

from repro.api.artifacts import write_text_atomic
from repro.statespace.poleresidue import PoleResidueModel
from repro.statespace.serialization import (
    load_model_with_metadata,
    sanitize_metadata,
    save_model,
)
from repro.util.logging import get_logger

_LOG = get_logger(__name__)

_MANIFEST_FORMAT = "repro.campaign-manifest"
_MANIFEST_VERSION = 1

_MANIFEST_RUN_FIELDS = (
    "run_id", "name", "status", "cache_hit", "resumed", "duration_s",
    "error", "error_code", "failed_stage", "attempts",
)


class CampaignRegistry:
    """Result store rooted at one campaign directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_run(
        self, record: dict, model: PoleResidueModel | None = None
    ) -> Path:
        """Persist one run record (and its model artifact, if any)."""
        run_id = record["run_id"]
        run_dir = self.runs_dir / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        payload = sanitize_metadata(record)
        if model is not None:
            pointer = {"run_id": run_id, "cache_key": payload.get("cache_key")}
            save_model(model, run_dir / "model.json", metadata=pointer)
        write_text_atomic(run_dir / "result.json", json.dumps(payload))
        return run_dir

    def write_manifest(self, campaign: dict, records: list[dict]) -> Path:
        """Write the campaign-level index of all runs.

        The index covers every run stored in the registry, not just the
        current invocation's ``records``: a filtered or partial re-run
        into the same registry must not orphan earlier runs from the
        manifest.  The passed records are indexed as given (keeping
        invocation-level state such as ``resumed``); only other runs are read.
        """
        index = {record["run_id"]: record for record in records}
        for run_id, record in self.stored_records(skip=index).items():
            if record is not None:
                index[run_id] = record
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "written_unix": time.time(),
            "campaign": sanitize_metadata(campaign),
            "n_runs": len(index),
            "runs": [{key: index[run_id].get(key) for key in _MANIFEST_RUN_FIELDS}
                     for run_id in sorted(index)],
        }
        path = self.root / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_manifest(self) -> dict:
        path = self.root / "manifest.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("format") != _MANIFEST_FORMAT:
            raise ValueError(f"{path}: not a {_MANIFEST_FORMAT} file")
        if payload.get("version") != _MANIFEST_VERSION:
            raise ValueError(
                f"{path}: unsupported version {payload.get('version')!r}"
            )
        return payload

    def has_result(self, run_id: str) -> bool:
        return (self.runs_dir / run_id / "result.json").exists()

    def load_result(self, run_id: str) -> dict:
        path = self.runs_dir / run_id / "result.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def load_model(self, run_id: str) -> tuple[PoleResidueModel, dict]:
        """The stored passive model and its metadata (the run pointer)."""
        return load_model_with_metadata(self.runs_dir / run_id / "model.json")

    def stored_records(self, skip: Container[str] = ()) -> dict[str, dict | None]:
        """``{run_id: record}`` of every run directory not in ``skip``.

        Each ``result.json`` is parsed once; one that cannot be read (a
        run cut off while writing it) maps to ``None`` with a warning.
        """
        records: dict[str, dict | None] = {}
        for path in sorted(self.runs_dir.glob("*/result.json")):
            run_id = path.parent.name
            if run_id in skip:
                continue
            try:
                records[run_id] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                _LOG.warning("%s: unreadable, skipped (%s)", path, exc)
                records[run_id] = None
        return records

    def iter_results(self) -> Iterator[dict]:
        """All readable stored run records, in sorted run-ID order."""
        yield from (r for r in self.stored_records().values() if r is not None)

    # ------------------------------------------------------------------
    # Queries / aggregation
    # ------------------------------------------------------------------
    def query(
        self, predicate: Callable[[dict], bool] | None = None
    ) -> list[dict]:
        """Run records, optionally filtered by a predicate."""
        results = self.iter_results()
        if predicate is None:
            return list(results)
        return [record for record in results if predicate(record)]


def metric_value(record: dict, metric: str) -> float | None:
    """Fetch a numeric metric from a run record (``None`` when absent)."""
    value = (record.get("metrics") or {}).get(metric)
    return None if value is None else float(value)


def worst_by_group(
    records: list[dict],
    group_key: Callable[[dict], object] | str,
    metric: str,
) -> dict:
    """Worst (largest) value of a metric per group of runs.

    ``group_key`` is either a callable on the record or the name of a
    scenario parameter (e.g. ``"weight_mode"``).  Returns
    ``{group: {"run_id": ..., "value": ...}}``; failed runs and runs
    missing the metric are skipped.  The canonical use is the campaign
    question "worst max-relative-Z error per weight mode".
    """
    if isinstance(group_key, str):
        param = group_key

        def key(record: dict):
            return (record.get("scenario") or {}).get(param)
    else:
        key = group_key
    worst: dict = {}
    for record in records:
        value = metric_value(record, metric)
        if value is None:
            continue
        group = key(record)
        if group not in worst or value > worst[group]["value"]:
            worst[group] = {"run_id": record.get("run_id"), "value": value}
    return worst
