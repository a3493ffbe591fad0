"""Typed artifacts, content digests, and the content-addressed store.

Every value flowing between pipeline stages is an *artifact*: a named,
typed object (:class:`ArtifactSpec` declares the name and expected type).
This module provides the two capabilities the pipeline engine needs on
top of that:

* **Digesting** -- :func:`artifact_digest` maps any supported artifact to
  a stable SHA-256 over its canonical encoded form, so stage cache keys
  can be derived from *content* (the same scattering data always produces
  the same standard-fit key, whatever scenario or file name delivered it).
* **Persistence** -- :class:`ArtifactStore` is a content-addressed
  key-value store (in-memory, optionally mirrored to a directory) and the
  repository's only one: any stage becomes individually cacheable and
  resumable, cross-scenario sharing (e.g. one standard fit serving a
  whole termination sweep) is a store hit, and a campaign keeps each
  scenario's whole run in it under
  :meth:`repro.api.pipeline.Pipeline.run_key`.

Encoding is exact: numpy arrays are serialized as raw little-endian bytes
(base64), so a decoded artifact is *byte-identical* to what was stored --
a resumed pipeline continues from exactly the numbers the interrupted run
produced.  Dataclass artifacts (fit results, passivity reports,
enforcement outcomes, ...) are encoded field-by-field through a type
registry; terminations go through the canonical
:func:`repro.pdn.spec.termination_to_dict` codec, the same one the
termination specs of campaigns and CLI files are written in.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from repro.flow.metrics import ModelAccuracyRow
from repro.obs import telemetry as obs
from repro.ingest.conditioning import IngestAction, IngestReport
from repro.passivity.check import PassivityReport, ViolationBand
from repro.passivity.enforce import EnforcementResult, IterationRecord
from repro.pdn.spec import termination_from_dict, termination_to_dict
from repro.pdn.termination import TerminationNetwork
from repro.sensitivity.weightmodel import SensitivityWeight
from repro.sparams.network import NetworkData
from repro.statespace.poleresidue import PoleResidueModel
from repro.statespace.system import StateSpaceModel
from repro.vectfit.core import VFResult
from repro.vectfit.magnitude import MagnitudeFitResult

_TAG = "__repro_artifact__"
_STORE_FORMAT = "repro.artifact-store/1"

#: Dataclasses encoded field-by-field; the name is the wire tag, so it is
#: part of the persisted format -- extend, don't rename.
_DATACLASS_REGISTRY: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        NetworkData,
        StateSpaceModel,
        VFResult,
        MagnitudeFitResult,
        SensitivityWeight,
        PassivityReport,
        ViolationBand,
        EnforcementResult,
        IterationRecord,
        IngestReport,
        IngestAction,
        ModelAccuracyRow,
    )
}


@dataclass(frozen=True)
class ArtifactSpec:
    """Declared name and type of one stage input/output."""

    name: str
    type: type | tuple[type, ...] | None = None
    description: str = ""

    def check(self, value) -> None:
        """Raise ``TypeError`` when ``value`` does not match the spec."""
        if self.type is not None and not isinstance(value, self.type):
            expected = (
                self.type.__name__
                if isinstance(self.type, type)
                else "/".join(t.__name__ for t in self.type)
            )
            raise TypeError(
                f"artifact {self.name!r} must be {expected}, got "
                f"{type(value).__name__}"
            )


def encode_artifact(value):
    """JSON-compatible tagged encoding of one artifact value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {_TAG: "complex", "re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            _TAG: "ndarray",
            "dtype": data.dtype.str,
            "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }
    if isinstance(value, TerminationNetwork):
        return {_TAG: "termination", "spec": termination_to_dict(value)}
    if isinstance(value, PoleResidueModel):
        # Plain class (not a dataclass): encode its defining arrays.
        return {
            _TAG: "pole_residue",
            "poles": encode_artifact(value.poles),
            "residues": encode_artifact(value.residues),
            "const": encode_artifact(value.const),
        }
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _DATACLASS_REGISTRY:
            raise TypeError(f"no artifact codec for dataclass {name}")
        return {
            _TAG: "dataclass",
            "type": name,
            "fields": {
                spec.name: encode_artifact(getattr(value, spec.name))
                for spec in fields(value)
            },
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_artifact(v) for v in value]}
    if isinstance(value, list):
        return [encode_artifact(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("artifact dict keys must be strings")
            out[key] = encode_artifact(item)
        return out
    raise TypeError(f"no artifact codec for {type(value).__name__}")


def decode_artifact(payload):
    """Inverse of :func:`encode_artifact` (byte-identical arrays)."""
    if isinstance(payload, list):
        return [decode_artifact(v) for v in payload]
    if not isinstance(payload, dict):
        return payload
    tag = payload.get(_TAG)
    if tag is None:
        return {k: decode_artifact(v) for k, v in payload.items()}
    if tag == "complex":
        return complex(payload["re"], payload["im"])
    if tag == "ndarray":
        raw = base64.b64decode(payload["data"])
        array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return array.reshape(payload["shape"]).copy()
    if tag == "tuple":
        return tuple(decode_artifact(v) for v in payload["items"])
    if tag == "termination":
        return termination_from_dict(payload["spec"])
    if tag == "pole_residue":
        return PoleResidueModel(
            decode_artifact(payload["poles"]),
            decode_artifact(payload["residues"]),
            decode_artifact(payload["const"]),
        )
    if tag == "dataclass":
        cls = _DATACLASS_REGISTRY.get(payload["type"])
        if cls is None:
            raise ValueError(f"unknown artifact dataclass {payload['type']!r}")
        kwargs = {
            key: decode_artifact(value)
            for key, value in payload["fields"].items()
        }
        return cls(**kwargs)
    raise ValueError(f"unknown artifact tag {tag!r}")


def artifact_digest(value) -> str:
    """Stable SHA-256 hex digest of one artifact's content."""
    canonical = json.dumps(
        encode_artifact(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and a rename: readers see
    the old file or the whole new one, never a partial write."""
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ArtifactStore:
    """Content-addressed store of stage outputs and whole runs.

    Entries map a stage result key (see
    :meth:`repro.api.stages.PipelineStage.result_key`) to the dict of
    output artifacts that stage produced, or a run key (see
    :meth:`repro.api.pipeline.Pipeline.run_key`) to a campaign run's
    ``{"model", "record"}``.  Without a ``root`` the store lives in a
    process-local dict.  With one, entries live only on disk, written
    atomically (temp file + rename), which makes results durable across
    processes and sessions -- the resume story -- and keeps a long-lived
    store from holding every entry it ever read in memory.

    On disk, entries are JSON files under a two-level fan-out by key
    prefix, and a corrupt entry behaves like a miss, never an error.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, dict] = {}  # the entries when root is None

    def path(self, key: str) -> Path | None:
        """On-disk location of one entry (``None`` for memory-only stores)."""
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Decoded output dict of one entry; ``None`` on miss."""
        path = self.path(key)
        if path is None:
            hit = self._memory.get(key)
            obs.incr("artifact_store.hits" if hit is not None
                     else "artifact_store.misses")
            return None if hit is None else dict(hit)
        if not path.exists():
            obs.incr("artifact_store.misses")
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("format") != _STORE_FORMAT:
                obs.incr("artifact_store.misses")
                return None
            values = {
                name: decode_artifact(encoded)
                for name, encoded in payload["values"].items()
            }
        except (KeyError, ValueError, TypeError, OSError):
            obs.incr("artifact_store.misses")
            return None
        obs.incr("artifact_store.hits")
        return values

    def put(self, key: str, values: dict) -> None:
        """Store one entry (on disk, atomically, when the store has a root)."""
        obs.incr("artifact_store.puts")
        path = self.path(key)
        if path is None:
            self._memory[key] = dict(values)
            return
        payload = {
            "format": _STORE_FORMAT,
            "key": key,
            "values": {
                name: encode_artifact(value) for name, value in values.items()
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, json.dumps(payload))

    def __contains__(self, key: str) -> bool:
        path = self.path(key)
        return key in self._memory if path is None else path.exists()

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Drop all entries; returns how many were removed."""
        if self.root is None:
            removed = len(self._memory)
            self._memory.clear()
            return removed
        paths = list(self.root.glob("*/*.json"))
        for path in paths:
            path.unlink()
        return len(paths)
