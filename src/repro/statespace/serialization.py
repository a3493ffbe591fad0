"""Persistence for pole-residue macromodels.

JSON schema (version 1): poles and residues stored as [real, imag] pairs
so files are portable; the conjugate-pairing invariants are re-validated
on load by the :class:`PoleResidueModel` constructor.  Files are written
as compact one-line JSON (an indented dump goes through CPython's
pure-Python encoder, several times slower); floats keep their shortest
round-trip repr either way, so a model reads back bit-exact.

A model file may carry an optional ``metadata`` object (free-form,
JSON-serializable) so callers can attach provenance -- enforcement
diagnostics, passivity reports, campaign scenario parameters -- that
round-trips with the model.  Readers that do not care about it
(:func:`load_model`) ignore it; :func:`load_model_with_metadata` returns it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.statespace.poleresidue import PoleResidueModel

_FORMAT = "repro.pole-residue"
_VERSION = 1


def _complex_to_pairs(values: np.ndarray) -> list:
    """Nested lists of [re, im] pairs preserving the array shape."""
    stacked = np.stack([values.real, values.imag], axis=-1)
    return stacked.tolist()


def _pairs_to_complex(data: list) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("complex entries must be [real, imag] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def sanitize_metadata(value):
    """Recursively convert a metadata tree to plain JSON-compatible types.

    Numpy scalars and arrays show up naturally in diagnostics dicts; this
    maps them (and tuples/sets) onto JSON primitives so metadata can be
    attached without the caller hand-converting every leaf.
    """
    if isinstance(value, dict):
        return {str(k): sanitize_metadata(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [sanitize_metadata(v) for v in value]
    if isinstance(value, np.ndarray):
        return sanitize_metadata(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def save_model(
    model: PoleResidueModel,
    path: str | Path,
    metadata: dict | None = None,
) -> None:
    """Write a macromodel (plus optional provenance metadata) to JSON."""
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "n_poles": model.n_poles,
        "n_ports": model.n_ports,
        "poles": _complex_to_pairs(model.poles),
        "residues": _complex_to_pairs(model.residues),
        "const": model.const.tolist(),
    }
    if metadata is not None:
        payload["metadata"] = sanitize_metadata(metadata)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> PoleResidueModel:
    """Read a macromodel written by :func:`save_model`."""
    model, _ = load_model_with_metadata(path)
    return model


def load_model_with_metadata(path: str | Path) -> tuple[PoleResidueModel, dict]:
    """Read a macromodel and its metadata object ({} when absent)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a {_FORMAT} file")
    if payload.get("version") != _VERSION:
        raise ValueError(
            f"{path}: unsupported version {payload.get('version')!r}"
        )
    poles = _pairs_to_complex(payload["poles"])
    residues = _pairs_to_complex(payload["residues"])
    const = np.asarray(payload["const"], dtype=float)
    model = PoleResidueModel(poles, residues, const)
    if model.n_poles != payload["n_poles"] or model.n_ports != payload["n_ports"]:
        raise ValueError(f"{path}: header counts disagree with stored arrays")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: metadata must be a JSON object")
    return model, metadata
