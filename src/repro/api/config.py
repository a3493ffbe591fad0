"""Unified pipeline configuration.

:class:`ReproConfig` is the single configuration object of the composable
pipeline engine: it composes the existing option dataclasses
(:class:`~repro.flow.macromodel.FlowOptions`, which itself nests
:class:`~repro.vectfit.options.VFOptions` and
:class:`~repro.passivity.enforce.EnforcementOptions`, plus
:class:`~repro.ingest.conditioning.ConditioningOptions` and the new
:class:`ValidationOptions`) without duplicating a single default: every
leaf default and every validation rule lives in the composed dataclass,
so ``ReproConfig()`` can never drift from what ``FlowOptions()`` means.

The JSON codec (:meth:`ReproConfig.to_dict` / :meth:`ReproConfig.from_dict`)
round-trips every composed dataclass, rejects unknown keys at any nesting
level (a typo in a config file fails loudly instead of silently running
defaults), and accepts partial documents (missing keys take the composed
defaults, which keeps old config files readable by newer versions).

The pipeline boundary (:meth:`repro.api.pipeline.Pipeline.run` and
:meth:`~repro.api.pipeline.Pipeline.run_key`) takes a ``ReproConfig``
only; ``ReproConfig(flow=options)`` wraps a bare :class:`FlowOptions`.
Whole-run store keys digest the full :meth:`ReproConfig.to_dict`, hence
every ``FlowOptions`` field through :func:`options_to_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from repro.flow.macromodel import FlowOptions
from repro.ingest.conditioning import ConditioningOptions
from repro.passivity.enforce import EnforcementOptions
from repro.vectfit.options import VFOptions

_FORMAT = "repro.config"
_VERSION = 1


@dataclass(frozen=True)
class ValidationOptions:
    """Configuration of the pipeline's validation stage.

    Parameters
    ----------
    low_band_hz:
        Upper edge (Hz) of the low-frequency band reported separately in
        the accuracy table -- the band where the paper's headline claim
        (standard enforcement destroys the loaded impedance) lives.
    """

    low_band_hz: float = 1e6

    def __post_init__(self) -> None:
        if self.low_band_hz <= 0.0:
            raise ValueError("low_band_hz must be positive")


#: Dataclass-valued fields of the option tree: (owner class, field name)
#: -> nested class.  Drives both directions of the JSON codec.
_NESTED_OPTIONS: dict[type, dict[str, type]] = {
    FlowOptions: {"vf": VFOptions, "enforcement": EnforcementOptions},
}


def _encode_leaf(value: object) -> object:
    if isinstance(value, np.ndarray):
        # Complex pole arrays as [re, im] pairs (VFOptions.initial_poles).
        stacked = np.stack(
            [np.asarray(value).real, np.asarray(value).imag], axis=-1
        )
        return stacked.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def options_to_dict(options: object) -> dict:
    """JSON-compatible dict of one option dataclass (recursing nested ones)."""
    payload = {}
    for spec in fields(options):
        value = getattr(options, spec.name)
        if is_dataclass(value) and not isinstance(value, type):
            payload[spec.name] = options_to_dict(value)
        else:
            payload[spec.name] = _encode_leaf(value)
    return payload


def options_from_dict(cls: type, payload: dict, *, path: str = "") -> object:
    """Reconstruct an option dataclass from :func:`options_to_dict` output.

    Unknown keys raise :class:`ValueError` with the full nested path;
    missing keys take the dataclass defaults; the dataclass's own
    ``__post_init__`` validation runs as usual.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{path or cls.__name__}: expected an object")
    known = {spec.name for spec in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        where = path or cls.__name__
        raise ValueError(f"{where}: unknown keys {unknown}")
    nested = _NESTED_OPTIONS.get(cls, {})
    kwargs = {}
    for key, value in payload.items():
        if key in nested and value is not None:
            kwargs[key] = options_from_dict(
                nested[key], value, path=f"{path}{key}." if path else f"{key}."
            )
        elif key == "initial_poles" and value is not None:
            pairs = np.asarray(value, dtype=float)
            if pairs.ndim != 2 or pairs.shape[-1] != 2:
                raise ValueError(
                    "initial_poles must be a list of [re, im] pairs"
                )
            kwargs[key] = pairs[:, 0] + 1j * pairs[:, 1]
        else:
            kwargs[key] = value
    return cls(**kwargs)


def options_token(options: object) -> str:
    """Canonical JSON string of an option dataclass (stage cache keys)."""
    return json.dumps(
        options_to_dict(options), sort_keys=True, separators=(",", ":")
    )


@dataclass(frozen=True)
class ReproConfig:
    """One configuration object for the whole pipeline.

    Parameters
    ----------
    flow:
        Macromodeling flow options (vector fitting, weighting scheme,
        passivity enforcement).
    ingest:
        Data-conditioning options applied by :class:`~repro.api.stages.
        IngestStage` when the pipeline starts from a Touchstone file.
    validation:
        Accuracy-report options of the validation stage.
    """

    flow: FlowOptions = field(default_factory=FlowOptions)
    ingest: ConditioningOptions = field(default_factory=ConditioningOptions)
    validation: ValidationOptions = field(default_factory=ValidationOptions)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def vf(self) -> VFOptions:
        return self.flow.vf

    @property
    def enforcement(self) -> EnforcementOptions:
        return self.flow.enforcement

    def replace(self, **changes: object) -> "ReproConfig":
        """Functional update (frozen dataclass convenience)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # JSON persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "flow": options_to_dict(self.flow),
            "ingest": options_to_dict(self.ingest),
            "validation": options_to_dict(self.validation),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReproConfig":
        if not isinstance(payload, dict):
            raise ValueError("config must be a JSON object")
        if payload.get("format", _FORMAT) != _FORMAT:
            raise ValueError(f"not a {_FORMAT} document")
        if payload.get("version", _VERSION) != _VERSION:
            raise ValueError(
                f"unsupported config version {payload.get('version')!r}"
            )
        body = {k: v for k, v in payload.items() if k not in ("format", "version")}
        known = {"flow", "ingest", "validation"}
        unknown = sorted(set(body) - known)
        if unknown:
            raise ValueError(f"ReproConfig: unknown keys {unknown}")
        return cls(
            flow=options_from_dict(
                FlowOptions, body.get("flow", {}), path="flow."
            ),
            ingest=options_from_dict(
                ConditioningOptions, body.get("ingest", {}), path="ingest."
            ),
            validation=options_from_dict(
                ValidationOptions, body.get("validation", {}),
                path="validation.",
            ),
        )

    def to_json(self, *, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReproConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ReproConfig":
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # includes json.JSONDecodeError
            raise ValueError(f"{path}: {exc}") from exc
