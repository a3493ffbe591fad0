"""Declarative scenario and campaign specifications.

A :class:`ScenarioSpec` is one fully-determined flow run: which PDN variant
to build (size, frequency grid, termination perturbation), which port to
observe, and how to configure the macromodeling flow (poles, weight mode,
enforcement budget).  A :class:`CampaignSpec` is a base scenario plus a set
of parameter axes; :meth:`CampaignSpec.expand` takes the Cartesian product
of the axes and yields one concrete scenario per grid point.

Both are plain frozen dataclasses with JSON codecs, so campaign files can
be version-controlled and scenarios shipped to worker processes by value.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

from repro.api.config import ReproConfig
from repro.flow.macromodel import FlowOptions
from repro.passivity.enforce import EnforcementOptions
from repro.pdn.testcase import PDNTestCase, make_variant_testcase
from repro.vectfit.options import VFOptions

_SPEC_FORMAT = "repro.campaign-spec"
_SPEC_VERSION = 1

#: Knobs that only describe an external data source, with their defaults.
EXTERNAL_DEFAULTS = {
    "termination_spec": None,
    "data_z0": None,
    "data_dc_policy": "keep",
    "data_f_min": None,
    "data_f_max": None,
    "data_max_points": None,
    "data_symmetrize": "auto",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete run of the sensitivity-weighted flow.

    Parameters
    ----------
    name:
        Human-readable label; campaign expansion appends the axis values.
    size / n_frequencies / include_dc:
        PDN test-case family and frequency grid
        (:func:`repro.pdn.testcase.make_variant_testcase`).  Ignored when
        ``data_file`` selects an external data source.
    data_file:
        Path to an external Touchstone ``.sNp`` file; when set, the
        scenario runs on that (conditioned) data instead of a synthetic
        PDN, so sweeps can fan out over measured/solver exports with the
        same cache and registry machinery.
    termination_spec:
        Termination description of the external network: a compact inline
        spec or a JSON file path (see
        :func:`repro.ingest.termination.build_termination`); ``None``
        terminates every port with a matched ``z0`` resistor.
    data_z0 / data_dc_policy / data_f_min / data_f_max /
    data_max_points / data_symmetrize:
        Conditioning knobs for the external data
        (:class:`repro.ingest.conditioning.ConditioningOptions`).
    decap_c_scale / decap_esr_scale / vrm_resistance / total_die_current:
        Termination perturbation knobs.
    observe_port:
        Observation port; ``None`` selects the first die port.
    n_poles / weight_mode / weight_floor / refinement_rounds /
    weight_model_order / enforcement_max_iterations:
        Flow configuration (:class:`repro.flow.macromodel.FlowOptions`).
    checker_strategy / checker_exact_every:
        Passivity-checker strategy of the enforcement loop: ``"fast"``
        (sampling-mode intermediate iterations, exact Hamiltonian
        certification) or ``"exact"`` (Hamiltonian test every iteration);
        see :class:`repro.passivity.engine.CheckerOptions`.
    vf_kernel:
        Vector-fitting linear-algebra kernel: ``"batched"`` (stacked
        batched LAPACK, default) or ``"reference"`` (per-column loops);
        see :class:`repro.vectfit.options.VFOptions`.
    """

    name: str = "scenario"
    size: str = "small"
    n_frequencies: int = 201
    include_dc: bool = True
    data_file: str | None = None
    termination_spec: str | None = None
    data_z0: float | None = None
    data_dc_policy: str = "keep"
    data_f_min: float | None = None
    data_f_max: float | None = None
    data_max_points: int | None = None
    data_symmetrize: str = "auto"
    decap_c_scale: float = 1.0
    decap_esr_scale: float = 1.0
    vrm_resistance: float | None = None
    total_die_current: float | None = None
    observe_port: int | None = None
    n_poles: int = 12
    weight_mode: str = "relative"
    weight_floor: float = 0.01
    refinement_rounds: int = 3
    weight_model_order: int = 8
    enforcement_max_iterations: int = 30
    checker_strategy: str = "fast"
    checker_exact_every: int = 5
    vf_kernel: str = "batched"

    def _stray_external_fields(self) -> list[str]:
        """External-only knobs set although no ``data_file`` is.

        Checked when the synthetic path is *built* (not at construction):
        a campaign base legitimately carries ``termination_spec`` or
        conditioning knobs while ``data_file`` arrives via a sweep axis.
        """
        return [
            field_name
            for field_name, default in EXTERNAL_DEFAULTS.items()
            if getattr(self, field_name) != default
        ]

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def config(self) -> ReproConfig:
        """The pipeline configuration this scenario describes.

        Only the ``flow`` section varies; an external source is
        conditioned when its test case is built, so ``ingest`` and
        ``validation`` stay at their defaults (and run keys with them).
        """
        return ReproConfig(flow=FlowOptions(
            vf=VFOptions(n_poles=self.n_poles, kernel=self.vf_kernel),
            weight_mode=self.weight_mode,
            weight_floor=self.weight_floor,
            refinement_rounds=self.refinement_rounds,
            weight_model_order=self.weight_model_order,
            enforcement=EnforcementOptions(
                max_iterations=self.enforcement_max_iterations,
                checker_strategy=self.checker_strategy,
                exact_every=self.checker_exact_every,
            ),
        ))

    def conditioning_options(self):
        """Conditioning configuration for an external ``data_file`` source."""
        from repro.ingest.conditioning import ConditioningOptions

        return ConditioningOptions(
            z0=self.data_z0,
            dc_policy=self.data_dc_policy,
            f_min=self.data_f_min,
            f_max=self.data_f_max,
            max_points=self.data_max_points,
            symmetrize=self.data_symmetrize,
        )

    @property
    def external_observe_port(self) -> int:
        """Effective observation port of an external data source.

        External test cases have no "first die port" to fall back on, so
        an unset ``observe_port`` defaults to 0.  The executor's cache
        probes rely on this single definition matching what
        :meth:`build_testcase` resolves.
        """
        return self.observe_port if self.observe_port is not None else 0

    def external_termination(self, n_ports: int, default_z0: float = 50.0):
        """Unperturbed termination of an external network (spec or default).

        ``default_z0`` is the conditioned data's reference resistance, so
        the spec-less default really is a *matched* resistive load.
        """
        from repro.ingest.termination import build_termination

        return build_termination(
            self.termination_spec,
            n_ports,
            observe_port=self.external_observe_port,
            default_z0=default_z0,
        )

    def build_testcase(self) -> PDNTestCase:
        """Materialize the data source (deterministic for a given spec)."""
        if self.data_file is not None:
            return self._build_external_testcase()
        stray = self._stray_external_fields()
        if stray:
            raise ValueError(
                f"{sorted(stray)} require data_file to be set "
                "(they describe an external data source)"
            )
        return make_variant_testcase(
            self.size,
            n_frequencies=self.n_frequencies,
            include_dc=self.include_dc,
            decap_c_scale=self.decap_c_scale,
            decap_esr_scale=self.decap_esr_scale,
            vrm_resistance=self.vrm_resistance,
            total_die_current=self.total_die_current,
        )

    def _build_external_testcase(self) -> PDNTestCase:
        from repro.ingest.conditioning import load_network
        from repro.pdn.testcase import perturb_termination

        data, report = load_network(self.data_file, self.conditioning_options())
        termination = perturb_termination(
            self.external_termination(data.n_ports, default_z0=data.z0),
            decap_c_scale=self.decap_c_scale,
            decap_esr_scale=self.decap_esr_scale,
            vrm_resistance=self.vrm_resistance,
            total_die_current=self.total_die_current,
        )
        return PDNTestCase(
            name=Path(self.data_file).name,
            geometry=None,
            circuit=None,
            data=data,
            termination=termination,
            observe_port=self.external_observe_port,
            ingest=report,
        )

    def resolve_observe_port(self, testcase: PDNTestCase) -> int:
        return (
            testcase.observe_port
            if self.observe_port is None
            else self.observe_port
        )

    # ------------------------------------------------------------------
    # Identity and serialization
    # ------------------------------------------------------------------
    @cached_property
    def run_id(self) -> str:
        """Deterministic identifier: slugified name + content digest.

        Two specs with identical parameters always map to the same run ID,
        which is what makes registry-level resume safe across processes and
        sessions.  Computed once per (immutable) spec.
        """
        digest = hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        return f"{slugify(self.name)[:60]}-{digest[:10]}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown scenario parameters: {sorted(unknown)}"
            )
        return cls(**payload)


def slugify(name: str) -> str:
    """Filesystem/ID-safe slug of a campaign or scenario name.

    Used both for run IDs and for the registry directory derived from a
    user-supplied campaign name, so a name like ``"../evil"`` can never
    escape the chosen output directory.
    """
    slug = re.sub(r"[^a-zA-Z0-9._-]+", "-", name).strip("-")
    if not slug or set(slug) <= {"."}:
        return "run"
    return slug


def _axis_tag(key: str, value) -> str:
    return f"{key}={value}"


@dataclass(frozen=True)
class CampaignSpec:
    """A base scenario plus parameter axes to sweep.

    ``axes`` maps :class:`ScenarioSpec` field names to lists of values; the
    expansion is the Cartesian product in sorted-key order, so the scenario
    list is deterministic regardless of dict insertion order.  An axis with
    an empty value list yields an empty campaign (useful as an explicit
    "disabled" state in generated specs).
    """

    name: str = "campaign"
    base: ScenarioSpec = ScenarioSpec()
    axes: tuple[tuple[str, tuple], ...] = ()

    @classmethod
    def from_axes(
        cls,
        name: str,
        base: ScenarioSpec | None = None,
        axes: dict | None = None,
    ) -> "CampaignSpec":
        """Build a spec from a plain ``{field: [values...]}`` mapping."""
        base = base or ScenarioSpec()
        axes = axes or {}
        known = {f.name for f in fields(ScenarioSpec)}
        unknown = set(axes) - known
        if unknown:
            raise ValueError(f"unknown sweep axes: {sorted(unknown)}")
        if "name" in axes:
            raise ValueError("'name' cannot be a sweep axis")
        normalized = tuple(
            (key, tuple(axes[key])) for key in sorted(axes)
        )
        return cls(name=name, base=base, axes=normalized)

    def expand(self) -> list[ScenarioSpec]:
        """All concrete scenarios of the sweep (empty axes -> [base])."""
        if not self.axes:
            return [self.base]
        keys = [key for key, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        scenarios = []
        for combo in itertools.product(*value_lists):
            overrides = dict(zip(keys, combo))
            tag = ",".join(_axis_tag(k, v) for k, v in overrides.items())
            scenarios.append(
                replace(self.base, name=f"{self.base.name}[{tag}]", **overrides)
            )
        return scenarios

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": _SPEC_FORMAT,
            "version": _SPEC_VERSION,
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": {key: list(values) for key, values in self.axes},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        if payload.get("format", _SPEC_FORMAT) != _SPEC_FORMAT:
            raise ValueError(f"not a {_SPEC_FORMAT} document")
        if payload.get("version", _SPEC_VERSION) != _SPEC_VERSION:
            raise ValueError(
                f"unsupported campaign-spec version {payload.get('version')!r}"
            )
        base_payload = dict(payload.get("base", {}))
        base_payload.setdefault("name", payload.get("name", "campaign"))
        return cls.from_axes(
            name=payload.get("name", "campaign"),
            base=ScenarioSpec.from_dict(base_payload),
            axes=payload.get("axes", {}),
        )


def save_campaign(spec: CampaignSpec, path: str | Path) -> None:
    """Write a campaign spec as a JSON file."""
    Path(path).write_text(
        json.dumps(spec.to_dict(), indent=1), encoding="utf-8"
    )


def load_campaign(path: str | Path) -> CampaignSpec:
    """Read a campaign spec written by :func:`save_campaign` (or by hand)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return CampaignSpec.from_dict(payload)
    except ValueError as exc:  # includes json.JSONDecodeError
        raise ValueError(f"{path}: {exc}") from exc


def filter_scenarios(
    scenarios: list[ScenarioSpec], pattern: str | None
) -> list[ScenarioSpec]:
    """Subset scenarios by name: glob when the pattern has wildcards,
    substring match otherwise.

    Only ``*`` and ``?`` trigger glob matching: expanded scenario names
    always contain ``[axis=value]`` brackets, so treating ``[`` as a glob
    character would make an exact copied name match nothing.
    """
    if not pattern:
        return list(scenarios)
    if "*" in pattern or "?" in pattern:
        from fnmatch import fnmatchcase

        # Escape '[' so bracketed axis tags in names match literally.
        glob = pattern.replace("[", "[[]")
        return [s for s in scenarios if fnmatchcase(s.name, glob)]
    return [s for s in scenarios if pattern in s.name]
