"""Pipeline stages: the paper's flow as composable, typed units.

Each stage declares its inputs and outputs as :class:`ArtifactSpec` lists
and implements one step of the macromodeling flow; the
:class:`~repro.api.pipeline.Pipeline` runner wires them by artifact name,
validates the types, and caches each stage's outputs in a content-
addressed :class:`~repro.api.artifacts.ArtifactStore` under
:meth:`PipelineStage.result_key` -- a digest of the stage identity, the
configuration slice the stage actually reads, and the content of its
inputs.  Two consequences fall out of keying by content:

* a re-run (same data, same config) resumes from stored stage results
  instead of recomputing, stage by stage;
* scenarios that share inputs share stage results -- the campaign
  executor's shared-standard-fit batching is now simply a store hit on
  :class:`StandardFitStage`'s key.

The numerical path is exactly the original fixed chain of the flow (same
functions, same operands, same order), so a pipeline-backed flow
reproduces it to machine precision (``tests/test_api_pipeline.py`` keeps
that chain inline as the reference).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.api.artifacts import ArtifactSpec, artifact_digest
from repro.obs import telemetry as obs
from repro.api.config import ReproConfig, options_to_dict, options_token
from repro.flow.macromodel import FlowOptions
from repro.ingest.conditioning import IngestReport
from repro.passivity.check import PassivityReport, check_passivity
from repro.passivity.cost import l2_gramian_cost
from repro.passivity.enforce import EnforcementResult, enforce_passivity
from repro.pdn.termination import TerminationNetwork
from repro.resilience.errors import IngestError, StageOutputError
from repro.sensitivity.firstorder import sensitivity_analytic
from repro.sensitivity.weighted_norm import sensitivity_weighted_cost
from repro.sensitivity.weightmodel import SensitivityWeight, build_weight_model
from repro.sensitivity.zpdn import target_impedance, target_impedance_of_model
from repro.sparams.network import NetworkData
from repro.util.logging import get_logger
from repro.vectfit.core import VFResult, vector_fit

_LOG = get_logger(__name__)

_KEY_FORMAT = "repro.stage-key/1"

# ----------------------------------------------------------------------
# Canonical artifact vocabulary of the standard flow
# ----------------------------------------------------------------------
A_NETWORK = ArtifactSpec("network", NetworkData, "conditioned scattering data")
A_TERMINATION = ArtifactSpec(
    "termination", TerminationNetwork, "nominal termination network"
)
A_OBSERVE_PORT = ArtifactSpec("observe_port", int, "observation port (0-based)")
A_INGEST_REPORT = ArtifactSpec(
    "ingest_report", IngestReport, "conditioning audit trail"
)
A_REFERENCE = ArtifactSpec(
    "reference_impedance", np.ndarray, "nominal target impedance Zhat(j w)"
)
A_XI = ArtifactSpec("xi", np.ndarray, "first-order sensitivity Xi_k (eq. 5)")
A_STANDARD_FIT = ArtifactSpec(
    "standard_fit", VFResult, "plain vector fit (eq. 4)"
)
A_BASE_WEIGHTS = ArtifactSpec(
    "base_weights", np.ndarray, "normalized pre-refinement weights"
)
A_WEIGHTED_FIT = ArtifactSpec(
    "weighted_fit", VFResult, "sensitivity-weighted vector fit (eq. 6)"
)
A_FINAL_WEIGHTS = ArtifactSpec(
    "final_weights", np.ndarray, "post-refinement weights"
)
A_WEIGHT_MODEL = ArtifactSpec(
    "weight_model", SensitivityWeight, "rational weight model Xi~(s) (eq. 17)"
)
A_PRE_REPORT = ArtifactSpec(
    "pre_enforcement_report", PassivityReport,
    "passivity of the weighted model before enforcement",
)
A_STANDARD_ENFORCED = ArtifactSpec(
    "standard_enforced", EnforcementResult, "enforcement under the L2 cost"
)
A_WEIGHTED_ENFORCED = ArtifactSpec(
    "weighted_enforced", EnforcementResult,
    "enforcement under the sensitivity-weighted cost (eqs. 18-21)",
)
A_ACCURACY_ROWS = ArtifactSpec(
    "accuracy_rows", tuple, "per-variant accuracy table rows"
)
A_HEADLINE_METRICS = ArtifactSpec(
    "headline_metrics", dict, "scalar summary metrics"
)


# ----------------------------------------------------------------------
# Numerical helpers of the stages, also called directly by code that
# runs one step of the flow on its own
# ----------------------------------------------------------------------
def compute_base_weights(
    options: FlowOptions, xi: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Normalized, floored fitting weights from the sensitivity.

    External data can produce degenerate inputs the paper's synthetic
    case never hits: a (near-)zero target-impedance sample would put
    inf/NaN into the relative weights, and an identically-flat
    sensitivity has no peak to normalize by.  The reference magnitude
    is therefore clamped to a small fraction of its peak, and a
    sensitivity with no positive finite peak falls back to uniform
    weights (the weighted fit then degenerates to the standard one,
    which is the right answer for zero information).
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise StageOutputError(
            "sensitivity contains non-finite entries", stage="weighting"
        )
    if options.weight_mode == "relative":
        ref_abs = np.abs(np.asarray(reference))
        peak_ref = float(np.max(ref_abs, initial=0.0))
        if not np.isfinite(peak_ref) or peak_ref <= 0.0:
            raise StageOutputError(
                "reference impedance is zero or non-finite; relative "
                "weighting is undefined (use weight_mode='absolute')",
                stage="weighting",
            )
        raw = xi / np.maximum(ref_abs, 1e-12 * peak_ref)
    else:
        raw = xi.copy()
    peak = float(np.max(raw, initial=0.0))
    if not np.isfinite(peak):
        raise StageOutputError(
            "sensitivity weights overflowed to non-finite", stage="weighting"
        )
    if peak <= 0.0:
        return np.ones_like(raw)
    normalized = raw / peak
    return np.maximum(normalized, options.weight_floor)


def refine_weighted_fit(
    options: FlowOptions,
    data: NetworkData,
    termination: TerminationNetwork,
    observe_port: int,
    weights: np.ndarray,
    reference: np.ndarray,
    initial_result: VFResult | None = None,
) -> tuple[VFResult, np.ndarray]:
    """Weighted fit with iterative refinement (ref. [23]).

    ``initial_result`` optionally supplies the fit of the unrefined
    ``weights`` so the first vector fit is not recomputed.  Returns the
    final fit and the final weight vector.
    """
    w = weights.copy()
    result = initial_result
    if result is None:
        result = vector_fit(data.omega, data.samples, w, options.vf)
    for round_index in range(options.refinement_rounds):
        errors = np.abs(
            target_impedance_of_model(
                result.model, data.omega, termination, observe_port,
                z0=data.z0,
            )
            - reference
        ) / np.abs(reference)
        pivot = max(float(np.median(errors)), 1e-4)
        w = w * np.sqrt(np.maximum(errors / pivot, 1.0))
        w = np.maximum(w / float(np.max(w)), options.weight_floor)
        result = vector_fit(data.omega, data.samples, w, options.vf)
        _LOG.info(
            "weight refinement %d: max rel Z error %.4f",
            round_index + 1,
            float(np.max(errors)),
        )
    return result, w


# ----------------------------------------------------------------------
# Stage protocol
# ----------------------------------------------------------------------
class PipelineStage:
    """One typed unit of the flow.

    Subclasses set the class attributes and implement :meth:`run`.
    ``version`` participates in the cache key: bump it whenever the
    stage's numerics change so stale store entries can never be replayed.
    ``cacheable = False`` opts a stage out of the store entirely.
    """

    name: str = "stage"
    version: str = "1"
    inputs: tuple[ArtifactSpec, ...] = ()
    outputs: tuple[ArtifactSpec, ...] = ()
    cacheable: bool = True

    def config_token(self, config: ReproConfig) -> str:
        """Canonical string of the config slice this stage depends on.

        The default is the empty token (a pure function of its inputs);
        stages reading configuration MUST override this, otherwise a
        config change would replay stale cached results.
        """
        return ""

    def run(self, config: ReproConfig, inputs: dict) -> dict:
        """Compute the stage's outputs; must return every declared output."""
        raise NotImplementedError

    def result_key(self, config: ReproConfig, inputs: dict) -> str:
        """Content-addressed store key of this stage's outputs.

        Keyed by the stage *identity* (name, concrete class, version),
        the configuration slice it reads, and the content digests of its
        inputs.  The concrete class participates so a subclass variant
        (an overridden weighting law, say) can never replay the base
        class's stored results even if its author forgot to bump
        ``version``.
        """
        cls = type(self)
        payload = {
            "format": _KEY_FORMAT,
            "stage": self.name,
            "stage_class": f"{cls.__module__}.{cls.__qualname__}",
            "version": self.version,
            "config": self.config_token(config),
            "inputs": {
                spec.name: artifact_digest(inputs[spec.name])
                for spec in self.inputs
            },
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# Concrete stages
# ----------------------------------------------------------------------
class IngestStage(PipelineStage):
    """Load and condition a Touchstone file; build the nominal termination.

    The stage is parameterized by the *source* (file path, termination
    spec, observation port) because those identify the workload, while
    the conditioning knobs come from ``config.ingest``.  Its cache token
    hashes the file *content*, so editing the file in place invalidates
    downstream results correctly.
    """

    name = "ingest"
    # 2: the raw-data sigma_max sweep moved to the Hermitian Gram kernel
    # (stored reports' worst_sigma differs in the last bits).
    version = "2"
    outputs = (A_NETWORK, A_TERMINATION, A_OBSERVE_PORT, A_INGEST_REPORT)

    def __init__(
        self,
        source: str | Path,
        termination: str | None = None,
        observe_port: int = 0,
    ) -> None:
        self.source = str(source)
        self.termination = termination
        self.observe_port = int(observe_port)

    def config_token(self, config: ReproConfig) -> str:
        source_digest = hashlib.sha256(
            Path(self.source).read_bytes()
        ).hexdigest()
        termination = self.termination
        if termination is not None and Path(termination).is_file():
            termination = hashlib.sha256(
                Path(termination).read_bytes()
            ).hexdigest()
        return json.dumps(
            {
                "source_sha256": source_digest,
                "termination": termination,
                "observe_port": self.observe_port,
                "conditioning": options_to_dict(config.ingest),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def run(self, config: ReproConfig, inputs: dict) -> dict:
        from repro.ingest import build_termination, load_network

        try:
            data, report = load_network(self.source, config.ingest)
            termination = build_termination(
                self.termination,
                data.n_ports,
                observe_port=self.observe_port,
                default_z0=data.z0,
            )
        except IngestError:
            raise
        except (OSError, ValueError) as exc:
            # Typed boundary: parse and conditioning failures carry the
            # "ingest" error code into run records and telemetry.
            raise IngestError(
                f"failed to ingest {self.source}: {exc}", stage="ingest"
            ) from exc
        return {
            "network": data,
            "termination": termination,
            "observe_port": self.observe_port,
            "ingest_report": report,
        }


class StandardFitStage(PipelineStage):
    """Plain vector fit of the scattering data (paper eq. 4).

    Keyed by the data content and the VF options only, so every scenario
    of a termination sweep (which perturbs loading, not scattering data)
    maps to the same store entry -- the shared-standard-fit optimization
    as a cache property.
    """

    name = "standard_fit"
    inputs = (A_NETWORK,)
    outputs = (A_STANDARD_FIT,)

    def config_token(self, config: ReproConfig) -> str:
        return options_token(config.flow.vf)

    def run(self, config: ReproConfig, inputs: dict) -> dict:
        data: NetworkData = inputs["network"]
        if data.kind != "s":
            raise IngestError(
                "the flow expects scattering data", stage=self.name
            )
        return {
            "standard_fit": vector_fit(
                data.omega, data.samples, options=config.flow.vf
            )
        }


class SensitivityStage(PipelineStage):
    """Nominal target impedance (eq. 2) and first-order sensitivity (eq. 5).

    A pure function of the raw data and termination -- no configuration
    enters, hence the empty config token.
    """

    name = "sensitivity"
    inputs = (A_NETWORK, A_TERMINATION, A_OBSERVE_PORT)
    outputs = (A_REFERENCE, A_XI)

    def run(self, config: ReproConfig, inputs: dict) -> dict:
        data: NetworkData = inputs["network"]
        termination = inputs["termination"]
        observe_port = inputs["observe_port"]
        reference = target_impedance(
            data.samples, data.omega, termination, observe_port, z0=data.z0
        )
        xi = sensitivity_analytic(
            data.samples, data.omega, termination, observe_port, z0=data.z0
        )
        return {"reference_impedance": reference, "xi": xi}


class WeightingStage(PipelineStage):
    """Sensitivity-derived weights, weighted fit, and the weight model.

    Computes the normalized base weights (eq. 6 / the documented relative
    variant), runs the weighted vector fit with iterative refinement
    (ref. [23]) and fits the rational sensitivity model Xi~(s) (eq. 17).
    Subclasses can override :meth:`base_weights` to implement alternative
    weighting laws while inheriting the fitting machinery -- see
    ``examples/pipeline_api.py``.
    """

    name = "weighting"
    inputs = (A_NETWORK, A_TERMINATION, A_OBSERVE_PORT, A_XI, A_REFERENCE)
    outputs = (A_BASE_WEIGHTS, A_WEIGHTED_FIT, A_FINAL_WEIGHTS, A_WEIGHT_MODEL)

    def config_token(self, config: ReproConfig) -> str:
        flow = config.flow
        return json.dumps(
            {
                "vf": options_to_dict(flow.vf),
                "weight_mode": flow.weight_mode,
                "weight_floor": flow.weight_floor,
                "refinement_rounds": flow.refinement_rounds,
                "weight_model_order": flow.weight_model_order,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def base_weights(
        self, config: ReproConfig, data: NetworkData,
        xi: np.ndarray, reference: np.ndarray,
    ) -> np.ndarray:
        """Weighting law hook; the default is the paper's scheme."""
        return compute_base_weights(config.flow, xi, reference)

    def run(self, config: ReproConfig, inputs: dict) -> dict:
        data: NetworkData = inputs["network"]
        termination = inputs["termination"]
        observe_port = inputs["observe_port"]
        base = self.base_weights(
            config, data, inputs["xi"], inputs["reference_impedance"]
        )
        weighted0 = vector_fit(data.omega, data.samples, base, config.flow.vf)
        weighted, final_weights = refine_weighted_fit(
            config.flow, data, termination, observe_port, base,
            inputs["reference_impedance"], initial_result=weighted0,
        )
        weight_model = build_weight_model(
            data.omega, base, order=config.flow.weight_model_order
        )
        return {
            "base_weights": base,
            "weighted_fit": weighted,
            "final_weights": final_weights,
            "weight_model": weight_model,
        }


class EnforceStage(PipelineStage):
    """Passivity enforcement of the weighted model under both costs.

    Checks the weighted model once with the full-size Hamiltonian test
    (the report doubles as both runs' iteration-0 verdict) and enforces
    twice: standard L2 cost (eq. 10) and sensitivity-weighted cost (eqs.
    18-21).  A passing ``report_after`` is a full-size certificate, and a
    failing one rests on a sampled sigma > 1, so :class:`ValidateStage`
    reuses the three reports as the passivity verdicts of these models.
    """

    name = "enforce"
    # 2: sigma_max sweeps moved to the Hermitian Gram kernel (stored
    # reports' sigma values differ in the last bits; models do not).
    # 3: every iteration runs the Hamiltonian test, and a passing verdict
    # is re-checked by the full-size test with the wider crossing
    # candidate tolerance (stored models and reports differ).
    version = "3"
    inputs = (A_WEIGHTED_FIT, A_WEIGHT_MODEL)
    outputs = (A_PRE_REPORT, A_STANDARD_ENFORCED, A_WEIGHTED_ENFORCED)

    def config_token(self, config: ReproConfig) -> str:
        return options_token(config.flow.enforcement)

    def run(self, config: ReproConfig, inputs: dict) -> dict:
        weighted: VFResult = inputs["weighted_fit"]
        weight_model: SensitivityWeight = inputs["weight_model"]
        enforcement = config.flow.enforcement
        report = check_passivity(
            weighted.model, band_samples=enforcement.band_samples
        )
        standard_cost = l2_gramian_cost(weighted.model)
        with obs.span("enforce:standard_cost"):
            standard_enforced = enforce_passivity(
                weighted.model, standard_cost, enforcement,
                initial_report=report, cost_label="standard",
            )
        weighted_cost = sensitivity_weighted_cost(
            weighted.model, weight_model.model
        )
        with obs.span("enforce:weighted_cost"):
            weighted_enforced = enforce_passivity(
                weighted.model, weighted_cost, enforcement,
                initial_report=report, cost_label="weighted",
            )
        return {
            "pre_enforcement_report": report,
            "standard_enforced": standard_enforced,
            "weighted_enforced": weighted_enforced,
        }


class ValidateStage(PipelineStage):
    """Accuracy table and headline metrics of the four model variants.

    Passivity verdicts come from the enforce stage's certificates for the
    weighted fit and both enforced models; only the standard fit gets a
    fresh :func:`~repro.passivity.check.check_passivity` call.
    """

    name = "validate"
    inputs = (
        A_NETWORK,
        A_TERMINATION,
        A_OBSERVE_PORT,
        A_REFERENCE,
        A_STANDARD_FIT,
        A_WEIGHTED_FIT,
        A_PRE_REPORT,
        A_STANDARD_ENFORCED,
        A_WEIGHTED_ENFORCED,
    )
    outputs = (A_ACCURACY_ROWS, A_HEADLINE_METRICS)

    def config_token(self, config: ReproConfig) -> str:
        return options_token(config.validation)

    def run(self, config: ReproConfig, inputs: dict) -> dict:
        from types import SimpleNamespace

        from repro.flow.metrics import (
            accuracy_table,
            flow_accuracy_rows,
            headline_metrics,
        )

        proxy = SimpleNamespace(
            reference_impedance=inputs["reference_impedance"],
            standard_fit=inputs["standard_fit"],
            weighted_fit=inputs["weighted_fit"],
            pre_enforcement_report=inputs["pre_enforcement_report"],
            standard_enforced=inputs["standard_enforced"],
            weighted_enforced=inputs["weighted_enforced"],
        )
        rows = flow_accuracy_rows(
            proxy,
            inputs["network"],
            inputs["termination"],
            inputs["observe_port"],
            low_band_hz=config.validation.low_band_hz,
        )
        metrics = headline_metrics(accuracy_table(rows), proxy)
        return {
            "accuracy_rows": tuple(rows),
            "headline_metrics": metrics,
        }


def standard_stages() -> tuple[PipelineStage, ...]:
    """The paper's five-step chain as fresh stage instances."""
    return (
        StandardFitStage(),
        SensitivityStage(),
        WeightingStage(),
        EnforceStage(),
        ValidateStage(),
    )


__all__ = [
    "ArtifactSpec",
    "PipelineStage",
    "IngestStage",
    "StandardFitStage",
    "SensitivityStage",
    "WeightingStage",
    "EnforceStage",
    "ValidateStage",
    "standard_stages",
    "compute_base_weights",
    "refine_weighted_fit",
]
