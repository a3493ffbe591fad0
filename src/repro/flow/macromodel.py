"""End-to-end sensitivity-weighted macromodeling flow.

Chains every stage of the paper into one reproducible pipeline:

1. *Standard fit* -- plain vector fitting of the scattering data (eq. 4),
   the baseline whose loaded impedance goes wrong (Figs. 1-2).
2. *Sensitivity analysis* -- first-order sensitivity Xi_k of the target
   impedance under the nominal termination (eq. 5, Fig. 3).
3. *Weighted fit* -- vector fitting with sensitivity-derived weights
   (eq. 6), iteratively refined as in ref. [23] (Fig. 2).
4. *Sensitivity macromodel* -- Magnitude-VF rational model Xi~(s) of the
   weight curve (eq. 17, Fig. 3).
5. *Passivity enforcement*, twice on the weighted model: with the standard
   L2 cost (eq. 10; destroys the loaded impedance, Fig. 5) and with the
   sensitivity-weighted cost (eqs. 18-21; preserves it, Figs. 4-6).
6. *Validation* -- accuracy table and headline metrics of the four model
   variants.

Execution is delegated to the composable pipeline engine of
:mod:`repro.api`: :func:`run_flow` seeds a
:func:`repro.api.pipeline.standard_pipeline` with the in-memory data and
returns the assembled :class:`FlowResult`, so this module, the CLI and
the campaign executor all share one execution path and one per-stage
cache (pass ``store=``); stage timings and events go to the active
:mod:`repro.obs` telemetry session.  The single stages are plain functions (:func:`repro.vectfit.core.vector_fit`,
:func:`repro.sensitivity.firstorder.sensitivity_analytic`,
:func:`repro.api.stages.compute_base_weights`,
:func:`repro.api.stages.refine_weighted_fit`,
:func:`repro.sensitivity.weightmodel.build_weight_model`) for callers
that need one step on its own.

Weighting scheme note (documented substitution): the paper weights by the
raw sensitivity w_k = Xi_k, whose 80 dB decay on the Intel test case makes
absolute and relative weighting nearly equivalent.  On the synthetic test
case the relative-error sensitivity w_k = Xi_k / |Zhat_PDN,k| is the
meaningful curve (Xi alone is nearly flat below 100 MHz); both are
available via ``FlowOptions.weight_mode`` and both reduce to the same
quantity up to the known reference impedance curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.passivity.check import PassivityReport
from repro.passivity.enforce import (
    EnforcementOptions,
    EnforcementResult,
)
from repro.pdn.termination import TerminationNetwork
from repro.sensitivity.weightmodel import SensitivityWeight
from repro.sparams.network import NetworkData
from repro.vectfit.core import VFResult
from repro.vectfit.options import VFOptions


@dataclass(frozen=True)
class FlowOptions:
    """Configuration of the full macromodeling flow.

    Parameters
    ----------
    vf:
        Vector-fitting options; the paper uses 12 common poles.
    weight_mode:
        "relative" (default) weights by Xi_k / |Zhat_PDN,k|; "absolute"
        weights by the raw Xi_k as in the paper's eq. (6).
    weight_floor:
        Lower clamp of the normalized fitting weights; keeps the weighted
        model accurate in the native scattering representation (paper
        Fig. 6 requirement).
    refinement_rounds:
        Iterative weight-refinement passes (ref. [23]): weights are boosted
        where the relative impedance error of the current weighted fit is
        largest.
    weight_model_order:
        Order n_w of the rational sensitivity model (paper: 8).
    enforcement:
        Options of the passivity-enforcement loop.
    """

    vf: VFOptions = field(default_factory=lambda: VFOptions(n_poles=12))
    weight_mode: str = "relative"
    weight_floor: float = 0.01
    refinement_rounds: int = 3
    weight_model_order: int = 8
    enforcement: EnforcementOptions = field(default_factory=EnforcementOptions)

    def __post_init__(self) -> None:
        if self.weight_mode not in ("relative", "absolute"):
            raise ValueError("weight_mode must be 'relative' or 'absolute'")
        if not (0.0 < self.weight_floor <= 1.0):
            raise ValueError("weight_floor must be in (0, 1]")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be non-negative")
        if self.weight_model_order < 1:
            raise ValueError("weight_model_order must be at least 1")


@dataclass(frozen=True)
class FlowResult:
    """Everything produced by one flow run (the four Fig. 5 models).

    Attributes
    ----------
    reference_impedance:
        Target impedance computed from the raw data (the "nominal" curve).
    xi:
        First-order sensitivity samples Xi_k.
    base_weights:
        Normalized pre-refinement fitting weights (also the Xi~ fit data).
    final_weights:
        Post-refinement weights actually used by the weighted fit.
    standard_fit / weighted_fit:
        VF results without / with sensitivity weighting.
    weight_model:
        Rational sensitivity model Xi~(s).
    standard_enforced / weighted_enforced:
        Passivity enforcement of the weighted model under the standard L2
        cost and under the sensitivity-weighted cost.
    pre_enforcement_report:
        Passivity report of the weighted (non-passive) model before
        enforcement.
    accuracy_rows:
        Per-variant accuracy rows from the validation stage
        (:class:`~repro.flow.metrics.ModelAccuracyRow`).
    headline_metrics:
        Scalar summary metrics (:func:`repro.flow.metrics.headline_metrics`).
    stage_provenance:
        Per-stage execution records of the pipeline run: stage name,
        status (``computed``/``cached``/``seeded``), wall seconds and the
        content-addressed store key.
    """

    omega: np.ndarray
    reference_impedance: np.ndarray
    xi: np.ndarray
    base_weights: np.ndarray
    final_weights: np.ndarray
    standard_fit: VFResult
    weighted_fit: VFResult
    weight_model: SensitivityWeight
    pre_enforcement_report: PassivityReport
    standard_enforced: EnforcementResult
    weighted_enforced: EnforcementResult
    accuracy_rows: tuple = ()
    headline_metrics: dict = field(default_factory=dict, repr=False)
    stage_provenance: tuple = ()

    def summary_dict(self) -> dict:
        """JSON-compatible run summary: metrics, provenance.

        The one summary every surface shares: the CLI writes it as
        ``flow_summary.json`` and campaign records embed the ``stages``
        block, so per-stage wall times and cache-hit provenance are
        always reported alongside the accuracy numbers.
        """
        from repro.flow.metrics import accuracy_table

        return {
            "metrics": dict(self.headline_metrics),
            "accuracy_table": accuracy_table(list(self.accuracy_rows)),
            "stages": [dict(record) for record in self.stage_provenance],
            "enforcement": {
                "standard_cost": {
                    "iterations": int(self.standard_enforced.iterations),
                    "converged": bool(self.standard_enforced.converged),
                },
                "weighted_cost": {
                    "iterations": int(self.weighted_enforced.iterations),
                    "converged": bool(self.weighted_enforced.converged),
                },
            },
        }


def flow_result_from_run(run) -> FlowResult:
    """Assemble a :class:`FlowResult` from a pipeline run's artifacts.

    The run must have executed the standard flow stages (any extra
    artifacts from inserted custom stages are simply not part of the
    result object; read them off ``run.artifacts`` directly).
    """
    artifacts = run.artifacts
    return FlowResult(
        omega=artifacts["network"].omega,
        reference_impedance=artifacts["reference_impedance"],
        xi=artifacts["xi"],
        base_weights=artifacts["base_weights"],
        final_weights=artifacts["final_weights"],
        standard_fit=artifacts["standard_fit"],
        weighted_fit=artifacts["weighted_fit"],
        weight_model=artifacts["weight_model"],
        pre_enforcement_report=artifacts["pre_enforcement_report"],
        standard_enforced=artifacts["standard_enforced"],
        weighted_enforced=artifacts["weighted_enforced"],
        accuracy_rows=tuple(artifacts.get("accuracy_rows", ())),
        headline_metrics=dict(artifacts.get("headline_metrics", {})),
        stage_provenance=tuple(run.provenance()),
    )


def run_flow(
    data: NetworkData,
    termination: TerminationNetwork,
    observe_port: int,
    options=None,
    standard_fit: VFResult | None = None,
    *,
    store=None,
    store_stages=None,
) -> FlowResult:
    """Run all stages of the flow; see :class:`FlowResult` for the outputs.

    Module-level (hence picklable) so campaign workers can ship it to
    subprocesses; all state lives in the arguments, which are themselves
    plain-data containers.

    ``options``
        a :class:`repro.api.config.ReproConfig`, ``None`` for the
        defaults, or a bare :class:`FlowOptions` (run with the other
        config sections at their defaults).  This is the one entry that
        accepts the bare flow section; :meth:`repro.api.pipeline.
        Pipeline.run` takes only a ``ReproConfig``.
    ``standard_fit``
        optionally injects a precomputed standard fit of the *same* data
        under the *same* VF options -- the campaign executor shares one
        standard fit across all scenarios of a sweep that reuse the
        scattering data (termination perturbations leave it untouched).
        It must equal what :func:`repro.vectfit.core.vector_fit` would
        compute; :func:`repro.vectfit.core.fit_many` guarantees that
        determinism.  It seeds the ``standard_fit`` artifact (the stage
        is skipped).
    ``store`` / ``store_stages``
        optional :class:`repro.api.artifacts.ArtifactStore` (or a
        directory path for one): stage results are loaded from / saved
        to it by content key, making the run resumable and shareable.
        ``store_stages`` optionally restricts the store to the named
        stages (see :class:`repro.api.pipeline.Pipeline`).
    """
    from repro.api.artifacts import ArtifactStore
    from repro.api.config import ReproConfig
    from repro.api.pipeline import standard_pipeline

    if data.kind != "s":
        raise ValueError("the flow expects scattering data")
    config = ReproConfig(flow=options) if isinstance(options, FlowOptions) else options
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    seed: dict = {
        "network": data,
        "termination": termination,
        "observe_port": int(observe_port),
    }
    if standard_fit is not None:
        seed["standard_fit"] = standard_fit
    pipeline = standard_pipeline(store=store, store_stages=store_stages)
    return flow_result_from_run(pipeline.run(config, seed=seed))
