"""repro: sensitivity-weighted passivity enforcement for PDN macromodels.

Reproduction of A. Ubolli, S. Grivet-Talocia, M. Bandinu, A. Chinea,
"Sensitivity-based weighting for passivity enforcement of linear
macromodels in power integrity applications", DATE 2014.

Public API tour
---------------
* :mod:`repro.pdn` -- synthetic PDN generator (``make_paper_testcase``)
  and termination networks.
* :mod:`repro.vectfit` -- weighted Vector Fitting and Magnitude VF.
* :mod:`repro.sensitivity` -- target impedance (eq. 2), first-order
  sensitivity (eq. 5), sensitivity weight models (eq. 17) and the weighted
  perturbation norm (eqs. 18-21).
* :mod:`repro.passivity` -- Hamiltonian passivity check and iterative
  enforcement (eqs. 8-10).
* :mod:`repro.api` -- the composable pipeline engine: typed stages, the
  content-addressed artifact store, the unified :class:`ReproConfig` and
  the event-observer hooks.  Every execution surface (``run_flow``, the
  CLI, the campaign executor) runs on it.
* :mod:`repro.flow` -- the end-to-end flow (``run_flow``, ``FlowResult``).
* :mod:`repro.campaign` -- parallel scenario-sweep orchestration with
  content-addressed caching and an on-disk result registry.
* :mod:`repro.ingest` -- external Touchstone data conditioning and
  generic termination construction for arbitrary multiport networks.
* :mod:`repro.resilience` -- typed error taxonomy, campaign retry
  policy, NaN/Inf stage guards, and the deterministic fault-injection
  harness behind the solver fallback ladders.
* :mod:`repro.timedomain` -- transient droop simulation of the loaded
  macromodel.
"""

from repro.api import (
    ArtifactStore,
    Pipeline,
    PipelineObserver,
    ReproConfig,
    standard_pipeline,
)
from repro.campaign import (
    CampaignSpec,
    ScenarioSpec,
    run_campaign,
)
from repro.flow.macromodel import (
    FlowOptions,
    FlowResult,
    run_flow,
)
from repro.ingest import (
    ConditioningOptions,
    IngestReport,
    build_termination,
    condition_network,
    load_network,
)
from repro.passivity.check import check_passivity
from repro.passivity.enforce import EnforcementOptions, enforce_passivity
from repro.passivity.engine import CheckerOptions, PassivityChecker
from repro.pdn.termination import TerminationNetwork
from repro.resilience import ReproError, RetryPolicy
from repro.pdn.testcase import (
    PDNTestCase,
    make_paper_testcase,
    make_variant_testcase,
    perturb_termination,
)
from repro.sensitivity.firstorder import (
    sensitivity_analytic,
    sensitivity_monte_carlo,
)
from repro.sensitivity.zpdn import target_impedance, target_impedance_of_model
from repro.sparams.network import NetworkData
from repro.statespace.poleresidue import PoleResidueModel
from repro.vectfit.core import vector_fit
from repro.vectfit.magnitude import fit_magnitude
from repro.vectfit.options import VFOptions

__version__ = "0.1.0"

__all__ = [
    "ArtifactStore",
    "Pipeline",
    "PipelineObserver",
    "ReproConfig",
    "standard_pipeline",
    "CampaignSpec",
    "ScenarioSpec",
    "run_campaign",
    "FlowOptions",
    "FlowResult",
    "run_flow",
    "ConditioningOptions",
    "IngestReport",
    "build_termination",
    "condition_network",
    "load_network",
    "check_passivity",
    "CheckerOptions",
    "PassivityChecker",
    "EnforcementOptions",
    "enforce_passivity",
    "TerminationNetwork",
    "ReproError",
    "RetryPolicy",
    "PDNTestCase",
    "make_paper_testcase",
    "make_variant_testcase",
    "perturb_termination",
    "sensitivity_analytic",
    "sensitivity_monte_carlo",
    "target_impedance",
    "target_impedance_of_model",
    "NetworkData",
    "PoleResidueModel",
    "vector_fit",
    "fit_magnitude",
    "VFOptions",
    "__version__",
]
