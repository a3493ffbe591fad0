"""Resilient execution layer: typed failures, fault injection, retries.

Three pillars, consumed across the solver and campaign layers:

* :mod:`repro.resilience.errors` -- the structured :class:`ReproError`
  taxonomy whose ``error_code`` strings land in run records, manifests
  and telemetry;
* :mod:`repro.resilience.retry` -- the campaign
  :class:`RetryPolicy` (max retries, deterministic exponential backoff,
  retry budget, per-scenario timeout);
* :mod:`repro.resilience.faultinject` -- the deterministic
  fault-injection harness that proves the solver fallback ladders and
  retry paths end-to-end (activated via the ``REPRO_FAULT_PLAN``
  environment variable so it crosses process boundaries into campaign
  workers).

The solver fallback ladders themselves live next to the solvers they
guard (batched VF kernel -> reference kernel in
:mod:`repro.vectfit.core`, half-size -> full-size Hamiltonian certificate
in :mod:`repro.passivity.engine`, structured QP -> Tikhonov rungs ->
dense dual in :mod:`repro.passivity.qp`); each attempt increments a
``fallback.*`` telemetry counter.
"""

from repro.resilience.errors import (
    CheckerError,
    FitDivergedError,
    IngestError,
    QPInfeasibleError,
    ReproError,
    StageOutputError,
    StageTimeoutError,
    WorkerCrashError,
    error_code_of,
    stage_of,
)
from repro.resilience.faultinject import FaultSpec, InjectedFault, fault_plan
from repro.resilience.guards import ensure_finite_outputs, nonfinite_in
from repro.resilience.retry import RetryPolicy, jitter_fraction

__all__ = [
    "CheckerError",
    "FaultSpec",
    "FitDivergedError",
    "IngestError",
    "InjectedFault",
    "QPInfeasibleError",
    "ReproError",
    "RetryPolicy",
    "StageOutputError",
    "StageTimeoutError",
    "WorkerCrashError",
    "ensure_finite_outputs",
    "error_code_of",
    "fault_plan",
    "jitter_fraction",
    "nonfinite_in",
    "stage_of",
]
