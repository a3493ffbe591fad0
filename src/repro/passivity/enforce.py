"""Iterative passivity enforcement by residue perturbation (paper Sec. III).

The loop of paper eq. (9): check passivity, place linearized constraints at
the violation peaks, solve the minimum-perturbation QP under the chosen
norm (standard L2 or sensitivity-weighted), accumulate the perturbation
into the model's residues, repeat until the Hamiltonian test certifies
passivity.  Poles and the constant term D stay fixed.

Every iteration checks its iterate with the Hamiltonian eigenvalue test of
the fast passivity engine (:class:`repro.passivity.engine.PassivityChecker`),
whose invariants are cached across the run.  Reciprocal iterates take the
half-size test, which only steers constraint placement.  A report that
would end the loop as passive is first re-checked by the full-size
Hamiltonian test, so ``report_after`` (and hence ``converged``) always
comes from a full-size certificate; a refuted one continues the loop with
the full-size report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import telemetry as obs
from repro.passivity.check import PassivityReport
from repro.passivity.cost import BlockDiagonalCost
from repro.passivity.engine import PassivityChecker, is_reciprocal
from repro.passivity.perturbation import build_constraints
from repro.passivity.qp import solve_block_qp
from repro.resilience import faultinject
from repro.statespace.poleresidue import PoleResidueModel
from repro.util.logging import get_logger

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class EnforcementOptions:
    """Options for :func:`enforce_passivity`.

    Parameters
    ----------
    max_iterations:
        Iteration cap for the outer perturbation loop (the paper's example
        converges in 9 iterations).
    margin:
        Asymptotic margin: constraints push singular values to
        ``1 - margin`` so roundoff cannot re-violate.  The verdict itself
        is absolute: sigma_max <= 1 everywhere.
    include_threshold:
        Singular values above this are constrained even when below 1,
        preventing the perturbation from lifting safe directions over the
        limit.
    band_samples:
        Dense samples per violation band in the checker.
    dual_ridge:
        Regularization of the dual QP Gram matrix.
    max_relative_step:
        Trust region: each iteration's residue perturbation is scaled down
        so ||delta_c|| <= max_relative_step * ||c||.  The linearization of
        eq. (8) is only locally valid; ill-conditioned weighted costs can
        otherwise request destabilizing steps along nearly-free directions.
    divergence_patience:
        Consecutive non-improving iterations (relative to the best
        certified worst-sigma so far) tolerated before the loop stops
        early and falls back to the best iterate.  Catches diverging and
        oscillating runs without waiting out the iteration cap.
    """

    max_iterations: int = 30
    margin: float = 1e-5
    include_threshold: float = 0.999
    band_samples: int = 50
    dual_ridge: float = 1e-12
    max_relative_step: float = 0.3
    divergence_patience: int = 3

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.divergence_patience < 1:
            raise ValueError("divergence_patience must be at least 1")
        if not (0.0 < self.margin < 0.1):
            raise ValueError("margin must be in (0, 0.1)")
        if not (0.0 < self.include_threshold <= 1.0):
            raise ValueError("include_threshold must be in (0, 1]")


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one enforcement iteration.

    Wall time is not part of the record (equal inputs give equal
    results): each iteration's constraint assembly, QP solve, step and
    check are timed by the ``enforce:constraints``, ``kernel:qp_solve``,
    ``enforce:step`` and ``enforce:check`` telemetry spans.
    """

    iteration: int
    worst_sigma: float
    worst_omega: float
    n_bands: int
    n_constraints: int
    perturbation_cost: float


@dataclass(frozen=True)
class EnforcementResult:
    """Outcome of a passivity-enforcement run.

    ``model`` is the final (hopefully passive) macromodel; ``converged``
    reports whether the full-size Hamiltonian test certified passivity
    within the iteration cap; ``history`` records per-iteration
    diagnostics; ``report_before``/``report_after`` are the initial and
    final passivity reports (a passive one always from the full-size
    test); ``total_delta_c`` is the
    accumulated residue-coefficient perturbation (P, P, N).

    ``recovery`` is ``None`` on a normal run.  When a run fails to
    converge and a *better* certified iterate was seen along the way
    (divergence, oscillation, or an iteration-cap exit past the best
    point), the loop returns that best iterate instead of the last one
    and documents the roll-back here: ``{"mode": "best_iterate",
    "reason": "divergence" | "iteration_cap", "best_iteration": ...,
    "best_worst_sigma": ..., "final_worst_sigma": ...,
    "iterations_run": ...}``.
    """

    model: PoleResidueModel
    converged: bool
    iterations: int
    history: list[IterationRecord] = field(repr=False)
    report_before: PassivityReport = field(repr=False)
    report_after: PassivityReport = field(repr=False)
    total_delta_c: np.ndarray = field(repr=False)
    recovery: dict | None = None


def enforce_passivity(
    model: PoleResidueModel,
    cost: BlockDiagonalCost,
    options: EnforcementOptions | None = None,
    *,
    initial_report: PassivityReport | None = None,
    cost_label: str = "standard",
) -> EnforcementResult:
    """Perturb residues until the scattering model is passive.

    Parameters
    ----------
    model:
        Stable scattering macromodel, possibly with passivity violations.
        Its asymptotic gain sigma_max(D) must be < 1 (residue perturbation
        cannot repair violations at infinite frequency).
    cost:
        Quadratic norm minimized by each perturbation step: the standard
        L2-Gramian cost (:func:`repro.passivity.cost.l2_gramian_cost`) or
        the sensitivity-weighted cost of
        :func:`repro.sensitivity.weighted_norm.sensitivity_weighted_cost`.
    options:
        Loop controls; defaults to :class:`EnforcementOptions()`.
    initial_report:
        Optional precomputed full-size passivity report of ``model``
        (from :func:`repro.passivity.check.check_passivity` with the same
        ``band_samples``); skips the redundant iteration-0 check when the
        caller already ran one.
    cost_label:
        Tag identifying which cost this run minimizes (``"standard"`` /
        ``"weighted"``) in telemetry convergence events.
    """
    options = options or EnforcementOptions()
    if cost.n_ports != model.n_ports:
        raise ValueError("cost and model disagree on port count")
    if cost.n_states != model.element_state_dimension():
        raise ValueError("cost and model disagree on element state dimension")
    asymptotic = float(np.linalg.norm(model.const, 2))
    if asymptotic >= 1.0:
        raise ValueError(
            f"sigma_max(D) = {asymptotic:.6f} >= 1: residue perturbation "
            "cannot enforce passivity at infinite frequency"
        )

    checker = PassivityChecker(model, band_samples=options.band_samples)
    if initial_report is None:
        report_before = checker.check(model)
    else:
        report_before = initial_report
    report = report_before
    # Iteration 0 of the worst-sigma trajectory: the unperturbed model.
    obs.emit(
        "enforce.iteration",
        cost=cost_label,
        iteration=0,
        worst_sigma=report_before.worst_sigma,
        n_bands=len(report_before.bands),
        n_constraints=0,
        working_set=0,
        active_set=0,
    )
    current = model
    # Reciprocal input (the physical PDN case): symmetrized constraint
    # rows make every QP step exactly symmetry-preserving, so all
    # iterates stay eligible for the checker's half-size Hamiltonian
    # test.  First-order constraint semantics are unchanged (the
    # antisymmetric part of a row is orthogonal to symmetric steps).
    reciprocal = is_reciprocal(model)
    total_delta = np.zeros(
        (model.n_ports, model.n_ports, model.element_state_dimension())
    )
    history: list[IterationRecord] = []
    iterations = 0
    # Best-so-far certified iterate (the unperturbed model to begin
    # with): rolled back to when the run ends without converging.
    best_sigma = report_before.worst_sigma
    best_iteration = 0
    best_model = model
    best_delta = total_delta.copy()
    best_report = report_before
    bad_streak = 0
    stop_reason: str | None = None
    while iterations < options.max_iterations and not report.is_passive:
        with obs.span("enforce:constraints"):
            constraints = build_constraints(
                current,
                report.constraint_frequencies(),
                margin=options.margin,
                include_threshold=options.include_threshold,
                symmetric=reciprocal,
            )

        with obs.span("kernel:qp_solve", n_constraints=constraints.n_constraints) as span:
            solution = solve_block_qp(
                cost, constraints, dual_ridge=options.dual_ridge
            )
            span.annotate(working_set=solution.working_set, rounds=solution.rounds)

        with obs.span("enforce:step"):
            base_c = current.element_output_vectors()
            delta_c = solution.delta_c
            step_norm = float(np.linalg.norm(delta_c))
            base_norm = max(float(np.linalg.norm(base_c)), 1e-300)
            if step_norm > options.max_relative_step * base_norm:
                delta_c = delta_c * (options.max_relative_step * base_norm / step_norm)
                _LOG.info(
                    "enforcement: step clipped from %.3e to %.3e (trust region)",
                    step_norm,
                    float(np.linalg.norm(delta_c)),
                )
            delta_c = faultinject.corrupt("enforce.step", delta_c)
            total_delta += delta_c
            current = current.with_element_output_vectors(base_c + delta_c)

        iterations += 1
        # A refuted certificate re-enters the loop with the full-size
        # report's bands.
        with obs.span("enforce:check"):
            report = checker.check(current)

        # Best-iterate bookkeeping: a report below the best sigma so far
        # advances the best iterate; one at or above it is non-improving.
        if report.worst_sigma < best_sigma:
            best_sigma = report.worst_sigma
            best_iteration = iterations
            best_model = current
            best_delta = total_delta.copy()
            best_report = report
            bad_streak = 0
        elif report.worst_sigma >= best_sigma:
            bad_streak += 1

        record = IterationRecord(
            iteration=iterations,
            worst_sigma=report.worst_sigma,
            worst_omega=report.worst_omega,
            n_bands=len(report.bands),
            n_constraints=constraints.n_constraints,
            perturbation_cost=solution.cost,
        )
        history.append(record)
        obs.incr("enforce.iterations")
        obs.emit(
            "enforce.iteration",
            cost=cost_label,
            iteration=iterations,
            worst_sigma=report.worst_sigma,
            n_bands=len(report.bands),
            n_constraints=constraints.n_constraints,
            working_set=solution.working_set,
            active_set=int(np.count_nonzero(solution.dual)),
        )
        _LOG.info(
            "enforcement iter %d: worst sigma %.8f (%d bands, %d constraints)",
            iterations,
            report.worst_sigma,
            len(report.bands),
            constraints.n_constraints,
        )
        if bad_streak >= options.divergence_patience:
            stop_reason = "divergence"
            _LOG.warning(
                "enforcement: no improvement over best sigma %.8f for %d "
                "iterations; stopping early",
                best_sigma,
                bad_streak,
            )
            break

    converged = report.is_passive
    recovery: dict | None = None
    if (
        not converged
        and np.isfinite(best_sigma)
        and best_sigma < report.worst_sigma
    ):
        # Failed run, but a strictly better certified iterate was seen
        # along the way: return that one instead of the diverged tail.
        recovery = {
            "mode": "best_iterate",
            "reason": stop_reason or "iteration_cap",
            "best_iteration": best_iteration,
            "best_worst_sigma": float(best_sigma),
            "final_worst_sigma": float(report.worst_sigma),
            "iterations_run": iterations,
        }
        obs.incr("fallback.best_iterate")
        obs.emit("enforce.recovery", cost=cost_label, **recovery)
        _LOG.warning(
            "enforcement: did not converge; returning best iterate %d "
            "(worst sigma %.8f instead of %.8f)",
            best_iteration,
            best_sigma,
            report.worst_sigma,
        )
        current = best_model
        report = best_report
        total_delta = best_delta

    obs.emit(
        "enforce.finish",
        cost=cost_label,
        iterations=iterations,
        converged=converged,
        worst_sigma=report.worst_sigma,
    )
    return EnforcementResult(
        model=current,
        converged=converged,
        iterations=iterations,
        history=history,
        report_before=report_before,
        report_after=report,
        total_delta_c=total_delta,
        recovery=recovery,
    )
