"""Fast passivity engine: a stateful checker with cached invariants.

Passivity enforcement (paper eq. 9) calls the passivity checker once per
iteration, but only the residues (the C matrix of the Gilbert realization)
change between calls -- poles, D, and therefore A, B and the R/S blocks of
the Hamiltonian matrix are invariant across the whole run.
:class:`PassivityChecker` is constructed once per enforcement run and
caches all of that, so each exact check is reduced to three small matrix
products plus the unavoidable eigendecomposition.

On top of the cached exact test the checker offers a *sampling* mode in
the spirit of the multi-stage adaptive-sampling scheme of De Stefano et
al. (arXiv:2011.02789) and the band-tracking perturbation scheme of
Grivet-Talocia (arXiv:1706.06395): a frequency grid warm-started from the
previous check's crossings and violation bands is swept and locally
refined where sigma_max approaches 1.  Sampling is cheap but *not
conclusive* (violations strictly between grid points can be missed), so
the enforcement loop uses it only for intermediate iterations and always
finishes with an exact Hamiltonian certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import telemetry as obs
from repro.passivity.check import (
    PassivityReport,
    _sigma_max,
    asymptotic_violation_report,
    bands_from_sigma_samples,
    default_omega_cap,
    report_from_crossings,
)
from repro.resilience import faultinject
from repro.resilience.errors import CheckerError, ReproError
from repro.statespace.hamiltonian import (
    half_size_crossings,
    half_size_from_invariants,
    half_size_invariants,
    hamiltonian_from_invariants,
    hamiltonian_invariants,
    imaginary_crossings,
)
from repro.statespace.poleresidue import PoleResidueModel

_KNOWN_POINTS_CAP = 256

#: Relative symmetry defect below which a model counts as reciprocal --
#: the half-size test's sigma error is O(defect), far inside the 1e-4
#: crossing-verification tolerance.
_RECIPROCAL_RTOL = 1e-8


def _symmetry_defect(matrix: np.ndarray) -> float:
    """Relative distance of (each slice of) ``matrix`` from symmetry."""
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    if scale == 0.0:
        return 0.0
    if matrix.ndim == 2:
        defect = float(np.max(np.abs(matrix - matrix.T)))
    else:
        defect = float(np.max(np.abs(matrix - matrix.transpose(0, 2, 1))))
    return defect / scale


def is_reciprocal(model: PoleResidueModel, *, rtol: float = _RECIPROCAL_RTOL) -> bool:
    """Whether the model's response matrix is symmetric (S = S^T)."""
    return (
        _symmetry_defect(model._const) <= rtol
        and _symmetry_defect(model._residues) <= rtol
    )


@dataclass(frozen=True)
class CheckerOptions:
    """Configuration of the fast passivity engine.

    Parameters
    ----------
    strategy:
        ``"fast"`` runs the cheap sampling check for intermediate
        enforcement iterations (exact Hamiltonian test at iteration 0,
        every ``exact_every``-th iteration, and for the final
        certificate); ``"exact"`` runs the Hamiltonian test every
        iteration (the pre-engine behavior, still with cached
        invariants).
    exact_every:
        Cadence of interleaved exact checks in fast mode; ``0`` disables
        interleaving (exact only at iteration 0 and for certification).
    base_grid_points:
        Log-spaced backbone of the sampling grid.
    refine_stages / refine_points:
        Multi-stage local refinement: per stage, up to ``refine_points``
        extra samples are inserted into each interval that brackets or
        approaches a violation.
    max_grid_points:
        Hard cap on the sampling grid size.
    """

    strategy: str = "fast"
    exact_every: int = 5
    base_grid_points: int = 192
    refine_stages: int = 3
    refine_points: int = 24
    max_grid_points: int = 4096

    def __post_init__(self) -> None:
        if self.strategy not in ("fast", "exact"):
            raise ValueError("strategy must be 'fast' or 'exact'")
        if self.exact_every < 0:
            raise ValueError("exact_every must be non-negative")
        if self.base_grid_points < 16:
            raise ValueError("base_grid_points must be at least 16")
        if self.refine_stages < 1:
            raise ValueError("refine_stages must be at least 1")
        if self.refine_points < 4:
            raise ValueError("refine_points must be at least 4")
        if self.max_grid_points < self.base_grid_points:
            raise ValueError("max_grid_points must cover the base grid")


class PassivityChecker:
    """Stateful passivity checker for one enforcement run.

    Construction caches everything invariant under residue perturbation:
    the Gilbert realization scaffolding (A, B; only C changes per
    iteration), the R/S-derived Hamiltonian blocks, ``omega_cap``, and an
    adaptive sampling grid warm-started from each check's crossings and
    violation bands.  All subsequent checks must be called with models
    sharing the constructor model's poles and constant term.
    """

    def __init__(
        self,
        model: PoleResidueModel,
        *,
        band_samples: int = 50,
        omega_cap: float | None = None,
        options: CheckerOptions | None = None,
    ) -> None:
        if not model.is_stable():
            raise ValueError("passivity checking requires a stable model")
        self.options = options or CheckerOptions()
        self.band_samples = band_samples
        self._poles = model.poles
        self._const = model.const
        self._asymptotic = float(np.linalg.norm(self._const, 2))
        self.omega_cap = (
            omega_cap if omega_cap is not None else default_omega_cap(model)
        )
        pole_mags = np.abs(self._poles)
        pole_mags = pole_mags[pole_mags > 0.0]
        floor = (
            1e-2 * float(np.min(pole_mags))
            if pole_mags.size
            else 1e-9 * self.omega_cap
        )
        self._omega_floor = min(max(floor, 1e-300), self.omega_cap * 1e-3)

        self._invariants = None
        self._half_invariants = None
        if self._asymptotic < 1.0:
            a_e, b_e = model.element_dynamics()
            eye = np.eye(model.n_ports)
            a = np.kron(a_e, eye)
            b = np.kron(b_e[:, None], eye)
            self._invariants = hamiltonian_invariants(
                a, b, self._const, gamma=1.0,
            )
            if _symmetry_defect(self._const) <= _RECIPROCAL_RTOL:
                # Reciprocal family (symmetric D): cache the half-size
                # factors too; whether a given iterate may use them is
                # re-decided per check from its residue symmetry.
                try:
                    self._half_invariants = half_size_invariants(
                        a, b, self._const, gamma=1.0,
                    )
                except ValueError:
                    self._half_invariants = None
        self._known_points = np.zeros(0)
        #: Path the last :meth:`check` took (see there); empty before.
        self.last_mode = ""
        self.n_exact_checks = 0
        self.n_sampling_checks = 0
        self.n_half_size_checks = 0

    # ------------------------------------------------------------------
    # Strategy
    # ------------------------------------------------------------------
    def use_exact(self, iteration: int | None) -> bool:
        """Whether enforcement iteration ``iteration`` gets an exact check."""
        if self.options.strategy == "exact" or iteration is None:
            return True
        if iteration == 0:
            return True
        every = self.options.exact_every
        return every > 0 and iteration % every == 0

    def check(
        self, model: PoleResidueModel, *, iteration: int | None = None
    ) -> PassivityReport:
        """Strategy-dispatched check whose verdict is always certified.

        Dispatches to the exact or sampling check per :meth:`use_exact`;
        a *passing* sampling sweep is never trusted on its own -- it is
        immediately confirmed (or refuted) by the exact Hamiltonian
        test, so an ``is_passive=True`` report from this method is
        always an exact certificate (the sample-then-certify scheme of
        arXiv:2011.02789).  A sampling sweep that fails outright
        (non-finite sigma, poisoned grid) escalates to the exact check
        as well -- the fast path is an accelerator, never a correctness
        dependency.  Each escalation, and each passing sweep the exact
        test refutes, increments the ``fallback.checker_exact`` counter.

        :attr:`last_mode` records the path taken: ``"exact"``,
        ``"sampling"`` (a failing sweep, the only non-exact report),
        ``"sampling>exact"`` (escalated) or ``"sampling+certify"``.
        """
        if self.use_exact(iteration):
            self.last_mode = "exact"
            return self.check_exact(model)
        try:
            report = self.check_sampling(model)
        except ReproError:
            obs.incr("fallback.checker_exact")
            self.last_mode = "sampling>exact"
            return self.check_exact(model)
        # A sampling report is passive iff its worst sigma <= 1 (bands
        # exist only where sigma > 1), and so is an exact one.
        if not report.is_passive:
            self.last_mode = "sampling"
            return report
        self.last_mode = "sampling+certify"
        exact = self.check_exact(model)
        if not exact.is_passive:
            # Sampling-grid disagreement: the sweep missed a violation
            # strictly between grid points.
            obs.incr("fallback.checker_exact")
        return exact

    # ------------------------------------------------------------------
    # Exact (certifying) mode
    # ------------------------------------------------------------------
    def check_exact(self, model: PoleResidueModel) -> PassivityReport:
        """Exact Hamiltonian test using the cached invariant blocks.

        Equivalent to :func:`repro.passivity.check.check_passivity` (same
        crossings, bands and worst singular value) at a fraction of the
        per-call setup cost.  Reciprocal iterates (symmetric residues and
        constant term, the physical PDN case) take the half-size
        structured test -- an n x n eigensolve instead of 2n x 2n; any
        iterate that drifted off symmetry falls back to the full
        Hamiltonian, so the certificate never depends on reciprocity.
        """
        self._validate(model)
        self.n_exact_checks += 1
        obs.incr("checker.exact_checks")
        if self._asymptotic >= 1.0:
            return asymptotic_violation_report(model, self._asymptotic)
        use_half = (
            self._half_invariants is not None
            and _symmetry_defect(model._residues) <= _RECIPROCAL_RTOL
        )
        if use_half:
            self.n_half_size_checks += 1
            m = half_size_from_invariants(
                self._half_invariants, model.full_output_matrix()
            )
        else:
            m = hamiltonian_from_invariants(
                self._invariants, model.full_output_matrix()
            )
        with obs.span(
            "kernel:hamiltonian_eig", n=int(m.shape[0]),
            half_size=bool(use_half),
        ):
            try:
                if use_half:
                    crossings = half_size_crossings(
                        m, model.frequency_response, 1.0
                    )
                else:
                    crossings = imaginary_crossings(
                        m, model.frequency_response, 1.0
                    )
            except np.linalg.LinAlgError as exc:
                raise CheckerError(
                    f"Hamiltonian eigendecomposition failed: {exc}",
                    stage="enforcement",
                ) from exc
        report = report_from_crossings(
            model,
            crossings,
            omega_cap=self.omega_cap,
            band_samples=self.band_samples,
            asymptotic=self._asymptotic,
        )
        self._remember(report)
        return report

    # ------------------------------------------------------------------
    # Sampling (fast, non-certifying) mode
    # ------------------------------------------------------------------
    def check_sampling(self, model: PoleResidueModel) -> PassivityReport:
        """Adaptive sampling sweep seeded by previously-seen violations.

        Multi-stage: a log-spaced backbone grid, augmented with clusters
        around every crossing/band remembered from earlier checks, is
        swept and then locally refined wherever sigma_max brackets or
        approaches 1.  Not conclusive on its own -- the enforcement loop
        certifies with :meth:`check_exact` before declaring success.
        """
        self._validate(model)
        self.n_sampling_checks += 1
        obs.incr("checker.sampling_checks")
        if self._asymptotic >= 1.0:
            return asymptotic_violation_report(model, self._asymptotic)
        omega = self.seed_grid()
        seed_size = int(omega.size)
        stages_run = 0
        sigma = faultinject.corrupt(
            "checker.sampling", _sigma_max(model, omega)
        )
        for _ in range(self.options.refine_stages):
            if omega.size >= self.options.max_grid_points:
                break
            fresh = self._refinement_points(omega, sigma)
            if fresh.size == 0:
                break
            stages_run += 1
            sigma_fresh = _sigma_max(model, fresh)
            omega = np.concatenate([omega, fresh])
            sigma = np.concatenate([sigma, sigma_fresh])
            order = np.argsort(omega)
            omega, sigma = omega[order], sigma[order]
        if not np.isfinite(sigma).all():
            raise CheckerError(
                "sampling sweep produced non-finite singular values",
                stage="enforcement",
            )
        worst = int(np.argmax(sigma))
        bands = bands_from_sigma_samples(omega, sigma)
        obs.emit(
            "checker.sampling",
            seed_grid=seed_size,
            final_grid=int(omega.size),
            stages=stages_run,
            violations=len(bands),
        )
        report = PassivityReport(
            is_passive=not bands and float(sigma[worst]) <= 1.0,
            worst_sigma=float(sigma[worst]),
            worst_omega=float(omega[worst]),
            crossings=np.zeros(0),
            bands=bands,
            asymptotic_gain=self._asymptotic,
        )
        self._remember(report)
        return report

    # ------------------------------------------------------------------
    # Grid management
    # ------------------------------------------------------------------
    def seed_grid(self) -> np.ndarray:
        """Sampling grid: log backbone + clusters at remembered violations.

        Every remembered point (crossing, band edge, band peak) gets a
        tight relative cluster, and geometric midpoints of consecutive
        remembered points are added so a band delimited by two crossings
        always has an interior sample.
        """
        base = np.geomspace(
            self._omega_floor, self.omega_cap, self.options.base_grid_points
        )
        parts = [base]
        known = self._known_points
        known = known[(known > 0.0) & np.isfinite(known)]
        if known.size:
            known = np.clip(known, self._omega_floor, self.omega_cap)
            spread = np.geomspace(1.0 / 1.06, 1.06, 7)
            parts.append((known[:, None] * spread[None, :]).reshape(-1))
            ordered = np.unique(known)
            if ordered.size > 1:
                parts.append(np.sqrt(ordered[:-1] * ordered[1:]))
        omega = np.unique(np.concatenate(parts))
        omega = omega[(omega > 0.0) & (omega <= self.omega_cap)]
        if omega.size > self.options.max_grid_points:
            stride = int(np.ceil(omega.size / self.options.max_grid_points))
            omega = omega[::stride]
        return omega

    def _refinement_points(
        self, omega: np.ndarray, sigma: np.ndarray
    ) -> np.ndarray:
        """Interior points for intervals that bracket or approach sigma=1."""
        hot = sigma > 1.0
        near = sigma > 0.97
        # Refine an interval when either endpoint violates (band interior
        # or edge) -- catches crossings strictly between samples too.
        flagged = hot[:-1] | hot[1:]
        # Sharpen the global peak even when still below 1.
        peak = int(np.argmax(sigma))
        if near[peak]:
            if peak > 0:
                flagged[peak - 1] = True
            if peak < flagged.size:
                flagged[min(peak, flagged.size - 1)] = True
        ratio = omega[1:] / np.maximum(omega[:-1], 1e-300)
        flagged &= ratio > 1.0 + 1e-9  # already converged intervals
        idx = np.nonzero(flagged)[0]
        if idx.size == 0:
            return np.zeros(0)
        lows, highs = omega[idx], omega[idx + 1]
        k = self.options.refine_points
        interior = np.geomspace(lows, highs, k + 2, axis=1)[:, 1:-1]
        fresh = np.unique(interior.reshape(-1))
        budget = self.options.max_grid_points - omega.size
        if fresh.size > budget:
            stride = int(np.ceil(fresh.size / max(budget, 1)))
            fresh = fresh[::stride]
        return fresh

    def seed(self, report: PassivityReport) -> None:
        """Warm-start the sampling grid from an externally computed report
        (e.g. a :func:`repro.passivity.check.check_passivity` result the
        caller already paid for)."""
        self._remember(report)

    def _remember(self, report: PassivityReport) -> None:
        """Warm-start state: keep this report's crossings/bands (plus the
        previous generation, capped) for the next sampling grid."""
        parts = [np.asarray(report.crossings, float)]
        for band in report.bands:
            parts.append(
                np.array([band.omega_low, band.omega_high, band.omega_peak])
            )
        if np.isfinite(report.worst_omega) and report.worst_omega > 0.0:
            parts.append(np.array([report.worst_omega]))
        fresh = np.unique(np.concatenate(parts)) if parts else np.zeros(0)
        merged = np.unique(np.concatenate([fresh, self._known_points]))
        self._known_points = merged if merged.size <= _KNOWN_POINTS_CAP else fresh

    # ------------------------------------------------------------------
    def _validate(self, model: PoleResidueModel) -> None:
        if not np.array_equal(model._poles, self._poles) or not np.array_equal(
            model._const, self._const
        ):
            raise ValueError(
                "PassivityChecker invariants were built for a different "
                "model family (poles or constant term changed); construct "
                "a new checker"
            )
