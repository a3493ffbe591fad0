"""Passivity checking for scattering pole-residue macromodels.

A stable scattering model is passive iff sigma_max(S(j omega)) <= 1 for all
omega.  The check combines:

1. the Hamiltonian eigenvalue test (paper ref. [14]): purely imaginary
   eigenvalues of the Hamiltonian matrix mark the frequencies where some
   singular value crosses 1, delimiting candidate violation bands;
2. adaptive sampling inside each candidate band to locate the worst
   singular value and its frequency (used both for reporting, paper Fig. 4,
   and to place the linearized constraints of the enforcement loop).

The band-refinement stage is shared with the stateful fast engine
(:mod:`repro.passivity.engine`), which reuses :func:`report_from_crossings`
with crossings obtained from cached Hamiltonian invariants.
:func:`check_passivity` is the full-size test that certifies a model;
the engine's half-size test is cheaper but only steers enforcement.

Every sigma_max sweep (band midpoints, band refinement, the sampling-only
check) goes through one kernel,
:func:`repro.util.linalg.max_singular_values`: the largest eigenvalue of
each Gram matrix S^H S, which is about 1.5x cheaper than an SVD and agrees
with it to O(n eps).  The sigma values only feed argmax and threshold
decisions, never the enforcement QP.  Crossing verification
(:mod:`repro.statespace.hamiltonian`) needs every singular value and keeps
its SVD.  The flow's pre-enforcement report and each passing enforcement
report are full-size certificates, so validation reads their verdicts
instead of checking those models again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import telemetry as obs
from repro.statespace.hamiltonian import imaginary_eigenvalue_frequencies
from repro.statespace.poleresidue import PoleResidueModel
from repro.util.linalg import max_singular_values


@dataclass(frozen=True)
class ViolationBand:
    """One frequency band where sigma_max(S) exceeds 1."""

    omega_low: float
    omega_high: float
    omega_peak: float
    sigma_peak: float

    def __str__(self) -> str:
        return (
            f"[{self.omega_low / (2 * np.pi):.4g}, "
            f"{self.omega_high / (2 * np.pi):.4g}] Hz, "
            f"peak sigma={self.sigma_peak:.6f} at "
            f"{self.omega_peak / (2 * np.pi):.4g} Hz"
        )


@dataclass(frozen=True)
class PassivityReport:
    """Result of a passivity check."""

    is_passive: bool
    worst_sigma: float
    worst_omega: float
    crossings: np.ndarray
    bands: list[ViolationBand] = field(default_factory=list)
    asymptotic_gain: float = 0.0  # sigma_max(D)

    def constraint_frequencies(self) -> np.ndarray:
        """Frequencies at which enforcement constraints should be placed.

        Peak of each violation band plus its edges (nudged inside), which
        stabilizes the linearized iteration on wide bands.
        """
        freqs: list[float] = []
        for band in self.bands:
            freqs.append(band.omega_peak)
            span = band.omega_high - band.omega_low
            if span > 0.0:
                freqs.append(band.omega_low + 0.25 * span)
                freqs.append(band.omega_low + 0.75 * span)
        return np.unique(np.asarray(freqs))


def _sigma_max(model: PoleResidueModel, omega: np.ndarray) -> np.ndarray:
    """sigma_max(S(j omega)) on a frequency grid: every sweep of the checker."""
    with obs.span("kernel:sigma_sweep", n=int(omega.size)):
        return max_singular_values(model.frequency_response(omega))


def asymptotic_violation_report(
    model: PoleResidueModel, asymptotic: float
) -> PassivityReport:
    """Report for sigma_max(D) >= 1: violated at infinite frequency.

    No finite band structure is meaningful and C-perturbation cannot
    repair D.
    """
    return PassivityReport(
        is_passive=False,
        worst_sigma=asymptotic,
        worst_omega=np.inf,
        crossings=np.zeros(0),
        bands=[],
        asymptotic_gain=asymptotic,
    )


def bands_from_sigma_samples(
    omega: np.ndarray, sigma: np.ndarray
) -> list[ViolationBand]:
    """Extract contiguous sigma > 1 runs of a sampled sweep as bands."""
    violating = sigma > 1.0
    bands: list[ViolationBand] = []
    start = None
    for k in range(omega.size):
        if violating[k] and start is None:
            start = k
        if start is not None and (not violating[k] or k == omega.size - 1):
            end = k if violating[k] else k - 1
            peak = start + int(np.argmax(sigma[start : end + 1]))
            bands.append(
                ViolationBand(
                    omega_low=float(omega[start]),
                    omega_high=float(omega[end]),
                    omega_peak=float(omega[peak]),
                    sigma_peak=float(sigma[peak]),
                )
            )
            start = None
    return bands


def check_passivity_sampling(
    model: PoleResidueModel,
    omega: np.ndarray,
) -> PassivityReport:
    """Sampling-only passivity check (no Hamiltonian).

    Sweeps sigma_max(S(j omega)) on the provided grid and reports
    violations.  Cheaper but *not* conclusive: violations between grid
    points are missed -- exactly why the Hamiltonian test exists.  Kept
    for cross-validation against the Hamiltonian test.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 1 or omega.size < 2:
        raise ValueError("need a one-dimensional grid of at least 2 points")
    sigma = _sigma_max(model, omega)
    worst = int(np.argmax(sigma))
    bands = bands_from_sigma_samples(omega, sigma)
    return PassivityReport(
        is_passive=not bands,
        worst_sigma=float(sigma[worst]),
        worst_omega=float(omega[worst]),
        crossings=np.zeros(0),
        bands=bands,
        asymptotic_gain=float(np.linalg.norm(model.const, 2)),
    )


def report_from_crossings(
    model: PoleResidueModel,
    crossings: np.ndarray,
    *,
    omega_cap: float,
    band_samples: int = 50,
    asymptotic: float | None = None,
) -> PassivityReport:
    """Build a certified passivity report from Hamiltonian crossings.

    Candidate intervals lie between consecutive crossings (plus the two
    half-open ends); a band is violating when sigma_max > 1 at its
    geometric midpoint, and each violating band is refined by dense
    sampling.  All midpoint and refinement evaluations are batched into
    two vectorized sweeps.
    """
    if asymptotic is None:
        asymptotic = float(np.linalg.norm(model.const, 2))
    edges = np.concatenate(([0.0], np.asarray(crossings, float), [omega_cap]))
    lows, highs = edges[:-1], edges[1:]
    valid = highs > lows
    lows, highs = lows[valid], highs[valid]
    mids = np.sqrt(np.maximum(lows, highs * 1e-9) * highs)
    sigma_mid = _sigma_max(model, mids) if mids.size else np.zeros(0)

    worst_sigma = 0.0
    worst_omega = 0.0
    if mids.size:
        k = int(np.argmax(sigma_mid))
        worst_sigma, worst_omega = float(sigma_mid[k]), float(mids[k])

    violating = sigma_mid > 1.0
    bands: list[ViolationBand] = []
    if np.any(violating):
        v_lows = lows[violating]
        v_highs = highs[violating]
        # Dense refinement grid of every violating band, one batched sweep.
        grid_lows = np.where(
            v_lows <= 0.0, np.minimum(1e-3, v_highs * 1e-6), v_lows
        )
        grids = np.geomspace(grid_lows, v_highs, band_samples, axis=1)
        sigma_grid = _sigma_max(model, grids.reshape(-1)).reshape(
            grids.shape
        )
        best = np.argmax(sigma_grid, axis=1)
        rows = np.arange(best.size)
        sigma_peaks = sigma_grid[rows, best]
        omega_peaks = grids[rows, best]
        k = int(np.argmax(sigma_peaks))
        if sigma_peaks[k] > worst_sigma:
            worst_sigma = float(sigma_peaks[k])
            worst_omega = float(omega_peaks[k])
        bands = [
            ViolationBand(
                omega_low=float(lo),
                omega_high=float(hi),
                omega_peak=float(peak),
                sigma_peak=float(sig),
            )
            for lo, hi, peak, sig in zip(
                v_lows, v_highs, omega_peaks, sigma_peaks
            )
        ]

    return PassivityReport(
        is_passive=not bands and worst_sigma <= 1.0,
        worst_sigma=worst_sigma,
        worst_omega=worst_omega,
        crossings=np.asarray(crossings, float),
        bands=bands,
        asymptotic_gain=asymptotic,
    )


def default_omega_cap(model: PoleResidueModel) -> float:
    """Upper angular frequency of the half-open band above the last
    crossing: 10x the largest pole magnitude."""
    pole_scale = float(np.max(np.abs(model.poles)))
    return 10.0 * max(pole_scale, 1.0)


def check_passivity(
    model: PoleResidueModel,
    *,
    band_samples: int = 50,
    omega_cap: float | None = None,
) -> PassivityReport:
    """Assess passivity of a scattering pole-residue macromodel.

    Parameters
    ----------
    model:
        Stable pole-residue macromodel.
    band_samples:
        Dense samples used to refine each violation band.
    omega_cap:
        Upper angular frequency for the half-open band above the last
        crossing; defaults to 10x the largest pole magnitude.
    """
    if not model.is_stable():
        raise ValueError("passivity check requires a stable model")
    asymptotic = float(np.linalg.norm(model.const, 2))
    if asymptotic >= 1.0:
        return asymptotic_violation_report(model, asymptotic)

    # Crossing candidates come from the state-space Hamiltonian; their
    # verification reuses the (mathematically identical, much cheaper)
    # pole-residue response instead of dense state-space solves.
    state_space = model.to_state_space()
    crossings = imaginary_eigenvalue_frequencies(
        state_space, gamma=1.0, response_fn=model.frequency_response
    )
    if omega_cap is None:
        omega_cap = default_omega_cap(model)
    return report_from_crossings(
        model,
        crossings,
        omega_cap=omega_cap,
        band_samples=band_samples,
        asymptotic=asymptotic,
    )
