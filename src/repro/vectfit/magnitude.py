"""Magnitude Vector Fitting (paper refs. [24]-[25], used for eq. 17).

Given magnitude-only samples m_k = |H(j omega_k)| the algorithm fits the
*squared* magnitude with a rational function that is symmetric in s <-> -s,

    G(s) = H(s) H(-s) = sum_m r_m / (q_m^2 - s^2) + d ,        (paper eq. 17)

and then extracts the stable, minimum-phase spectral factor H(s).

Implementation: substitute x = omega^2 (so s^2 = -x on the imaginary axis).
Each term r/(q^2 - s^2) becomes r/(q^2 + x): a real rational function of x
with a real pole at x = -q^2 < 0.  Fitting G is therefore ordinary vector
fitting with *real* poles on real non-negative data, with relocated poles
projected back onto the negative real x-axis.  The spectral factor's poles
are -q_m = -sqrt(-x_m) and its zeros come from the numerator roots of the
fitted G mapped through zeta = sqrt(-z_x) into the left half plane.

Numerically delicate points handled here:

* relocated x-poles can turn complex or positive -> projected to -|x|;
* the asymptotic constant d must be positive for sqrt(d) to exist -> if
  the unconstrained fit gives d <= 0 the residue step is repeated with d
  clamped to a small positive value;
* numerator roots with positive real x (zeros at real frequencies, where
  G would change sign) are reflected to the negative axis, which perturbs
  the response only locally -- the paper likewise tolerates local mismatch
  ("we did not care of matching the spike around 0.5-1 GHz").

All least-squares solves go through the shared equilibrated kernels of
:mod:`repro.vectfit.kernels` (the same ones driving the batched matrix-VF
hot path), so the eq. 17 weight-model fit inherits their conditioning
behaviour and stays off bespoke per-call LAPACK dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.statespace.system import StateSpaceModel
from repro.util.logging import get_logger
from repro.util.validation import check_frequency_grid
from repro.vectfit import kernels

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class MagnitudeFitResult:
    """Outcome of :func:`fit_magnitude`.

    Attributes
    ----------
    model:
        Stable minimum-phase SISO state-space model H(s) with
        |H(j omega_k)| approximating the magnitude samples.
    poles:
        Poles of H (negative real).
    zeros:
        Zeros of H (left half plane).
    gain:
        Asymptotic gain sqrt(d) = |H(j inf)|.
    rms_db_error:
        RMS magnitude error in dB over the (positive-magnitude) samples.
    max_db_error:
        Maximum magnitude error in dB.
    iterations:
        Pole-relocation iterations performed.
    """

    model: StateSpaceModel
    poles: np.ndarray
    zeros: np.ndarray
    gain: float
    rms_db_error: float
    max_db_error: float
    iterations: int


def _initial_x_poles(x: np.ndarray, n_poles: int) -> np.ndarray:
    positive = x[x > 0.0]
    lo, hi = float(positive.min()), float(positive.max())
    return -np.logspace(np.log10(lo), np.log10(hi), n_poles)


def _x_basis(x: np.ndarray, poles_x: np.ndarray) -> np.ndarray:
    return 1.0 / (x[:, None] - poles_x[None, :])


def _relocate_real(
    x: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    poles_x: np.ndarray,
    *,
    min_sigma_d: float = 1e-8,
) -> np.ndarray:
    """One relaxed-VF pole relocation in the real x-domain."""
    n = poles_x.size
    phi = _x_basis(x, poles_x)
    # Unknowns: [c (n), d (1), c_sigma (n), d_sigma (1)]
    a = np.empty((x.size, 2 * n + 2))
    a[:, :n] = phi * w[:, None]
    a[:, n] = w
    a[:, n + 1 : 2 * n + 1] = -(g * w)[:, None] * phi
    a[:, 2 * n + 1] = -(g * w)
    rhs = np.zeros(x.size)
    # Relaxation row: average sigma value pinned to 1.
    scale = float(np.linalg.norm(g * w)) / max(x.size, 1)
    relax = np.zeros(2 * n + 2)
    relax[n + 1 : 2 * n + 1] = np.sum(phi, axis=0)
    relax[2 * n + 1] = x.size
    a = np.vstack([a, scale * relax])
    rhs = np.concatenate([rhs, [scale * x.size]])

    solution = kernels.scaled_lstsq(a, rhs)
    c_sigma = solution[n + 1 : 2 * n + 1]
    d_sigma = float(solution[2 * n + 1])
    if abs(d_sigma) < min_sigma_d:
        d_sigma = min_sigma_d if d_sigma >= 0.0 else -min_sigma_d
    zeros = np.linalg.eigvals(
        np.diag(poles_x) - np.outer(np.ones(n), c_sigma) / d_sigma
    )
    # Project onto the negative real x-axis (poles of a magnitude-squared
    # function must sit at x = -q^2).
    projected = -np.abs(zeros)
    projected = np.where(projected == 0.0, -np.min(np.abs(x[x > 0])), projected)
    return _separate_close(np.sort(projected.real))


def _separate_close(poles_x: np.ndarray, rel_gap: float = 1e-6) -> np.ndarray:
    """Nudge apart (near-)coincident negative real poles to keep bases full rank."""
    out = np.sort(np.asarray(poles_x, dtype=float))  # ascending: most negative first
    for i in range(1, out.size):
        min_sep = rel_gap * max(abs(out[i - 1]), 1e-300)
        if out[i] - out[i - 1] < min_sep:
            out[i] = out[i - 1] + min_sep
        if out[i] >= 0.0:
            out[i] = -min_sep
    return out


def _fit_residues_real(
    x: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    poles_x: np.ndarray,
    *,
    d_floor: float,
) -> tuple[np.ndarray, float]:
    """Weighted LS for residues and constant; re-solves with d clamped if d <= 0."""
    phi = _x_basis(x, poles_x)
    a = np.column_stack([phi * w[:, None], w])
    rhs = g * w
    solution = kernels.scaled_lstsq(a, rhs)
    residues, d = solution[:-1], float(solution[-1])
    if d <= 0.0:
        d = d_floor
        residues = kernels.scaled_lstsq(phi * w[:, None], rhs - d * w)
        _LOG.debug("magnitude fit: constant term clamped to %.3e", d)
    return residues, d


def _numerator_roots(poles_x: np.ndarray, residues: np.ndarray, d: float) -> np.ndarray:
    """Roots (in x) of the numerator of g(x) = sum r/(x - x_m) + d."""
    numerator = d * np.poly(poles_x)
    for m in range(poles_x.size):
        others = np.delete(poles_x, m)
        numerator = np.polyadd(numerator, residues[m] * np.poly(others))
    return np.roots(numerator)


def _spectral_zeros(roots_x: np.ndarray) -> np.ndarray:
    """Map numerator roots z_x to minimum-phase s-domain zeros -zeta.

    zeta = sqrt(-z_x) with Re zeta >= 0; positive-real roots (which would
    put zeros on the imaginary axis) are reflected to the negative axis.
    """
    zeros = []
    for z in roots_x:
        if abs(z.imag) <= 1e-9 * max(abs(z), 1e-300):
            value = z.real
            if value > 0.0:
                value = -value  # reflect: G dipped through zero locally
            zeros.append(-np.sqrt(-value))
        else:
            zeta = np.sqrt(-z)
            if zeta.real < 0.0:
                zeta = -zeta
            zeros.append(-zeta)
    return np.asarray(zeros, dtype=complex)


def _partial_fractions(
    zeros: np.ndarray, poles: np.ndarray, gain: float
) -> tuple[np.ndarray, float]:
    """Residues of gain * prod(s - zeros)/prod(s - poles) at simple real poles."""
    numerators = gain * np.prod(poles[:, None] - zeros[None, :], axis=1)
    gaps = poles[:, None] - poles[None, :]
    np.fill_diagonal(gaps, 1.0)
    denominators = np.prod(gaps, axis=1)
    return (numerators / denominators).real, gain


def fit_magnitude(
    omega: np.ndarray,
    magnitude: np.ndarray,
    n_poles: int = 8,
    *,
    n_iterations: int = 30,
    weighting: str = "relative",
    relative_floor: float = 1e-12,
) -> MagnitudeFitResult:
    """Fit a stable minimum-phase SISO model to magnitude-only samples.

    Parameters
    ----------
    omega:
        Angular frequencies (rad/s); a DC point is allowed.
    magnitude:
        Non-negative magnitude samples |H(j omega_k)| (the paper's Xi_k).
    n_poles:
        Order of the spectral factor (the paper uses n_w = 8).
    n_iterations:
        Pole-relocation iterations in the x-domain.
    weighting:
        "relative" (default; balances the fit across decades, i.e. a dB
        fit, which the sensitivity's 80 dB dynamic range requires) or
        "unit" for plain least squares on |H|^2.
    relative_floor:
        Relative magnitude floor used to bound relative weights.
    """
    omega = check_frequency_grid(np.asarray(omega, dtype=float))
    magnitude = np.asarray(magnitude, dtype=float)
    if magnitude.shape != omega.shape:
        raise ValueError("magnitude and omega must have the same shape")
    if np.any(magnitude < 0.0) or not np.all(np.isfinite(magnitude)):
        raise ValueError("magnitude samples must be finite and non-negative")
    if n_poles < 1:
        raise ValueError("n_poles must be at least 1")
    if omega[omega > 0.0].size < 2 * n_poles:
        raise ValueError("too few positive-frequency samples for the order")

    # Work in a normalized x-domain (x scaled to [~0, 1]): the raw x = omega^2
    # spans up to ~20 decades for GHz data, which wrecks the least-squares
    # conditioning; normalization makes pole relocation reliable.
    x_ref = float(np.max(omega)) ** 2
    x = (omega * omega) / x_ref
    g = magnitude * magnitude
    g_max = float(g.max())
    if g_max <= 0.0:
        raise ValueError("all magnitude samples are zero")
    if weighting == "relative":
        w = 1.0 / np.maximum(g, relative_floor * g_max)
    elif weighting == "unit":
        w = np.ones_like(g)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")

    poles_x = _initial_x_poles(x, n_poles)
    iterations = 0
    for iteration in range(n_iterations):
        new_poles = _relocate_real(x, g, w, poles_x)
        change = float(
            np.max(np.abs(new_poles - poles_x) / np.maximum(np.abs(poles_x), 1e-30))
        )
        poles_x = new_poles
        iterations = iteration + 1
        if change < 1e-9:
            break

    residues_x, d = _fit_residues_real(x, g, w, poles_x, d_floor=1e-9 * g_max)
    roots_x = _numerator_roots(poles_x, residues_x, d)
    # Undo the x normalization before mapping into the s-domain.
    zeros = _spectral_zeros(roots_x * x_ref)
    s_poles = -np.sqrt(-poles_x * x_ref)  # negative real
    s_poles = _separate_close(np.sort(s_poles))
    gain = float(np.sqrt(d))

    residues_s, direct = _partial_fractions(zeros, s_poles, gain)
    model = StateSpaceModel(
        a=np.diag(s_poles),
        b=np.ones((s_poles.size, 1)),
        c=residues_s.reshape(1, -1),
        d=np.array([[direct]]),
    )

    response = np.abs(model.frequency_response(omega)[:, 0, 0])
    mask = magnitude > relative_floor * float(magnitude.max())
    ratio = response[mask] / magnitude[mask]
    db_error = 20.0 * np.log10(np.maximum(ratio, 1e-300))
    rms_db = float(np.sqrt(np.mean(db_error**2))) if db_error.size else np.inf
    max_db = float(np.max(np.abs(db_error))) if db_error.size else np.inf
    return MagnitudeFitResult(
        model=model,
        poles=s_poles.astype(complex),
        zeros=zeros,
        gain=gain,
        rms_db_error=rms_db,
        max_db_error=max_db,
        iterations=iterations,
    )
