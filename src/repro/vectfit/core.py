"""Weighted relaxed Vector Fitting (paper refs. [8]-[12]).

Identifies the pole-residue macromodel of paper eq. (3)

    S(s) = sum_n R_n / (s - p_n) + D

from samples S_k on a frequency grid by minimizing the weighted error
metric of eq. (6)

    E_w^2 = sum_k w_k^2 || S(j omega_k) - S_k ||_F^2 .

The implementation follows the classical two-step scheme: a pole-relocation
("sigma") iteration with the relaxed non-triviality constraint of
Gustavsen (2006), using the per-response QR compression of Deschrijver et
al. (2008) so all matrix entries share a common pole set at modest cost,
followed by a weighted linear least-squares residue identification.

Real-coefficient bases are used throughout: a real pole contributes the
basis function 1/(s-p); a conjugate pair (p, conj p) contributes
1/(s-p) + 1/(s-conj p) and j/(s-p) - j/(s-conj p), so all least-squares
unknowns are real and the fitted model is exactly conjugate-symmetric.

Two interchangeable kernels drive the linear algebra
(``VFOptions.kernel``):

* ``"batched"`` (default) -- all M = P^2 column blocks of the relocation
  stage are assembled as one ``(M, 2K, cols)`` tensor and QR-compressed by
  a single batched LAPACK call; the residue stage solves all columns
  against one factorization when the weights are shared across columns
  (the common case) and falls back to a batched per-column QR solve for
  column-dependent weights.  No Python-level per-column work remains.
* ``"reference"`` -- the original per-column loops, kept as the
  equivalence oracle for tests and benchmarks.

Both kernels run the same math on the same operands, so their results
agree to roundoff; see ``tests/test_vectfit_batched.py``.

:func:`fit_many` extends the same machinery to several response sets
sharing a frequency grid: identical sets collapse to one fit, and sets
whose pole sets coincide at an iteration (always true at iteration 0)
share the basis assembly and column equilibration; each set then runs
its own batched compression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import telemetry as obs
from repro.resilience import faultinject
from repro.resilience.errors import FitDivergedError
from repro.statespace.poleresidue import PoleResidueModel, _analyse_pole_structure
from repro.util.logging import get_logger
from repro.util.validation import check_frequency_grid, check_square_stack
from repro.vectfit import kernels
from repro.vectfit.options import VFOptions
from repro.vectfit.starting_poles import initial_poles

_LOG = get_logger(__name__)


# ----------------------------------------------------------------------
# Pole bookkeeping
# ----------------------------------------------------------------------
def canonicalize_poles(raw: np.ndarray, *, imag_tol: float = 1e-8) -> np.ndarray:
    """Normalize a raw pole set into pair-grouped canonical form.

    Eigenvalues of real matrices arrive as unordered conjugate pairs with
    roundoff asymmetry; this groups them as (real poles..., pairs with the
    +imag member first followed by its exact conjugate), sorted by
    magnitude so successive iterations are comparable.
    """
    raw = np.asarray(raw, dtype=complex)
    reals: list[float] = []
    positives: list[complex] = []
    negatives: list[complex] = []
    for pole in raw:
        if abs(pole.imag) <= imag_tol * max(abs(pole), 1e-300):
            reals.append(pole.real)
        elif pole.imag > 0.0:
            positives.append(pole)
        else:
            negatives.append(pole)
    # Pair each +imag pole with its nearest conjugate candidate; leftovers
    # (numerically unpaired) are demoted to real poles.
    unmatched = list(negatives)
    pairs: list[complex] = []
    for pole in positives:
        if unmatched:
            distances = [abs(np.conj(pole) - q) for q in unmatched]
            best = int(np.argmin(distances))
            unmatched.pop(best)
            pairs.append(pole)
        else:
            reals.append(pole.real)
    for pole in unmatched:
        reals.append(pole.real)

    reals.sort(key=abs)
    pairs.sort(key=abs)
    out: list[complex] = [complex(r, 0.0) for r in reals]
    for pole in pairs:
        out.append(pole)
        out.append(np.conj(pole))
    return np.asarray(out, dtype=complex)


def flip_unstable_poles(poles: np.ndarray, *, floor: float = 0.0) -> np.ndarray:
    """Reflect right-half-plane poles into the LHP (standard VF safeguard)."""
    poles = np.asarray(poles, dtype=complex).copy()
    for n, pole in enumerate(poles):
        re = pole.real
        if re > 0.0:
            re = -re
        if re == 0.0:
            re = -max(abs(pole) * 1e-6, floor)
        poles[n] = complex(re, pole.imag)
    return poles


def _basis(omega: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Real-coefficient partial-fraction basis, shape (K, N) complex."""
    blocks = _analyse_pole_structure(poles, 1e-9)
    s = 1j * omega
    phi = np.empty((omega.size, poles.size), dtype=complex)
    for block in blocks:
        pole = poles[block.index]
        if block.kind == "real":
            phi[:, block.offset] = 1.0 / (s - pole.real)
        else:
            f_pos = 1.0 / (s - pole)
            f_neg = 1.0 / (s - np.conj(pole))
            phi[:, block.offset] = f_pos + f_neg
            phi[:, block.offset + 1] = 1j * (f_pos - f_neg)
    return phi


def _sigma_dynamics(poles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real (A, b) of the sigma rational function for the zero computation."""
    blocks = _analyse_pole_structure(poles, 1e-9)
    n = poles.size
    a = np.zeros((n, n))
    b = np.zeros(n)
    for block in blocks:
        pole = poles[block.index]
        if block.kind == "real":
            a[block.offset, block.offset] = pole.real
            b[block.offset] = 1.0
        else:
            a[block.offset, block.offset] = pole.real
            a[block.offset, block.offset + 1] = pole.imag
            a[block.offset + 1, block.offset] = -pole.imag
            a[block.offset + 1, block.offset + 1] = pole.real
            b[block.offset] = 2.0
    return a, b


def _coefficients_to_residues(
    poles: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """Map real basis coefficients (M, N) to complex residues (M, N)."""
    blocks = _analyse_pole_structure(poles, 1e-9)
    m = coefficients.shape[0]
    residues = np.zeros((m, poles.size), dtype=complex)
    for block in blocks:
        if block.kind == "real":
            residues[:, block.index] = coefficients[:, block.offset]
        else:
            value = (
                coefficients[:, block.offset]
                + 1j * coefficients[:, block.offset + 1]
            )
            residues[:, block.index] = value
            residues[:, block.index + 1] = np.conj(value)
    return residues


def _realify(matrix: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts of rows: (K, n) complex -> (2K, n) real."""
    return kernels.realify_rows(matrix)


# ----------------------------------------------------------------------
# Main algorithm
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VFResult:
    """Outcome of a vector-fitting run.

    Attributes
    ----------
    model:
        Fitted pole-residue macromodel.
    rms_error:
        Unweighted RMS error over all entries and frequencies (eq. 4 scale).
    weighted_rms_error:
        Weighted RMS error actually minimized (eq. 6 scale).
    iterations:
        Pole-relocation iterations performed.
    converged:
        Whether the pole set converged before the iteration cap.
    pole_history:
        Per-iteration pole sets (including the final one).
    """

    model: PoleResidueModel
    rms_error: float
    weighted_rms_error: float
    iterations: int
    converged: bool
    pole_history: list = field(default_factory=list, repr=False)


def _normalize_weights(
    weights: np.ndarray | None, shape_kpp: tuple[int, int, int]
) -> np.ndarray:
    """Broadcast user weights to per-entry (K, P*P) positive weights."""
    k, p, _ = shape_kpp
    if weights is None:
        return np.ones((k, p * p))
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    if weights.shape == (k,):
        return np.repeat(weights[:, None], p * p, axis=1)
    if weights.shape == (k, p, p):
        return weights.reshape(k, p * p)
    raise ValueError(
        f"weights must have shape ({k},) or ({k},{p},{p}), got {weights.shape}"
    )


# ----------------------------------------------------------------------
# Pole relocation
# ----------------------------------------------------------------------
def _sigma_scales(
    phi: np.ndarray, k: int, options: VFOptions
) -> tuple[np.ndarray, np.ndarray]:
    """Shared column equilibration of the relocation stage.

    The sigma columns must be scaled identically across responses (they
    are pooled), and equilibration is what keeps the 7-decade basis
    solvable to ~1e-8 instead of ~1e-4.
    """
    n = phi.shape[1]
    phi_scale = np.linalg.norm(_realify(phi), axis=0)
    phi_scale = np.where(phi_scale > 0.0, phi_scale, 1.0)
    cols_sigma = n + (1 if options.relaxed else 0)
    sigma_scale = np.empty(cols_sigma)
    sigma_scale[:n] = phi_scale
    if options.relaxed:
        sigma_scale[n] = np.sqrt(float(k))
    return phi_scale, sigma_scale


def _sigma_compress_reference(
    responses: np.ndarray,
    weights: np.ndarray,
    phi_scaled: np.ndarray,
    sigma_scale: np.ndarray,
    options: VFOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column QR compression (original loop); returns stacked rows.

    The result is ``(M, ms, cols_sigma)`` rows and ``(M, ms)`` right-hand
    sides, where only the rows coupling to the shared sigma unknowns
    survive into the pooled system.
    """
    k, m = responses.shape
    n = phi_scaled.shape[1]
    cols_model = n + (1 if options.fit_const else 0)
    cols_sigma = sigma_scale.size
    rows_list = []
    rhs_list = []
    for col in range(m):
        w = weights[:, col]
        h = responses[:, col]
        block = np.empty((k, cols_model + cols_sigma), dtype=complex)
        block[:, :n] = phi_scaled * w[:, None]
        if options.fit_const:
            block[:, n] = w
        block[:, cols_model : cols_model + n] = -(h * w)[:, None] * phi_scaled
        if options.relaxed:
            block[:, cols_model + n] = -(h * w) / sigma_scale[n]
            rhs = np.zeros(k, dtype=complex)
        else:
            rhs = h * w
        a_real = _realify(block)
        rhs_real = _realify(rhs.reshape(-1, 1))[:, 0]
        _, r = np.linalg.qr(np.column_stack([a_real, rhs_real]))
        rows_list.append(r[cols_model : cols_model + cols_sigma, cols_model:-1])
        rhs_list.append(r[cols_model : cols_model + cols_sigma, -1])
    return np.stack(rows_list), np.stack(rhs_list)


def _sigma_compress_batched(
    responses: np.ndarray,
    weights: np.ndarray,
    phi_scaled: np.ndarray,
    sigma_scale: np.ndarray,
    options: VFOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched QR compression: all column blocks in one LAPACK call.

    Two structural facts cut the work far below the reference loop:

    * In relaxed mode the per-column right-hand side is identically zero,
      so its column never needs to enter the factorization -- the
      compressed right-hand side is zero by construction.
    * With weights shared across columns (per-frequency user weights, the
      common case) the model block ``[W phi, w]`` is *identical* for
      every column.  It is eliminated once with a single thin QR, the
      sigma blocks are projected onto its orthogonal complement with two
      batched GEMMs, and only the projected ``(M, 2K, cols_sigma)``
      stack -- a third of the reference column count -- goes through the
      batched QR.  No reorthogonalization pass follows the one-sided
      projection; see the comment at the QR site for why the pooled
      normal equations make it unnecessary.

    Column-dependent weights fall back to factorizing the full stacked
    ``(M, 2K, cols_model + cols_sigma (+1))`` tensor, still as one
    batched ``np.linalg.qr(mode="r")`` with no Python per-column work.
    In every case the returned ``(M, ms, cols_sigma)`` rows and
    ``(M, ms)`` right-hand sides satisfy the same pooled normal
    equations as the reference path's, so the pooled sigma solve is
    unchanged up to roundoff.
    """
    k, m = responses.shape
    n = phi_scaled.shape[1]
    cols_model = n + (1 if options.fit_const else 0)
    cols_sigma = sigma_scale.size
    hw = (responses * weights).T  # (M, K)
    extra = 0 if options.relaxed else 1

    if kernels.shared_weights(weights):
        w = weights[:, 0]
        a1 = np.empty((k, cols_model), dtype=complex)
        a1[:, :n] = phi_scaled * w[:, None]
        if options.fit_const:
            a1[:, n] = w
        q1, _ = np.linalg.qr(kernels.realify_rows(a1))
        a2 = np.empty((m, k, cols_sigma + extra), dtype=complex)
        a2[:, :, :n] = -hw[:, :, None] * phi_scaled[None, :, :]
        if options.relaxed:
            a2[:, :, n] = -hw / sigma_scale[n]
        else:
            a2[:, :, -1] = hw
        a2r = kernels.realify_rows(a2)  # (M, 2K, cols_sigma + extra)
        z = np.matmul(q1.T, a2r)
        a2p = a2r - np.matmul(q1, z)
        r = np.linalg.qr(a2p, mode="r")
        # One-sided block Gram-Schmidt loses *relative* accuracy on
        # columns nearly inside span(A1) (flat scattering entries put
        # whole sigma blocks there), but the pooled normal equations sum
        # absolute contributions across all M slices: the projection
        # error stays at eps * ||a2r||, the same order as the Gram's own
        # roundoff, so no reorthogonalization pass is needed -- measured
        # agreement with the reference path is ~1e-12 relative with or
        # without one, and the second pass would re-fire every iteration
        # on the degenerate-by-construction columns.
        rows = faultinject.corrupt(
            "vf.relocate_batched", r[:, :cols_sigma, :cols_sigma]
        )
        if options.relaxed:
            rhs = np.zeros(rows.shape[:2])
        else:
            rhs = r[:, :cols_sigma, -1]
        return rows, rhs

    wt = weights.T  # (M, K)
    block = np.empty(
        (m, k, cols_model + cols_sigma + extra), dtype=complex
    )
    block[:, :, :n] = phi_scaled[None, :, :] * wt[:, :, None]
    if options.fit_const:
        block[:, :, n] = wt
    block[:, :, cols_model : cols_model + n] = (
        -hw[:, :, None] * phi_scaled[None, :, :]
    )
    if options.relaxed:
        block[:, :, cols_model + n] = -hw / sigma_scale[n]
    else:
        block[:, :, -1] = hw
    stacked = kernels.realify_rows(block)  # (M, 2K, C)
    r = np.linalg.qr(stacked, mode="r")
    rows = faultinject.corrupt(
        "vf.relocate_batched",
        r[:, cols_model : cols_model + cols_sigma,
          cols_model : cols_model + cols_sigma],
    )
    if options.relaxed:
        rhs = np.zeros(rows.shape[:2])
    else:
        rhs = r[:, cols_model : cols_model + cols_sigma, -1]
    return rows, rhs


def _solve_sigma_poles(
    rows: np.ndarray,
    rhs_rows: np.ndarray,
    phi: np.ndarray,
    phi_scale: np.ndarray,
    sigma_scale: np.ndarray,
    responses: np.ndarray,
    weights: np.ndarray,
    poles: np.ndarray,
    omega: np.ndarray,
    options: VFOptions,
) -> np.ndarray:
    """Pooled sigma solve + zero computation; returns the new pole set."""
    k = responses.shape[0]
    n = poles.size
    cols_sigma = sigma_scale.size
    g = rows.reshape(-1, cols_sigma)
    rhs = rhs_rows.reshape(-1)
    if options.relaxed:
        # Non-triviality: sum_k Re sigma(j omega_k) = K, weighted to the
        # scale of the data so it neither dominates nor vanishes.
        scale = float(np.linalg.norm(weights * np.abs(responses))) / max(k, 1)
        row = np.empty(cols_sigma)
        row[:n] = np.sum(phi.real, axis=0) / phi_scale
        row[n] = k / sigma_scale[n]
        g = np.vstack([g, scale * row])
        rhs = np.concatenate([rhs, [scale * k]])

    solution = np.linalg.lstsq(g, rhs, rcond=None)[0] / sigma_scale
    if options.relaxed:
        c_sigma, d_sigma = solution[:n], float(solution[n])
        if abs(d_sigma) < options.min_sigma_d:
            d_sigma = options.min_sigma_d if d_sigma >= 0.0 else -options.min_sigma_d
    else:
        c_sigma, d_sigma = solution[:n], 1.0

    a_sig, b_sig = _sigma_dynamics(poles)
    zeros = np.linalg.eigvals(a_sig - np.outer(b_sig, c_sigma) / d_sigma)
    if options.stable:
        positive = omega[omega > 0.0]
        floor = float(positive.min()) * 1e-6 if positive.size else 1e-6
        zeros = flip_unstable_poles(zeros, floor=floor)
    return canonicalize_poles(zeros)


def _relocate_poles(
    omega: np.ndarray,
    compress_responses: np.ndarray,
    compress_weights: np.ndarray,
    responses: np.ndarray,
    weight_table: np.ndarray,
    poles: np.ndarray,
    phi: np.ndarray,
    phi_scale: np.ndarray,
    sigma_scale: np.ndarray,
    options: VFOptions,
) -> np.ndarray:
    """Compression + pooled sigma solve, with the kernel fallback ladder.

    A batched compression whose output drives the pooled solve into
    NaN/Inf or a failed SVD (rank collapse, poisoned input) is retried
    once with the reference per-column kernel on the *full* column
    tables -- the equivalence oracle.  Each fallback increments the
    ``fallback.vf_kernel`` counter; a reference-path failure (or a
    failed fallback) raises :class:`FitDivergedError`.
    """
    phi_scaled = phi / phi_scale
    compress = (
        _sigma_compress_batched
        if options.kernel == "batched"
        else _sigma_compress_reference
    )
    new_poles = None
    try:
        rows, rhs_rows = compress(
            compress_responses, compress_weights, phi_scaled, sigma_scale,
            options,
        )
        new_poles = _solve_sigma_poles(
            rows, rhs_rows, phi, phi_scale, sigma_scale,
            responses, weight_table, poles, omega, options,
        )
    except np.linalg.LinAlgError:
        pass
    if new_poles is not None and np.isfinite(new_poles).all():
        return new_poles
    if options.kernel != "batched":
        raise FitDivergedError(
            "pole relocation produced non-finite poles",
            stage="standard_fit",
        )
    obs.incr("fallback.vf_kernel")
    _LOG.warning(
        "vector_fit: batched relocation failed; retrying with the "
        "reference kernel"
    )
    try:
        rows, rhs_rows = _sigma_compress_reference(
            responses, weight_table, phi_scaled, sigma_scale, options
        )
        new_poles = _solve_sigma_poles(
            rows, rhs_rows, phi, phi_scale, sigma_scale,
            responses, weight_table, poles, omega, options,
        )
    except np.linalg.LinAlgError as exc:
        raise FitDivergedError(
            "pole relocation failed on both kernels",
            stage="standard_fit",
        ) from exc
    if not np.isfinite(new_poles).all():
        raise FitDivergedError(
            "pole relocation produced non-finite poles on both kernels",
            stage="standard_fit",
        )
    return new_poles


# ----------------------------------------------------------------------
# Residue identification
# ----------------------------------------------------------------------
def _identify_residues_reference(
    omega: np.ndarray,
    responses: np.ndarray,
    weights: np.ndarray,
    poles: np.ndarray,
    options: VFOptions,
    fixed_const: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column weighted LS loop (original implementation)."""
    k, m = responses.shape
    n = poles.size
    phi = _basis(omega, poles)
    dc_exact = options.dc_exact and fixed_const is None
    if dc_exact:
        if omega[0] != 0.0:
            raise ValueError("dc_exact requires a DC sample (omega[0] == 0)")
        phi_dc = phi[0].real  # basis at s = 0 is real by construction
        dc_values = responses[0].real
    solve_const = options.fit_const and fixed_const is None and not dc_exact
    cols = n + (1 if solve_const else 0)
    coefficients = np.empty((m, n))
    const = np.zeros(m) if fixed_const is None else np.asarray(fixed_const, float)
    for col in range(m):
        w = weights[:, col]
        block = np.empty((k, cols), dtype=complex)
        if dc_exact:
            block[:, :n] = (phi - phi_dc[None, :]) * w[:, None]
            target = responses[:, col] - dc_values[col]
        else:
            block[:, :n] = phi * w[:, None]
            target = responses[:, col]
            if fixed_const is not None:
                target = target - const[col]
        if solve_const:
            block[:, n] = w
        a_real = _realify(block)
        rhs_real = _realify((target * w).reshape(-1, 1))[:, 0]
        solution = kernels.scaled_lstsq(a_real, rhs_real)
        coefficients[col] = solution[:n]
        if solve_const:
            const[col] = solution[n]
        elif dc_exact:
            const[col] = dc_values[col] - float(phi_dc @ solution[:n])
    residues = _coefficients_to_residues(poles, coefficients)
    return residues, const


def _identify_residues_batched(
    omega: np.ndarray,
    responses: np.ndarray,
    weights: np.ndarray,
    poles: np.ndarray,
    options: VFOptions,
    fixed_const: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped residue solve: one factorization for shared weights.

    When all columns share one weight vector (per-frequency user weights,
    the common case), the design matrix is identical for every column and
    a single equilibrated multi-RHS ``lstsq`` solves all M right-hand
    sides at once.  Column-dependent weights fall back to a batched
    per-column QR solve (:func:`kernels.batched_qr_solve`).  Both paths
    cover the ``dc_exact``, ``fixed_const`` and plain/relaxed variants.
    """
    k, m = responses.shape
    n = poles.size
    phi = _basis(omega, poles)
    dc_exact = options.dc_exact and fixed_const is None
    if dc_exact:
        if omega[0] != 0.0:
            raise ValueError("dc_exact requires a DC sample (omega[0] == 0)")
        phi_dc = phi[0].real
        dc_values = responses[0].real
        base = phi - phi_dc[None, :]
        targets = responses - dc_values[None, :]
    else:
        base = phi
        targets = responses
    solve_const = options.fit_const and fixed_const is None and not dc_exact
    const = np.zeros(m) if fixed_const is None else np.asarray(fixed_const, float)
    if fixed_const is not None:
        targets = responses - const[None, :]

    if kernels.shared_weights(weights):
        w = weights[:, 0]
        cols = n + (1 if solve_const else 0)
        block = np.empty((k, cols), dtype=complex)
        block[:, :n] = base * w[:, None]
        if solve_const:
            block[:, n] = w
        a_real = _realify(block)
        rhs_real = _realify(targets * w[:, None])  # (2K, M)
        solution = kernels.scaled_lstsq(a_real, rhs_real)  # (cols, M)
        coefficients = solution[:n].T
        if solve_const:
            const = solution[n].copy()
    else:
        wt = weights.T  # (M, K)
        stack = base[None, :, :] * wt[:, :, None]  # (M, K, N)
        if solve_const:
            stack = np.concatenate([stack, wt[:, :, None]], axis=2)
        a_real = kernels.realify_rows(stack)
        rhs = targets.T * wt  # (M, K)
        rhs_real = kernels.realify_rows(rhs[:, :, None])[:, :, 0]
        solution = kernels.batched_qr_solve(a_real, rhs_real)  # (M, cols)
        coefficients = solution[:, :n]
        if solve_const:
            const = solution[:, n].copy()
    coefficients = faultinject.corrupt("vf.residues_batched", coefficients)
    if dc_exact:
        const = dc_values - coefficients @ phi_dc
    residues = _coefficients_to_residues(poles, coefficients)
    return residues, const


def _identify_residues(
    omega: np.ndarray,
    responses: np.ndarray,
    weights: np.ndarray,
    poles: np.ndarray,
    options: VFOptions,
    fixed_const: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Final weighted LS for residues and constant term.

    With ``fixed_const`` (length M), the constant term is pinned (used by
    the asymptotic-passivity projection) and only residues are solved.
    With ``options.dc_exact`` the DC sample is interpolated exactly by
    eliminating the constant: fit the shifted data on the shifted basis
    phi(omega) - phi(0), then back out d = S(0) - sum c_n phi_n(0).
    Returns (residues (M, N) complex, const (M,) real).
    """
    identify = (
        _identify_residues_batched
        if options.kernel == "batched"
        else _identify_residues_reference
    )
    return identify(omega, responses, weights, poles, options, fixed_const)


def _identify_with_fallback(
    omega: np.ndarray,
    responses: np.ndarray,
    weights: np.ndarray,
    poles: np.ndarray,
    options: VFOptions,
    fixed_const: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residue identification with the batched->reference ladder.

    Mirrors :func:`_relocate_poles`: a batched solve that errors or
    produces non-finite residues is retried once with the reference
    per-column loop (``fallback.vf_kernel`` counter); a failure on the
    reference path raises :class:`FitDivergedError`.
    """
    residues = const = None
    try:
        residues, const = _identify_residues(
            omega, responses, weights, poles, options, fixed_const
        )
    except np.linalg.LinAlgError:
        pass
    if (
        residues is not None
        and np.isfinite(residues).all()
        and np.isfinite(const).all()
    ):
        return residues, const
    if options.kernel != "batched":
        raise FitDivergedError(
            "residue identification produced non-finite results",
            stage="standard_fit",
        )
    obs.incr("fallback.vf_kernel")
    _LOG.warning(
        "vector_fit: batched residue identification failed; retrying "
        "with the reference kernel"
    )
    try:
        residues, const = _identify_residues_reference(
            omega, responses, weights, poles, options, fixed_const
        )
    except np.linalg.LinAlgError as exc:
        raise FitDivergedError(
            "residue identification failed on both kernels",
            stage="standard_fit",
        ) from exc
    if not (np.isfinite(residues).all() and np.isfinite(const).all()):
        raise FitDivergedError(
            "residue identification produced non-finite results on "
            "both kernels",
            stage="standard_fit",
        )
    return residues, const


def _symmetric_reduction(
    samples: np.ndarray,
    weight_table: np.ndarray,
    *,
    rel_tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Reduced relocation columns for reciprocal (symmetric) data.

    Scattering data of reciprocal networks satisfies S_ij = S_ji, so the
    (i, j) and (j, i) relocation blocks coincide and only the P(P+1)/2
    upper-triangle columns need to be assembled and factorized.  A
    duplicated block contributes twice to the pooled normal equations,
    which is exactly a sqrt(2) row scaling of the unique block -- and
    every column of a block is linear in the (weighted) response, so the
    scaling folds into the response values.  Solver roundoff leaves the
    tabulated data symmetric only to ~1e-12, so each pair is *averaged*:
    the pooled-Gram error of the averaged pair is second order in the
    asymmetry (||S - S^T||^2, ~1e-23 here), far below the first-order
    error that picking one triangle would commit.  Returns the reduced
    ``(K, P(P+1)/2)`` response and weight tables (upper-triangle columns,
    off-diagonal responses scaled by sqrt(2)), or ``None`` when the data
    or weights are not symmetric to within ``rel_tol``.
    """
    k, p, _ = samples.shape
    if p == 1:
        return None
    scale = float(np.abs(samples).max())
    if scale <= 0.0:
        return None
    if float(np.abs(samples - samples.transpose(0, 2, 1)).max()) > rel_tol * scale:
        return None
    table = weight_table.reshape(k, p, p)
    if not np.array_equal(table, table.transpose(0, 2, 1)):
        return None
    iu, ju = np.triu_indices(p)
    reduced = (
        0.5 * (samples[:, iu, ju] + samples[:, ju, iu])
        * np.where(iu == ju, 1.0, np.sqrt(2.0))
    )
    return reduced, table[:, iu, ju]


def _pole_change(old: np.ndarray, new: np.ndarray) -> float:
    """Relative movement between two canonical pole sets."""
    if old.size != new.size:
        return np.inf
    order_old = np.lexsort((old.imag, old.real, np.abs(old)))
    order_new = np.lexsort((new.imag, new.real, np.abs(new)))
    diff = np.abs(old[order_old] - new[order_new])
    scale = np.maximum(np.abs(old[order_old]), 1e-30)
    return float(np.max(diff / scale))


def _characterize(
    omega: np.ndarray,
    samples: np.ndarray,
    responses: np.ndarray,
    weight_table: np.ndarray,
    poles: np.ndarray,
    options: VFOptions,
    iterations: int,
    converged: bool,
    history: list,
) -> VFResult:
    """Residue identification, asymptotic projection and error metrics."""
    k, p, _ = samples.shape
    residues, const_flat = _identify_with_fallback(
        omega, responses, weight_table, poles, options
    )
    const = const_flat.reshape(p, p)
    margin = options.asymptotic_passivity_margin
    if options.fit_const and margin > 0.0 and not options.dc_exact:
        u, sigma, vh = np.linalg.svd(const)
        limit = 1.0 - margin
        if sigma[0] > limit:
            # Band-limited data leaves D unconstrained above the last
            # sample; clip its gain and refit the residues around it.
            const = u @ np.diag(np.minimum(sigma, limit)) @ vh
            _LOG.debug(
                "vector_fit: projected sigma_max(D) from %.6f to %.6f",
                sigma[0],
                limit,
            )
            residues, const_flat = _identify_with_fallback(
                omega,
                responses,
                weight_table,
                poles,
                options,
                fixed_const=const.reshape(-1),
            )
            const = const_flat.reshape(p, p)
    residue_matrices = residues.T.reshape(poles.size, p, p)
    model = PoleResidueModel(poles, residue_matrices, const)

    fit = model.frequency_response(omega)
    diff = fit - samples
    rms = float(np.sqrt(np.mean(np.abs(diff) ** 2)))
    wdiff = weight_table.reshape(k, p, p) * diff
    wrms = float(np.sqrt(np.mean(np.abs(wdiff) ** 2)))
    return VFResult(
        model=model,
        rms_error=rms,
        weighted_rms_error=wrms,
        iterations=iterations,
        converged=converged,
        pole_history=history,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
@dataclass
class _FitState:
    """Per-set iteration state of :func:`fit_many`.

    ``compress_responses`` / ``compress_weights`` are the column tables
    fed to the relocation compression -- the symmetric upper-triangle
    reduction when the data allows it, the full tables otherwise.  The
    full tables always drive the relaxation row and the residue stage.
    """

    responses: np.ndarray
    weight_table: np.ndarray
    samples: np.ndarray
    poles: np.ndarray
    history: list
    compress_responses: np.ndarray
    compress_weights: np.ndarray
    iterations: int = 0
    converged: bool = False
    index: int = 0

    @property
    def active(self) -> bool:
        return not self.converged


def fit_many(
    omega: np.ndarray,
    samples: list[np.ndarray],
    weights: list[np.ndarray | None] | None = None,
    options: VFOptions | None = None,
) -> list[VFResult]:
    """Fit several response sets sharing one frequency grid in one call.

    Each entry of ``samples`` is an independent (K, P_i, P_i) data stack
    fitted exactly as :func:`vector_fit` would fit it (same starting
    poles, same relocation and identification steps, same results); the
    batch entry point amortizes the shared work: the grid is validated
    once, the starting poles are built once, and at every relocation
    iteration all sets whose current pole sets coincide share one basis
    assembly and column equilibration.  All sets start from the same
    poles, so iteration 0 always shares this work; sets only fall out of
    the shared group once their pole trajectories diverge (identical
    inputs never diverge).

    Sets with *identical* samples and weights additionally collapse to
    one fit whose result is returned at every matching position -- a
    scenario sweep requesting the same standard fit N times pays for it
    once.

    Parameters
    ----------
    omega:
        Shared angular frequency grid (rad/s), strictly increasing.
    samples:
        Sequence of complex data stacks, each of shape (K, P_i, P_i).
    weights:
        Optional per-set weights aligned with ``samples``; each entry is
        accepted in the same forms as :func:`vector_fit` (``None``,
        per-frequency (K,), or per-entry (K, P_i, P_i)).
    options:
        Shared algorithm options (one model order for all sets).
    """
    options = options or VFOptions()
    omega = check_frequency_grid(np.asarray(omega, dtype=float))
    if not samples:
        return []
    if weights is None:
        weights = [None] * len(samples)
    if len(weights) != len(samples):
        raise ValueError("weights must align with samples")
    k = omega.size
    if omega[omega > 0.0].size < 2:
        raise ValueError("need at least two positive frequencies")
    if options.n_poles >= 2 * k:
        raise ValueError(
            f"model order {options.n_poles} too high for {k} frequency samples"
        )

    if options.initial_poles is not None:
        poles0 = canonicalize_poles(
            np.asarray(options.initial_poles, dtype=complex)
        )
        if poles0.size != options.n_poles:
            raise ValueError(
                f"initial_poles has {poles0.size} poles, options request "
                f"{options.n_poles}"
            )
    else:
        poles0 = initial_poles(omega, options.n_poles)

    states: list[_FitState] = []
    alias: list[int] = []  # input position -> unique-state index
    seen: dict[tuple[bytes, bytes], int] = {}
    for stack, weight in zip(samples, weights):
        stack = check_square_stack(stack, "samples")
        if stack.shape[0] != k:
            raise ValueError("samples and omega must agree on K")
        p = stack.shape[1]
        responses = stack.reshape(k, p * p)
        weight_table = _normalize_weights(weight, stack.shape)
        key = (responses.tobytes(), weight_table.tobytes())
        known = seen.get(key)
        if known is not None:
            alias.append(known)
            continue
        seen[key] = len(states)
        alias.append(len(states))
        compress_responses, compress_weights = responses, weight_table
        if options.kernel == "batched":
            reduction = _symmetric_reduction(stack, weight_table)
            if reduction is not None:
                compress_responses, compress_weights = reduction
        states.append(
            _FitState(
                responses=responses,
                weight_table=weight_table,
                samples=stack,
                poles=poles0.copy(),
                history=[poles0.copy()],
                compress_responses=compress_responses,
                compress_weights=compress_weights,
                index=len(states),
            )
        )
    if len(states) < len(alias):
        _LOG.debug(
            "fit_many: %d set(s), %d unique", len(alias), len(states)
        )
    # Telemetry batch number: distinguishes this fit_many call's
    # trajectories from other calls in the same run (refinement rounds).
    batch = obs.next_seq("vf.batch")

    for iteration in range(options.n_iterations):
        active = [state for state in states if state.active]
        if not active:
            break
        # Sets whose pole sets coincide share one basis and one batched
        # QR over the union of their columns.
        groups: dict[bytes, list[_FitState]] = {}
        for state in active:
            groups.setdefault(state.poles.tobytes(), []).append(state)
        for members in groups.values():
            with obs.span("kernel:vf.relocate", n_sets=len(members)):
                poles = members[0].poles
                phi = _basis(omega, poles)
                phi_scale, sigma_scale = _sigma_scales(phi, k, options)
                for state in members:
                    new_poles = _relocate_poles(
                        omega, state.compress_responses,
                        state.compress_weights, state.responses,
                        state.weight_table, state.poles,
                        phi, phi_scale, sigma_scale, options,
                    )
                    change = _pole_change(state.poles, new_poles)
                    state.poles = new_poles
                    state.history.append(new_poles.copy())
                    state.iterations = iteration + 1
                    if change < options.pole_convergence_tol:
                        state.converged = True
                    obs.incr("vf.iterations")
                    obs.emit(
                        "vf.iteration",
                        batch=batch,
                        set=state.index,
                        iteration=state.iterations,
                        n_poles=int(state.poles.size),
                        pole_change=change,
                        converged=state.converged,
                    )

    results = []
    for state in states:
        _LOG.debug(
            "vector_fit: %d iterations, converged=%s",
            state.iterations,
            state.converged,
        )
        with obs.span("kernel:vf.residues", set=state.index):
            result = _characterize(
                omega, state.samples, state.responses, state.weight_table,
                state.poles, options, state.iterations, state.converged,
                state.history,
            )
        obs.incr("vf.fits")
        obs.emit(
            "vf.fit",
            batch=batch,
            set=state.index,
            iterations=state.iterations,
            converged=state.converged,
            rms_error=result.rms_error,
            weighted_rms_error=result.weighted_rms_error,
        )
        results.append(result)
    # Duplicated inputs share one (immutable) result object.
    return [results[index] for index in alias]


def vector_fit(
    omega: np.ndarray,
    samples: np.ndarray,
    weights: np.ndarray | None = None,
    options: VFOptions | None = None,
) -> VFResult:
    """Fit a common-pole matrix pole-residue model to sampled data.

    Parameters
    ----------
    omega:
        Angular frequency grid (rad/s), strictly increasing, may include 0.
    samples:
        Complex data stack, shape (K, P, P).
    weights:
        Optional least-squares weights: per-frequency shape (K,) -- the
        paper's sensitivity weights w_k = Xi_k -- or per-entry (K, P, P).
    options:
        Algorithm options; defaults to :class:`VFOptions()`.
    """
    return fit_many(omega, [samples], [weights], options)[0]
