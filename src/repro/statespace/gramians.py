"""Lyapunov-equation Gramians (paper eq. 11).

Wrappers around :func:`scipy.linalg.solve_continuous_lyapunov` with
stability checking, diagonal balancing, and symmetrization: macromodel
dynamics span ~7 frequency decades (poles from ~1e4 to ~1e10 rad/s), which
makes the raw Schur-based Lyapunov solve lose definiteness to roundoff.
Balancing the state space with a diagonal similarity before the solve and
transforming back keeps the result numerically PSD; a residual eigenvalue
clip guards the enforcement cost construction.

When ``A`` has an eigenvalue pair summing to (nearly) zero, scipy solves a
perturbed equation and only warns.  That rescue is counted as
``fallback.lyapunov_perturbed`` and emitted as an event of the same name
instead of passing silently.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from repro.obs import telemetry as obs

#: Text of scipy's warning when ?TRSYL perturbs a near-singular problem.
_PERTURBED_MARKER = "perturbing the coefficients"


def _check_stable(a: np.ndarray, context: str) -> None:
    eigenvalues = np.linalg.eigvals(a)
    worst = float(np.max(eigenvalues.real)) if eigenvalues.size else -np.inf
    if worst >= 0.0:
        raise ValueError(
            f"{context}: A has an eigenvalue with Re = {worst:.3e} >= 0; "
            "the Lyapunov equation has no PSD solution for unstable systems"
        )


def ensure_psd(matrix: np.ndarray, *, clip_ratio: float = 1e-14) -> np.ndarray:
    """Symmetrize and clip tiny negative eigenvalues of a nominal-PSD matrix.

    ``clip_ratio`` is relative to the largest eigenvalue; genuine
    indefiniteness (eigenvalues more negative than that) raises.
    """
    sym = 0.5 * (matrix + matrix.T)
    eigenvalues, vectors = np.linalg.eigh(sym)
    top = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    if top <= 0.0:
        return np.zeros_like(sym)
    floor = -1e-6 * top
    if float(eigenvalues[0]) < floor:
        raise ValueError(
            f"matrix is genuinely indefinite (min eig {eigenvalues[0]:.3e} "
            f"vs max {top:.3e}); not a roundoff artifact"
        )
    clipped = np.maximum(eigenvalues, clip_ratio * top)
    return (vectors * clipped) @ vectors.T


def _balanced_lyapunov(a: np.ndarray, q_rhs: np.ndarray) -> np.ndarray:
    """Solve A P + P A^T = -Q with similarity balancing of A.

    With balanced = T^-1 A T the transformed equation has right-hand side
    T^-1 Q T^-T and solution P_s = T^-1 P T^-T.
    """
    balanced, transform = scipy.linalg.matrix_balance(a, separate=False)
    t_inv = np.linalg.inv(transform)
    q_scaled = t_inv @ q_rhs @ t_inv.T
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p_scaled = scipy.linalg.solve_continuous_lyapunov(balanced, -q_scaled)
    for warning in caught:
        if issubclass(warning.category, RuntimeWarning) and (
            _PERTURBED_MARKER in str(warning.message)
        ):
            obs.incr("fallback.lyapunov_perturbed")
            obs.emit("fallback.lyapunov_perturbed", n_states=a.shape[0])
        else:
            warnings.warn_explicit(
                warning.message, warning.category,
                warning.filename, warning.lineno,
            )
    p = transform @ p_scaled @ transform.T
    return 0.5 * (p + p.T)


def controllability_gramian(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A P + P A^T = -B B^T for the controllability Gramian P."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    _check_stable(a, "controllability_gramian")
    return _balanced_lyapunov(a, b @ b.T)


def observability_gramian(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A^T Q + Q A = -C^T C for the observability Gramian Q."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    _check_stable(a, "observability_gramian")
    return _balanced_lyapunov(a.T, c.T @ c)


def lyapunov_residual(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    """Relative residual of the controllability Lyapunov equation.

    Diagnostic used in tests: ``|| A P + P A^T + B B^T || / || B B^T ||``.
    """
    lhs = a @ p + p @ a.T + b @ b.T
    scale = max(float(np.linalg.norm(b @ b.T)), 1e-300)
    return float(np.linalg.norm(lhs)) / scale
