"""Batched least-squares kernels shared by the vector-fitting variants.

The VF hot path consists of many small, structurally identical dense
least-squares problems: one (2K, N+cols) block per response column in the
pole-relocation stage and one right-hand side per column in the residue
identification.  Solving them one by one from Python pays the interpreter
and LAPACK-dispatch overhead M = P^2 times per iteration, which dominates
the wall time for realistic port counts.  The kernels here express the
same math as stacked ndarray operations so NumPy's batched LAPACK
wrappers (``np.linalg.qr`` / ``np.linalg.solve`` on leading-axis stacks)
do all per-column work inside one C-level loop.

Every kernel applies the column equilibration documented in
:func:`scaled_lstsq`: partial-fraction bases spanning many frequency
decades have column norms differing by ~1e9, and normalizing columns to
unit norm is what keeps the LS residual at ~1e-8 instead of ~1e-4.
"""

from __future__ import annotations

import numpy as np

from repro.obs import telemetry as obs

#: Relative diagonal threshold below which a QR-compressed slice is
#: treated as rank deficient and re-solved with the SVD-based fallback.
_RANK_TOL = 1e3 * np.finfo(float).eps


def realify_rows(stack: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts along the row axis.

    Maps ``(..., K, C)`` complex to ``(..., 2K, C)`` real, turning a
    complex LS problem with real unknowns into an equivalent real one.
    """
    return np.concatenate([stack.real, stack.imag], axis=-2)


def column_scales(a: np.ndarray) -> np.ndarray:
    """Per-column Euclidean norms with zero columns mapped to 1.

    For a stacked ``(..., R, C)`` input the result is ``(..., C)``.
    """
    norms = np.linalg.norm(a, axis=-2)
    return np.where(norms > 0.0, norms, 1.0)


def scaled_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares with column equilibration; ``b`` may be multi-RHS.

    Column norms of partial-fraction bases spanning many frequency
    decades differ by ~1e9, which caps the attainable LS accuracy at
    cond * eps ~ 1e-4 -- fatal for sensitivity weighting, which needs the
    low-frequency residual driven far below that.  Normalizing columns to
    unit norm reduces the condition number to O(10) here.

    With a 2-D ``b`` of shape ``(R, M)`` all M right-hand sides are
    solved against one factorization (the grouped multi-RHS path of the
    residue identification); the result is then ``(C, M)``.
    """
    norms = column_scales(a)
    solution = np.linalg.lstsq(a / norms, b, rcond=None)[0]
    if solution.ndim == 1:
        return solution / norms
    return solution / norms[:, None]


def batched_qr_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M independent equilibrated LS problems with one batched QR.

    ``a`` has shape ``(M, R, C)`` and ``b`` shape ``(M, R)``; the result
    is ``(M, C)``, slice ``i`` minimizing ``||a[i] x - b[i]||``.  Each
    slice is QR-factorized jointly with its right-hand side (one
    ``np.linalg.qr(mode="r")`` over the stack, no Q formed), and the
    triangular systems are solved batched.  Slices whose compressed
    triangle is numerically rank deficient fall back to the SVD-based
    :func:`scaled_lstsq` (minimum-norm solution), so the kernel agrees
    with the per-column reference path on degenerate inputs too.
    """
    m, rows, cols = a.shape
    if b.shape != (m, rows):
        raise ValueError(f"b must have shape ({m},{rows}), got {b.shape}")
    if rows < cols:
        # Underdetermined slices need the minimum-norm solution; rare
        # (never hit by the VF call sites) so no batching effort.
        return np.stack([scaled_lstsq(a[i], b[i]) for i in range(m)])
    norms = column_scales(a)
    scaled = a / norms[:, None, :]
    r = np.linalg.qr(np.concatenate([scaled, b[:, :, None]], axis=2), mode="r")
    r11 = r[:, :cols, :cols]
    rhs = r[:, :cols, cols]
    diag = np.abs(np.diagonal(r11, axis1=1, axis2=2))
    ok = diag.min(axis=1) > _RANK_TOL * np.maximum(diag.max(axis=1), 1e-300)
    solution = np.empty((m, cols))
    if np.any(ok):
        solution[ok] = np.linalg.solve(r11[ok], rhs[ok, :, None])[:, :, 0]
    for index in np.flatnonzero(~ok):
        solution[index], *_ = np.linalg.lstsq(
            scaled[index], b[index], rcond=None
        )
    # Last rung of the per-slice ladder: a triangular solve that passed
    # the rank test can still go non-finite on pathological scaling; such
    # slices are re-solved with the SVD route before anything downstream
    # sees a NaN.
    bad = ~np.isfinite(solution).all(axis=1)
    if np.any(bad):
        obs.incr("fallback.kernel_lstsq", int(bad.sum()))
        for index in np.flatnonzero(bad):
            solution[index], *_ = np.linalg.lstsq(
                scaled[index], b[index], rcond=None
            )
    return solution / norms


def shared_weights(weights: np.ndarray) -> bool:
    """True when every column of a (K, M) weight table is identical.

    Per-frequency user weights -- the common case throughout the flow --
    are broadcast to all P^2 response columns, so the residue stage can
    solve all columns against a single factorization.
    """
    if weights.shape[1] <= 1:
        return True
    return bool(np.all(weights == weights[:, :1]))
