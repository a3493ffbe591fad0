"""Small linear-algebra helpers used across the package.

These are deliberately thin wrappers around numpy/scipy with explicit
conventions (column-stacking ``vec``, Hermitian solves) so that the
algorithmic modules read close to the paper's notation.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def vec_columns(matrix: np.ndarray) -> np.ndarray:
    """Stack the columns of ``matrix`` into a single vector.

    This is the ``vec()`` operator of the paper (eq. 9): for an m-by-n
    matrix the result has length m*n with ``vec(M)[j*m + i] = M[i, j]``.
    """
    matrix = np.asarray(matrix)
    return matrix.reshape(matrix.shape[0] * matrix.shape[1], order="F")


def unvec_columns(vector: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec_columns` for a ``rows``-by-``cols`` matrix."""
    vector = np.asarray(vector)
    if vector.size != rows * cols:
        raise ValueError(
            f"cannot reshape vector of size {vector.size} into {rows}x{cols}"
        )
    return vector.reshape((rows, cols), order="F")


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(M + M^H) / 2``."""
    matrix = np.asarray(matrix)
    return 0.5 * (matrix + matrix.conj().T)


def solve_hermitian_psd(
    matrix: np.ndarray, rhs: np.ndarray, *, regularization: float = 0.0
) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for Hermitian positive (semi)definite input.

    Tries a Cholesky factorization first; on failure (semidefinite or
    slightly indefinite input from roundoff) retries with a scaled identity
    shift.  ``regularization`` adds ``reg * trace/n`` to the diagonal up
    front, which the passivity-enforcement cost uses to keep ill-conditioned
    Gramians solvable.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(float(np.trace(matrix).real) / max(n, 1), 1.0)
    shifted = matrix
    if regularization > 0.0:
        shifted = matrix + (regularization * scale) * np.eye(n)
    for attempt in range(4):
        try:
            cho = scipy.linalg.cho_factor(shifted, check_finite=False)
            return scipy.linalg.cho_solve(cho, rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            bump = scale * 10.0 ** (-12 + 3 * attempt)
            shifted = matrix + bump * np.eye(n)
    # Last resort: least-squares pseudo-solve.  Counted so near-singular
    # cost matrices show up in traces instead of degrading silently.
    from repro.obs import telemetry as obs

    obs.incr("fallback.psd_lstsq")
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return solution


#: Matrices per Gram block of :func:`max_singular_values`; bounds the
#: extra memory to one block (1.6 MB for 20 x 20 complex matrices).
#: Larger blocks are no faster and raise a flow's peak RSS.
_SIGMA_BLOCK = 256


def max_singular_values(matrices: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a (K, m, n) stack.

    Evaluated as ``sqrt(lambda_max(M^H M))`` with a Hermitian eigensolve
    of each Gram matrix, in blocks of ``_SIGMA_BLOCK`` matrices.  The
    relative error is O(n eps) -- the same order as the SVD's -- and the
    Hermitian eigensolve is about 1.5x cheaper than a singular-value
    decomposition.  Power iteration is no alternative: on PDN responses
    the two largest singular values are nearly equal.  Matrices with
    non-finite entries give NaN.
    """
    matrices = np.asarray(matrices)
    lam = np.empty(matrices.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, matrices.shape[0], _SIGMA_BLOCK):
            block = matrices[start : start + _SIGMA_BLOCK]
            gram = block.conj().transpose(0, 2, 1) @ block
            bad = ~np.isfinite(gram).all(axis=(1, 2))
            gram[bad] = 0.0
            top = np.linalg.eigvalsh(gram)[:, -1]
            top[bad] = np.nan
            lam[start : start + block.shape[0]] = top
    return np.sqrt(np.maximum(lam, 0.0))


def is_stable_poles(poles: np.ndarray, *, tol: float = 0.0) -> bool:
    """True when every pole has a strictly negative real part (up to tol)."""
    poles = np.asarray(poles)
    return bool(np.all(poles.real < tol))


def log_spaced_frequencies(
    f_min: float, f_max: float, count: int, *, include_dc: bool = False
) -> np.ndarray:
    """Logarithmically spaced frequency grid in Hz, optionally with a DC point.

    Mirrors the paper's data format: "tabulated from 1 kHz to 2 GHz with
    logarithmic sampling and including the DC point".
    """
    if f_min <= 0.0 or f_max <= f_min:
        raise ValueError("need 0 < f_min < f_max")
    if count < 2:
        raise ValueError("need at least two frequency points")
    grid = np.logspace(np.log10(f_min), np.log10(f_max), count)
    # Guard against roundoff drifting the endpoints.
    grid[0] = f_min
    grid[-1] = f_max
    if include_dc:
        grid = np.concatenate(([0.0], grid))
    return grid


def real_block_of_conjugate_pair(value: complex) -> np.ndarray:
    """2x2 real block representing multiplication by a complex number pair.

    Used when realifying complex-conjugate pole pairs: the complex pole
    ``p = a + jb`` maps to ``[[a, b], [-b, a]]`` acting on the real/imag
    state pair.
    """
    return np.array([[value.real, value.imag], [-value.imag, value.real]])
