"""Hamiltonian-matrix passivity test for scattering systems.

For a scattering state-space model (A, B, C, D) and gain level gamma, the
Hamiltonian matrix

    M = [ A - B R^-1 D^T C        -B R^-1 B^T          ]
        [ gamma^2 C^T S^-1 C       -A^T + C^T D R^-1 B^T ]

with R = D^T D - gamma^2 I and S = D D^T - gamma^2 I has a purely imaginary
eigenvalue j*omega exactly when some singular value of H(j omega) equals
gamma [Grivet-Talocia 2004, ref. 14 of the paper].  With gamma = 1 the
imaginary eigenvalues delimit the passivity-violation bands used by the
enforcement loop and by the Fig. 4 reproduction.

During passivity enforcement only C changes between iterations (residue
perturbation; A, B, D are fixed), so everything that does not involve C --
the R/S solves and the (1,2) block -- is computed once and cached in
:class:`HamiltonianInvariants`; per-iteration assembly is then three small
matrix products (:func:`hamiltonian_from_invariants`).

For *reciprocal* models (S = S^T, the physical PDN case) the 2n x 2n
eigenproblem halves [Semlyen & Gustavsen 2009]: with symmetric D the
test matrix

    P = (A - B (D - gamma I)^-1 C) (A - B (D + gamma I)^-1 C)

is n x n and its eigenvalues are the squares lambda = (j omega)^2 =
-omega^2 of the Hamiltonian's, so gamma-crossings are the real negative
eigenvalues of P -- an ~8x cheaper eigensolve, the dominant cost of the
exact passivity test.  :class:`HalfSizeInvariants` caches the two
C-independent solves ``B (D -+ gamma I)^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.statespace.system import StateSpaceModel


@dataclass(frozen=True)
class HamiltonianInvariants:
    """C-independent pieces of the Hamiltonian matrix at a gain level.

    Attributes
    ----------
    a:
        State matrix A (n, n) of the underlying realization.
    m12:
        Constant (1,2) block ``-B R^-1 B^T`` (n, n).
    k1:
        ``B R^-1 D^T`` (n, P); the (1,1) block is ``A - k1 @ C`` and the
        (2,2) block is ``-A^T + C^T @ k1.T`` (R is symmetric).
    s_inv:
        ``S^-1`` (P, P); the (2,1) block is ``gamma^2 C^T S^-1 C``.
    gamma:
        Gain level the factorizations were built for.
    """

    a: np.ndarray
    m12: np.ndarray
    k1: np.ndarray
    s_inv: np.ndarray
    gamma: float


def hamiltonian_invariants(
    a: np.ndarray, b: np.ndarray, d: np.ndarray, gamma: float = 1.0
) -> HamiltonianInvariants:
    """Precompute the C-independent Hamiltonian blocks for (A, B, D).

    Raises if ``gamma`` is (numerically) a singular value of D, since then
    R and S become singular; callers should nudge gamma in that case.
    """
    gamma2 = gamma * gamma
    r = d.T @ d - gamma2 * np.eye(d.shape[1])
    s = d @ d.T - gamma2 * np.eye(d.shape[0])
    min_r = float(np.min(np.abs(np.linalg.eigvalsh(r))))
    if min_r < 1e-12 * max(gamma2, 1.0):
        raise ValueError(
            f"gamma={gamma} is numerically a singular value of D "
            f"(min |eig(R)| = {min_r:.2e}); perturb gamma slightly"
        )
    r_inv_bt = np.linalg.solve(r, b.T)
    return HamiltonianInvariants(
        a=a,
        m12=-b @ r_inv_bt,
        k1=(d @ r_inv_bt).T,
        s_inv=np.linalg.inv(s),
        gamma=gamma,
    )


def hamiltonian_from_invariants(
    invariants: HamiltonianInvariants, c: np.ndarray
) -> np.ndarray:
    """Assemble the Hamiltonian matrix for output matrix ``c`` (P, n)."""
    a = invariants.a
    n = a.shape[0]
    gamma2 = invariants.gamma * invariants.gamma
    m = np.empty((2 * n, 2 * n))
    k1c = invariants.k1 @ c
    m[:n, :n] = a - k1c
    m[:n, n:] = invariants.m12
    m[n:, :n] = gamma2 * (c.T @ (invariants.s_inv @ c))
    m[n:, n:] = (c.T @ invariants.k1.T) - a.T
    return m


def hamiltonian_matrix(model: StateSpaceModel, gamma: float = 1.0) -> np.ndarray:
    """Build the Hamiltonian matrix associated with gain level ``gamma``.

    Raises if ``gamma`` is (numerically) a singular value of D, since then
    R and S become singular; callers should nudge gamma in that case.
    """
    invariants = hamiltonian_invariants(model.a, model.b, model.d, gamma)
    return hamiltonian_from_invariants(invariants, model.c)


@dataclass(frozen=True)
class HalfSizeInvariants:
    """C-independent pieces of the half-size (reciprocal) test matrix.

    Attributes
    ----------
    a:
        State matrix A (n, n) of the underlying realization.
    bd_minus:
        ``B (D - gamma I)^-1`` (n, P).
    bd_plus:
        ``B (D + gamma I)^-1`` (n, P).
    gamma:
        Gain level the solves were built for.
    """

    a: np.ndarray
    bd_minus: np.ndarray
    bd_plus: np.ndarray
    gamma: float


def half_size_invariants(
    a: np.ndarray, b: np.ndarray, d: np.ndarray, gamma: float = 1.0
) -> HalfSizeInvariants:
    """Precompute the C-independent half-size blocks for (A, B, D).

    Only valid for reciprocal models (symmetric D and S(s)); raises if
    ``gamma`` is numerically an eigenvalue of the symmetric D, which
    makes a factor singular (same degeneracy the full test guards via R).
    """
    eye = np.eye(d.shape[0])
    d_minus = d - gamma * eye
    d_plus = d + gamma * eye
    smallest = min(
        float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (d_minus + d_minus.T))))),
        float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (d_plus + d_plus.T))))),
    )
    if smallest < 1e-12 * max(abs(gamma), 1.0):
        raise ValueError(
            f"gamma={gamma} is numerically an eigenvalue of D "
            f"(min |eig(D -+ gamma I)| = {smallest:.2e}); perturb gamma"
        )
    return HalfSizeInvariants(
        a=a,
        bd_minus=np.linalg.solve(d_minus.T, b.T).T,
        bd_plus=np.linalg.solve(d_plus.T, b.T).T,
        gamma=gamma,
    )


def half_size_from_invariants(
    invariants: HalfSizeInvariants, c: np.ndarray
) -> np.ndarray:
    """Assemble the half-size test matrix P for output matrix ``c`` (P, n)."""
    a = invariants.a
    return (a - invariants.bd_minus @ c) @ (a - invariants.bd_plus @ c)


def half_size_crossings(
    p: np.ndarray,
    response_fn,
    gamma: float = 1.0,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-3,
) -> np.ndarray:
    """Verified gamma-crossing frequencies of a half-size test matrix.

    Crossings of the full Hamiltonian at ``lambda = j omega`` appear in
    the half-size spectrum at ``lambda^2 = -omega^2``, so the candidates
    are the (numerically) real negative eigenvalues of ``p``.  The full
    test accepts ``|Re lambda| <= rel_tol |lambda| + abs_tol``; squaring
    maps that band to ``|Im lambda^2| <= 2 (rel_tol |lambda^2| + abs_tol
    sqrt(|lambda^2|))``, which is the acceptance used here -- and the
    same singular-value verification then weeds out false candidates.
    ``p`` is overwritten by the eigensolver.
    """
    eigenvalues = scipy.linalg.eigvals(p, check_finite=False, overwrite_a=True)
    magnitude = np.abs(eigenvalues)
    accept = (eigenvalues.real < 0.0) & (
        np.abs(eigenvalues.imag)
        <= 2.0 * (rel_tol * magnitude + abs_tol * np.sqrt(magnitude))
    )
    if not np.any(accept):
        return np.zeros(0)
    omegas = np.sort(np.sqrt(-eigenvalues.real[accept]))
    return _verified_crossings(omegas, response_fn, gamma)


def _verified_crossings(
    omegas: np.ndarray, response_fn, gamma: float
) -> np.ndarray:
    """Candidates kept when a singular value actually sits at gamma."""
    # Verify: at a true crossing the closest singular value equals gamma.
    response = response_fn(omegas)
    sigma = np.linalg.svd(response, compute_uv=False)
    verified = (
        np.min(np.abs(sigma - gamma), axis=1) <= 1e-4 * max(gamma, 1.0)
    )
    return omegas[verified]


def imaginary_crossings(
    m: np.ndarray,
    response_fn,
    gamma: float = 1.0,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-3,
) -> np.ndarray:
    """Verified gamma-crossing frequencies of a prebuilt Hamiltonian matrix.

    ``response_fn(omega_array) -> (K, P, P)`` evaluates the transfer matrix
    on a frequency grid; candidates are verified against the actual
    singular values, which weeds out borderline eigenvalues of the
    ill-conditioned Hamiltonian.  ``m`` is overwritten by the eigensolver
    (callers pass a freshly assembled matrix).
    """
    eigenvalues = scipy.linalg.eigvals(m, check_finite=False, overwrite_a=True)
    imag = eigenvalues.imag
    accept = (imag > 0.0) & (
        np.abs(eigenvalues.real) <= rel_tol * np.abs(eigenvalues) + abs_tol
    )
    if not np.any(accept):
        return np.zeros(0)
    omegas = np.sort(imag[accept])
    return _verified_crossings(omegas, response_fn, gamma)


def imaginary_eigenvalue_frequencies(
    model: StateSpaceModel,
    gamma: float = 1.0,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-3,
    response_fn=None,
) -> np.ndarray:
    """Positive frequencies where some singular value crosses ``gamma``.

    Returns the sorted angular frequencies omega > 0 of the (numerically)
    purely imaginary eigenvalues of the Hamiltonian matrix.  An eigenvalue
    lambda is accepted as imaginary when |Re lambda| <= rel_tol * |lambda|
    + abs_tol; candidates are then verified by evaluating the actual
    singular values.  ``response_fn`` lets callers supply a cheaper
    equivalent response evaluator (e.g. the pole-residue form of the same
    model) instead of the dense state-space solve.
    """
    m = hamiltonian_matrix(model, gamma)
    if response_fn is None:
        response_fn = model.frequency_response
    return imaginary_crossings(
        m, response_fn, gamma, rel_tol=rel_tol, abs_tol=abs_tol
    )


def is_passive_hamiltonian(
    model: StateSpaceModel, *, gamma: float = 1.0
) -> bool:
    """Quick passivity verdict: no crossings of gamma=1 and sigma_max(D) < 1.

    A stable scattering model is passive iff sigma_max(H(j omega)) <= 1 for
    all omega; absence of imaginary Hamiltonian eigenvalues means the
    singular values never *cross* 1, so combined with a spot check (at one
    frequency and at infinity via D) it certifies passivity.
    """
    d_gain = float(np.linalg.norm(model.d, 2))
    if d_gain >= 1.0:
        return False
    crossings = imaginary_eigenvalue_frequencies(model, gamma)
    if crossings.size:
        return False
    sigma0 = float(np.linalg.svd(model.transfer_at(0.0), compute_uv=False)[0])
    return sigma0 <= 1.0
