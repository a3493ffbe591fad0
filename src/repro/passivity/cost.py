"""Quadratic cost functions for the passivity-enforcement QP.

All supported perturbation norms are block-diagonal quadratic forms over
the per-element residue-coefficient perturbations delta_c_ij in R^N
(paper eqs. 10, 13, 20-21):

    ||delta S||^2 = sum_ij delta_c_ij^T G_ij delta_c_ij .

For the paper's costs the block G_ij is the *same* matrix G for every
entry (i, j):

* standard L2 norm (eq. 10): G = controllability Gramian of the shared
  element dynamics (A_e, b_e) -- this follows from
  tr(delta C (P_e (x) I_P) delta C^T) = sum_ij delta_c_ij^T P_e delta_c_ij;
* sampled discrete norm (eq. 13, "option 1" of Sec. III): G built from
  quadrature over the data grid with arbitrary frequency weights;
* sensitivity-weighted norm (eqs. 18-21, "option 2"): G = the (1,1) block
  of the cascade Gramian, built in :mod:`repro.sensitivity.weighted_norm`.

Per-element blocks (a different G_ij per entry) are supported as an
extension for per-element weighting schemes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.statespace.gramians import controllability_gramian
from repro.statespace.poleresidue import PoleResidueModel


class BlockDiagonalCost:
    """Block-diagonal SPD quadratic form over element perturbations.

    Parameters
    ----------
    blocks:
        Either a single (N, N) SPD matrix shared by all P*P elements, or a
        (P, P, N, N) array of per-element blocks.
    n_ports:
        Port count P (needed to size the shared-block case).
    ridge:
        Relative diagonal regularization added before factorization, as a
        fraction of mean(trace)/N; keeps near-singular Gramians usable.
    """

    def __init__(
        self,
        blocks: np.ndarray,
        n_ports: int,
        *,
        ridge: float = 1e-10,
    ) -> None:
        blocks = np.array(blocks, dtype=float)  # copy: repair may rewrite
        if blocks.ndim == 2:
            self._shared = True
            n = blocks.shape[0]
            if blocks.shape != (n, n):
                raise ValueError("shared block must be square")
            self._blocks = blocks[None, None, :, :]
        elif blocks.ndim == 4:
            self._shared = False
            if blocks.shape[0] != n_ports or blocks.shape[1] != n_ports:
                raise ValueError(
                    f"per-element blocks must be ({n_ports},{n_ports},N,N)"
                )
            n = blocks.shape[2]
            if blocks.shape[3] != n:
                raise ValueError("element blocks must be square")
            self._blocks = blocks
        else:
            raise ValueError("blocks must be (N,N) or (P,P,N,N)")
        self._n_ports = n_ports
        self._n = n
        self._ridge = ridge
        self._factorize()

    def _factorize(self) -> None:
        """Cholesky-factor every block in one batched call.

        The common case (all blocks SPD after the relative ridge) is a
        single batched :func:`numpy.linalg.cholesky`; only when that fails
        does the per-block eigenvalue-repair path run.  Gramians of systems
        spanning many frequency decades can lose definiteness to roundoff,
        hence the repair by eigenvalue clipping relative to the dominant
        eigenvalue.
        """
        eye = np.eye(self._n)
        scale = np.maximum(
            np.einsum("abii->ab", self._blocks) / self._n, 1e-300
        )
        shifted = self._blocks + (self._ridge * scale)[:, :, None, None] * eye
        try:
            self._chol = np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
        shape = shifted.shape[:2]
        self._chol = np.empty_like(shifted)
        for a in range(shape[0]):
            for b in range(shape[1]):
                try:
                    self._chol[a, b] = np.linalg.cholesky(shifted[a, b])
                    continue
                except np.linalg.LinAlgError:
                    pass
                block = self._blocks[a, b]
                eigenvalues, vectors = np.linalg.eigh(0.5 * (block + block.T))
                top = max(float(eigenvalues[-1]), 1e-300)
                floor = max(self._ridge, 1e-14) * top
                clipped = np.maximum(eigenvalues, floor)
                repaired = (vectors * clipped) @ vectors.T
                self._blocks[a, b] = repaired
                try:
                    self._chol[a, b] = np.linalg.cholesky(
                        repaired + floor * eye
                    )
                except np.linalg.LinAlgError as exc:
                    raise ValueError(
                        f"cost block ({a},{b}) is not positive definite even "
                        "after eigenvalue repair; increase ridge"
                    ) from exc

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Per-element coefficient dimension N."""
        return self._n

    @property
    def n_ports(self) -> int:
        return self._n_ports

    def block(self, a: int, b: int) -> np.ndarray:
        """Cost block G_ab."""
        if self._shared:
            return self._blocks[0, 0]
        return self._blocks[a, b]

    @property
    def shared(self) -> bool:
        """True when one block G is shared by all P*P elements."""
        return self._shared

    def solve(self, a: int, b: int, rhs: np.ndarray) -> np.ndarray:
        """Solve G_ab x = rhs (rhs may have multiple columns)."""
        key = (0, 0) if self._shared else (a, b)
        return scipy.linalg.cho_solve(
            (self._chol[key], True), rhs, check_finite=False
        )

    def solve_all(self, rhs: np.ndarray) -> np.ndarray:
        """Solve G_ab x_ab = rhs[a, b] for every element at once.

        ``rhs`` has shape (P, P, N) or (P, P, N, K).  The shared-block case
        (the paper's L2 and sensitivity-weighted costs) collapses to a
        single Cholesky solve with all P*P*K right-hand sides stacked; the
        per-element case batches one solve per block.
        """
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 3
        if squeeze:
            rhs = rhs[..., None]
        p, n = self._n_ports, self._n
        if rhs.shape[:3] != (p, p, n):
            raise ValueError(f"rhs must have shape ({p},{p},{n}[,K])")
        k = rhs.shape[3]
        if self._shared:
            stacked = rhs.transpose(2, 0, 1, 3).reshape(n, p * p * k)
            out = scipy.linalg.cho_solve(
                (self._chol[0, 0], True), stacked, check_finite=False
            )
            out = out.reshape(n, p, p, k).transpose(1, 2, 0, 3)
        else:
            out = np.empty_like(rhs)
            for a in range(p):
                for b in range(p):
                    out[a, b] = scipy.linalg.cho_solve(
                        (self._chol[a, b], True), rhs[a, b], check_finite=False
                    )
        return out[..., 0] if squeeze else out

    def solve_flat(self, x: np.ndarray) -> np.ndarray:
        """Solve H y = x on the flattened (P*P*N,) or (P*P*N, K) layout.

        ``H = blkdiag(G_ab)`` in the row-major element order used by the
        enforcement QP (:mod:`repro.passivity.perturbation`).
        """
        x = np.asarray(x, dtype=float)
        p, n = self._n_ports, self._n
        vector = x.ndim == 1
        k = 1 if vector else x.shape[1]
        out = self.solve_all(x.reshape(p, p, n, k))
        flat = out.reshape(p * p * n, k)
        return flat[:, 0] if vector else flat

    def quadratic_value(self, delta_c: np.ndarray) -> float:
        """Evaluate sum_ab delta_c[a,b]^T G_ab delta_c[a,b] for (P,P,N) input."""
        delta_c = np.asarray(delta_c, dtype=float)
        expected = (self._n_ports, self._n_ports, self._n)
        if delta_c.shape != expected:
            raise ValueError(f"delta_c must have shape {expected}")
        if self._shared:
            return float(
                np.einsum(
                    "abm,mn,abn->",
                    delta_c,
                    self._blocks[0, 0],
                    delta_c,
                    optimize=True,
                )
            )
        return float(
            np.einsum(
                "abm,abmn,abn->", delta_c, self._blocks, delta_c,
                optimize=True,
            )
        )


def l2_gramian_cost(model: PoleResidueModel, *, ridge: float = 1e-10) -> BlockDiagonalCost:
    """Standard L2 impulse-response norm cost (paper eq. 10).

    The shared block is the controllability Gramian of the element
    dynamics (A_e, b_e); summed over elements this equals
    tr(delta_C P delta_C^T) for the full realization.
    """
    a_e, b_e = model.element_dynamics()
    gramian = controllability_gramian(a_e, b_e.reshape(-1, 1))
    return BlockDiagonalCost(gramian, model.n_ports, ridge=ridge)


def relative_error_cost(
    model: PoleResidueModel,
    samples: np.ndarray,
    *,
    floor_ratio: float = 1e-2,
    ridge: float = 1e-10,
) -> BlockDiagonalCost:
    """Relative-error-controlled cost (paper ref. [18], Grivet-Talocia &
    Ubolli 2007).

    Each entry's perturbation is weighted by the inverse RMS magnitude of
    its data trace, so small scattering entries (e.g. far-coupling terms)
    are preserved in *relative* terms instead of being sacrificed to the
    large ones.  This is a static per-element special case of the general
    weighted norm: G_ab = P_e / rms(|S_ab|)^2.

    Parameters
    ----------
    model:
        Macromodel to be perturbed.
    samples:
        Data stack (K, P, P) the model was fitted to.
    floor_ratio:
        Entries quieter than ``floor_ratio * max_rms`` are clamped so the
        weights stay bounded.
    """
    samples = np.asarray(samples)
    p = model.n_ports
    if samples.ndim != 3 or samples.shape[1:] != (p, p):
        raise ValueError(f"samples must have shape (K, {p}, {p})")
    a_e, b_e = model.element_dynamics()
    gramian = controllability_gramian(a_e, b_e.reshape(-1, 1))
    rms = np.sqrt(np.mean(np.abs(samples) ** 2, axis=0))
    rms = np.maximum(rms, floor_ratio * float(rms.max()))
    blocks = gramian[None, None, :, :] / (rms**2)[:, :, None, None]
    return BlockDiagonalCost(blocks, p, ridge=ridge)


def sampled_norm_cost(
    model: PoleResidueModel,
    omega: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    ridge: float = 1e-10,
) -> BlockDiagonalCost:
    """Discrete sampled weighted norm (paper eq. 13, Sec. III option 1).

    Approximates (1/2pi) integral of w(omega)^2 tr(dS dS^H) by trapezoidal
    quadrature over the sample grid.  Supports arbitrary frequency weights
    at the price the paper mentions (a full K-term sum instead of one
    Lyapunov solve); kept as the ablation baseline for the Gramian route.
    """
    omega = np.asarray(omega, dtype=float)
    if weights is None:
        weights = np.ones_like(omega)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != omega.shape:
        raise ValueError("weights must match omega")
    a_e, b_e = model.element_dynamics()
    n = a_e.shape[0]
    eye = np.eye(n)
    # Trapezoidal quadrature weights over omega.
    theta = np.zeros_like(omega)
    if omega.size > 1:
        theta[:-1] += 0.5 * np.diff(omega)
        theta[1:] += 0.5 * np.diff(omega)
    else:
        theta[:] = 1.0
    # Batched kernels k(omega) = (j omega I - A_e)^-1 b_e, then one
    # weighted sum of rank-1 terms.
    systems = 1j * omega[:, None, None] * eye - a_e
    kernels = np.linalg.solve(
        systems, b_e.astype(complex)[None, :, None]
    )[..., 0]
    coeff = (theta / (2.0 * np.pi)) * weights**2
    block = np.real(
        np.einsum("k,km,kn->mn", coeff, np.conj(kernels), kernels)
    )
    return BlockDiagonalCost(block, model.n_ports, ridge=ridge)
