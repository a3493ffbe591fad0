"""Linearized singular-value constraints for passivity enforcement.

At each violation frequency omega_nu with singular triplet
(sigma_i, u_i, v_i) of S(j omega_nu), the first-order perturbation of the
singular value under a residue (C-matrix) perturbation is (paper eq. 8)

    delta sigma_i = Re{ u_i^H  deltaS(j omega_nu)  v_i },
    deltaS(j omega_nu)_ab = k(omega_nu)^T delta_c_ab ,

where k(omega) = (j omega I - A_e)^{-1} b_e is the shared element transfer
kernel.  Stacking the per-element coefficients x = [delta_c_ab] row-major
gives one linear constraint row per (frequency, singular value):

    F x <= g ,   g = (1 - margin) - sigma_i              (paper eq. 9)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.statespace.poleresidue import PoleResidueModel


@dataclass(frozen=True)
class ConstraintSet:
    """Linear inequality constraints F x <= g on the flattened perturbation.

    ``x`` flattens the (P, P, N) element-coefficient perturbation in C
    order: x[((a * P) + b) * N + n] = delta_c[a, b, n].

    Each row of eq. (8) is the rank-2 tensor ``Re(w_i (x) k_i)`` with
    ``w_i = conj(u_i) outer conj(v_i)`` (complex, P x P) and the shared
    element kernel ``k_i = k(omega_i)`` (complex, length N).  The optional
    structured fields expose those factors so the QP solver can work in
    the factor spaces instead of sweeping the dense (n_c, P^2 N) matrix:
    ``kernels`` is the (K, N) complex kernel table over the distinct
    frequencies, ``freq_index`` maps each row to its kernel, and
    ``w_re``/``w_im`` hold the port factor on columns, ``port_map[a, b]``
    being the column of entry (a, b): P^2 columns (``a * P + b``), or for
    symmetric sets one per upper-triangle pair a <= b, P(P+1)/2 of them,
    holding the symmetrized ``w[a, b] = w[b, a]``.  ``x`` keeps the full
    (P, P, N) layout either way.
    """

    matrix: np.ndarray | None
    bounds: np.ndarray
    frequencies: np.ndarray
    sigmas: np.ndarray
    w_re: np.ndarray | None = None
    w_im: np.ndarray | None = None
    kernels: np.ndarray | None = None
    freq_index: np.ndarray | None = None
    port_map: np.ndarray | None = None

    @property
    def n_constraints(self) -> int:
        return int(self.bounds.shape[0])

    @property
    def structured(self) -> bool:
        """True when the tensor factors of every row are available."""
        return (
            self.w_re is not None
            and self.w_im is not None
            and self.kernels is not None
            and self.freq_index is not None
            and self.port_map is not None
        )

    def dense_matrix(self) -> np.ndarray:
        """The dense (n_c, P*P*N) constraint matrix F.

        Structured sets are built without it (the fast QP path works
        entirely in factor space), so it is materialized lazily -- only
        the dense fallback and diagnostics pay for it -- and memoized.
        """
        if self.matrix is not None:
            return self.matrix
        if not self.structured:
            raise ValueError(
                "constraint set has neither a dense matrix nor factors"
            )
        w = (self.w_re + 1j * self.w_im)[:, self.port_map.ravel()]
        built = np.real(
            w[:, :, None] * self.kernels[self.freq_index][:, None, :]
        ).reshape(self.n_constraints, -1)
        object.__setattr__(self, "matrix", built)  # memoize (frozen)
        return built

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Constraint slack g - F x (negative entries are violations)."""
        return self.bounds - self.dense_matrix() @ x


def flatten_delta(delta_c: np.ndarray) -> np.ndarray:
    """Flatten a (P, P, N) perturbation into the constraint vector layout."""
    return np.asarray(delta_c, dtype=float).reshape(-1)


def unflatten_delta(x: np.ndarray, n_ports: int, n_states: int) -> np.ndarray:
    """Inverse of :func:`flatten_delta`."""
    return np.asarray(x, dtype=float).reshape(n_ports, n_ports, n_states)


def build_constraints(
    model: PoleResidueModel,
    frequencies: np.ndarray,
    *,
    margin: float = 1e-6,
    include_threshold: float = 0.999,
    symmetric: bool = False,
) -> ConstraintSet:
    """Assemble linearized constraints at the given angular frequencies.

    For each frequency, every singular value above ``include_threshold`` is
    constrained to end up below 1 - margin; constraining the near-violating
    values too prevents the perturbation from pushing a previously safe
    singular value over the limit.

    ``symmetric=True`` (reciprocal models) symmetrizes each row's port
    factor, ``w <- (w + w^T) / 2``, stored on the upper-triangle pairs.
    For a symmetric S this changes nothing to first order -- perturbations
    produced against these constraints are themselves symmetric, and the
    antisymmetric part of ``w`` is orthogonal to symmetric ``delta_c`` --
    but it makes the minimum-norm QP step exactly reciprocity-preserving,
    which keeps every enforcement iterate eligible for the half-size
    Hamiltonian test.
    """
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    p = model.n_ports
    n = model.element_state_dimension()
    a_e, b_e = model.element_dynamics()
    eye = np.eye(n)

    empty = ConstraintSet(
        matrix=np.zeros((0, p * p * n)),
        bounds=np.zeros(0),
        frequencies=np.zeros(0),
        sigmas=np.zeros(0),
    )
    if frequencies.size == 0:
        return empty

    # Batched SVDs and element kernels over all frequencies at once.
    responses = model.frequency_response(frequencies)  # (K, P, P)
    u, sigma, vh = np.linalg.svd(responses)
    systems = 1j * frequencies[:, None, None] * eye - a_e
    kernels = np.linalg.solve(
        systems, b_e.astype(complex)[None, :, None]
    )[..., 0]  # (K, N)

    # Row order matches the scalar loop: frequency-major, then singular
    # values in descending order (numpy's nonzero is row-major).
    k_idx, i_idx = np.nonzero(sigma >= include_threshold)
    if k_idx.size == 0:
        return empty
    u_sel = np.conj(u[k_idx, :, i_idx])  # (M, P): conj(u[:, i]) per row
    v_sel = np.conj(vh[k_idx, i_idx, :])  # (M, P): conj(v[b, i]) per row
    # Coefficient of delta_c_ab in delta sigma_i (paper eq. 8):
    #   Re{ conj(u[a,i]) * conj(v[b,i]) * kernel[n] } = Re(w (x) k).
    # Only the factors are stored; the dense matrix is built on demand.
    w = np.einsum("ma,mb->mab", u_sel, v_sel)
    if symmetric:
        rows, cols = np.triu_indices(p)
        w = 0.5 * (w[:, rows, cols] + w[:, cols, rows])
        port_map = np.empty((p, p), dtype=np.intp)
        port_map[rows, cols] = port_map[cols, rows] = np.arange(rows.size)
    else:
        w = w.reshape(k_idx.size, p * p)
        port_map = np.arange(p * p).reshape(p, p)
    return ConstraintSet(
        matrix=None,
        bounds=(1.0 - margin) - sigma[k_idx, i_idx],
        frequencies=frequencies[k_idx],
        sigmas=sigma[k_idx, i_idx],
        w_re=np.ascontiguousarray(w.real),
        w_im=np.ascontiguousarray(w.imag),
        kernels=kernels,
        freq_index=k_idx,
        port_map=port_map,
    )
