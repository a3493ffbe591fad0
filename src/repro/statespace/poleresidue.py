"""Matrix-valued pole-residue macromodels (paper eq. 3).

    S(s) = sum_n R_n / (s - p_n) + D

Poles are stored as a flat complex array in *pair-grouped order*: real poles
appear singly, complex poles appear as adjacent conjugate pairs with the
positive-imaginary member first.  Residue matrices R_n follow the same
ordering and satisfy the conjugate-pairing constraints that make the model
real (real impulse response).

The module also provides the real Gilbert realizations used throughout the
passivity machinery:

* the *full* realization (A, B, C, D) with A = blkdiag(block_n x I_P),
  B = stack of I_P blocks, C = residue blocks -- the form whose C matrix is
  perturbed during passivity enforcement (paper Sec. III);
* the *element* realization (A_e, b_e, c_ij, d_ij) of a single scattering
  entry S_ij(s), sharing A_e, b_e across all entries because the poles are
  common -- the form entering the weighted-norm cascade of eq. (18).

The two are consistent by construction: entry (i, j) of the full C matrix
restricted to pole block n equals the corresponding entries of c_ij, so a
perturbation expressed on element c vectors maps exactly onto a perturbation
of the full C matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PoleBlock:
    """Structural descriptor of one pole block.

    ``kind`` is ``"real"`` (1 state per port) or ``"pair"`` (2 states per
    port); ``index`` is the position of the (first) pole in the flat pole
    array; ``offset`` is the state offset of this block in the *element*
    realization (per-port state dimension).
    """

    kind: str
    index: int
    offset: int

    @property
    def width(self) -> int:
        """Number of element-realization states contributed by this block."""
        return 1 if self.kind == "real" else 2


def _analyse_pole_structure(
    poles: np.ndarray, pairing_tol: float
) -> list[PoleBlock]:
    """Group a flat pole array into real poles and conjugate pairs."""
    blocks: list[PoleBlock] = []
    offset = 0
    n = 0
    while n < poles.size:
        pole = poles[n]
        scale = max(abs(pole), 1.0)
        if abs(pole.imag) <= pairing_tol * scale:
            blocks.append(PoleBlock(kind="real", index=n, offset=offset))
            offset += 1
            n += 1
            continue
        if n + 1 >= poles.size:
            raise ValueError(
                f"complex pole {pole} at position {n} lacks a conjugate partner"
            )
        partner = poles[n + 1]
        if abs(partner - np.conj(pole)) > pairing_tol * scale:
            raise ValueError(
                f"poles at positions {n},{n + 1} are not a conjugate pair: "
                f"{pole} vs {partner}"
            )
        if pole.imag < 0.0:
            raise ValueError(
                f"conjugate pair at position {n} must list the positive-"
                f"imaginary pole first, got {pole}"
            )
        blocks.append(PoleBlock(kind="pair", index=n, offset=offset))
        offset += 2
        n += 2
    return blocks


class PoleResidueModel:
    """Rational macromodel in pole-residue form with a constant term.

    Parameters
    ----------
    poles:
        Flat complex array (N,), pair-grouped (see module docstring).
    residues:
        Complex array (N, P, P); residues of complex-pair poles must be
        conjugates of each other, residues of real poles must be real.
    const:
        Real direct-coupling matrix D, shape (P, P).
    pairing_tol:
        Relative tolerance used to classify poles as real / paired.
    """

    def __init__(
        self,
        poles: np.ndarray,
        residues: np.ndarray,
        const: np.ndarray,
        *,
        pairing_tol: float = 1e-9,
    ) -> None:
        poles = np.atleast_1d(np.asarray(poles, dtype=complex))
        residues = np.asarray(residues, dtype=complex)
        const = np.asarray(const, dtype=float)
        if poles.ndim != 1:
            raise ValueError("poles must be one-dimensional")
        if residues.ndim != 3 or residues.shape[0] != poles.size:
            raise ValueError(
                f"residues must have shape (N, P, P) with N={poles.size}, "
                f"got {residues.shape}"
            )
        if residues.shape[1] != residues.shape[2]:
            raise ValueError("residue matrices must be square")
        if const.shape != residues.shape[1:]:
            raise ValueError("const matrix shape must match residues")
        self._poles = poles
        self._residues = residues
        self._const = const
        self._blocks = _analyse_pole_structure(poles, pairing_tol)
        self._build_block_index()
        self._check_residue_pairing(pairing_tol)

    def _build_block_index(self) -> None:
        """Precompute index arrays for the vectorized realization builders.

        The passivity-enforcement loop rebuilds realizations every
        iteration; gather/scatter with these arrays replaces the per-block
        Python loops on that hot path.
        """
        self._real_indices = np.array(
            [b.index for b in self._blocks if b.kind == "real"], dtype=int
        )
        self._real_offsets = np.array(
            [b.offset for b in self._blocks if b.kind == "real"], dtype=int
        )
        self._pair_indices = np.array(
            [b.index for b in self._blocks if b.kind == "pair"], dtype=int
        )
        self._pair_offsets = np.array(
            [b.offset for b in self._blocks if b.kind == "pair"], dtype=int
        )
        self._n_element_states = int(
            self._real_offsets.size + 2 * self._pair_offsets.size
        )

    def _check_residue_pairing(self, tol: float) -> None:
        for block in self._blocks:
            r = self._residues[block.index]
            scale = max(float(np.max(np.abs(r))), 1.0)
            if block.kind == "real":
                if np.max(np.abs(r.imag)) > tol * scale:
                    raise ValueError(
                        f"residue of real pole {self._poles[block.index]} "
                        "has a non-negligible imaginary part"
                    )
            else:
                partner = self._residues[block.index + 1]
                if np.max(np.abs(partner - np.conj(r))) > tol * scale:
                    raise ValueError(
                        f"residues of conjugate pair at index {block.index} "
                        "are not conjugates"
                    )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def poles(self) -> np.ndarray:
        return self._poles.copy()

    @property
    def residues(self) -> np.ndarray:
        return self._residues.copy()

    @property
    def const(self) -> np.ndarray:
        return self._const.copy()

    @property
    def blocks(self) -> list[PoleBlock]:
        return list(self._blocks)

    @property
    def n_poles(self) -> int:
        """Model order N (conjugate pairs count as two)."""
        return int(self._poles.size)

    @property
    def n_ports(self) -> int:
        return int(self._residues.shape[1])

    def is_stable(self, tol: float = 0.0) -> bool:
        """True when all poles lie strictly in the left half plane."""
        return bool(np.all(self._poles.real < tol))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, s: np.ndarray) -> np.ndarray:
        """Evaluate S(s) on an array of complex frequencies; (K, P, P)."""
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        # (K, N) partial-fraction basis
        basis = 1.0 / (s[:, None] - self._poles[None, :])
        out = np.tensordot(basis, self._residues, axes=(1, 0))
        out += self._const[None, :, :]
        return out

    def frequency_response(self, omega: np.ndarray) -> np.ndarray:
        """Evaluate S(j omega) on a real angular-frequency grid."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        return self.evaluate(1j * omega)

    # ------------------------------------------------------------------
    # Real realizations
    # ------------------------------------------------------------------
    def element_state_dimension(self) -> int:
        """State count of the per-element realization (= N)."""
        return self._n_element_states

    def element_dynamics(self) -> tuple[np.ndarray, np.ndarray]:
        """Shared (A_e, b_e) of every scalar entry S_ij(s).

        A_e is N x N block-diagonal with real-pole scalars and 2x2 rotation
        blocks for conjugate pairs; b_e is the matching (N,) input vector
        with 1 for real poles and (2, 0) for pairs.  Each 2x2 block follows
        :func:`repro.util.linalg.real_block_of_conjugate_pair`.
        """
        n = self._n_element_states
        a = np.zeros((n, n))
        b = np.zeros(n)
        ro, ri = self._real_offsets, self._real_indices
        a[ro, ro] = self._poles[ri].real
        b[ro] = 1.0
        po, pi = self._pair_offsets, self._pair_indices
        pair_poles = self._poles[pi]
        a[po, po] = pair_poles.real
        a[po + 1, po + 1] = pair_poles.real
        a[po, po + 1] = pair_poles.imag
        a[po + 1, po] = -pair_poles.imag
        b[po] = 2.0
        return a, b

    def element_output_vectors(self) -> np.ndarray:
        """All element output vectors c_ij stacked as (P, P, N).

        ``c[i, j]`` realizes entry S_ij together with
        :meth:`element_dynamics` and d_ij = const[i, j].
        """
        p = self.n_ports
        c = np.empty((p, p, self._n_element_states))
        ro, ri = self._real_offsets, self._real_indices
        c[:, :, ro] = self._residues[ri].real.transpose(1, 2, 0)
        po, pi = self._pair_offsets, self._pair_indices
        pair_residues = self._residues[pi]
        c[:, :, po] = pair_residues.real.transpose(1, 2, 0)
        c[:, :, po + 1] = pair_residues.imag.transpose(1, 2, 0)
        return c

    def with_element_output_vectors(self, c: np.ndarray) -> "PoleResidueModel":
        """Rebuild a model with replaced element output vectors.

        Inverse of :meth:`element_output_vectors`: maps (P, P, N) real
        coefficients back onto conjugate-consistent residue matrices.  Used
        by passivity enforcement to apply the residue perturbation while
        keeping poles and D fixed.  The rebuilt residues are conjugate-
        consistent by construction, so the pole/pairing analysis of the
        original model is reused instead of being re-run.
        """
        c = np.asarray(c, dtype=float)
        expected = (self.n_ports, self.n_ports, self._n_element_states)
        if c.shape != expected:
            raise ValueError(f"c must have shape {expected}, got {c.shape}")
        residues = np.empty_like(self._residues)
        ro, ri = self._real_offsets, self._real_indices
        residues[ri] = c[:, :, ro].transpose(2, 0, 1)
        po, pi = self._pair_offsets, self._pair_indices
        value = (
            c[:, :, po].transpose(2, 0, 1)
            + 1j * c[:, :, po + 1].transpose(2, 0, 1)
        )
        residues[pi] = value
        residues[pi + 1] = np.conj(value)
        clone = object.__new__(PoleResidueModel)
        clone._poles = self._poles
        clone._residues = residues
        clone._const = self._const
        clone._blocks = self._blocks
        clone._real_indices = ri
        clone._real_offsets = ro
        clone._pair_indices = pi
        clone._pair_offsets = po
        clone._n_element_states = self._n_element_states
        return clone

    def full_output_matrix(self) -> np.ndarray:
        """C matrix of the full Gilbert realization, shape (P, N*P).

        Entry layout matches :meth:`to_state_space`:
        ``C[i, offset*P + j] = element_output_vectors()[i, j, offset]``.
        The passivity checker rebuilds only this matrix per enforcement
        iteration (A and B are invariant under residue perturbation).
        """
        p = self.n_ports
        return (
            self.element_output_vectors()
            .transpose(0, 2, 1)
            .reshape(p, self._n_element_states * p)
        )

    def to_state_space(self) -> "StateSpaceModel":
        """Full real Gilbert realization (paper eq. 7).

        States are grouped by pole block, then by port:
        A = blkdiag(block_n (x) I_P) = A_e (x) I_P, B stacks I_P (real
        poles) and [2 I_P; 0] (pairs) = b_e (x) I_P, C stacks [R_n] and
        [Re R_n, Im R_n].
        """
        from repro.statespace.system import StateSpaceModel

        p = self.n_ports
        a_e, b_e = self.element_dynamics()
        eye = np.eye(p)
        a = np.kron(a_e, eye)
        b = np.kron(b_e[:, None], eye)
        c = self.full_output_matrix()
        return StateSpaceModel(a, b, c, self._const.copy())

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def element_model(self, i: int, j: int) -> "StateSpaceModel":
        """SISO state-space realization of entry S_ij(s)."""
        from repro.statespace.system import StateSpaceModel

        a, b = self.element_dynamics()
        c = self.element_output_vectors()[i, j]
        return StateSpaceModel(
            a, b.reshape(-1, 1), c.reshape(1, -1), np.array([[self._const[i, j]]])
        )

    def __repr__(self) -> str:
        return (
            f"PoleResidueModel(order={self.n_poles}, ports={self.n_ports}, "
            f"stable={self.is_stable()})"
        )
