"""Minimal real state-space system container.

Provides exactly what the macromodeling flow needs: frequency responses,
series (cascade) interconnection for the weighted-norm construction of
paper eq. (18), Gramians, and pole/stability queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateSpaceModel:
    """LTI system ``x' = A x + B u``, ``y = C x + D u`` with real matrices."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("A must be square")
        if b.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise ValueError(
                f"D must have shape ({c.shape[0]}, {b.shape[1]}), got {d.shape}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return int(self.a.shape[0])

    @property
    def n_inputs(self) -> int:
        return int(self.b.shape[1])

    @property
    def n_outputs(self) -> int:
        return int(self.c.shape[0])

    def poles(self) -> np.ndarray:
        """Eigenvalues of A."""
        if self.n_states == 0:
            return np.zeros(0, dtype=complex)
        return np.linalg.eigvals(self.a)

    def is_stable(self, tol: float = 0.0) -> bool:
        """True when all eigenvalues of A are strictly in the LHP."""
        if self.n_states == 0:
            return True
        return bool(np.all(self.poles().real < tol))

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def frequency_response(self, omega: np.ndarray) -> np.ndarray:
        """Transfer matrix H(j omega) on a real frequency grid; (K, P_out, P_in)."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        k = omega.size
        out = np.empty((k, self.n_outputs, self.n_inputs), dtype=complex)
        if self.n_states == 0:
            out[:] = self.d
            return out
        eye = np.eye(self.n_states)
        for idx in range(k):
            x = np.linalg.solve(1j * omega[idx] * eye - self.a, self.b)
            out[idx] = self.c @ x + self.d
        return out

    def transfer_at(self, s: complex) -> np.ndarray:
        """Transfer matrix at a single complex frequency s."""
        if self.n_states == 0:
            return self.d.astype(complex)
        x = np.linalg.solve(s * np.eye(self.n_states) - self.a, self.b)
        return self.c @ x + self.d

    # ------------------------------------------------------------------
    # Interconnections
    # ------------------------------------------------------------------
    def series(self, inner: "StateSpaceModel") -> "StateSpaceModel":
        """Cascade realization of ``self(s) @ inner(s)`` (inner drives self).

        This is the block form of paper eq. (18) when ``self`` is a single
        scattering entry and ``inner`` the sensitivity weight:

            A = [[A1, B1 C2], [0, A2]],  B = [[B1 D2], [B2]],
            C = [C1, D1 C2],             D = D1 D2.
        """
        if inner.n_outputs != self.n_inputs:
            raise ValueError(
                f"cannot cascade: inner has {inner.n_outputs} outputs, "
                f"outer expects {self.n_inputs} inputs"
            )
        n1, n2 = self.n_states, inner.n_states
        a = np.zeros((n1 + n2, n1 + n2))
        a[:n1, :n1] = self.a
        a[:n1, n1:] = self.b @ inner.c
        a[n1:, n1:] = inner.a
        b = np.vstack([self.b @ inner.d, inner.b])
        c = np.hstack([self.c, self.d @ inner.c])
        d = self.d @ inner.d
        return StateSpaceModel(a, b, c, d)

    # ------------------------------------------------------------------
    # Gramians
    # ------------------------------------------------------------------
    def controllability_gramian(self) -> np.ndarray:
        """Solution P of A P + P A^T = -B B^T (paper eq. 11); requires stability."""
        from repro.statespace.gramians import controllability_gramian

        return controllability_gramian(self.a, self.b)

    def observability_gramian(self) -> np.ndarray:
        """Solution Q of A^T Q + Q A = -C^T C."""
        from repro.statespace.gramians import observability_gramian

        return observability_gramian(self.a, self.c)

    def h2_norm_squared(self) -> float:
        """Squared H2 norm trace(C P C^T) (paper eq. 10/12 for D = 0)."""
        if self.n_states == 0:
            return 0.0
        p = self.controllability_gramian()
        return float(np.trace(self.c @ p @ self.c.T))

    def __repr__(self) -> str:
        return (
            f"StateSpaceModel(n={self.n_states}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs})"
        )
