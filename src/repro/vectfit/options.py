"""Configuration for the vector-fitting algorithms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class VFOptions:
    """Options for :func:`repro.vectfit.core.vector_fit`.

    Parameters
    ----------
    n_poles:
        Model order N (conjugate pairs count as two).  The paper uses
        n = 12 common poles for the PDN macromodel.
    n_iterations:
        Maximum pole-relocation iterations.
    stable:
        Flip relocated poles into the left half plane (always on for
        macromodeling; exposed for experiments).
    relaxed:
        Use the relaxed non-triviality constraint of Gustavsen (2006)
        instead of fixing sigma's constant term to 1.
    fit_const:
        Include the constant term D in the model (paper eq. 3 includes R0).
    fit_proportional:
        Include a proportional term s*E (not used by the paper's flow).
    pole_convergence_tol:
        Relative pole-movement threshold declaring convergence.
    initial_poles:
        Optional explicit starting poles (pair-grouped); overrides the
        automatic log-spaced choice.
    min_sigma_d:
        Lower clamp for sigma's constant term in the relaxed iteration,
        relative to its LS scale; guards against degenerate relocations.
    asymptotic_passivity_margin:
        When positive (default), the identified constant term D is
        projected so sigma_max(D) <= 1 - margin and the residues are
        re-identified with D fixed.  Band-limited scattering data gives VF
        no information above the last sample, so the unconstrained D often
        lands slightly above 1; residue perturbation cannot repair a
        violation at infinite frequency, hence this projection.  Set to 0
        to disable (e.g. for non-scattering data).
    dc_exact:
        Interpolate the DC sample exactly: the constant term is eliminated
        through d = S(0) - sum_n c_n phi_n(0), so model(0) == data(0) to
        machine precision.  Requires omega[0] == 0 and ``fit_const``.
        Useful for PDN models whose DC loaded impedance must be exact;
        mutually exclusive with the asymptotic D projection (the implied
        D is whatever DC interpolation requires).
    kernel:
        Linear-algebra kernel selection.  ``"batched"`` (default)
        assembles all response columns as stacked tensors and runs
        batched LAPACK QR / multi-RHS solves with no Python per-column
        work; ``"reference"`` runs the original per-column loops.  Both
        compute the same math on the same operands and agree to roundoff
        (``reference`` is kept as the equivalence oracle for tests and
        benchmarks).
    """

    n_poles: int = 12
    n_iterations: int = 20
    stable: bool = True
    relaxed: bool = True
    fit_const: bool = True
    fit_proportional: bool = False
    pole_convergence_tol: float = 1e-8
    initial_poles: np.ndarray | None = None
    min_sigma_d: float = 1e-8
    asymptotic_passivity_margin: float = 1e-4
    dc_exact: bool = False
    kernel: str = "batched"

    def __post_init__(self) -> None:
        if self.n_poles < 1:
            raise ValueError("n_poles must be at least 1")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be non-negative")
        if self.pole_convergence_tol <= 0.0:
            raise ValueError("pole_convergence_tol must be positive")
        if self.min_sigma_d <= 0.0:
            raise ValueError("min_sigma_d must be positive")
        if not (0.0 <= self.asymptotic_passivity_margin < 1.0):
            raise ValueError("asymptotic_passivity_margin must be in [0, 1)")
        if self.dc_exact and not self.fit_const:
            raise ValueError("dc_exact requires fit_const")
        if self.kernel not in ("batched", "reference"):
            raise ValueError(
                f"kernel must be 'batched' or 'reference', got {self.kernel!r}"
            )
