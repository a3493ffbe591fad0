"""Fast passivity engine: a stateful checker with cached invariants.

Passivity enforcement (paper eq. 9) calls the passivity checker once per
iteration, but only the residues (the C matrix of the Gilbert realization)
change between calls -- poles, D, and therefore A, B and the R/S blocks of
the Hamiltonian matrix are invariant across the whole run.
:class:`PassivityChecker` is constructed once per enforcement run and
caches all of that, so each exact check is reduced to three small matrix
products plus the unavoidable eigendecomposition.

Reciprocal iterates take the half-size n x n test, which is cheap but
only steers constraint placement: squaring the spectrum loses crossings
far below the largest pole.  A passing half-size verdict is therefore
never returned as a certificate -- :meth:`PassivityChecker.check`
re-checks it with the full-size 2n x 2n Hamiltonian test.
"""

from __future__ import annotations

import numpy as np

from repro.obs import telemetry as obs
from repro.passivity.check import (
    PassivityReport,
    asymptotic_violation_report,
    check_passivity_sampling,
    default_omega_cap,
    report_from_crossings,
)
from repro.resilience.errors import CheckerError
from repro.statespace.hamiltonian import (
    half_size_crossings,
    half_size_from_invariants,
    half_size_invariants,
    hamiltonian_from_invariants,
    hamiltonian_invariants,
    imaginary_crossings,
)
from repro.statespace.poleresidue import PoleResidueModel

#: Relative symmetry defect below which a model counts as reciprocal --
#: the half-size test's sigma error is O(defect), far inside the 1e-4
#: crossing-verification tolerance.
_RECIPROCAL_RTOL = 1e-8


def _symmetry_defect(matrix: np.ndarray) -> float:
    """Relative distance of (each slice of) ``matrix`` from symmetry."""
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    if scale == 0.0:
        return 0.0
    if matrix.ndim == 2:
        defect = float(np.max(np.abs(matrix - matrix.T)))
    else:
        defect = float(np.max(np.abs(matrix - matrix.transpose(0, 2, 1))))
    return defect / scale


def is_reciprocal(model: PoleResidueModel, *, rtol: float = _RECIPROCAL_RTOL) -> bool:
    """Whether the model's response matrix is symmetric (S = S^T)."""
    return (
        _symmetry_defect(model._const) <= rtol
        and _symmetry_defect(model._residues) <= rtol
    )


class PassivityChecker:
    """Stateful passivity checker for one enforcement run.

    Construction caches everything invariant under residue perturbation:
    the Gilbert realization scaffolding (A, B; only C changes per
    iteration), the R/S-derived Hamiltonian blocks (full-size, plus the
    half-size factors for a symmetric D) and ``omega_cap``.  All
    subsequent checks must be called with models sharing the constructor
    model's poles and constant term.
    """

    def __init__(
        self,
        model: PoleResidueModel,
        *,
        band_samples: int = 50,
        omega_cap: float | None = None,
    ) -> None:
        if not model.is_stable():
            raise ValueError("passivity checking requires a stable model")
        self.band_samples = band_samples
        self._poles = model.poles
        self._const = model.const
        self._asymptotic = float(np.linalg.norm(self._const, 2))
        self.omega_cap = (
            omega_cap if omega_cap is not None else default_omega_cap(model)
        )

        self._invariants = None
        self._half_invariants = None
        if self._asymptotic < 1.0:
            a_e, b_e = model.element_dynamics()
            eye = np.eye(model.n_ports)
            a = np.kron(a_e, eye)
            b = np.kron(b_e[:, None], eye)
            self._invariants = hamiltonian_invariants(
                a, b, self._const, gamma=1.0,
            )
            if _symmetry_defect(self._const) <= _RECIPROCAL_RTOL:
                # Reciprocal family (symmetric D): cache the half-size
                # factors too; whether a given iterate may use them is
                # re-decided per check from its residue symmetry.
                try:
                    self._half_invariants = half_size_invariants(
                        a, b, self._const, gamma=1.0,
                    )
                except ValueError:
                    self._half_invariants = None
        self.n_exact_checks = 0
        self.n_half_size_checks = 0

    def check_exact(
        self, model: PoleResidueModel, *, full_size: bool = False
    ) -> PassivityReport:
        """Hamiltonian test using the cached invariant blocks.

        Reciprocal iterates (symmetric residues and constant term, the
        physical PDN case) take the half-size structured test -- an n x n
        eigensolve instead of 2n x 2n -- unless ``full_size`` is set.
        The half-size report places the enforcement constraints, but it
        is not a certificate: squaring the spectrum spreads it over many
        decades, so a crossing far below the largest pole can come out
        with a large imaginary part and be lost (see :meth:`check`).
        With ``full_size`` set, or for an iterate that drifted off
        symmetry, this is the full 2n x 2n test of
        :func:`repro.passivity.check.check_passivity` on the cached
        blocks: same crossings, bands and worst singular value.
        """
        self._validate(model)
        self.n_exact_checks += 1
        obs.incr("checker.exact_checks")
        if self._asymptotic >= 1.0:
            return asymptotic_violation_report(model, self._asymptotic)
        use_half = not full_size and self._half_size_eligible(model)
        if use_half:
            self.n_half_size_checks += 1
            m = half_size_from_invariants(
                self._half_invariants, model.full_output_matrix()
            )
        else:
            m = hamiltonian_from_invariants(
                self._invariants, model.full_output_matrix()
            )
        with obs.span(
            "kernel:hamiltonian_eig", n=int(m.shape[0]),
            half_size=bool(use_half),
        ):
            try:
                if use_half:
                    crossings = half_size_crossings(
                        m, model.frequency_response, 1.0
                    )
                else:
                    crossings = imaginary_crossings(
                        m, model.frequency_response, 1.0
                    )
            except np.linalg.LinAlgError as exc:
                raise CheckerError(
                    f"Hamiltonian eigendecomposition failed: {exc}",
                    stage="enforcement",
                ) from exc
        return report_from_crossings(
            model,
            crossings,
            omega_cap=self.omega_cap,
            band_samples=self.band_samples,
            asymptotic=self._asymptotic,
        )

    def check(self, model: PoleResidueModel) -> PassivityReport:
        """:meth:`check_exact`, with a passing verdict always full-size.

        A passing half-size report is re-checked by the full-size test,
        whose report is returned; a refutation increments
        ``fallback.certificate_refuted``.  A failing half-size report
        rests on a sampled sigma > 1 and is returned as it is, to place
        the next constraints.
        """
        report = self.check_exact(model)
        if not report.is_passive or not self._half_size_eligible(model):
            return report
        certificate = self.check_exact(model, full_size=True)
        if not certificate.is_passive:
            obs.incr("fallback.certificate_refuted")
        return certificate

    def check_sampling(
        self, model: PoleResidueModel, omega: np.ndarray
    ) -> PassivityReport:
        """:func:`repro.passivity.check.check_passivity_sampling` on ``omega``.

        Nothing in the package calls this.  It is kept only because the
        benchmark's per-layer tracing wraps ``PassivityChecker`` methods
        by name, and it goes with the next change to the benchmark.
        """
        return check_passivity_sampling(model, omega)

    def _half_size_eligible(self, model: PoleResidueModel) -> bool:
        return (
            self._half_invariants is not None
            and _symmetry_defect(model._residues) <= _RECIPROCAL_RTOL
        )

    def _validate(self, model: PoleResidueModel) -> None:
        if not np.array_equal(model._poles, self._poles) or not np.array_equal(
            model._const, self._const
        ):
            raise ValueError(
                "PassivityChecker invariants were built for a different "
                "model family (poles or constant term changed); construct "
                "a new checker"
            )
