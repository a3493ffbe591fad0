"""Gramian solvers: residuals, PSD, balancing, Parseval cross-check."""

import numpy as np
import pytest

from repro.obs import telemetry_session
from repro.statespace.gramians import (
    controllability_gramian,
    ensure_psd,
    lyapunov_residual,
    observability_gramian,
)
from tests.conftest import make_random_stable_model


class TestControllability:
    def test_residual_small(self, rng):
        m = make_random_stable_model(rng, n_ports=2)
        ss = m.to_state_space()
        p = controllability_gramian(ss.a, ss.b)
        assert lyapunov_residual(ss.a, ss.b, p) < 1e-8

    def test_psd(self, rng):
        m = make_random_stable_model(rng, n_ports=2)
        ss = m.to_state_space()
        p = controllability_gramian(ss.a, ss.b)
        eigs = np.linalg.eigvalsh(p)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            controllability_gramian(np.array([[1.0]]), np.array([[1.0]]))

    def test_empty_system(self):
        p = controllability_gramian(np.zeros((0, 0)), np.zeros((0, 1)))
        assert p.shape == (0, 0)

    def test_parseval_cross_check(self):
        """trace(C P C^T) equals (1/2pi) integral |H|^2 for a SISO system."""
        a = np.array([[-2.0, 0.0], [0.0, -30.0]])
        b = np.array([[1.0], [1.0]])
        c = np.array([[1.0, 0.5]])
        p = controllability_gramian(a, b)
        norm_algebraic = float((c @ p @ c.T)[0, 0])
        omega = np.linspace(-3e3, 3e3, 600001)
        h = np.array(
            [c @ np.linalg.solve(1j * w * np.eye(2) - a, b) for w in omega]
        )[:, 0, 0]
        norm_quadrature = np.trapezoid(np.abs(h) ** 2, omega) / (2 * np.pi)
        assert np.isclose(norm_algebraic, norm_quadrature, rtol=1e-3)

    def test_stiff_system_stays_psd(self):
        """7-decade pole spread (the PDN regime) must not go indefinite."""
        poles = -np.logspace(0, 7, 12)
        a = np.diag(poles)
        b = np.ones((12, 1))
        p = controllability_gramian(a, b)
        eigs = np.linalg.eigvalsh(p)
        assert eigs.min() >= -1e-12 * eigs.max()

    def test_perturbed_lyapunov_solve_is_counted(self):
        """A nearly marginal pole makes scipy perturb the solve: counted."""
        a = np.diag([-1.0, -1e-20])  # 2 * (-1e-20) is ~0 next to eps * |A|
        b = np.ones((2, 1))
        with telemetry_session(label="t") as tel:
            controllability_gramian(a, b)
        assert tel.counters.get("fallback.lyapunov_perturbed") == 1
        events = [
            e for e in tel.events
            if e["event"] == "fallback.lyapunov_perturbed"
        ]
        assert [e["n_states"] for e in events] == [2]

    def test_well_conditioned_solve_is_not_counted(self, rng):
        ss = make_random_stable_model(rng, n_ports=2).to_state_space()
        with telemetry_session(label="t") as tel:
            controllability_gramian(ss.a, ss.b)
        assert "fallback.lyapunov_perturbed" not in tel.counters


class TestObservability:
    def test_residual(self, rng):
        m = make_random_stable_model(rng, n_ports=2)
        ss = m.to_state_space()
        q = observability_gramian(ss.a, ss.c)
        residual = ss.a.T @ q + q @ ss.a + ss.c.T @ ss.c
        assert np.linalg.norm(residual) < 1e-8 * np.linalg.norm(ss.c.T @ ss.c)

    def test_duality(self):
        """Observability of (A, C) = controllability of (A^T, C^T)."""
        a = np.array([[-1.0, 0.5], [0.0, -4.0]])
        c = np.array([[1.0, 2.0]])
        q = observability_gramian(a, c)
        p = controllability_gramian(a.T, c.T)
        assert np.allclose(q, p)


class TestEnsurePsd:
    def test_clips_small_negative(self):
        m = np.diag([1.0, -1e-16])
        repaired = ensure_psd(m)
        assert np.linalg.eigvalsh(repaired).min() >= 0.0

    def test_rejects_genuinely_indefinite(self):
        with pytest.raises(ValueError, match="indefinite"):
            ensure_psd(np.diag([1.0, -0.5]))

    def test_zero_matrix(self):
        assert np.allclose(ensure_psd(np.zeros((3, 3))), 0.0)
