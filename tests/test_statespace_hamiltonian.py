"""Hamiltonian passivity test: crossings must match singular-value sweeps."""

import numpy as np
import pytest

from repro.statespace.hamiltonian import (
    half_size_crossings,
    half_size_from_invariants,
    half_size_invariants,
    hamiltonian_matrix,
    imaginary_eigenvalue_frequencies,
    is_passive_hamiltonian,
)
from repro.statespace.poleresidue import PoleResidueModel
from tests.conftest import make_random_stable_model


def bump_model(gain):
    """SISO model whose |H| peaks near omega = 5 with peak ~ gain."""
    poles = np.array([-0.5 + 5.0j, -0.5 - 5.0j])
    r = gain * 0.5
    residues = np.array([[[r]], [[r]]], dtype=complex)
    return PoleResidueModel(poles, residues, np.zeros((1, 1)))


def make_reciprocal_model(seed=3, n_ports=3, n_pairs=4, boost=1.0):
    """Random stable *reciprocal* model (symmetric residues and const)."""
    rng = np.random.default_rng(seed)
    model = make_random_stable_model(
        rng, n_real=2, n_pairs=n_pairs, n_ports=n_ports
    )
    residues = 0.5 * (model.residues + model.residues.transpose(0, 2, 1))
    const = 0.5 * (model.const + model.const.T) * 0.5
    return PoleResidueModel(model.poles, residues * boost, const)


class TestHamiltonianMatrix:
    def test_shape(self):
        ss = bump_model(0.5).to_state_space()
        m = hamiltonian_matrix(ss)
        assert m.shape == (4, 4)

    def test_eigenvalue_symmetry(self):
        """Hamiltonian spectra are symmetric about the imaginary axis."""
        ss = bump_model(1.4).to_state_space()
        eigs = np.linalg.eigvals(hamiltonian_matrix(ss))
        for lam in eigs:
            assert np.min(np.abs(eigs + np.conj(lam))) < 1e-8 * max(abs(lam), 1.0)

    def test_gamma_equal_to_d_gain_rejected(self):
        model = PoleResidueModel(
            np.array([-1.0]), np.zeros((1, 1, 1), complex), np.array([[1.0]])
        )
        with pytest.raises(ValueError, match="singular value of D"):
            hamiltonian_matrix(model.to_state_space(), gamma=1.0)


class TestCrossings:
    def test_passive_model_has_no_crossings(self):
        ss = bump_model(0.8).to_state_space()
        assert imaginary_eigenvalue_frequencies(ss).size == 0

    def test_violating_model_has_crossings(self):
        ss = bump_model(1.5).to_state_space()
        crossings = imaginary_eigenvalue_frequencies(ss)
        assert crossings.size == 2  # up-crossing and down-crossing

    def test_crossings_match_svd_sweep(self):
        ss = bump_model(1.5).to_state_space()
        crossings = imaginary_eigenvalue_frequencies(ss)
        for omega in crossings:
            sigma = np.linalg.svd(ss.transfer_at(1j * omega), compute_uv=False)[0]
            assert np.isclose(sigma, 1.0, atol=1e-6)

    def test_violation_between_crossings(self):
        ss = bump_model(1.5).to_state_space()
        lo, hi = imaginary_eigenvalue_frequencies(ss)
        mid = 0.5 * (lo + hi)
        sigma = np.linalg.svd(ss.transfer_at(1j * mid), compute_uv=False)[0]
        assert sigma > 1.0


class TestVerdict:
    def test_passive(self):
        assert is_passive_hamiltonian(bump_model(0.8).to_state_space())

    def test_not_passive(self):
        assert not is_passive_hamiltonian(bump_model(1.5).to_state_space())

    def test_d_gain_violation(self):
        model = PoleResidueModel(
            np.array([-1.0]), np.zeros((1, 1, 1), complex), np.array([[1.2]])
        )
        assert not is_passive_hamiltonian(model.to_state_space())


class TestHalfSizeHamiltonian:
    def test_half_size_crossings_match_full_size(self):
        model = make_reciprocal_model(seed=5, boost=1.9)
        ss = model.to_state_space()
        full = imaginary_eigenvalue_frequencies(
            ss, gamma=1.0, response_fn=model.frequency_response
        )
        invariants = half_size_invariants(ss.a, ss.b, ss.d, gamma=1.0)
        p = half_size_from_invariants(invariants, ss.c)
        assert p.shape[0] == ss.a.shape[0]  # half of the 2N Hamiltonian
        half = half_size_crossings(
            p, model.frequency_response, gamma=1.0
        )
        assert half.size == full.size
        if full.size:
            assert np.max(np.abs(half - full) / np.maximum(full, 1.0)) <= 1e-6

    def test_half_size_rejects_singular_gamma_shift(self):
        model = make_reciprocal_model(seed=7)
        ss = model.to_state_space()
        d = np.eye(ss.d.shape[0])  # D - gamma*I singular at gamma = 1
        with pytest.raises(ValueError):
            half_size_invariants(ss.a, ss.b, d, gamma=1.0)

    def test_engine_uses_half_size_only_for_reciprocal_models(self):
        from repro.passivity.engine import CheckerOptions, PassivityChecker

        model = make_reciprocal_model(seed=9, boost=1.9)
        checker = PassivityChecker(
            model, options=CheckerOptions(strategy="exact")
        )
        report = checker.check(model)
        assert checker.n_half_size_checks == 1

        rng = np.random.default_rng(11)
        skewed = make_random_stable_model(rng, n_real=2, n_pairs=3, n_ports=3)
        skewed = PoleResidueModel(
            skewed.poles, skewed.residues, 0.5 * skewed.const
        )
        full_checker = PassivityChecker(
            skewed, options=CheckerOptions(strategy="exact")
        )
        full_checker.check(skewed)
        assert full_checker.n_half_size_checks == 0  # not reciprocal

        # The half-size report agrees with the full-size oracle check.
        from repro.passivity.check import check_passivity

        oracle = check_passivity(model)
        assert report.is_passive == oracle.is_passive
        assert abs(report.worst_sigma - oracle.worst_sigma) <= 1e-6 * max(
            oracle.worst_sigma, 1.0
        )
