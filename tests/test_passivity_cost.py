"""Cost functions: block structure, equivalence with full-realization norms."""

import numpy as np
import pytest
import scipy.linalg

from repro.passivity.cost import BlockDiagonalCost, l2_gramian_cost, sampled_norm_cost
from repro.statespace.gramians import controllability_gramian
from tests.conftest import make_random_stable_model, rel_rms


class TestBlockDiagonalCost:
    def test_shared_block(self, rng):
        g = np.eye(3)
        cost = BlockDiagonalCost(g, n_ports=2)
        assert cost.n_states == 3
        assert np.allclose(cost.block(0, 1), g)

    def test_solve(self, rng):
        a = rng.normal(size=(4, 4))
        g = a @ a.T + 4 * np.eye(4)
        cost = BlockDiagonalCost(g, n_ports=2)
        rhs = rng.normal(size=4)
        assert np.allclose(g @ cost.solve(0, 0, rhs), rhs, rtol=1e-8)

    def test_quadratic_value(self, rng):
        g = 2.0 * np.eye(2)
        cost = BlockDiagonalCost(g, n_ports=2)
        delta = np.ones((2, 2, 2))
        # Each element contributes 2*(1+1) = 4; four elements -> 16.
        assert np.isclose(cost.quadratic_value(delta), 16.0)

    def test_per_element_blocks(self, rng):
        blocks = np.stack(
            [np.stack([np.eye(2) * (1 + i + j) for j in range(2)]) for i in range(2)]
        )
        cost = BlockDiagonalCost(blocks, n_ports=2)
        assert np.allclose(cost.block(1, 1), 3 * np.eye(2))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BlockDiagonalCost(np.zeros((2, 3)), n_ports=2)
        with pytest.raises(ValueError):
            BlockDiagonalCost(np.zeros((3, 3, 2, 2)), n_ports=2)

    def test_near_singular_block_repaired(self):
        g = np.diag([1.0, 1e-18])
        cost = BlockDiagonalCost(g, n_ports=1, ridge=1e-10)
        x = cost.solve(0, 0, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(x))

    def test_cost_factorization_matches_scipy_cho_solve(self):
        rng = np.random.default_rng(2)
        n, p = 6, 2
        m = rng.normal(size=(n, n))
        gram = m @ m.T + n * np.eye(n)
        ridge = 1e-10
        cost = BlockDiagonalCost(gram, p, ridge=ridge)
        rhs = rng.normal(size=(n, 4))
        routed = cost.solve(0, 0, rhs)
        shifted = gram + ridge * (np.trace(gram) / n) * np.eye(n)
        cho = np.linalg.cholesky(shifted)
        direct = scipy.linalg.cho_solve((cho, True), rhs, check_finite=False)
        assert rel_rms(routed, direct) <= 1e-10


class TestL2GramianCost:
    def test_matches_full_realization_norm(self, rng):
        """sum_ij dc_ij^T P_e dc_ij == tr(dC P dC^T) on the full model."""
        model = make_random_stable_model(rng, n_ports=2)
        cost = l2_gramian_cost(model, ridge=0.0)
        ss = model.to_state_space()
        p_full = controllability_gramian(ss.a, ss.b)
        delta = rng.normal(size=(2, 2, model.element_state_dimension()))
        # Map element perturbation onto the full C matrix.
        base_c = model.element_output_vectors()
        perturbed = model.with_element_output_vectors(base_c + delta)
        delta_c_full = perturbed.to_state_space().c - ss.c
        full_norm = float(np.trace(delta_c_full @ p_full @ delta_c_full.T))
        block_norm = cost.quadratic_value(delta)
        assert np.isclose(block_norm, full_norm, rtol=1e-8)

    def test_block_is_element_gramian(self, rng):
        model = make_random_stable_model(rng, n_ports=2)
        cost = l2_gramian_cost(model, ridge=0.0)
        a_e, b_e = model.element_dynamics()
        expected = controllability_gramian(a_e, b_e.reshape(-1, 1))
        assert np.allclose(cost.block(0, 0), expected, rtol=1e-8)


class TestSampledNormCost:
    def test_approximates_parseval_norm(self, rng):
        """Dense unweighted quadrature ~ the exact L2 Gramian norm."""
        model = make_random_stable_model(rng, n_ports=1, scale=1.0)
        omega = np.linspace(0.0, 400.0, 12000)
        sampled = sampled_norm_cost(model, omega, ridge=0.0)
        exact = l2_gramian_cost(model, ridge=0.0)
        delta = rng.normal(size=(1, 1, model.element_state_dimension()))
        v_sampled = sampled.quadratic_value(delta)
        v_exact = exact.quadratic_value(delta)
        # One-sided quadrature covers half the spectrum: factor 2, plus
        # truncation error of the [0, 400] window.
        assert np.isclose(2 * v_sampled, v_exact, rtol=0.05)

    def test_weights_change_cost(self, rng):
        model = make_random_stable_model(rng, n_ports=1)
        omega = np.geomspace(0.1, 100.0, 200)
        flat = sampled_norm_cost(model, omega)
        boosted = sampled_norm_cost(model, omega, weights=np.full(200, 3.0))
        delta = rng.normal(size=(1, 1, model.element_state_dimension()))
        assert np.isclose(
            boosted.quadratic_value(delta),
            9.0 * flat.quadratic_value(delta),
            rtol=1e-6,
        )

    def test_weight_shape_checked(self, rng):
        model = make_random_stable_model(rng, n_ports=1)
        with pytest.raises(ValueError, match="weights"):
            sampled_norm_cost(model, np.geomspace(0.1, 10.0, 50), np.ones(3))
