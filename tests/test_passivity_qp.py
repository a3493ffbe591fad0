"""QP solver: optimality against a reference solver, KKT conditions, and
the structured (factor-space) path against the dense route."""

import numpy as np
import pytest
import scipy.optimize

from repro.passivity.check import check_passivity
from repro.passivity.cost import BlockDiagonalCost, l2_gramian_cost
from repro.passivity.engine import is_reciprocal
from repro.passivity.perturbation import ConstraintSet, build_constraints
from repro.passivity.qp import solve_block_qp
from repro.resilience.faultinject import FaultSpec, fault_plan
from repro.statespace.poleresidue import PoleResidueModel
from tests.conftest import make_random_stable_model


def make_constraints(f, g):
    return ConstraintSet(
        matrix=np.asarray(f, dtype=float),
        bounds=np.asarray(g, dtype=float),
        frequencies=np.zeros(len(g)),
        sigmas=np.zeros(len(g)),
    )


def reference_qp(h, f, g):
    """Reference solution via scipy SLSQP (small problems only)."""
    n = h.shape[0]
    result = scipy.optimize.minimize(
        lambda x: 0.5 * x @ h @ x,
        np.zeros(n),
        jac=lambda x: h @ x,
        constraints=[
            {"type": "ineq", "fun": lambda x, i=i: g[i] - f[i] @ x}
            for i in range(len(g))
        ],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return result.x


class TestUnconstrained:
    def test_no_constraints_returns_zero(self, rng):
        cost = BlockDiagonalCost(np.eye(3), n_ports=2)
        empty = make_constraints(np.zeros((0, 2 * 2 * 3)), np.zeros(0))
        sol = solve_block_qp(cost, empty)
        assert np.allclose(sol.delta_c, 0.0)
        assert sol.cost == 0.0

    def test_inactive_constraints_return_zero(self, rng):
        cost = BlockDiagonalCost(np.eye(2), n_ports=1)
        f = rng.normal(size=(3, 2))
        g = np.ones(3)  # satisfied at x = 0
        sol = solve_block_qp(cost, make_constraints(f, g))
        assert np.allclose(sol.delta_c, 0.0, atol=1e-12)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_slsqp(self, seed):
        rng = np.random.default_rng(seed)
        n_ports, n_states = 1, 3
        dim = n_ports * n_ports * n_states
        a = rng.normal(size=(n_states, n_states))
        h_block = a @ a.T + n_states * np.eye(n_states)
        cost = BlockDiagonalCost(h_block, n_ports=n_ports, ridge=0.0)
        f = rng.normal(size=(2, dim))
        g = -np.abs(rng.normal(size=2))  # violated at x = 0: active constraints
        sol = solve_block_qp(cost, make_constraints(f, g))
        x_ref = reference_qp(h_block, f, g)
        assert np.allclose(sol.delta_c.reshape(-1), x_ref, atol=1e-6)

    def test_multiport_block_structure(self, rng):
        n_ports, n_states = 2, 2
        dim = n_ports * n_ports * n_states
        h_block = np.array([[2.0, 0.3], [0.3, 1.0]])
        cost = BlockDiagonalCost(h_block, n_ports=n_ports, ridge=0.0)
        f = rng.normal(size=(3, dim))
        g = np.array([-0.5, -0.1, 0.4])
        sol = solve_block_qp(cost, make_constraints(f, g))
        h_full = np.kron(np.eye(n_ports * n_ports), h_block)
        x_ref = reference_qp(h_full, f, g)
        assert np.allclose(sol.delta_c.reshape(-1), x_ref, atol=1e-6)


class TestKKT:
    def test_constraints_satisfied(self, rng):
        cost = BlockDiagonalCost(np.eye(3), n_ports=1)
        f = rng.normal(size=(4, 3))
        g = np.array([-1.0, -0.2, 0.5, 2.0])
        constraints = make_constraints(f, g)
        sol = solve_block_qp(cost, constraints)
        assert sol.max_violation < 1e-8

    def test_dual_nonnegative(self, rng):
        cost = BlockDiagonalCost(np.eye(3), n_ports=1)
        f = rng.normal(size=(2, 3))
        g = np.array([-1.0, -0.5])
        sol = solve_block_qp(cost, make_constraints(f, g))
        assert np.all(sol.dual >= 0.0)

    def test_stationarity(self, rng):
        """H x + F^T lambda = 0 at the optimum."""
        h_block = np.diag([1.0, 2.0, 3.0])
        cost = BlockDiagonalCost(h_block, n_ports=1, ridge=0.0)
        f = rng.normal(size=(2, 3))
        g = np.array([-0.7, -0.3])
        sol = solve_block_qp(cost, make_constraints(f, g))
        x = sol.delta_c.reshape(-1)
        residual = h_block @ x + f.T @ sol.dual
        assert np.allclose(residual, 0.0, atol=1e-8)

    def test_cost_value_reported(self, rng):
        h_block = np.eye(2)
        cost = BlockDiagonalCost(h_block, n_ports=1, ridge=0.0)
        f = np.array([[1.0, 0.0]])
        g = np.array([-2.0])
        sol = solve_block_qp(cost, make_constraints(f, g))
        # Minimum-norm solution: x = (-2, 0), cost = 0.5 * 4 = 2.
        assert np.isclose(sol.cost, 2.0, rtol=1e-8)
        assert np.allclose(sol.delta_c.reshape(-1), [-2.0, 0.0], atol=1e-8)


def _violating_model(seed, n_ports, *, symmetric):
    """A seeded stable model scaled to sigma_max = 1.3 on its worst peak."""
    rng = np.random.default_rng(seed)
    model = make_random_stable_model(rng, n_real=2, n_pairs=3, n_ports=n_ports)
    residues, const = model.residues, 0.5 * model.const
    if symmetric:
        residues = 0.5 * (residues + residues.transpose(0, 2, 1))
        const = 0.5 * (const + const.T)
    worst = check_passivity(PoleResidueModel(model.poles, residues, const))
    scale = 1.3 / worst.worst_sigma
    return PoleResidueModel(model.poles, residues * scale, const)


class TestStructuredPath:
    """The factor-space working-set solve against the dense route, on
    constraint sets built by build_constraints (the path every
    shared-cost enforcement takes).  A dense grid over each violation
    band gives more violated rows than the first working set holds, so
    the set grows over several rounds."""

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("seed", [5, 14])
    def test_matches_dense_route(self, seed, symmetric):
        model = _violating_model(seed, 4, symmetric=symmetric)
        assert is_reciprocal(model) == symmetric
        report = check_passivity(model)
        omega = np.concatenate([
            np.linspace(band.omega_low, band.omega_high, 300)
            for band in report.bands
        ])
        constraints = build_constraints(model, omega, symmetric=symmetric)
        p = model.n_ports
        assert constraints.w_re.shape[1] == (p * (p + 1) // 2 if symmetric else p * p)
        cost = l2_gramian_cost(model)
        structured = solve_block_qp(cost, constraints)
        with fault_plan(
            FaultSpec(site="qp.structured", action="stall", count=10_000)
        ):
            dense = solve_block_qp(cost, constraints)
        assert structured.rounds >= 2 and dense.rounds == 1
        assert np.count_nonzero(structured.dual) <= structured.working_set
        assert dense.working_set == constraints.n_constraints
        scale = np.linalg.norm(dense.delta_c)
        assert scale > 0.0
        assert np.linalg.norm(structured.delta_c - dense.delta_c) <= 1e-8 * scale
        if symmetric:
            assert np.array_equal(
                structured.delta_c, structured.delta_c.transpose(1, 0, 2)
            )
        # KKT feasibility over every row, not only the working set.
        g = constraints.bounds
        tol = 1e-8 * max(1.0, float(np.max(np.abs(g))))
        for solution in (structured, dense):
            x = solution.delta_c.reshape(-1)
            assert np.max(constraints.dense_matrix() @ x - g) <= tol
            assert np.all(solution.dual >= 0.0)
