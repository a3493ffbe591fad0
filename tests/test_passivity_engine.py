"""Fast passivity engine: exact-mode equivalence with the stateless
checker, the full-size certificate of every passing enforcement verdict,
and the shared-G / structured QP fast paths."""

from pathlib import Path

import numpy as np
import pytest

from repro.obs import telemetry as obs
from repro.passivity.check import check_passivity
from repro.passivity.cost import BlockDiagonalCost, l2_gramian_cost
from repro.passivity.enforce import enforce_passivity
from repro.passivity.engine import PassivityChecker
from repro.passivity.perturbation import build_constraints
from repro.passivity.qp import _dual_nnls_dense, _solve_h_inv_ft, solve_block_qp
from repro.statespace.hamiltonian import (
    hamiltonian_from_invariants,
    hamiltonian_invariants,
    hamiltonian_matrix,
)
from repro.statespace.poleresidue import PoleResidueModel
from repro.statespace.serialization import load_model
from repro.util.linalg import max_singular_values
from tests.conftest import make_random_stable_model

#: A weighted enforced model (9 ports, 6 poles) that the program used to
#: certify as passive: sigma_max reaches 1.000146 at 3.08e7 rad/s and
#: exceeds 1 on [1.539e7, 4.424e7] rad/s, but the lower crossing was lost
#: by the full-size candidate test and by the half-size test.
MISCERTIFIED = Path(__file__).parent / "data" / "miscertified_small41.json"


def violating_random_model(seed, n_ports=2, target_sigma=1.4):
    """Seeded random stable model scaled to a known passivity violation."""
    rng = np.random.default_rng(seed)
    model = make_random_stable_model(rng, n_real=2, n_pairs=3, n_ports=n_ports)
    const = model.const * 0.5  # keep sigma_max(D) safely below 1
    model = PoleResidueModel(model.poles, model.residues, const)
    for _ in range(4):
        report = check_passivity(model)
        if abs(report.worst_sigma - target_sigma) < 0.05:
            break
        factor = target_sigma / max(report.worst_sigma, 1e-9)
        model = PoleResidueModel(
            model.poles, model.residues * factor, model.const
        )
    assert not check_passivity(model).is_passive
    return model


def reciprocal(model):
    """The model with symmetrized residues and constant term."""
    return PoleResidueModel(
        model.poles,
        0.5 * (model.residues + model.residues.transpose(0, 2, 1)),
        0.5 * (model.const + model.const.T),
    )


def eig_spans(session):
    """(dimension, half_size) of each Hamiltonian eigensolve of a session."""
    return [
        (event["n"], event["half_size"]) for event in session.events
        if event.get("event") == "span.finish"
        and event["span"].endswith("kernel:hamiltonian_eig")
    ]


class TestCheckerExactEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_stateless_checker(self, seed):
        model = violating_random_model(seed)
        reference = check_passivity(model)
        checker = PassivityChecker(model)
        report = checker.check_exact(model)
        assert report.is_passive == reference.is_passive
        assert np.isclose(report.worst_sigma, reference.worst_sigma,
                          rtol=1e-9)
        assert len(report.bands) == len(reference.bands)
        assert np.allclose(report.crossings, reference.crossings)

    def test_reusable_across_residue_perturbations(self):
        model = violating_random_model(0)
        checker = PassivityChecker(model)
        perturbed = model.with_element_output_vectors(
            model.element_output_vectors() * 0.8
        )
        report = checker.check_exact(perturbed)
        reference = check_passivity(perturbed)
        assert np.isclose(report.worst_sigma, reference.worst_sigma,
                          rtol=1e-9)

    def test_rejects_different_model_family(self):
        model = violating_random_model(0)
        other = violating_random_model(1)
        checker = PassivityChecker(model)
        with pytest.raises(ValueError, match="different"):
            checker.check_exact(other)


class TestHamiltonianInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_assembly_matches_direct_matrix(self, seed):
        model = violating_random_model(seed)
        ss = model.to_state_space()
        invariants = hamiltonian_invariants(ss.a, ss.b, ss.d, gamma=1.0)
        assembled = hamiltonian_from_invariants(invariants, ss.c)
        direct = hamiltonian_matrix(ss, gamma=1.0)
        assert np.allclose(assembled, direct, rtol=1e-12, atol=1e-12)

    def test_full_output_matrix_matches_realization(self):
        model = violating_random_model(0)
        assert np.allclose(
            model.full_output_matrix(), model.to_state_space().c
        )


class TestEnforcementCertificate:
    # Seed 4 is a genuinely hard instance that exceeds the iteration cap;
    # the property is asserted on convergent ones.
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 6])
    def test_matches_stateless_check(self, seed):
        """Property: the certified final model passes an independent
        full-size Hamiltonian check with the same worst singular value."""
        model = violating_random_model(seed)
        result = enforce_passivity(model, l2_gramian_cost(model))
        assert result.converged and result.report_after.is_passive
        oracle = check_passivity(result.model)
        assert oracle.is_passive
        assert abs(result.report_after.worst_sigma - oracle.worst_sigma) < 1e-9

    def test_report_after_is_full_size(self):
        """On a reciprocal model the loop steers with half-size checks and
        certifies with full-size ones: one per passing verdict, the last
        of which is ``report_after``."""
        model = reciprocal(violating_random_model(1))
        session = obs.Telemetry(None, label="test")
        with obs.session(session):
            result = enforce_passivity(model, l2_gramian_cost(model))
        assert result.converged
        spans = eig_spans(session)
        n = 2 * model.n_ports * model.element_state_dimension()
        full_size = [dim for dim, half in spans if not half]
        assert any(half for _, half in spans)  # the steering path ran
        assert full_size == [n] * (
            1 + session.counters.get("fallback.certificate_refuted", 0)
        )
        assert spans[-1] == (n, False)
        oracle = check_passivity(result.model)
        assert np.allclose(result.report_after.crossings, oracle.crossings)
        assert result.report_after.worst_sigma == pytest.approx(
            oracle.worst_sigma, rel=1e-12
        )

    def test_miscertified_model_is_refuted(self):
        """Both certificates find the crossing near 1.54e7 rad/s."""
        model = load_model(MISCERTIFIED)
        checker = PassivityChecker(model)
        for report in (check_passivity(model), checker.check(model)):
            assert not report.is_passive
            assert report.worst_sigma > 1.0
            assert np.any(
                (report.crossings >= 1.50e7) & (report.crossings <= 1.58e7)
            )

    def test_enforcing_miscertified_model(self):
        model = load_model(MISCERTIFIED)
        session = obs.Telemetry(None, label="test")
        with obs.session(session):
            result = enforce_passivity(model, l2_gramian_cost(model))
        assert not result.report_before.is_passive
        assert session.counters["fallback.certificate_refuted"] >= 1
        assert result.converged
        omega = np.geomspace(1e5, 1e12, 20001)
        sigma = max_singular_values(result.model.frequency_response(omega))
        assert float(np.max(sigma)) <= 1.0


class TestEnforcementStrategyEquivalence:
    """How the iteration-0 report is obtained does not change the run."""

    def test_initial_report_passthrough(self):
        model = violating_random_model(2)
        cost = l2_gramian_cost(model)
        report = check_passivity(model)
        with_seed = enforce_passivity(
            model, cost, initial_report=report,
        )
        without = enforce_passivity(model, cost)
        assert with_seed.iterations == without.iterations
        assert np.allclose(
            with_seed.total_delta_c, without.total_delta_c, atol=1e-12
        )

    def test_profile_records_stage_timings(self):
        model = violating_random_model(0)
        result = enforce_passivity(model, l2_gramian_cost(model))
        profile = result.profile()
        assert set(profile) == {
            "check_seconds",
            "constraint_seconds",
            "qp_seconds",
            "rebuild_seconds",
        }
        assert profile["check_seconds"] > 0.0


class TestSharedGFastPath:
    def test_solve_all_shared_matches_per_element(self, rng):
        n, p = 4, 3
        a = rng.normal(size=(n, n))
        block = a @ a.T + n * np.eye(n)
        shared = BlockDiagonalCost(block, n_ports=p)
        tiled = BlockDiagonalCost(
            np.broadcast_to(block, (p, p, n, n)).copy(), n_ports=p
        )
        rhs = rng.normal(size=(p, p, n, 5))
        assert np.allclose(shared.solve_all(rhs), tiled.solve_all(rhs),
                           rtol=1e-10)
        flat = rng.normal(size=p * p * n)
        assert np.allclose(shared.solve_flat(flat), tiled.solve_flat(flat),
                           rtol=1e-10)
        delta = rng.normal(size=(p, p, n))
        assert np.isclose(
            shared.quadratic_value(delta), tiled.quadratic_value(delta),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_structured_qp_matches_dense_route(self, seed):
        """The factor-space working-set solve equals the dense NNLS."""
        model = violating_random_model(seed, n_ports=3)
        report = check_passivity(model)
        constraints = build_constraints(
            model, report.constraint_frequencies()
        )
        assert constraints.structured
        cost = l2_gramian_cost(model)
        solution = solve_block_qp(cost, constraints)
        y = _solve_h_inv_ft(cost, constraints)
        diag = np.einsum("ij,ji->i", constraints.dense_matrix(), y)
        ridge = 1e-12 * max(float(np.mean(diag)), 1e-300)
        lam = _dual_nnls_dense(
            constraints.dense_matrix(), y, constraints.bounds, ridge
        )
        x = -(y @ lam)
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.allclose(
            solution.delta_c.reshape(-1), x, atol=1e-6 * scale
        )
        assert solution.max_violation < 1e-6

    def test_per_element_cost_uses_dense_route(self, rng):
        """Non-shared costs fall back to the dense solver and still agree."""
        model = violating_random_model(0, n_ports=2)
        report = check_passivity(model)
        constraints = build_constraints(
            model, report.constraint_frequencies()
        )
        n = model.element_state_dimension()
        a = rng.normal(size=(n, n))
        block = a @ a.T + n * np.eye(n)
        blocks = np.stack(
            [
                np.stack([block * (1.0 + 0.1 * (i + j)) for j in range(2)])
                for i in range(2)
            ]
        )
        cost = BlockDiagonalCost(blocks, n_ports=2)
        solution = solve_block_qp(cost, constraints)
        assert solution.max_violation < 1e-7
        assert np.all(np.isfinite(solution.delta_c))
