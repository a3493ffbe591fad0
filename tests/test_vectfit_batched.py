"""Batched VF kernels: equivalence with the reference path, fit_many.

The batched kernel is a pure reimplementation of the reference per-column
loops; these tests pin the contract that both compute the same fits.
Random pole-residue models cover the option matrix (shared vs per-column
weights, relaxed vs non-relaxed, ``dc_exact``, the ``fixed_const``
projection path), and :func:`fit_many` is checked against sequential
:func:`vector_fit` calls, which it must reproduce exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.vectfit import kernels
from repro.vectfit.core import (
    _identify_residues,
    _normalize_weights,
    _symmetric_reduction,
    fit_many,
    initial_poles,
    vector_fit,
)
from repro.vectfit.options import VFOptions
from repro.vectfit.order_selection import select_model_order
from tests.conftest import make_random_stable_model, rel_rms

RTOL = 1e-8  # roundoff-only divergence between the two kernels


def both_kernels(omega, samples, weights, options):
    reference = vector_fit(
        omega, samples, weights, dataclasses.replace(options, kernel="reference")
    )
    batched = vector_fit(
        omega, samples, weights, dataclasses.replace(options, kernel="batched")
    )
    return reference, batched


def assert_equivalent(reference, batched, rtol=RTOL):
    assert batched.model.n_poles == reference.model.n_poles
    assert batched.iterations == reference.iterations
    assert batched.converged == reference.converged
    ref_poles = np.sort_complex(reference.model.poles)
    bat_poles = np.sort_complex(batched.model.poles)
    np.testing.assert_allclose(bat_poles, ref_poles, rtol=rtol, atol=1e-300)
    # The absolute term covers exact-recovery fits whose RMS *is* the
    # roundoff floor (both kernels hit ~1e-16 with different noise).
    assert (
        abs(batched.rms_error - reference.rms_error)
        <= rtol * abs(reference.rms_error) + 1e-14
    )
    np.testing.assert_allclose(
        batched.model.const, reference.model.const, rtol=1e-6, atol=1e-12
    )


class TestKernelEquivalence:
    def test_unweighted(self, rng):
        truth = make_random_stable_model(rng, n_real=1, n_pairs=2, n_ports=3)
        omega = np.geomspace(0.05, 100.0, 90)
        data = truth.frequency_response(omega)
        ref, bat = both_kernels(omega, data, None, VFOptions(n_poles=5))
        assert_equivalent(ref, bat)
        assert bat.rms_error < 1e-9  # both recover the true model

    def test_shared_frequency_weights(self, rng):
        truth = make_random_stable_model(rng, n_real=0, n_pairs=3, n_ports=2)
        omega = np.geomspace(0.1, 50.0, 80)
        data = truth.frequency_response(omega)
        weights = np.geomspace(100.0, 1.0, omega.size)
        ref, bat = both_kernels(omega, data, weights, VFOptions(n_poles=6))
        assert_equivalent(ref, bat)

    def test_per_column_weights(self, rng):
        truth = make_random_stable_model(rng, n_real=1, n_pairs=1, n_ports=2)
        omega = np.geomspace(0.1, 50.0, 70)
        data = truth.frequency_response(omega)
        weights = rng.uniform(0.5, 5.0, (omega.size, 2, 2))
        ref, bat = both_kernels(omega, data, weights, VFOptions(n_poles=3))
        assert_equivalent(ref, bat)

    def test_non_relaxed(self, rng):
        truth = make_random_stable_model(rng, n_real=1, n_pairs=1, n_ports=2)
        omega = np.geomspace(0.1, 50.0, 70)
        data = truth.frequency_response(omega)
        ref, bat = both_kernels(
            omega, data, None, VFOptions(n_poles=3, relaxed=False)
        )
        assert_equivalent(ref, bat)

    def test_dc_exact(self, rng):
        truth = make_random_stable_model(rng, n_real=1, n_pairs=1, n_ports=2)
        omega = np.concatenate([[0.0], np.geomspace(0.05, 50.0, 80)])
        data = truth.frequency_response(omega)
        ref, bat = both_kernels(
            omega, data, None, VFOptions(n_poles=3, dc_exact=True)
        )
        assert_equivalent(ref, bat)
        model_dc = bat.model.frequency_response(np.array([0.0]))[0]
        np.testing.assert_allclose(model_dc, data[0].real, atol=1e-11)

    def test_fixed_const_projection(self, rng):
        # Shifting the data pushes sigma_max(D) above 1, forcing the
        # asymptotic projection's fixed-const refit on both kernels.
        truth = make_random_stable_model(rng, n_ports=2)
        omega = np.geomspace(0.05, 100.0, 60)
        data = truth.frequency_response(omega) + 1.5
        ref, bat = both_kernels(omega, data, None, VFOptions(n_poles=5))
        assert_equivalent(ref, bat)
        d_gain = np.linalg.svd(bat.model.const, compute_uv=False)[0]
        assert d_gain <= 1.0 - 1e-4 + 1e-12

    def test_fixed_const_with_per_column_weights(self, rng):
        truth = make_random_stable_model(rng, n_real=1, n_pairs=1, n_ports=2)
        omega = np.geomspace(0.1, 50.0, 60)
        data = truth.frequency_response(omega)
        poles = initial_poles(omega, 4)
        weights = _normalize_weights(
            rng.uniform(0.5, 2.0, (omega.size, 2, 2)), data.shape
        )
        responses = data.reshape(omega.size, -1)
        fixed = np.linspace(-0.2, 0.3, 4)
        options = VFOptions(n_poles=4)
        res_ref, const_ref = _identify_residues(
            omega, responses, weights, poles,
            dataclasses.replace(options, kernel="reference"), fixed_const=fixed,
        )
        res_bat, const_bat = _identify_residues(
            omega, responses, weights, poles, options, fixed_const=fixed,
        )
        np.testing.assert_allclose(res_bat, res_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(const_bat, fixed)
        np.testing.assert_allclose(const_ref, fixed)

    def test_large_symmetric_pdn_case(self, coarse_testcase):
        # PDN scattering data is reciprocal: the batched kernel takes the
        # upper-triangle reduction and must still match the reference.
        data = coarse_testcase.data
        ref, bat = both_kernels(
            data.omega, data.samples, None, VFOptions(n_poles=8)
        )
        assert_equivalent(ref, bat)


class TestSymmetricReduction:
    def test_reduces_symmetric_data(self, rng):
        truth = make_random_stable_model(rng, n_ports=3)
        omega = np.geomspace(0.1, 10.0, 20)
        data = truth.frequency_response(omega)
        data = 0.5 * (data + data.transpose(0, 2, 1))
        table = np.ones((omega.size, 9))
        reduced = _symmetric_reduction(data, table)
        assert reduced is not None
        responses, weights = reduced
        assert responses.shape == (omega.size, 6)  # P(P+1)/2
        assert weights.shape == (omega.size, 6)

    def test_rejects_asymmetric_data(self, rng):
        data = (
            rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
        )
        table = np.ones((10, 4))
        assert _symmetric_reduction(data, table) is None

    def test_rejects_asymmetric_weights(self, rng):
        truth = make_random_stable_model(rng, n_ports=2)
        omega = np.geomspace(0.1, 10.0, 12)
        data = truth.frequency_response(omega)
        data = 0.5 * (data + data.transpose(0, 2, 1))
        table = np.ones((omega.size, 2, 2))
        table[:, 0, 1] = 2.0  # asymmetric per-entry weights
        assert _symmetric_reduction(data, table.reshape(-1, 4)) is None

    def test_siso_not_reduced(self, rng):
        truth = make_random_stable_model(rng, n_ports=1)
        omega = np.geomspace(0.1, 10.0, 12)
        data = truth.frequency_response(omega)
        assert _symmetric_reduction(data, np.ones((omega.size, 1))) is None


class TestFitMany:
    def test_matches_sequential_vector_fit(self, rng):
        truth_a = make_random_stable_model(rng, n_real=1, n_pairs=2, n_ports=2)
        truth_b = make_random_stable_model(rng, n_real=1, n_pairs=2, n_ports=3)
        omega = np.geomspace(0.05, 100.0, 90)
        data_a = truth_a.frequency_response(omega)
        data_b = truth_b.frequency_response(omega)
        weights_b = np.geomspace(10.0, 1.0, omega.size)
        options = VFOptions(n_poles=5)
        seq_a = vector_fit(omega, data_a, None, options)
        seq_b = vector_fit(omega, data_b, weights_b, options)
        bat_a, bat_b = fit_many(
            omega, [data_a, data_b], [None, weights_b], options
        )
        # fit_many runs the identical per-set computation: exact equality.
        for seq, bat in zip((seq_a, seq_b), (bat_a, bat_b)):
            assert bat.iterations == seq.iterations
            assert bat.converged == seq.converged
            np.testing.assert_array_equal(bat.model.poles, seq.model.poles)
            np.testing.assert_array_equal(
                bat.model.residues, seq.model.residues
            )
            assert bat.rms_error == seq.rms_error

    def test_identical_sets_collapse_to_one_fit(self, rng):
        truth = make_random_stable_model(rng, n_ports=2)
        omega = np.geomspace(0.05, 50.0, 60)
        data = truth.frequency_response(omega)
        first, second = fit_many(omega, [data, data], None, VFOptions(n_poles=5))
        assert first is second  # deduplicated, not merely equal
        solo = vector_fit(omega, data, None, VFOptions(n_poles=5))
        np.testing.assert_array_equal(first.model.poles, solo.model.poles)
        assert first.rms_error == solo.rms_error

    def test_duplicate_detection_respects_weights(self, rng):
        truth = make_random_stable_model(rng, n_ports=2)
        omega = np.geomspace(0.05, 50.0, 60)
        data = truth.frequency_response(omega)
        w = np.geomspace(5.0, 1.0, omega.size)
        plain, weighted = fit_many(
            omega, [data, data], [None, w], VFOptions(n_poles=5)
        )
        assert plain is not weighted
        assert plain.weighted_rms_error != weighted.weighted_rms_error

    def test_empty_input(self):
        assert fit_many(np.geomspace(1, 10, 20), []) == []

    def test_weights_must_align(self, rng):
        truth = make_random_stable_model(rng, n_ports=1)
        omega = np.geomspace(0.1, 10.0, 30)
        data = truth.frequency_response(omega)
        with pytest.raises(ValueError, match="align"):
            fit_many(omega, [data], [None, None])

    def test_mismatched_k_rejected(self, rng):
        truth = make_random_stable_model(rng, n_ports=1)
        omega = np.geomspace(0.1, 10.0, 30)
        data = truth.frequency_response(omega)
        with pytest.raises(ValueError, match="agree on K"):
            fit_many(omega[:-1], [data])


class TestBatchedQrSolve:
    def test_matches_lstsq(self, rng):
        a = rng.normal(size=(7, 30, 5))
        b = rng.normal(size=(7, 30))
        out = kernels.batched_qr_solve(a, b)
        for i in range(7):
            expected = kernels.scaled_lstsq(a[i], b[i])
            np.testing.assert_allclose(out[i], expected, rtol=1e-9, atol=1e-12)

    def test_rank_deficient_falls_back_to_min_norm(self, rng):
        a = rng.normal(size=(3, 20, 4))
        a[1, :, 3] = a[1, :, 0]  # slice 1 is rank deficient
        b = rng.normal(size=(3, 20))
        out = kernels.batched_qr_solve(a, b)
        expected = kernels.scaled_lstsq(a[1], b[1])
        np.testing.assert_allclose(out[1], expected, rtol=1e-8, atol=1e-10)

    def test_underdetermined_rows(self, rng):
        a = rng.normal(size=(2, 3, 5))
        b = rng.normal(size=(2, 3))
        out = kernels.batched_qr_solve(a, b)
        for i in range(2):
            expected = kernels.scaled_lstsq(a[i], b[i])
            np.testing.assert_allclose(out[i], expected, rtol=1e-9, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            kernels.batched_qr_solve(
                rng.normal(size=(2, 10, 3)), rng.normal(size=(2, 9))
            )


class TestKernelOracles:
    """The kernels against a direct numpy replica of the same solve."""

    def test_scaled_lstsq_matches_direct_solver(self):
        rng = np.random.default_rng(0)
        # Ill-conditioned columns, like a partial-fraction basis.
        a = rng.normal(size=(60, 8)) * np.logspace(0, 8, 8)
        b = rng.normal(size=(60, 3))
        routed = kernels.scaled_lstsq(a, b)
        norms = kernels.column_scales(a)
        direct = np.linalg.lstsq(a / norms, b, rcond=None)[0] / norms[:, None]
        assert rel_rms(routed, direct) <= 1e-10

    def test_batched_qr_solve_matches_per_slice_lstsq(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 40, 6)) * np.logspace(0, 5, 6)
        b = rng.normal(size=(5, 40))
        routed = kernels.batched_qr_solve(a, b)
        oracle = np.stack(
            [np.linalg.lstsq(a[i], b[i], rcond=None)[0] for i in range(5)]
        )
        assert rel_rms(routed, oracle) <= 1e-10


class TestSharedWeightsDetection:
    def test_shared(self):
        w = np.repeat(np.linspace(1, 2, 10)[:, None], 4, axis=1)
        assert kernels.shared_weights(w)

    def test_not_shared(self):
        w = np.ones((10, 4))
        w[3, 2] = 1.5
        assert not kernels.shared_weights(w)


class TestKernelOption:
    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            VFOptions(kernel="fast")


class TestWarmStartedOrderSweep:
    def test_warm_start_matches_cold_selection(self, rng):
        truth = make_random_stable_model(rng, n_real=1, n_pairs=2, n_ports=2)
        omega = np.geomspace(0.05, 100.0, 140)
        data = truth.frequency_response(omega)
        warm = select_model_order(
            omega, data, orders=[3, 5, 7], target_rms=1e-8, warm_start=True
        )
        cold = select_model_order(
            omega, data, orders=[3, 5, 7], target_rms=1e-8, warm_start=False
        )
        assert warm.selected_order == cold.selected_order == 5
        assert warm.candidates[-1].warm_started
        assert not any(c.warm_started for c in cold.candidates)

    def test_duplicate_orders_skipped(self, rng):
        truth = make_random_stable_model(rng, n_ports=1)
        omega = np.geomspace(0.05, 100.0, 100)
        data = truth.frequency_response(omega)
        result = select_model_order(
            omega, data, orders=[2, 4, 4, 6, 6], target_rms=1e-300,
            stagnation_ratio=0.0,
        )
        assert result.skipped_orders == [4, 6]
        assert [c.n_poles for c in result.candidates] == [2, 4, 6]

    def test_two_consecutive_stagnations_stop(self, coarse_testcase):
        data = coarse_testcase.data
        result = select_model_order(
            data.omega, data.samples,
            orders=[6, 8, 10, 12, 14, 16],
            target_rms=1e-12,
            stagnation_ratio=0.5,  # only 6 -> 8 halves the error here
            stagnation_runs=2,
        )
        # Orders 10 and 12 both fail to halve the order-8 error: two
        # consecutive stagnations stop the sweep with 14/16 unexplored,
        # keeping the smaller accepted model.
        assert [c.n_poles for c in result.candidates] == [6, 8, 10, 12]
        assert result.selected_order == 8

    def test_stagnation_runs_validation(self, coarse_testcase):
        data = coarse_testcase.data
        with pytest.raises(ValueError, match="stagnation_runs"):
            select_model_order(
                data.omega, data.samples, orders=[4, 6], stagnation_runs=0
            )
