"""Passivity checker: verdicts, bands, constraint frequencies."""

import numpy as np
import pytest

from repro.obs import Telemetry
from repro.obs import telemetry as obs
from repro.passivity.check import check_passivity
from repro.statespace.poleresidue import PoleResidueModel
from repro.util import linalg
from repro.util.linalg import max_singular_values


def bump_model(gain, omega0=5.0):
    poles = np.array([-0.5 + omega0 * 1j, -0.5 - omega0 * 1j])
    residues = np.array([[[gain * 0.5]], [[gain * 0.5]]], dtype=complex)
    return PoleResidueModel(poles, residues, np.zeros((1, 1)))


def two_bump_model():
    """Two separate violation bands."""
    poles = np.array(
        [-0.3 + 5.0j, -0.3 - 5.0j, -0.8 + 50.0j, -0.8 - 50.0j]
    )
    residues = np.array(
        [[[0.75]], [[0.75]], [[1.1]], [[1.1]]], dtype=complex
    )
    return PoleResidueModel(poles, residues, np.zeros((1, 1)))


class TestVerdicts:
    def test_passive_model(self):
        report = check_passivity(bump_model(0.7))
        assert report.is_passive
        assert not report.bands
        assert report.worst_sigma <= 1.0

    def test_violating_model(self):
        report = check_passivity(bump_model(1.6))
        assert not report.is_passive
        assert len(report.bands) == 1
        assert report.worst_sigma > 1.0

    def test_unstable_model_rejected(self):
        model = PoleResidueModel(
            np.array([0.5]), np.ones((1, 1, 1), complex), np.zeros((1, 1))
        )
        with pytest.raises(ValueError, match="stable"):
            check_passivity(model)

    def test_asymptotic_violation_reported(self):
        model = PoleResidueModel(
            np.array([-1.0]), np.zeros((1, 1, 1), complex), np.array([[1.1]])
        )
        report = check_passivity(model)
        assert not report.is_passive
        assert report.worst_omega == np.inf
        assert report.asymptotic_gain > 1.0


class TestBands:
    def test_band_peak_location(self):
        report = check_passivity(bump_model(1.6, omega0=5.0))
        band = report.bands[0]
        # Peak of the resonance sits near omega0.
        assert 4.0 < band.omega_peak < 6.0
        sigma_direct = np.abs(
            bump_model(1.6).frequency_response(np.array([band.omega_peak]))[0, 0, 0]
        )
        assert np.isclose(band.sigma_peak, sigma_direct, rtol=1e-9)

    def test_two_bands_found(self):
        report = check_passivity(two_bump_model())
        assert len(report.bands) == 2
        peaks = sorted(b.omega_peak for b in report.bands)
        assert 3.0 < peaks[0] < 7.0
        assert 45.0 < peaks[1] < 55.0

    def test_band_str(self):
        report = check_passivity(bump_model(1.6))
        assert "peak sigma" in str(report.bands[0])

    def test_constraint_frequencies_cover_bands(self):
        report = check_passivity(two_bump_model())
        freqs = report.constraint_frequencies()
        assert freqs.size >= 2
        for band in report.bands:
            assert np.any((freqs >= band.omega_low) & (freqs <= band.omega_high))

    def test_worst_sigma_consistent_with_bands(self):
        report = check_passivity(two_bump_model())
        best_band = max(b.sigma_peak for b in report.bands)
        # worst_sigma also tracks interval midpoints, so it may exceed the
        # refined band peak by the sampling granularity.
        assert report.worst_sigma >= best_band - 1e-12
        assert np.isclose(report.worst_sigma, best_band, rtol=0.02)


class TestOnRealModel:
    def test_weighted_pdn_model_verdict(self, flow_result):
        report = flow_result.pre_enforcement_report
        assert not report.is_passive
        assert report.bands  # multiple finite-frequency violations
        assert report.asymptotic_gain < 1.0

    def test_enforced_model_is_passive(self, flow_result):
        report = check_passivity(flow_result.weighted_enforced.model)
        assert report.is_passive


class TestSigmaMaxKernel:
    """``max_singular_values`` against the SVD oracle."""

    @staticmethod
    def oracle(stack):
        return np.linalg.svd(stack, compute_uv=False)[:, 0]

    @staticmethod
    def complex_stack(rng, k, m, n=None):
        n = m if n is None else n
        return rng.normal(size=(k, m, n)) + 1j * rng.normal(size=(k, m, n))

    def assert_matches_oracle(self, stack):
        sigma = max_singular_values(stack)
        assert sigma.shape == (stack.shape[0],)
        np.testing.assert_allclose(sigma, self.oracle(stack), rtol=1e-12, atol=0)

    def test_random_complex(self, rng):
        self.assert_matches_oracle(self.complex_stack(rng, 50, 7))

    def test_random_complex_rectangular(self, rng):
        self.assert_matches_oracle(self.complex_stack(rng, 20, 3, 5))
        self.assert_matches_oracle(self.complex_stack(rng, 20, 5, 3))

    def test_complex_symmetric(self, rng):
        stack = self.complex_stack(rng, 50, 9)
        self.assert_matches_oracle(stack + stack.transpose(0, 2, 1))

    def test_near_unitary_clustered_singular_values(self, rng):
        """PDN-like responses: the top singular values nearly coincide."""
        q, _ = np.linalg.qr(self.complex_stack(rng, 40, 10))
        s = 1.0 - 1e-3 * rng.random((40, 10))
        self.assert_matches_oracle((q * s[:, None, :]) @ q.transpose(0, 2, 1))

    def test_rank_deficient(self, rng):
        left = self.complex_stack(rng, 30, 8, 2)
        right = self.complex_stack(rng, 30, 2, 8)
        self.assert_matches_oracle(left @ right)

    def test_all_zero(self):
        stack = np.zeros((5, 4, 4), dtype=complex)
        assert np.array_equal(max_singular_values(stack), np.zeros(5))
        self.assert_matches_oracle(stack)

    def test_one_by_one(self, rng):
        stack = self.complex_stack(rng, 25, 1)
        self.assert_matches_oracle(stack)
        np.testing.assert_allclose(
            max_singular_values(stack), np.abs(stack[:, 0, 0]), rtol=1e-12
        )

    def test_stack_longer_than_one_block(self, rng):
        k = 2 * linalg._SIGMA_BLOCK + 37
        self.assert_matches_oracle(self.complex_stack(rng, k, 3))

    def test_non_finite_matrix_gives_nan(self, rng):
        stack = self.complex_stack(rng, 4, 3)
        stack[1, 0, 0] = np.inf
        stack[2, 1, 2] = np.nan
        sigma = max_singular_values(stack)
        assert np.isnan(sigma[1]) and np.isnan(sigma[2])
        finite = [0, 3]
        np.testing.assert_allclose(
            sigma[finite], self.oracle(stack[finite]), rtol=1e-12
        )

    def test_checker_sweep_is_one_span_per_call(self):
        tel = Telemetry()
        with obs.session(tel):
            report = check_passivity(two_bump_model(), band_samples=20)
        sweeps = [
            event for event in tel.events
            if event.get("event") == "span.finish"
            and event["span"].endswith("kernel:sigma_sweep")
        ]
        # Band midpoints, then one batched refinement of both bands.
        assert len(sweeps) == 2
        assert sweeps[1]["n"] == 20 * len(report.bands)
