"""Flow driver and metrics."""

import numpy as np
import pytest

from repro.api.stages import compute_base_weights
from repro.flow.macromodel import FlowOptions, run_flow
from repro.flow.metrics import (
    ModelAccuracyRow,
    impedance_error_report,
    max_relative_impedance_error,
    max_scattering_error,
    relative_impedance_error,
    rms_scattering_error,
)
from repro.sensitivity.firstorder import sensitivity_analytic
from repro.vectfit.core import vector_fit


class TestFlowOptions:
    def test_defaults(self):
        opts = FlowOptions()
        assert opts.vf.n_poles == 12
        assert opts.weight_mode == "relative"

    def test_validation(self):
        with pytest.raises(ValueError, match="weight_mode"):
            FlowOptions(weight_mode="inverse")
        with pytest.raises(ValueError, match="weight_floor"):
            FlowOptions(weight_floor=0.0)
        with pytest.raises(ValueError, match="refinement"):
            FlowOptions(refinement_rounds=-1)
        with pytest.raises(ValueError, match="order"):
            FlowOptions(weight_model_order=0)


class TestFlowStages:
    def test_standard_fit_stage(self, testcase):
        result = vector_fit(
            testcase.data.omega, testcase.data.samples,
            options=FlowOptions().vf,
        )
        assert result.model.n_poles == 12
        assert result.rms_error < 5e-3

    def test_sensitivity_stage(self, testcase):
        data = testcase.data
        xi = sensitivity_analytic(
            data.samples, data.omega, testcase.termination,
            testcase.observe_port, z0=data.z0,
        )
        assert xi.shape == (testcase.data.n_frequencies,)
        assert np.all(xi > 0)

    def test_base_weights_floored_and_normalized(self, flow_result):
        options = FlowOptions()
        w = compute_base_weights(
            options, flow_result.xi, flow_result.reference_impedance
        )
        assert np.isclose(w.max(), 1.0)
        assert w.min() >= options.weight_floor

    def test_absolute_weight_mode(self, flow_result):
        w = compute_base_weights(
            FlowOptions(weight_mode="absolute"), flow_result.xi,
            flow_result.reference_impedance,
        )
        expected = flow_result.xi / flow_result.xi.max()
        assert np.allclose(w, np.maximum(expected, 0.01))

    def test_non_scattering_data_rejected(self, testcase):
        ydata = testcase.data.with_samples(testcase.data.samples, kind="y")
        with pytest.raises(ValueError, match="scattering"):
            run_flow(ydata, testcase.termination, testcase.observe_port)


class TestFlowResult:
    def test_all_models_present(self, flow_result):
        assert flow_result.standard_fit.model.n_poles == 12
        assert flow_result.weighted_fit.model.n_poles == 12
        assert flow_result.standard_enforced.model.n_poles == 12
        assert flow_result.weighted_enforced.model.n_poles == 12

    def test_weights_recorded(self, flow_result):
        assert flow_result.base_weights.shape == flow_result.final_weights.shape
        # Both weight vectors are normalized to [floor, 1].
        for w in (flow_result.base_weights, flow_result.final_weights):
            assert np.isclose(w.max(), 1.0)
            assert w.min() >= 0.01 - 1e-12


class TestMetrics:
    def test_rms_zero_for_exact(self, flow_result, testcase):
        model = flow_result.weighted_fit.model
        omega = testcase.data.omega
        samples = model.frequency_response(omega)
        assert rms_scattering_error(model, omega, samples) == 0.0

    def test_max_ge_rms(self, flow_result, testcase):
        model = flow_result.weighted_fit.model
        omega, samples = testcase.data.omega, testcase.data.samples
        assert max_scattering_error(model, omega, samples) >= rms_scattering_error(
            model, omega, samples
        )

    def test_band_limited_error(self, flow_result, testcase):
        model = flow_result.weighted_fit.model
        omega = testcase.data.omega
        full = max_relative_impedance_error(
            model,
            omega,
            flow_result.reference_impedance,
            testcase.termination,
            testcase.observe_port,
        )
        low = max_relative_impedance_error(
            model,
            omega,
            flow_result.reference_impedance,
            testcase.termination,
            testcase.observe_port,
            band=(0.0, 2 * np.pi * 1e6),
        )
        assert low <= full

    def test_empty_band_rejected(self, flow_result, testcase):
        with pytest.raises(ValueError, match="band"):
            max_relative_impedance_error(
                flow_result.weighted_fit.model,
                testcase.data.omega,
                flow_result.reference_impedance,
                testcase.termination,
                testcase.observe_port,
                band=(1e20, 1e21),
            )

    def test_report_rendering(self):
        rows = [
            ModelAccuracyRow("standard VF", 1e-3, 8e-3, 0.59, 0.38, False),
            ModelAccuracyRow("weighted VF", 1.5e-2, 2e-2, 0.05, 0.03, False),
        ]
        text = impedance_error_report(rows)
        assert "standard VF" in text
        assert "low-f relZ" in text
        assert len(text.splitlines()) == 4

    def test_relative_error_positive(self, flow_result, testcase):
        rel = relative_impedance_error(
            flow_result.weighted_fit.model,
            testcase.data.omega,
            flow_result.reference_impedance,
            testcase.termination,
            testcase.observe_port,
        )
        assert np.all(rel >= 0)
