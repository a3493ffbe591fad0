"""Flow behaviour under non-default configurations.

The default configuration is covered by the session fixture; these tests
exercise the knobs (weight modes, refinement off, enforcement options)
on a coarse grid so they stay fast.
"""

import numpy as np
import pytest

from repro.flow.macromodel import FlowOptions, run_flow
from repro.passivity.enforce import EnforcementOptions
from repro.vectfit.options import VFOptions


@pytest.fixture(scope="module")
def coarse(coarse_testcase):
    return coarse_testcase


class TestWeightModes:
    def test_absolute_mode_runs(self, coarse):
        result = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            FlowOptions(
                vf=VFOptions(n_poles=10),
                weight_mode="absolute",
                refinement_rounds=0,
            ),
        )
        assert result.weighted_enforced.model.n_poles == 10

    def test_zero_refinement_rounds(self, coarse):
        result = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            FlowOptions(vf=VFOptions(n_poles=10), refinement_rounds=0),
        )
        # Without refinement the final weights equal the base weights.
        assert np.allclose(result.final_weights, result.base_weights)

    def test_higher_floor_tightens_scattering(self, coarse):
        low_floor = FlowOptions(
            vf=VFOptions(n_poles=10), weight_floor=0.005, refinement_rounds=0
        )
        high_floor = FlowOptions(
            vf=VFOptions(n_poles=10), weight_floor=0.5, refinement_rounds=0
        )
        omega = coarse.data.omega
        case = (coarse.data, coarse.termination, coarse.observe_port)
        r_low = run_flow(*case, low_floor)
        r_high = run_flow(*case, high_floor)
        err_low = np.abs(
            r_low.weighted_fit.model.frequency_response(omega) - coarse.data.samples
        ).max()
        err_high = np.abs(
            r_high.weighted_fit.model.frequency_response(omega) - coarse.data.samples
        ).max()
        # A higher floor keeps the weighted fit closer to the plain fit.
        assert err_high < err_low * 1.5


class TestEnforcementConfig:
    def test_custom_enforcement_options_propagate(self, coarse):
        options = FlowOptions(
            vf=VFOptions(n_poles=10),
            refinement_rounds=0,
            enforcement=EnforcementOptions(max_iterations=2),
        )
        result = run_flow(
            coarse.data, coarse.termination, coarse.observe_port, options
        )
        assert result.standard_enforced.iterations <= 2
        assert result.weighted_enforced.iterations <= 2

    def test_weight_model_order_propagates(self, coarse):
        result = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            FlowOptions(
                vf=VFOptions(n_poles=10),
                weight_model_order=5,
                refinement_rounds=0,
            ),
        )
        assert result.weight_model.model.n_states == 5
