"""ReproConfig: JSON round-trip, unknown-key rejection, defaults, shims."""

import json

import numpy as np
import pytest

from repro.api.config import (
    ReproConfig,
    ValidationOptions,
    options_from_dict,
    options_to_dict,
    options_token,
)
from repro.flow.macromodel import FlowOptions
from repro.ingest.conditioning import ConditioningOptions
from repro.passivity.enforce import EnforcementOptions
from repro.vectfit.options import VFOptions


class TestOptionCodec:
    @pytest.mark.parametrize(
        "options",
        [
            VFOptions(),
            VFOptions(n_poles=7, dc_exact=True, kernel="reference"),
            EnforcementOptions(),
            EnforcementOptions(max_iterations=5, divergence_patience=2),
            ConditioningOptions(),
            ConditioningOptions(z0=75.0, dc_policy="drop", f_max=1e9,
                                max_points=50, symmetrize="always"),
            ValidationOptions(),
            ValidationOptions(low_band_hz=2e6),
            FlowOptions(),
            FlowOptions(
                vf=VFOptions(n_poles=6),
                weight_mode="absolute",
                weight_floor=0.1,
                refinement_rounds=0,
                enforcement=EnforcementOptions(margin=1e-4),
            ),
        ],
        ids=lambda o: type(o).__name__,
    )
    def test_roundtrip_every_option_dataclass(self, options):
        payload = options_to_dict(options)
        json.dumps(payload)  # must be JSON-serializable as-is
        assert options_from_dict(type(options), payload) == options

    def test_initial_poles_roundtrip(self):
        poles = np.array([-1.0 + 0j, -2.0 + 30.0j, -2.0 - 30.0j])
        options = VFOptions(n_poles=3, initial_poles=poles)
        payload = options_to_dict(options)
        restored = options_from_dict(VFOptions, payload)
        assert np.array_equal(restored.initial_poles, poles)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ValueError, match="vf.*n_polse"):
            options_from_dict(
                FlowOptions, {"vf": {"n_polse": 9}}, path="flow."
            )

    def test_validation_runs_on_load(self):
        with pytest.raises(ValueError, match="weight_mode"):
            options_from_dict(FlowOptions, {"weight_mode": "inverse"})

    def test_token_is_canonical(self):
        assert options_token(VFOptions()) == options_token(VFOptions())
        assert options_token(VFOptions()) != options_token(
            VFOptions(n_poles=11)
        )


class TestReproConfig:
    def test_defaults_compose_the_dataclass_defaults(self):
        config = ReproConfig()
        assert config.flow == FlowOptions()
        assert config.ingest == ConditioningOptions()
        assert config.validation == ValidationOptions()
        assert config.vf == VFOptions(n_poles=12)
        assert config.enforcement == EnforcementOptions()

    def test_json_roundtrip(self):
        config = ReproConfig(
            flow=FlowOptions(vf=VFOptions(n_poles=9), weight_floor=0.05),
            ingest=ConditioningOptions(z0=75.0, max_points=99),
            validation=ValidationOptions(low_band_hz=5e5),
        )
        assert ReproConfig.from_json(config.to_json()) == config

    def test_defaults_stability(self):
        # An empty document and a default-constructed config must agree;
        # a default round-trip must be the identity.  Guards against a
        # default silently changing meaning between the two forms.
        assert ReproConfig.from_dict({}) == ReproConfig()
        payload = ReproConfig().to_dict()
        assert payload["format"] == "repro.config"
        assert payload["version"] == 1
        assert payload["flow"]["vf"]["n_poles"] == 12
        assert payload["flow"]["weight_mode"] == "relative"
        assert payload["flow"]["enforcement"]["max_iterations"] == 30
        assert payload["ingest"]["symmetrize"] == "auto"
        assert payload["validation"]["low_band_hz"] == 1e6
        assert ReproConfig.from_dict(payload) == ReproConfig()

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(ValueError, match="unknown keys.*bogus"):
            ReproConfig.from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="flow.*bogus"):
            ReproConfig.from_dict({"flow": {"bogus": 1}})
        with pytest.raises(ValueError, match="enforcement.*bogus"):
            ReproConfig.from_dict(
                {"flow": {"enforcement": {"bogus": 1}}}
            )
        with pytest.raises(ValueError, match="ingest.*bogus"):
            ReproConfig.from_dict({"ingest": {"bogus": 1}})
        # Fields of the deleted sampling checker strategy.
        for key in ("checker_strategy", "exact_every"):
            with pytest.raises(ValueError, match=f"enforcement.*{key}"):
                ReproConfig.from_dict(
                    {"flow": {"enforcement": {key: "exact"}}}
                )

    def test_format_and_version_checked(self):
        with pytest.raises(ValueError, match="not a repro.config"):
            ReproConfig.from_dict({"format": "something-else"})
        with pytest.raises(ValueError, match="version"):
            ReproConfig.from_dict({"format": "repro.config", "version": 99})

    def test_save_load(self, tmp_path):
        config = ReproConfig(flow=FlowOptions(refinement_rounds=1))
        path = tmp_path / "config.json"
        config.save(path)
        assert ReproConfig.load(path) == config

    def test_replace(self):
        config = ReproConfig().replace(
            validation=ValidationOptions(low_band_hz=2e6)
        )
        assert config.validation.low_band_hz == 2e6
        assert config.flow == FlowOptions()
