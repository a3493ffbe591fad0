"""Pipeline engine: legacy equivalence, store-backed resume, composition.

The acceptance bar of the API redesign: the pipeline-backed ``run_flow``
must reproduce the legacy fixed-chain results exactly (the legacy chain
is re-created inline from the same primitives), stage results must resume
byte-identically from the content-addressed store, and the flow-cache
fingerprints must not move.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import make_paper_testcase
from repro.api import (
    ArtifactSpec,
    ArtifactStore,
    Pipeline,
    PipelineObserver,
    PipelineStage,
    ReproConfig,
    StandardFitStage,
    WeightingStage,
    artifact_digest,
    decode_artifact,
    encode_artifact,
    file_pipeline,
    standard_pipeline,
)
from repro.api.stages import compute_base_weights, refine_weighted_fit
from repro.flow.macromodel import FlowOptions, run_flow
from repro.passivity.check import check_passivity
from repro.passivity.cost import l2_gramian_cost
from repro.passivity.enforce import enforce_passivity
from repro.sensitivity.firstorder import sensitivity_analytic
from repro.sensitivity.weighted_norm import sensitivity_weighted_cost
from repro.sensitivity.weightmodel import build_weight_model
from repro.sensitivity.zpdn import target_impedance
from repro.vectfit.core import fit_many
from repro.vectfit.options import VFOptions

EXTERNAL_S2P = Path(__file__).parent.parent / "examples/data/coupled_rlc.s2p"


@pytest.fixture(scope="module")
def coarse():
    return make_paper_testcase(n_frequencies=61, include_dc=False)


@pytest.fixture(scope="module")
def fast_options():
    return FlowOptions(vf=VFOptions(n_poles=8), refinement_rounds=1)


def legacy_chain(data, termination, observe_port, options):
    """The flow's original fixed chain, verbatim: the reference the
    pipeline-backed ``run_flow`` must reproduce."""
    omega = data.omega
    reference = target_impedance(
        data.samples, omega, termination, observe_port, z0=data.z0
    )
    xi = sensitivity_analytic(
        data.samples, omega, termination, observe_port, z0=data.z0
    )
    base = compute_base_weights(options, xi, reference)
    standard, weighted0 = fit_many(
        omega, [data.samples, data.samples], [None, base], options.vf
    )
    weighted, final_weights = refine_weighted_fit(
        options, data, termination, observe_port, base, reference,
        initial_result=weighted0,
    )
    weight_model = build_weight_model(
        omega, base, order=options.weight_model_order
    )
    report = check_passivity(
        weighted.model, band_samples=options.enforcement.band_samples
    )
    standard_enforced = enforce_passivity(
        weighted.model, l2_gramian_cost(weighted.model),
        options.enforcement, initial_report=report,
    )
    weighted_enforced = enforce_passivity(
        weighted.model,
        sensitivity_weighted_cost(weighted.model, weight_model.model),
        options.enforcement, initial_report=report,
    )
    return {
        "reference": reference,
        "xi": xi,
        "base": base,
        "standard": standard,
        "weighted": weighted,
        "final_weights": final_weights,
        "report": report,
        "standard_enforced": standard_enforced,
        "weighted_enforced": weighted_enforced,
    }


def assert_matches_legacy(result, legacy, rtol=1e-12):
    def close(a, b):
        np.testing.assert_allclose(
            np.asarray(a), np.asarray(b), rtol=rtol, atol=0.0
        )

    close(result.base_weights, legacy["base"])
    close(result.final_weights, legacy["final_weights"])
    close(result.xi, legacy["xi"])
    close(result.reference_impedance, legacy["reference"])
    assert result.weighted_fit.rms_error == pytest.approx(
        legacy["weighted"].rms_error, rel=rtol
    )
    assert result.standard_fit.rms_error == pytest.approx(
        legacy["standard"].rms_error, rel=rtol
    )
    assert result.pre_enforcement_report.worst_sigma == pytest.approx(
        legacy["report"].worst_sigma, rel=rtol
    )
    for name in ("standard_enforced", "weighted_enforced"):
        ours = getattr(result, name).model
        theirs = legacy[name].model
        close(ours.poles, theirs.poles)
        close(ours.residues, theirs.residues)
        close(ours.const, theirs.const)


class TestLegacyEquivalence:
    def test_seed_small_pdn_case(self, testcase, flow_result):
        """Acceptance: seed small PDN case matches the legacy chain."""
        legacy = legacy_chain(
            testcase.data, testcase.termination, testcase.observe_port,
            FlowOptions(),
        )
        assert_matches_legacy(flow_result, legacy)

    def test_external_coupled_rlc_case(self):
        """Acceptance: the checked-in external .s2p matches too."""
        from repro.ingest import build_termination, load_network

        options = FlowOptions(vf=VFOptions(n_poles=8))
        data, _ = load_network(EXTERNAL_S2P)
        termination = build_termination(
            "0=r(1);1=rlc(r=0.2,c=1e-6)", data.n_ports, observe_port=1
        )
        legacy = legacy_chain(data, termination, 1, options)
        result = run_flow(data, termination, 1, options)
        assert_matches_legacy(result, legacy)

    def test_run_keys_pinned(self):
        """Whole-run store keys are pinned: campaign re-runs keep hitting."""
        from repro.ingest.termination import build_termination
        from repro.sparams.network import NetworkData

        pipeline = standard_pipeline()
        tc = make_paper_testcase(n_frequencies=11, include_dc=False)
        seed = {"network": tc.data, "termination": tc.termination,
                "observe_port": tc.observe_port}
        assert pipeline.run_key(ReproConfig(), seed) == (
            "3a3ba3eb4e519799e8c7856861b70d86f74989590db700b9822af3a1a284ea41"
        )

        f = np.linspace(1e6, 1e9, 5)
        s = np.zeros((f.size, 2, 2), dtype=complex)
        for i in range(f.size):
            s[i] = np.array([[0.1 + 0.01j * i, 0.02], [0.02, 0.1 - 0.005j * i]])
        data = NetworkData(frequencies=f, samples=s)
        term = build_termination("0=r(50);1=r(50)", 2, observe_port=0)
        seed = {"network": data, "termination": term, "observe_port": 0}
        assert pipeline.run_key(ReproConfig(), seed) == (
            "f643ae222159b98e3ecad8d4bb71680031b4d510cdbd50ff67408488736eb445"
        )


class TestArtifactCodec:
    def test_ndarray_byte_identical(self):
        rng = np.random.default_rng(7)
        for array in (
            rng.normal(size=(3, 4)),
            rng.normal(size=5) + 1j * rng.normal(size=5),
            np.array([], dtype=float),
        ):
            restored = decode_artifact(
                json.loads(json.dumps(encode_artifact(array)))
            )
            assert restored.dtype == array.dtype
            assert restored.tobytes() == array.tobytes()

    def test_termination_roundtrip(self, coarse):
        restored = decode_artifact(encode_artifact(coarse.termination))
        from repro.pdn.spec import termination_to_dict

        assert termination_to_dict(restored) == termination_to_dict(
            coarse.termination
        )

    def test_digest_tracks_content(self, coarse):
        a = artifact_digest(coarse.data)
        assert a == artifact_digest(coarse.data)
        perturbed = coarse.data.samples.copy()
        perturbed[0, 0, 0] += 1e-12
        from repro.sparams.network import NetworkData

        other = NetworkData(
            frequencies=coarse.data.frequencies, samples=perturbed
        )
        assert artifact_digest(other) != a

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="no artifact codec"):
            encode_artifact(object())


class TestStoreAndResume:
    def test_kill_after_standard_fit_resumes_byte_identically(
        self, coarse, fast_options, tmp_path
    ):
        """Satellite acceptance: partial run, then resume; the stored fit
        artifact is reused (not recomputed) and is byte-identical."""
        config = ReproConfig(flow=fast_options)
        seed = {
            "network": coarse.data,
            "termination": coarse.termination,
            "observe_port": coarse.observe_port,
        }
        store = ArtifactStore(tmp_path / "stages")
        partial = standard_pipeline(store=store).run(
            config, seed=dict(seed), stop_after="standard_fit"
        )
        assert [e.stage for e in partial.executions] == ["standard_fit"]
        assert "weighted_fit" not in partial

        fit_key = partial.executions[0].key
        stored_file = store.path(fit_key)
        assert stored_file.exists()
        bytes_before = stored_file.read_bytes()

        # "Kill": a brand-new pipeline and store instance (fresh process
        # semantics -- the memory layer is empty, only disk survives).
        resumed_store = ArtifactStore(tmp_path / "stages")
        run = standard_pipeline(store=resumed_store).run(
            config, seed=dict(seed)
        )
        by_stage = {e.stage: e for e in run.executions}
        assert by_stage["standard_fit"].status == "cached"
        assert by_stage["standard_fit"].key == fit_key
        assert stored_file.read_bytes() == bytes_before

        # The resumed fit is byte-identical to a from-scratch computation.
        fresh = StandardFitStage().run(config, {"network": coarse.data})
        resumed_fit = run["standard_fit"]
        for attribute in ("poles", "residues", "const"):
            assert (
                getattr(resumed_fit.model, attribute).tobytes()
                == getattr(fresh["standard_fit"].model, attribute).tobytes()
            )

    def test_disk_store_reads_disk(self, tmp_path):
        """A disk store keeps no copy of what it read: once another
        instance clears the root, a key read before is a miss."""
        store = ArtifactStore(tmp_path / "stages")
        key = "ab" * 32
        store.put(key, {"x": np.arange(3.0)})
        assert store.get(key) is not None
        assert ArtifactStore(tmp_path / "stages").clear() == 1
        assert store.get(key) is None
        assert key not in store and len(store) == 0

    def test_second_run_is_fully_cached(self, coarse, fast_options, tmp_path):
        store = tmp_path / "stages"
        first = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, store=store,
        )
        second = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, store=store,
        )
        assert all(p["status"] == "computed" for p in first.stage_provenance)
        assert all(p["status"] == "cached" for p in second.stage_provenance)
        assert second.headline_metrics == first.headline_metrics
        assert (
            second.weighted_enforced.model.residues.tobytes()
            == first.weighted_enforced.model.residues.tobytes()
        )

    def test_config_change_misses(self, coarse, fast_options, tmp_path):
        store = tmp_path / "stages"
        run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, store=store,
        )
        other = FlowOptions(vf=VFOptions(n_poles=6), refinement_rounds=1)
        rerun = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            other, store=store,
        )
        by_stage = {p["stage"]: p for p in rerun.stage_provenance}
        assert by_stage["standard_fit"]["status"] == "computed"
        # The sensitivity stage reads no configuration: still a hit.
        assert by_stage["sensitivity"]["status"] == "cached"

    def test_seeded_standard_fit_is_skipped(self, coarse, fast_options):
        result = run_flow(
            coarse.data, coarse.termination, coarse.observe_port, fast_options
        )
        reseeded = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, standard_fit=result.standard_fit,
        )
        assert reseeded.stage_provenance[0]["status"] == "seeded"
        assert (
            reseeded.weighted_enforced.model.residues.tobytes()
            == result.weighted_enforced.model.residues.tobytes()
        )

    def test_partial_seed_rejected(self, coarse, fast_options):
        pipeline = standard_pipeline()
        with pytest.raises(ValueError, match="seed all of a stage's outputs"):
            pipeline.run(
                ReproConfig(flow=fast_options),
                seed={
                    "network": coarse.data,
                    "termination": coarse.termination,
                    "observe_port": coarse.observe_port,
                    "base_weights": np.ones(coarse.data.n_frequencies),
                },
            )


class CheckCounter(PipelineObserver):
    """Counts ``check_passivity`` calls per pipeline stage.

    Wraps the function both where the enforce stage bound it at import
    (``repro.api.stages``) and where validation looks it up at call time
    (``repro.passivity.check``).
    """

    def __init__(self, monkeypatch):
        import repro.api.stages as stages_module
        import repro.passivity.check as check_module

        self.stage = None
        self.calls: dict[str, int] = {}
        for module in (stages_module, check_module):
            monkeypatch.setattr(
                module, "check_passivity", self._counting(check_passivity)
            )

    def _counting(self, fn):
        def wrapper(*args, **kwargs):
            self.calls[self.stage] = self.calls.get(self.stage, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def on_stage_start(self, stage):
        self.stage = stage.name


class TestValidationReusesCertificates:
    """Validation checks only the standard fit; the weighted fit and both
    enforced models carry exact certificates from the enforce stage."""

    @staticmethod
    def assert_rows_match_fresh_checks(result):
        models = [
            result.standard_fit.model,
            result.weighted_fit.model,
            result.standard_enforced.model,
            result.weighted_enforced.model,
        ]
        assert len(result.accuracy_rows) == len(models)
        for row, model in zip(result.accuracy_rows, models):
            assert row.is_passive == check_passivity(model).is_passive, (
                row.label
            )

    def test_one_check_per_validation(
        self, coarse, fast_options, tmp_path, monkeypatch
    ):
        store = tmp_path / "stages"
        counter = CheckCounter(monkeypatch)
        cold = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, store=store, observers=(counter,),
        )
        assert counter.calls == {"enforce": 1, "validate": 1}
        self.assert_rows_match_fresh_checks(cold)
        assert not cold.accuracy_rows[1].is_passive

        # Full replay: every stage is served from the store.
        counter.calls.clear()
        replay = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, store=store, observers=(counter,),
        )
        assert counter.calls == {}
        assert replay.accuracy_rows == cold.accuracy_rows
        self.assert_rows_match_fresh_checks(replay)

        # Validation recomputed over certificates decoded from the store.
        counter.calls.clear()
        revalidated = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, store=store, observers=(counter,),
            store_stages=("standard_fit", "sensitivity", "weighting", "enforce"),
        )
        by_stage = {p["stage"]: p for p in revalidated.stage_provenance}
        assert by_stage["enforce"]["status"] == "cached"
        assert by_stage["validate"]["status"] == "computed"
        assert counter.calls == {"validate": 1}
        assert revalidated.accuracy_rows == cold.accuracy_rows
        self.assert_rows_match_fresh_checks(revalidated)


class TestGraphAndComposition:
    def test_missing_input_names_the_artifact(self, coarse):
        pipeline = standard_pipeline()
        with pytest.raises(ValueError, match="termination"):
            pipeline.run(seed={"network": coarse.data, "observe_port": 0})

    def test_duplicate_producer_rejected(self):
        class ShadowFit(StandardFitStage):
            name = "shadow_fit"

        with pytest.raises(ValueError, match="produced by both"):
            Pipeline([StandardFitStage(), ShadowFit()])

    def test_duplicate_stage_name_rejected(self):
        stage = StandardFitStage()
        with pytest.raises(ValueError, match="duplicate stage name"):
            Pipeline([stage, stage])

    def test_type_validation(self, fast_options):
        pipeline = Pipeline([StandardFitStage()])
        with pytest.raises(TypeError, match="network.*NetworkData"):
            pipeline.run(
                ReproConfig(flow=fast_options),
                seed={"network": "not a network"},
            )

    def test_describe_lists_the_graph(self):
        text = standard_pipeline().describe()
        assert "standard_fit: network -> standard_fit" in text
        assert "validate:" in text

    def test_observers_see_every_stage(self, coarse, fast_options):
        events = []

        class Recorder(PipelineObserver):
            def on_stage_start(self, stage):
                events.append(("start", stage.name))

            def on_stage_finish(self, stage, execution):
                events.append(("finish", execution.stage, execution.status))

        result = run_flow(
            coarse.data, coarse.termination, coarse.observe_port,
            fast_options, observers=(Recorder(),),
        )
        stages = ["standard_fit", "sensitivity", "weighting", "enforce",
                  "validate"]
        assert [r["stage"] for r in result.stage_provenance] == stages
        assert [e for e in events if e[0] == "start"] == [
            ("start", name) for name in stages
        ]
        assert all(e[2] == "computed" for e in events if e[0] == "finish")

    def test_custom_stage_inserted_between_weighting_and_enforce(
        self, coarse, fast_options
    ):
        """The README/example scenario: a custom audit stage riding in the
        middle of the chain, publishing a new artifact."""

        class WeightAuditStage(PipelineStage):
            name = "weight_audit"
            inputs = (
                ArtifactSpec("base_weights", np.ndarray),
                ArtifactSpec("final_weights", np.ndarray),
            )
            outputs = (ArtifactSpec("weight_stats", dict),)

            def run(self, config, inputs):
                boost = inputs["final_weights"] / inputs["base_weights"]
                return {
                    "weight_stats": {
                        "max_boost": float(np.max(boost)),
                        "n_points": int(boost.size),
                    }
                }

        pipeline = standard_pipeline().with_stage(
            WeightAuditStage(), after="weighting"
        )
        run = pipeline.run(
            ReproConfig(flow=fast_options),
            seed={
                "network": coarse.data,
                "termination": coarse.termination,
                "observe_port": coarse.observe_port,
            },
        )
        stats = run["weight_stats"]
        assert stats["n_points"] == coarse.data.n_frequencies
        assert stats["max_boost"] >= 1.0
        assert "weighted_enforced" in run

    def test_replace_weighting_variant(self, coarse, fast_options):
        class UniformWeighting(WeightingStage):
            version = "uniform-1"

            def base_weights(self, config, data, xi, reference):
                return np.ones(data.n_frequencies)

        pipeline = standard_pipeline().replace_stage(
            "weighting", UniformWeighting()
        )
        run = pipeline.run(
            ReproConfig(flow=fast_options),
            seed={
                "network": coarse.data,
                "termination": coarse.termination,
                "observe_port": coarse.observe_port,
            },
        )
        assert np.all(run["base_weights"] == 1.0)

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError, match="no stage named"):
            standard_pipeline().with_stage(StandardFitStage(), after="nope")

    def test_file_pipeline_runs_external_data(self, fast_options):
        pipeline = file_pipeline(
            EXTERNAL_S2P, "0=r(1);1=rlc(r=0.2,c=1e-6)", observe_port=1
        )
        run = pipeline.run(ReproConfig(flow=fast_options))
        assert run["network"].n_ports == 2
        assert run["ingest_report"].n_ports == 2
        assert "weighted_enforced" in run


class TestConfigBoundary:
    def test_run_flow_wraps_flow_options(self, coarse, fast_options, monkeypatch):
        """A bare FlowOptions given to run_flow runs exactly the
        ReproConfig(flow=...) run: same run key, digest-equal results."""
        keys = []
        pipeline_run = Pipeline.run

        def spy(self, config=None, seed=None, **kwargs):
            keys.append(self.run_key(config, seed))
            return pipeline_run(self, config, seed, **kwargs)

        monkeypatch.setattr(Pipeline, "run", spy)
        case = (coarse.data, coarse.termination, coarse.observe_port)
        bare = run_flow(*case, fast_options)
        wrapped = run_flow(*case, ReproConfig(flow=fast_options))
        assert len(keys) == 2 and keys[0] == keys[1]
        for name in ("standard_fit", "weighted_fit", "weight_model",
                     "standard_enforced", "weighted_enforced"):
            ours, theirs = getattr(bare, name), getattr(wrapped, name)
            assert artifact_digest(ours.model) == artifact_digest(theirs.model)
        assert artifact_digest(bare.final_weights) == artifact_digest(
            wrapped.final_weights
        )
        assert bare.headline_metrics == wrapped.headline_metrics

    def test_pipeline_rejects_bare_flow_options(self):
        pipeline = Pipeline([StandardFitStage()])
        with pytest.raises(TypeError, match="ReproConfig"):
            pipeline.run(FlowOptions())
        with pytest.raises(TypeError, match="ReproConfig"):
            pipeline.run_key(FlowOptions(), {})
