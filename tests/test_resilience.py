"""Resilient execution layer: fault injection proves every ladder.

Each solver fallback ladder (VF kernel, QP, checker, enforcement
best-iterate) and every campaign retry channel (in-worker failure,
worker crash, wall-clock timeout) is driven end-to-end by the
deterministic fault-injection harness and must recover to the same
answer the clean path produces.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.registry import CampaignRegistry
from repro.campaign.report import failure_summary
from repro.obs.telemetry import Telemetry, session
from repro.obs.trace import render_trace
from repro.passivity.check import check_passivity
from repro.passivity.cost import l2_gramian_cost
from repro.passivity.enforce import EnforcementOptions, enforce_passivity
from repro.resilience import (
    FaultSpec,
    InjectedFault,
    ReproError,
    RetryPolicy,
    StageOutputError,
    ensure_finite_outputs,
    error_code_of,
    fault_plan,
    jitter_fraction,
    nonfinite_in,
    stage_of,
)
from repro.resilience.errors import (
    FitDivergedError,
    IngestError,
    QPInfeasibleError,
    WorkerCrashError,
)
from repro.resilience.faultinject import (
    ENV_PLAN,
    check as fi_check,
    corrupt as fi_corrupt,
    set_attempt,
    set_scenario,
)
from repro.statespace.poleresidue import PoleResidueModel
from repro.vectfit.core import vector_fit
from repro.vectfit.options import VFOptions
from tests.conftest import make_random_stable_model
from tests.test_campaign import fast_scenario


@pytest.fixture(autouse=True)
def clean_fault_state():
    """Faults never leak between tests (or in from the environment)."""
    set_attempt(0)
    set_scenario(None)
    yield
    set_attempt(0)
    set_scenario(None)
    assert ENV_PLAN not in os.environ


def violating_model(gain=1.3):
    poles = np.array([-0.5 + 5.0j, -0.5 - 5.0j, -2.0])
    residues = np.array(
        [[[gain * 0.5]], [[gain * 0.5]], [[0.2]]], dtype=complex
    )
    return PoleResidueModel(poles, residues, np.array([[0.1]]))


# ----------------------------------------------------------------------
# Harness semantics
# ----------------------------------------------------------------------
class TestFaultInject:
    def test_env_round_trip(self):
        spec = FaultSpec(site="x", action="scale", index=2, count=3,
                         factor=4.0)
        with fault_plan(spec):
            raw = os.environ[ENV_PLAN]
            decoded = [
                FaultSpec.from_dict(d) for d in json.loads(raw)
            ]
            assert decoded == [spec]
        assert ENV_PLAN not in os.environ

    def test_index_counting_and_raise(self):
        with fault_plan(FaultSpec(site="s", action="raise", index=1)):
            assert fi_check("s") is None  # call 0
            with pytest.raises(InjectedFault, match="call 1"):
                fi_check("s")  # call 1 fires
            assert fi_check("s") is None  # call 2 past the window

    def test_corrupt_nan_and_scale(self):
        value = np.arange(4.0)
        with fault_plan(FaultSpec(site="a", action="nan")):
            poisoned = fi_corrupt("a", value)
        assert np.isnan(poisoned).all()
        with fault_plan(FaultSpec(site="a", action="scale", factor=3.0)):
            scaled = fi_corrupt("a", value)
        np.testing.assert_allclose(scaled, 3.0 * value)
        # Disarmed: pass-through.
        assert fi_corrupt("a", value) is value

    def test_attempt_and_scenario_pinning(self):
        with fault_plan(
            FaultSpec(site="p", action="raise", attempt=0, count=10)
        ):
            set_attempt(1)
            assert fi_check("p") is None
            set_attempt(0)
            with pytest.raises(InjectedFault):
                fi_check("p")
        with fault_plan(
            FaultSpec(site="q", action="raise", scenario="victim", count=10)
        ):
            set_scenario("other-run")
            assert fi_check("q") is None
            set_scenario("victim-af319")
            with pytest.raises(InjectedFault):
                fi_check("q")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="action"):
            FaultSpec(site="s", action="bogus")
        with pytest.raises(ValueError, match="count"):
            FaultSpec(site="s", count=0)


# ----------------------------------------------------------------------
# Error taxonomy / retry policy / guards
# ----------------------------------------------------------------------
class TestErrorsAndPolicy:
    def test_error_codes_and_stage(self):
        exc = QPInfeasibleError("no", stage="enforcement", scenario="r1")
        assert error_code_of(exc) == "qp_infeasible"
        assert stage_of(exc) == "enforcement"
        assert exc.to_dict()["scenario"] == "r1"
        assert error_code_of(MemoryError()) == "out_of_memory"
        assert error_code_of(ValueError("x")) == "value_error"
        assert issubclass(WorkerCrashError, ReproError)
        assert issubclass(IngestError, ReproError)
        tagged = RuntimeError("deep")
        tagged.repro_stage = "weighting"
        assert stage_of(tagged) == "weighting"

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.1,
                             backoff_factor=2.0, backoff_max_s=0.5)
        a = policy.backoff_s("run-1", 1)
        assert a == policy.backoff_s("run-1", 1)  # pure function
        assert policy.backoff_s("run-2", 1) != a  # jitter keyed by run id
        assert 0.1 <= a <= 0.1 * (1 + policy.jitter)
        assert policy.backoff_s("run-1", 9) == 0.5  # capped
        assert 0.0 <= jitter_fraction("run-1", 1) < 1.0
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_guards(self):
        clean = {"a": np.ones(3), "b": 7}
        ensure_finite_outputs("stage", clean)  # no raise
        assert nonfinite_in("a", np.array([1.0, np.inf])) is not None
        assert nonfinite_in("i", np.array([1, 2])) is None  # ints are safe
        model = violating_model()
        assert nonfinite_in("m", model) is None
        bad = PoleResidueModel(
            model.poles,
            np.full_like(model.residues, np.nan),
            model.const,
        )
        with pytest.raises(StageOutputError, match="residues"):
            ensure_finite_outputs("fit", {"model": bad})


# ----------------------------------------------------------------------
# Solver fallback ladders: equivalence with the clean/reference paths
# ----------------------------------------------------------------------
class TestVFKernelLadder:
    def _data(self):
        rng = np.random.default_rng(7)
        model = make_random_stable_model(rng, n_ports=2)
        omega = np.linspace(0.1, 30.0, 60)
        return omega, model.frequency_response(omega)

    def assert_fits_match(self, got, want):
        np.testing.assert_allclose(
            np.sort_complex(got.model.poles),
            np.sort_complex(want.model.poles),
            rtol=1e-8, atol=1e-12,
        )
        np.testing.assert_allclose(
            got.model.residues, want.model.residues, rtol=1e-6, atol=1e-8
        )

    def test_relocation_falls_back_to_reference(self):
        omega, samples = self._data()
        options = VFOptions(n_poles=6, kernel="batched")
        reference = vector_fit(
            omega, samples,
            options=dataclasses.replace(options, kernel="reference"),
        )
        tel = Telemetry(label="test")
        with session(tel), fault_plan(
            FaultSpec(site="vf.relocate_batched", action="nan", count=1000)
        ):
            recovered = vector_fit(omega, samples, options=options)
        assert tel.counters["fallback.vf_kernel"] >= 1
        self.assert_fits_match(recovered, reference)

    def test_residues_fall_back_to_reference(self):
        omega, samples = self._data()
        options = VFOptions(n_poles=6, kernel="batched")
        reference = vector_fit(
            omega, samples,
            options=dataclasses.replace(options, kernel="reference"),
        )
        tel = Telemetry(label="test")
        with session(tel), fault_plan(
            FaultSpec(site="vf.residues_batched", action="nan", count=1000)
        ):
            recovered = vector_fit(omega, samples, options=options)
        assert tel.counters["fallback.vf_kernel"] >= 1
        self.assert_fits_match(recovered, reference)

    def test_clean_batched_path_untouched(self):
        omega, samples = self._data()
        options = VFOptions(n_poles=6, kernel="batched")
        reference = vector_fit(
            omega, samples,
            options=dataclasses.replace(options, kernel="reference"),
        )
        tel = Telemetry(label="test")
        with session(tel):
            clean = vector_fit(omega, samples, options=options)
        assert "fallback.vf_kernel" not in tel.counters
        self.assert_fits_match(clean, reference)


class TestQPAndCheckerLadders:
    def test_qp_stall_falls_through_to_dense(self):
        model = violating_model()
        reference = enforce_passivity(model, l2_gramian_cost(model))
        assert reference.converged
        tel = Telemetry(label="test")
        with session(tel), fault_plan(
            FaultSpec(site="qp.structured", action="stall", count=10_000)
        ):
            faulted = enforce_passivity(model, l2_gramian_cost(model))
        assert faulted.converged
        assert check_passivity(faulted.model).is_passive
        assert tel.counters["fallback.qp_dense"] >= 1
        assert tel.counters["fallback.qp_regularized"] >= 2
        np.testing.assert_allclose(
            faulted.model.residues, reference.model.residues,
            rtol=1e-4, atol=1e-8,
        )


class TestBestIterateRecovery:
    def test_divergent_run_returns_best_iterate(self):
        model = violating_model()
        options = EnforcementOptions(
            max_iterations=8,
            divergence_patience=2,
        )
        before = check_passivity(model)
        tel = Telemetry(label="test")
        with session(tel), fault_plan(
            FaultSpec(site="enforce.step", action="scale", factor=40.0,
                      count=10_000)
        ):
            result = enforce_passivity(model, l2_gramian_cost(model), options)
        assert not result.converged
        assert result.recovery is not None
        assert result.recovery["mode"] == "best_iterate"
        assert result.recovery["reason"] == "divergence"
        assert result.iterations < options.max_iterations  # stopped early
        # The returned report is the best certified one, and strictly
        # better than the diverged tail.
        assert result.report_after.worst_sigma == pytest.approx(
            result.recovery["best_worst_sigma"]
        )
        assert (result.recovery["best_worst_sigma"]
                < result.recovery["final_worst_sigma"])
        # Best iterate here is the unperturbed model (every faulted step
        # overshoots), so the roll-back restores it exactly.
        assert result.recovery["best_iteration"] == 0
        np.testing.assert_allclose(result.model.residues, model.residues)
        np.testing.assert_allclose(result.total_delta_c, 0.0)
        assert result.report_after.worst_sigma == pytest.approx(
            before.worst_sigma
        )
        assert tel.counters["fallback.best_iterate"] == 1

    def test_clean_run_has_no_recovery(self):
        result = enforce_passivity(
            violating_model(), l2_gramian_cost(violating_model())
        )
        assert result.converged
        assert result.recovery is None


# ----------------------------------------------------------------------
# Pipeline stage boundaries
# ----------------------------------------------------------------------
class TestStageBoundaries:
    def test_nan_output_raises_typed_stage_error(self):
        from repro.api.artifacts import ArtifactSpec
        from repro.api.pipeline import Pipeline
        from repro.api.stages import PipelineStage

        class PoisonStage(PipelineStage):
            name = "poison"
            outputs = (ArtifactSpec("poisoned", np.ndarray),)
            cacheable = False

            def run(self, config, inputs):
                return {"poisoned": np.full(3, np.nan)}

        with pytest.raises(StageOutputError, match="poison") as excinfo:
            Pipeline([PoisonStage()]).run()
        assert excinfo.value.error_code == "stage_output"
        assert stage_of(excinfo.value) == "poison"

    def test_untyped_exception_tagged_with_stage(self):
        from repro.api.artifacts import ArtifactSpec
        from repro.api.pipeline import Pipeline
        from repro.api.stages import PipelineStage

        class BoomStage(PipelineStage):
            name = "boom"
            outputs = (ArtifactSpec("x", int),)
            cacheable = False

            def run(self, config, inputs):
                raise ValueError("deep solver failure")

        with pytest.raises(ValueError) as excinfo:
            Pipeline([BoomStage()]).run()
        assert stage_of(excinfo.value) == "boom"
        assert error_code_of(excinfo.value) == "value_error"


# ----------------------------------------------------------------------
# Campaign retries, timeouts, crash recovery
# ----------------------------------------------------------------------
class TestCampaignRetries:
    def test_serial_retry_recovers_on_second_attempt(self):
        scenario = fast_scenario("retry")
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.01)
        tel = Telemetry(label="test")
        with fault_plan(
            FaultSpec(site="scenario.run", action="raise", attempt=0)
        ), session(tel):
            result = run_campaign([scenario], jobs=1, retry=policy)
        record = result.records[0]
        assert record["status"] == "ok"
        assert record["attempts"] == 2
        assert len(record["retries"]) == 1
        assert record["retries"][0]["error_code"] == "injected_fault"
        # The recorded backoff is the policy's deterministic schedule,
        # a pure function of (run_id, attempt) -- no wall clock, no RNG.
        assert record["retries"][0]["backoff_s"] == pytest.approx(
            policy.backoff_s(scenario.run_id, 1)
        )
        assert tel.counters["retry.attempts"] == 1
        assert tel.counters["retry.recovered"] == 1

    def test_retry_budget_exhausted_fails_fast(self):
        scenario = fast_scenario("budget")
        policy = RetryPolicy(max_retries=3, retry_budget=0)
        with fault_plan(
            FaultSpec(site="scenario.run", action="raise", count=100)
        ):
            result = run_campaign([scenario], jobs=1, retry=policy)
        record = result.records[0]
        assert record["status"] == "failed"
        assert record["attempts"] == 1
        assert "retries" not in record

    def test_failure_record_carries_taxonomy_and_traceback(self, tmp_path):
        scenario = fast_scenario("doomed")
        registry = CampaignRegistry(tmp_path / "reg")
        with fault_plan(
            FaultSpec(site="scenario.run", action="raise", count=100)
        ):
            result = run_campaign([scenario], registry=registry)
        record = result.records[0]
        assert record["error_code"] == "injected_fault"
        assert record["failed_stage"] == "scenario.run"
        assert "InjectedFault" in record["traceback"]
        summary = failure_summary(result.records)
        assert "[injected_fault @ scenario.run]" in summary
        # The registry manifest indexes the taxonomy fields, and
        # `repro trace <registry>` surfaces the failed runs.
        manifest = registry.load_manifest()
        entry = manifest["runs"][0]
        assert entry["error_code"] == "injected_fault"
        assert entry["failed_stage"] == "scenario.run"
        trace = render_trace(registry.root)
        assert "failed runs" in trace
        assert "injected_fault" in trace

    def test_retry_failed_mode_reruns_only_failures(self, tmp_path):
        scenarios = [
            fast_scenario("bad"),
            fast_scenario("good", decap_c_scale=1.2),
        ]
        registry = CampaignRegistry(tmp_path / "reg")
        with fault_plan(
            FaultSpec(site="scenario.run", action="raise",
                      scenario="bad", count=100)
        ):
            first = run_campaign(scenarios, registry=registry)
        assert first.n_failed == 1
        # Plan disarmed: --retry-failed re-runs only the failed scenario.
        second = run_campaign(scenarios, registry=registry,
                              retry_failed=True)
        by_name = {r["name"]: r for r in second.records}
        assert by_name["bad"]["status"] == "ok"
        assert not by_name["bad"].get("resumed")
        assert by_name["good"]["status"] == "ok"
        assert by_name["good"]["resumed"] is True

    def test_retry_failed_requires_registry(self):
        with pytest.raises(ValueError, match="registry"):
            run_campaign([fast_scenario("x")], retry_failed=True)

    def test_telemetry_exports_retry_counters(self, tmp_path):
        scenario = fast_scenario("telem")
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0)
        telemetry_dir = tmp_path / "telemetry"
        with fault_plan(
            FaultSpec(site="scenario.run", action="raise", attempt=0)
        ):
            result = run_campaign(
                [scenario], jobs=1, retry=policy,
                telemetry_dir=str(telemetry_dir),
            )
        assert result.n_failed == 0
        payload = json.loads(
            (telemetry_dir / "run_metrics.json").read_text(encoding="utf-8")
        )
        assert payload["counters"]["retry.attempts"] == 1
        assert payload["counters"]["retry.recovered"] == 1

    def test_telemetry_exports_error_counters_and_failures(self, tmp_path):
        scenario = fast_scenario("fatal")
        telemetry_dir = tmp_path / "telemetry"
        with fault_plan(
            FaultSpec(site="scenario.run", action="raise", count=100)
        ):
            result = run_campaign(
                [scenario], jobs=1, telemetry_dir=str(telemetry_dir)
            )
        assert result.n_failed == 1
        payload = json.loads(
            (telemetry_dir / "run_metrics.json").read_text(encoding="utf-8")
        )
        # The worker-session snapshot's error counter is merged into the
        # campaign-level counters, and the failure lands in the payload.
        assert payload["counters"]["campaign.errors.injected_fault"] == 1
        assert payload["failures"][0]["error_code"] == "injected_fault"
        assert payload["failures"][0]["failed_stage"] == "scenario.run"


class TestCampaignPool:
    def test_serial_and_pooled_dispatch_agree(self):
        # Two scenarios: with a single one to compute, jobs=2 runs
        # in-process too.
        scenarios = [
            fast_scenario("flaky"),
            fast_scenario("steady", decap_c_scale=1.1),
        ]
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0)
        outcomes = {}
        for jobs in (1, 2):
            with fault_plan(
                FaultSpec(site="scenario.run", action="raise",
                          scenario="flaky", attempt=0)
            ):
                result = run_campaign(scenarios, jobs=jobs, retry=policy)
            outcomes[jobs] = [
                (record["name"], record["status"], record["attempts"],
                 [(retry["error_code"], retry["backoff_s"])
                  for retry in record.get("retries", [])])
                for record in result.records
            ]
        assert outcomes[1] == outcomes[2]
        assert outcomes[1] == [
            ("flaky", "ok", 2, [("injected_fault", 0.0)]),
            ("steady", "ok", 1, []),
        ]

    def test_worker_crash_detected_and_requeued(self):
        scenarios = [
            fast_scenario("crash"),
            fast_scenario("bystander", decap_c_scale=1.1),
        ]
        tel = Telemetry(label="test")
        with fault_plan(
            FaultSpec(site="scenario.run", action="exit",
                      scenario="crash", attempt=0)
        ), session(tel):
            result = run_campaign(
                scenarios, jobs=2, retry=RetryPolicy(backoff_base_s=0.0)
            )
        assert result.n_failed == 0
        victim = [r for r in result.records if r["name"] == "crash"][0]
        assert victim["attempts"] == 2
        assert victim["retries"][0]["error_code"] == "worker_crash"
        assert tel.counters["campaign.worker_crashes"] >= 1
        assert tel.counters["retry.requeued_after_crash"] >= 1

    def test_timeout_kills_and_requeues_exactly_once(self):
        scenarios = [
            fast_scenario("hang"),
            fast_scenario("prompt", decap_c_scale=1.1),
        ]
        policy = RetryPolicy(
            max_retries=1, backoff_base_s=0.0, timeout_s=3.0
        )
        tel = Telemetry(label="test")
        with fault_plan(
            FaultSpec(site="scenario.run", action="hang", seconds=60.0,
                      scenario="hang", attempt=0)
        ), session(tel):
            result = run_campaign(scenarios, jobs=2, retry=policy)
        assert result.n_failed == 0
        victim = [r for r in result.records if r["name"] == "hang"][0]
        assert victim["attempts"] == 2
        assert len(victim["retries"]) == 1
        assert victim["retries"][0]["error_code"] == "stage_timeout"
        assert tel.counters["retry.timeouts"] >= 1
        assert tel.counters["retry.requeued_after_timeout"] == 1


# ----------------------------------------------------------------------
# VF divergence surfaces as a typed error when both kernels fail
# ----------------------------------------------------------------------
class TestTypedDivergence:
    def test_fit_diverged_error_code(self):
        exc = FitDivergedError("blew up", stage="standard_fit")
        assert error_code_of(exc) == "fit_diverged"
        assert stage_of(exc) == "standard_fit"
