"""Telemetry core: spans, counters, sinks, metrics, sidecar merge, trace."""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import (
    METRICS_FORMAT,
    Telemetry,
    build_campaign_metrics,
    build_run_metrics,
    prometheus_exposition,
    render_trace,
    telemetry_session,
)
from repro.obs import telemetry as obs
from repro.obs.metrics import cache_hit_rates, convergence_from_events
from repro.obs.trace import load_trace_payload


class TestDisabled:
    def test_accessors_are_noops_without_session(self):
        assert obs.active() is None
        obs.emit("anything", value=1)
        obs.incr("anything")
        obs.gauge("anything", 2.0)
        assert obs.next_seq("anything") is None

    def test_span_is_shared_noop(self):
        first = obs.span("kernel:x")
        second = obs.span("kernel:y", attr=1)
        assert first is second  # one reusable singleton, no allocation
        with first:
            pass


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        tel = Telemetry()
        with obs.session(tel):
            with obs.span("stage:fit"):
                with obs.span("kernel:qr"):
                    pass
                with obs.span("kernel:qr"):
                    pass
            with obs.span("kernel:qr"):
                pass
        assert set(tel.span_totals) == {
            "stage:fit", "stage:fit/kernel:qr", "kernel:qr",
        }
        assert tel.span_totals["stage:fit/kernel:qr"]["count"] == 2
        assert tel.span_totals["stage:fit"]["count"] == 1
        assert all(
            total["seconds"] >= 0.0 for total in tel.span_totals.values()
        )

    def test_span_finish_events_carry_path_and_attrs(self):
        tel = Telemetry()
        with obs.session(tel):
            with obs.span("stage:fit", order=12):
                pass
        finishes = [e for e in tel.events if e["event"] == "span.finish"]
        assert len(finishes) == 1
        assert finishes[0]["span"] == "stage:fit"
        assert finishes[0]["order"] == 12

    def test_events_record_enclosing_span_path(self):
        tel = Telemetry()
        with obs.session(tel):
            with obs.span("stage:fit"):
                obs.emit("vf.iteration", iteration=1)
        event = next(e for e in tel.events if e["event"] == "vf.iteration")
        assert event["span"] == "stage:fit"


class TestCountersAndGauges:
    def test_incr_accumulates(self):
        tel = Telemetry()
        with obs.session(tel):
            obs.incr("hits")
            obs.incr("hits")
            obs.incr("hits", 3)
            obs.gauge("grid", 10)
            obs.gauge("grid", 20)
        assert tel.counters == {"hits": 5}
        assert tel.gauges == {"grid": 20.0}

    def test_next_seq_is_monotonic_per_name(self):
        tel = Telemetry()
        with obs.session(tel):
            assert obs.next_seq("vf.batch") == 0
            assert obs.next_seq("vf.batch") == 1
            assert obs.next_seq("other") == 0


class TestSession:
    def test_nested_sessions_restore_previous(self):
        outer, inner = Telemetry(), Telemetry()
        with obs.session(outer):
            assert obs.active() is outer
            with obs.session(inner):
                assert obs.active() is inner
                obs.incr("x")
            assert obs.active() is outer
            obs.incr("y")
        assert obs.active() is None
        assert inner.counters == {"x": 1}
        assert outer.counters == {"y": 1}

    def test_telemetry_session_writes_metrics_files(self, tmp_path):
        with telemetry_session(tmp_path, label="t") as tel:
            obs.incr("hits")
            with obs.span("stage:fit"):
                pass
        sink = tmp_path / f"events-t-{os.getpid()}.jsonl"
        assert sink.exists()
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        assert any(e["event"] == "span.finish" for e in lines)
        payload = json.loads((tmp_path / "run_metrics.json").read_text())
        assert payload["format"] == METRICS_FORMAT
        assert payload["counters"] == {"hits": 1}
        assert "stage:fit" in payload["spans"]
        assert (tmp_path / "metrics.prom").exists()
        assert tel.counters == {"hits": 1}


class TestMetrics:
    def test_convergence_extraction_groups_by_batch_and_cost(self):
        events = [
            {"event": "vf.iteration", "batch": 0, "set": 0, "iteration": 1,
             "pole_change": 0.5, "n_poles": 8, "converged": False},
            {"event": "vf.iteration", "batch": 0, "set": 0, "iteration": 2,
             "pole_change": 0.01, "n_poles": 8, "converged": True},
            {"event": "vf.iteration", "batch": 1, "set": 0, "iteration": 1,
             "pole_change": 0.2, "n_poles": 8, "converged": False},
            {"event": "enforce.iteration", "cost": "standard",
             "iteration": 1, "worst_sigma": 1.01, "n_bands": 2,
             "n_constraints": 30, "working_set": 5, "active_set": 3},
        ]
        conv = convergence_from_events(events)
        assert set(conv["vf"]) == {"0:0", "1:0"}
        assert [row["iteration"] for row in conv["vf"]["0:0"]] == [1, 2]
        assert conv["enforcement"]["standard"][0]["working_set"] == 5
        assert conv["enforcement"]["standard"][0]["active_set"] == 3
        assert set(conv) == {"vf", "enforcement"}

    def test_build_run_metrics_payload(self):
        tel = Telemetry(label="flow")
        with obs.session(tel):
            obs.incr("artifact_store.hits", 2)
            obs.incr("artifact_store.misses")
        payload = build_run_metrics(tel, kind="flow")
        assert payload["format"] == METRICS_FORMAT
        assert payload["kind"] == "flow"
        assert payload["counters"]["artifact_store.hits"] == 2

    def test_cache_hit_rates_handles_cold_and_warm(self):
        rates = cache_hit_rates({
            "flow_cache.misses": 3,
            "artifact_store.hits": 3,
            "unrelated": 7,
        })
        assert rates["flow_cache"]["hit_rate"] == 0.0
        assert rates["artifact_store"]["hit_rate"] == 1.0
        assert "unrelated" not in rates

    def test_prometheus_exposition_format(self):
        tel = Telemetry()
        with obs.session(tel):
            obs.incr("flow_cache.hits", 4)
            obs.gauge("grid_points", 128)
            with obs.span("stage:fit"):
                pass
        text = prometheus_exposition(build_run_metrics(tel))
        assert "# TYPE repro_flow_cache_hits_total counter" in text
        assert "repro_flow_cache_hits_total 4" in text
        assert "repro_grid_points 128" in text
        assert 'repro_span_calls_total{span="stage:fit"} 1' in text

    def test_campaign_merge_sums_counters_and_ranks_runs(self):
        dispatcher = Telemetry(label="campaign")
        with obs.session(dispatcher):
            obs.incr("campaign.prefit_fits")
        runs = [
            {"run_id": "a", "seconds": 2.0,
             "snapshot": {"counters": {"flow_cache.misses": 1},
                          "spans": {"stage:fit": {"count": 1,
                                                  "seconds": 1.5}}}},
            {"run_id": "b", "seconds": 5.0,
             "snapshot": {"counters": {"flow_cache.misses": 1,
                                       "flow_cache.hits": 1},
                          "spans": {"stage:fit": {"count": 2,
                                                  "seconds": 3.0}}}},
        ]
        payload = build_campaign_metrics(dispatcher, runs)
        assert payload["kind"] == "campaign"
        assert payload["counters"]["flow_cache.misses"] == 2
        assert payload["counters"]["campaign.prefit_fits"] == 1
        assert payload["spans"]["stage:fit"] == {"count": 3, "seconds": 4.5}
        assert payload["slowest_runs"][0]["run_id"] == "b"
        assert payload["cache_hit_rates"]["flow_cache"]["hits"] == 1


def _worker_session(args):
    """Module-level so it pickles into a spawned/forked worker."""
    directory, run_id = args
    with telemetry_session(
        directory, label="scenario", run_id=run_id, write_metrics=False
    ) as tel:
        obs.incr("flow_cache.misses")
        obs.emit("vf.iteration", batch=0, set=0, iteration=1,
                 pole_change=0.1, n_poles=4, converged=False)
    return tel.snapshot()


class TestMultiprocessSidecars:
    def test_worker_sidecars_merge_into_campaign_payload(self, tmp_path):
        with ProcessPoolExecutor(max_workers=2) as pool:
            snapshots = list(pool.map(
                _worker_session,
                [(str(tmp_path), "run-a"), (str(tmp_path), "run-b")],
            ))
        sidecars = sorted(tmp_path.glob("events-scenario-*.jsonl"))
        assert len(sidecars) == 2
        names = {p.name for p in sidecars}
        assert any("run-a" in n for n in names)
        assert any("run-b" in n for n in names)

        dispatcher = Telemetry(label="campaign")
        runs = [
            {"run_id": rid, "seconds": 1.0, "snapshot": snap}
            for rid, snap in zip(["run-a", "run-b"], snapshots)
        ]
        payload = build_campaign_metrics(dispatcher, runs)
        assert payload["counters"]["flow_cache.misses"] == 2
        # The sidecar JSONL streams are independently replayable.
        events = []
        for sidecar in sidecars:
            events += [json.loads(l) for l in
                       sidecar.read_text().splitlines()]
        conv = convergence_from_events(events)
        assert len(conv["vf"]["0:0"]) == 2


class TestTrace:
    def _record_run(self, directory):
        with telemetry_session(directory, label="flow"):
            obs.incr("artifact_store.hits")
            obs.incr("artifact_store.misses")
            with obs.span("stage:standard_fit"):
                with obs.span("kernel:vf.relocate"):
                    pass
                obs.emit("vf.iteration", batch=0, set=0, iteration=1,
                         pole_change=0.25, n_poles=8, converged=False)
            with obs.span("stage:enforce"):
                obs.emit("enforce.iteration", cost="standard", iteration=1,
                         worst_sigma=1.002, n_bands=3, n_constraints=40,
                         working_set=7, active_set=4)

    def test_render_from_telemetry_dir(self, tmp_path):
        self._record_run(tmp_path)
        text = render_trace(tmp_path)
        assert "vector fitting: pole relocation" in text
        assert "2.500e-01" in text  # the pole_change sample
        assert "passivity enforcement: worst sigma" in text
        assert "1.002e+00" in text
        assert "working_set  active_set" in text
        assert "          7           4" in text
        assert "per stage:" in text and "standard_fit" in text
        assert "per kernel:" in text and "vf.relocate" in text
        assert "artifact_store.hits" in text
        assert "rate=50.0%" in text

    def test_render_from_parent_of_telemetry_subdir(self, tmp_path):
        self._record_run(tmp_path / "telemetry")
        assert "vector fitting" in render_trace(tmp_path)

    def test_render_from_events_only(self, tmp_path):
        self._record_run(tmp_path)
        (tmp_path / "run_metrics.json").unlink()
        payload = load_trace_payload(tmp_path)
        assert payload["kind"] == "events"
        assert payload["spans"]["stage:standard_fit"]["count"] == 1
        assert "vector fitting" in render_trace(tmp_path)

    def test_missing_trace_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            render_trace(tmp_path)


class TestInstrumentationWiring:
    """The solver layers emit real events inside a session."""

    def test_fit_many_emits_iteration_events(self):
        import numpy as np

        from repro.vectfit.core import fit_many
        from repro.vectfit.options import VFOptions

        omega = np.linspace(1e3, 1e6, 40)
        rng = np.random.default_rng(0)
        poles = -np.abs(rng.normal(1e4, 1e3, 2))
        samples = np.zeros((40, 1, 1), dtype=complex)
        for p in poles:
            samples[:, 0, 0] += 1e3 / (1j * omega - p)
        tel = Telemetry()
        with obs.session(tel):
            fit_many(omega, [samples], options=VFOptions(n_poles=4))
        iters = [e for e in tel.events if e["event"] == "vf.iteration"]
        assert iters, "fit_many emitted no vf.iteration events"
        assert {"batch", "set", "iteration", "n_poles", "pole_change",
                "converged"} <= set(iters[0])
        assert tel.counters["vf.iterations"] == len(iters)
        assert any(
            path.endswith("kernel:vf.relocate") for path in tel.span_totals
        )

    def test_artifact_store_counters(self, tmp_path):
        from repro.api import ArtifactStore

        store = ArtifactStore(tmp_path)
        tel = Telemetry()
        with obs.session(tel):
            assert store.get("0" * 64) is None
            store.put("0" * 64, {"x": 1})
            assert store.get("0" * 64) == {"x": 1}
        assert tel.counters == {
            "artifact_store.misses": 1,
            "artifact_store.puts": 1,
            "artifact_store.hits": 1,
        }
