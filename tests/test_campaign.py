"""Campaign subsystem: scenario grids, executor, cache, registry, CLI."""

import hashlib
import json
import pickle
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api.artifacts import ArtifactStore, artifact_digest
from repro.api.config import ReproConfig
from repro.api.pipeline import standard_pipeline
from repro.api.stages import EnforceStage
from repro.campaign import executor
from repro.campaign.executor import (
    _run_key,
    _shared_standard_fits,
    _standard_fit_key,
    default_blas_threads,
    execute_scenario,
    limit_blas_threads,
    run_campaign,
)
from repro.campaign.registry import CampaignRegistry, worst_by_group
from repro.campaign.report import campaign_report
from repro.campaign.scenario import (
    CampaignSpec,
    ScenarioSpec,
    filter_scenarios,
    load_campaign,
    save_campaign,
    slugify,
)
from repro.cli import main
from repro.flow.macromodel import FlowOptions
from repro.passivity.check import check_passivity
from repro.pdn.testcase import make_variant_testcase, perturb_termination
from repro.statespace.serialization import sanitize_metadata
from repro.vectfit.core import fit_many
from repro.vectfit.options import VFOptions

EXTERNAL_S2P = (
    Path(__file__).resolve().parent.parent / "examples/data/coupled_rlc.s2p"
)

# Coarse settings: each uncached flow run takes well under a second.
FAST = dict(
    size="small",
    n_frequencies=31,
    include_dc=False,
    n_poles=4,
    refinement_rounds=0,
    weight_model_order=3,
    enforcement_max_iterations=10,
)


def fast_scenario(name="s", **overrides) -> ScenarioSpec:
    params = dict(FAST, name=name)
    params.update(overrides)
    return ScenarioSpec(**params)


class TestScenarioSpec:
    def test_run_id_deterministic_and_content_addressed(self):
        a = fast_scenario("case", weight_mode="relative")
        b = fast_scenario("case", weight_mode="relative")
        c = fast_scenario("case", weight_mode="absolute")
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id
        assert a.run_id.startswith("case-")

    def test_run_id_memoized(self):
        spec = fast_scenario("case", decap_c_scale=0.5)
        digest = hashlib.sha256(
            json.dumps(spec.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        assert spec.run_id == f"case-{digest[:10]}"
        assert vars(spec)["run_id"] is spec.run_id
        # A changed copy hashes its own content, not the memo it came from.
        changed = replace(spec, decap_c_scale=2.0)
        assert changed.run_id != spec.run_id
        assert changed.run_id == fast_scenario("case", decap_c_scale=2.0).run_id
        # Specs reach pool workers pickled, memo included.
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and back.run_id == spec.run_id

    def test_config_mapping(self):
        scenario = fast_scenario(n_poles=7, weight_mode="absolute",
                                 enforcement_max_iterations=5)
        config = scenario.config()
        assert isinstance(config, ReproConfig)
        assert config == ReproConfig(flow=config.flow)
        options = config.flow
        assert options.vf == VFOptions(n_poles=7)
        assert options.weight_mode == "absolute"
        assert options.enforcement.max_iterations == 5

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario parameters"):
            ScenarioSpec.from_dict({"name": "x", "bogus_knob": 1})
        # Fields of the deleted sampling checker strategy.
        for key in ("checker_strategy", "checker_exact_every"):
            with pytest.raises(ValueError, match=f"unknown scenario.*{key}"):
                ScenarioSpec.from_dict({"name": "x", key: "exact"})


class TestCampaignSpec:
    def test_grid_expansion(self):
        spec = CampaignSpec.from_axes(
            "grid",
            fast_scenario("base"),
            {"weight_mode": ["relative", "absolute"],
             "decap_c_scale": [0.5, 1.0, 2.0]},
        )
        scenarios = spec.expand()
        assert len(scenarios) == 6
        names = [s.name for s in scenarios]
        assert len(set(names)) == 6
        assert all("weight_mode=" in n and "decap_c_scale=" in n
                   for n in names)
        # Deterministic ordering regardless of axes dict insertion order.
        flipped = CampaignSpec.from_axes(
            "grid",
            fast_scenario("base"),
            {"decap_c_scale": [0.5, 1.0, 2.0],
             "weight_mode": ["relative", "absolute"]},
        )
        assert [s.run_id for s in flipped.expand()] == \
               [s.run_id for s in scenarios]

    def test_empty_axes_yield_base(self):
        spec = CampaignSpec.from_axes("solo", fast_scenario("only"))
        scenarios = spec.expand()
        assert len(scenarios) == 1
        assert scenarios[0].name == "only"

    def test_empty_grid(self):
        spec = CampaignSpec.from_axes(
            "empty", fast_scenario(), {"n_poles": []}
        )
        assert spec.expand() == []
        result = run_campaign(spec)
        assert result.n_runs == 0
        assert result.n_failed == 0
        assert "0 runs" in result.summary()

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axes"):
            CampaignSpec.from_axes("bad", fast_scenario(), {"nope": [1]})

    def test_json_roundtrip(self, tmp_path):
        spec = CampaignSpec.from_axes(
            "rt", fast_scenario("base"),
            {"weight_mode": ["relative", "absolute"]},
        )
        path = tmp_path / "spec.json"
        save_campaign(spec, path)
        back = load_campaign(path)
        assert back == spec
        assert [s.run_id for s in back.expand()] == \
               [s.run_id for s in spec.expand()]

    def test_filter_scenarios(self):
        spec = CampaignSpec.from_axes(
            "f", fast_scenario("base"),
            {"weight_mode": ["relative", "absolute"]},
        )
        scenarios = spec.expand()
        assert len(filter_scenarios(scenarios, None)) == 2
        assert len(filter_scenarios(scenarios, "absolute")) == 1
        assert len(filter_scenarios(scenarios, "*weight_mode=rel*")) == 1
        assert filter_scenarios(scenarios, "no-such") == []
        # An exact expanded name (always contains brackets) must match,
        # both as a substring pattern and inside a glob.
        assert filter_scenarios(scenarios, scenarios[0].name) == \
               [scenarios[0]]
        assert filter_scenarios(scenarios, scenarios[0].name + "*") == \
               [scenarios[0]]

    def test_slugify_is_path_safe(self):
        assert slugify("../evil") == "..-evil"
        assert slugify("..") == "run"
        assert slugify("a/b c") == "a-b-c"
        assert slugify("") == "run"


class TestVariantTestcase:
    def test_perturbation_changes_termination_only(self):
        nominal = make_variant_testcase("small", n_frequencies=16,
                                        include_dc=False)
        variant = make_variant_testcase(
            "small", n_frequencies=16, include_dc=False,
            decap_c_scale=2.0, vrm_resistance=5e-3, total_die_current=2.0,
        )
        assert np.allclose(variant.data.samples, nominal.data.samples)
        omega = np.array([1e6, 1e9])
        y_nom = nominal.termination.admittance_matrices(omega)
        y_var = variant.termination.admittance_matrices(omega)
        assert not np.allclose(y_nom, y_var)
        assert np.isclose(np.sum(variant.termination.excitations), 2.0)
        assert "decapC" in variant.name and "vrmR" in variant.name

    def test_medium_size_exists(self):
        from repro.pdn.testcase import _medium_geometry

        geometry = _medium_geometry()
        assert len(geometry.ports_with_role("die")) == 6
        assert len(geometry.ports_with_role("vrm")) == 1

    def test_bad_scale_rejected(self):
        nominal = make_variant_testcase("small", n_frequencies=16,
                                        include_dc=False)
        with pytest.raises(ValueError, match="positive"):
            perturb_termination(nominal.termination, decap_c_scale=0.0)


@pytest.fixture(scope="module")
def campaign_env(tmp_path_factory):
    """One small campaign executed serially; reused by the read-side tests."""
    root = tmp_path_factory.mktemp("campaign")
    spec = CampaignSpec.from_axes(
        "mini", fast_scenario("mini"),
        {"weight_mode": ["relative", "absolute"]},
    )
    registry = CampaignRegistry(root / "registry")
    cache = ArtifactStore(root / "cache")
    result = run_campaign(spec, registry=registry, cache=cache, jobs=1)
    return {"root": root, "spec": spec, "registry": registry,
            "cache": cache, "result": result}


class TestExecutor:
    def test_single_scenario_end_to_end(self, campaign_env):
        result = campaign_env["result"]
        assert result.n_runs == 2
        assert result.n_ok == 2
        assert result.n_failed == 0
        record = result.records[0]
        assert record["metrics"]["max_rel_impedance_weighted_cost"] >= 0.0
        assert record["timings"]["flow_s"] > 0.0
        assert len(record["accuracy_table"]) == 4

    def test_registry_artifacts_written(self, campaign_env):
        registry = campaign_env["registry"]
        for record in campaign_env["result"].records:
            assert registry.has_result(record["run_id"])
            model, metadata = registry.load_model(record["run_id"])
            assert metadata["run_id"] == record["run_id"]
            assert check_passivity(model).is_passive

    def test_registry_trace_times_runs_by_duration(self, campaign_env):
        from repro.obs import render_trace
        from repro.obs.trace import load_trace_payload

        registry = campaign_env["registry"]
        payload = load_trace_payload(registry.root)
        durations = {
            record["run_id"]: registry.load_result(record["run_id"])["duration_s"]
            for record in campaign_env["result"].records
        }
        assert {
            row["run_id"]: row["seconds"] for row in payload["slowest_runs"]
        } == durations
        text = render_trace(registry.root)
        for seconds in durations.values():
            assert f"{seconds:.3f}s" in text

    def test_cache_hit_on_identical_spec(self, campaign_env):
        # Fresh registry, same cache: every run must be served from cache.
        registry = CampaignRegistry(campaign_env["root"] / "registry2")
        result = run_campaign(
            campaign_env["spec"], registry=registry,
            cache=campaign_env["cache"], jobs=1,
        )
        assert result.n_ok == 2
        assert result.n_cache_hits == 2
        for record in result.records:
            assert record["timings"]["flow_s"] == 0.0
        # Models, metrics and accuracy tables survive the store exactly.
        original = {r["run_id"]: r for r in campaign_env["result"].records}
        for record in result.records:
            cold = original[record["run_id"]]
            assert record["metrics"] == cold["metrics"]
            assert record["accuracy_table"] == cold["accuracy_table"]
            warm_model, _ = registry.load_model(record["run_id"])
            cold_model, _ = campaign_env["registry"].load_model(record["run_id"])
            for attr in ("poles", "residues", "const"):
                assert (getattr(warm_model, attr).tobytes()
                        == getattr(cold_model, attr).tobytes())

    def test_cache_is_one_artifact_store(self, campaign_env):
        # Whole runs and the shared standard fit are entries of one store
        # at the cache directory itself.
        root = campaign_env["cache"].root
        store = ArtifactStore(root)
        entries = {frozenset(store.get(p.stem)) for p in root.glob("*/*.json")}
        assert entries == {frozenset({"model", "record"}),
                           frozenset({"standard_fit"})}
        assert not (root / "stages").exists()

    def test_resume_skips_completed(self, campaign_env):
        result = run_campaign(
            campaign_env["spec"], registry=campaign_env["registry"],
            cache=campaign_env["cache"], jobs=1, resume=True,
        )
        assert result.n_resumed == 2
        assert result.n_ok == 2

    def test_worker_failure_is_isolated(self, tmp_path, monkeypatch):
        # observe_port=99 does not exist -> that worker fails; the healthy
        # scenario still completes.  A fresh cache sends both runs to the
        # real process pool.
        pools = []
        real_pool = executor.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", counting_pool)
        good = fast_scenario("mini", weight_mode="relative")
        bad = fast_scenario("doomed", observe_port=99)
        registry = CampaignRegistry(tmp_path / "reg")
        result = run_campaign(
            [good, bad], registry=registry, cache=tmp_path / "cache", jobs=2,
        )
        assert pools == [2]
        assert result.n_runs == 2
        assert result.n_ok == 1
        assert result.n_failed == 1
        failed = [r for r in result.records if r["status"] == "failed"][0]
        assert failed["name"] == "doomed"
        assert failed["error"]
        stored = registry.load_result(failed["run_id"])
        assert stored["status"] == "failed"

    def test_duplicate_scenarios_deduped(self, campaign_env):
        scenario = fast_scenario("mini", weight_mode="relative")
        result = run_campaign(
            [scenario, scenario], cache=campaign_env["cache"], jobs=1
        )
        assert result.n_runs == 1


class TestBatchOptimizations:
    def test_environment_recorded(self, campaign_env):
        # Serial runs are never thread-capped; the record says so.
        record = campaign_env["result"].records[0]
        env = record["environment"]
        assert env["blas_thread_limit"] is None
        assert env["blas_limit_method"] is None
        assert env["shared_standard_fit"] is True  # two scenarios, one data

    def test_standard_fit_key_groups_by_data_and_order(self):
        a = fast_scenario("a", decap_c_scale=0.5)
        b = fast_scenario("b", total_die_current=2.0)
        c = fast_scenario("c", n_poles=6)
        d = fast_scenario("d", n_frequencies=41)
        assert _standard_fit_key(a) == _standard_fit_key(b)
        assert _standard_fit_key(a) != _standard_fit_key(c)
        assert _standard_fit_key(a) != _standard_fit_key(d)

    def test_shared_fits_only_for_groups(self):
        lone = fast_scenario("solo")
        pair = [fast_scenario("p1", decap_c_scale=0.5),
                fast_scenario("p2", decap_c_scale=2.0)]
        assert _shared_standard_fits([lone]) == {}
        prefits = _shared_standard_fits(pair + [lone, fast_scenario("q", n_poles=6)])
        assert set(prefits) == {_standard_fit_key(pair[0])}
        fit = prefits[_standard_fit_key(pair[0])]
        assert fit.model.n_poles == pair[0].n_poles

    def test_warm_cache_skips_prefits(self, tmp_path, monkeypatch):
        # Cache-served members run no fit: a group is prefit only when at
        # least two of its members miss the cache.
        fitted = []

        def counting_fit_many(omega, samples, **kwargs):
            fitted.append(len(samples))
            return fit_many(omega, samples, **kwargs)

        monkeypatch.setattr(executor, "fit_many", counting_fit_many)
        scenarios = [fast_scenario(f"c{i}", decap_c_scale=scale)
                     for i, scale in enumerate((0.5, 2.0, 3.0, 4.0, 5.0))]
        cache = tmp_path / "cache"
        run_campaign(scenarios[:2], cache=cache, jobs=1)
        assert fitted == [1]
        fitted.clear()
        # Fully warm: no prefit.
        assert run_campaign(scenarios[:2], cache=cache, jobs=1).n_cache_hits == 2
        assert fitted == []
        # One cold member: it runs without a prefit.
        one_cold = run_campaign(scenarios[:3], cache=cache, jobs=1)
        assert one_cold.n_cache_hits == 2 and one_cold.n_ok == 3
        assert fitted == []
        # Two cold members share one prefit.
        two_cold = run_campaign(scenarios[:2] + scenarios[3:], cache=cache, jobs=1)
        assert two_cold.n_cache_hits == 2 and two_cold.n_ok == 4
        assert fitted == [1]

    def test_shared_fit_matches_worker_fit(self, tmp_path):
        # A campaign with and without shared standard fits must produce
        # identical metrics: fit_many is deterministic.
        scenarios = [fast_scenario("s1", decap_c_scale=0.5),
                     fast_scenario("s2", decap_c_scale=2.0)]
        shared = run_campaign(list(scenarios), jobs=1, share_fits=True)
        solo = run_campaign(list(scenarios), jobs=1, share_fits=False)
        assert shared.n_ok == solo.n_ok == 2
        for a, b in zip(shared.records, solo.records):
            assert a["environment"]["shared_standard_fit"]
            assert not b["environment"]["shared_standard_fit"]
            assert a["metrics"] == pytest.approx(b["metrics"], rel=1e-12)

    def test_order_mismatch_drops_injected_fit(self):
        # No store: the flow must fit the scenario's own order itself.
        scenario = fast_scenario("mini", weight_mode="relative")
        wrong = _shared_standard_fits(
            [fast_scenario("w1", n_poles=6), fast_scenario("w2", n_poles=6,
                                                           decap_c_scale=0.5)]
        )
        (bad_fit,) = wrong.values()
        record, model = execute_scenario(scenario, None, standard_fit=bad_fit)
        assert record["status"] == "ok"
        assert record["environment"]["shared_standard_fit"] is False
        assert model.n_poles == scenario.n_poles

    def test_limit_blas_threads(self):
        import os

        try:
            method = limit_blas_threads(1)
            assert method in ("threadpoolctl", "ctypes-openblas", "env-only")
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
            with pytest.raises(ValueError, match="at least 1"):
                limit_blas_threads(0)
        finally:
            # Uncap again: the rest of the suite runs in this process.
            limit_blas_threads(os.cpu_count() or 1)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                        "VECLIB_MAXIMUM_THREADS"):
                os.environ.pop(var, None)

    def test_default_blas_threads(self):
        import os

        cores = os.cpu_count() or 1
        assert default_blas_threads(1) == cores
        assert default_blas_threads(2 * cores) == 1
        assert default_blas_threads(2) == max(1, cores // 2)


class TestCacheAndFingerprint:
    def test_fingerprint_tracks_content(self):
        testcase = make_variant_testcase("small", n_frequencies=16,
                                         include_dc=False)
        options = ReproConfig(flow=FlowOptions(vf=VFOptions(n_poles=4)))
        digest = artifact_digest(testcase.data)
        key = _run_key(digest, testcase.termination, 0, options)
        # The dispatcher's key is the pipeline's own whole-run key.
        assert key == standard_pipeline().run_key(options, {
            "network": testcase.data, "termination": testcase.termination,
            "observe_port": 0,
        })
        assert key == _run_key(digest, testcase.termination, 0, options)
        assert key != _run_key(digest, testcase.termination, 1, options)
        assert key != _run_key(
            digest, testcase.termination, 0,
            ReproConfig(flow=FlowOptions(vf=VFOptions(n_poles=5))),
        )
        perturbed = perturb_termination(testcase.termination,
                                        decap_c_scale=2.0)
        assert key != _run_key(digest, perturbed, 0, options)
        other = make_variant_testcase("small", n_frequencies=17,
                                      include_dc=False)
        assert key != _run_key(artifact_digest(other.data),
                               testcase.termination, 0, options)

    def test_stage_version_bump_recomputes(self, tmp_path, monkeypatch):
        # A new stage version must retire every stored run it took part
        # in: a warm campaign recomputes instead of replaying records
        # that the old code produced.
        scenarios = [fast_scenario("v1", decap_c_scale=0.5),
                     fast_scenario("v2", decap_c_scale=2.0)]
        cache = tmp_path / "cache"
        cold = run_campaign(list(scenarios), cache=cache, jobs=1)
        warm = run_campaign(list(scenarios), cache=cache, jobs=1)
        assert cold.n_ok == warm.n_cache_hits == 2
        monkeypatch.setattr(EnforceStage, "version", EnforceStage.version + ".1")
        bumped = run_campaign(list(scenarios), cache=cache, jobs=1)
        assert bumped.n_ok == 2
        assert not any(record["cache_hit"] for record in bumped.records)
        for before, after in zip(cold.records, bumped.records):
            assert before["cache_key"] != after["cache_key"]

    def test_corrupt_entry_is_a_miss(self, campaign_env, tmp_path):
        # A copy: the shared cache stays intact for the other tests.
        record = campaign_env["result"].records[0]
        shutil.copytree(campaign_env["cache"].root, tmp_path / "cache")
        store = ArtifactStore(tmp_path / "cache")
        store.path(record["cache_key"]).write_text("{not json", encoding="utf-8")
        assert store.get(record["cache_key"]) is None
        # The next campaign recomputes that run and rewrites its entry.
        rerun = run_campaign(campaign_env["spec"], cache=store.root, jobs=1)
        assert rerun.n_ok == 2 and rerun.n_cache_hits == 1
        assert ArtifactStore(store.root).get(record["cache_key"]) is not None


class TestWarmPath:
    """Stored runs are served by the dispatcher's one lookup pass."""

    def test_warm_campaign_served_in_dispatcher(self, tmp_path, monkeypatch):
        pools, builds = [], []
        real_pool = executor.ProcessPoolExecutor
        real_build = ScenarioSpec.build_testcase

        def counting_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        def counting_build(scenario):
            builds.append(scenario.run_id)
            return real_build(scenario)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", counting_pool)
        monkeypatch.setattr(ScenarioSpec, "build_testcase", counting_build)
        # Two data groups (grids of 31 and 29 points), two terminations each.
        spec = CampaignSpec.from_axes(
            "warm", fast_scenario("warm"),
            {"n_frequencies": [31, 29], "decap_c_scale": [0.5, 2.0]},
        )
        cache = tmp_path / "cache"
        cold_registry = CampaignRegistry(tmp_path / "cold")
        cold = run_campaign(spec, registry=cold_registry, cache=cache, jobs=1)
        assert cold.n_ok == 4 and cold.n_cache_hits == 0
        # The misses run on test cases derived from the group bases too.
        assert len(builds) == 2
        pooled = run_campaign(spec, cache=tmp_path / "pooled", jobs=2)
        assert pooled.n_ok == 4
        assert len(pools) == 1  # the counter sees a cold pool
        for jobs in (2, 1):
            pools.clear()
            builds.clear()
            registry = CampaignRegistry(tmp_path / f"warm-{jobs}")
            warm = run_campaign(spec, registry=registry, cache=cache, jobs=jobs)
            assert pools == []
            assert len(builds) == 2  # one base per data group
            assert warm.n_ok == warm.n_cache_hits == 4
            for record in warm.records:
                assert record["cache_hit"] is True
                assert record["timings"]["flow_s"] == 0.0
                warm_model, _ = registry.load_model(record["run_id"])
                cold_model, _ = cold_registry.load_model(record["run_id"])
                for attr in ("poles", "residues", "const"):
                    assert (getattr(warm_model, attr).tobytes()
                            == getattr(cold_model, attr).tobytes())

    def test_dispatcher_keys_match_and_only_misses_run(
        self, tmp_path, monkeypatch
    ):
        vrm = fast_scenario("vrm", vrm_resistance=1e-3)
        die = fast_scenario("die", total_die_current=2.0)
        external = ScenarioSpec(
            name="ext", data_file=str(EXTERNAL_S2P), data_max_points=30,
            termination_spec="0=r(1);1=rlc(r=0.2,c=1e-6)",  # observe port unset
            n_poles=6, refinement_rounds=0, enforcement_max_iterations=5,
        )
        executed = []
        real_execute = executor.execute_scenario

        def counting_execute(scenario, *args, **kwargs):
            executed.append(scenario.name)
            return real_execute(scenario, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_scenario", counting_execute)
        cache = tmp_path / "cache"
        cold = run_campaign([vrm, external], cache=cache, jobs=1)
        assert cold.n_ok == 2 and sorted(executed) == ["ext", "vrm"]
        computed = {r["run_id"]: r for r in cold.records}
        # The dispatcher's keys are the keys of each scenario's own test
        # case, and runs on the dispatcher's test cases match runs that
        # build their own.
        for scenario, record in zip([vrm, external], cold.records):
            testcase = scenario.build_testcase()
            assert record["cache_key"] == _run_key(
                artifact_digest(testcase.data), testcase.termination,
                scenario.resolve_observe_port(testcase), scenario.config(),
            )
            assert record["metrics"] == real_execute(scenario)[0]["metrics"]
        # Partially warm: only the miss runs, and the warm pass serves each
        # run under the key it was stored with.
        executed.clear()
        partial = run_campaign([vrm, die, external], cache=cache, jobs=1)
        assert partial.n_ok == 3 and partial.n_cache_hits == 2
        assert executed == ["die"]
        computed.update({r["run_id"]: r for r in partial.records if not r["cache_hit"]})
        executed.clear()
        warm = run_campaign([vrm, die, external], cache=cache, jobs=1)
        assert warm.n_cache_hits == 3 and executed == []
        for record in warm.records:
            first = computed[record["run_id"]]
            assert first["cache_hit"] is False
            assert record["cache_key"] == first["cache_key"]
            assert record["metrics"] == first["metrics"]
            assert record.get("ingest") == first.get("ingest")
        assert computed[external.run_id]["ingest"]

    @pytest.mark.parametrize("bad_first", [False, True])
    @pytest.mark.parametrize("source", ["synthetic", "external"])
    def test_bad_member_neither_served_nor_poisons_group(
        self, tmp_path, source, bad_first
    ):
        # The bad member shares the good one's data group; only its own
        # build fails (stray external knobs on a synthetic case, a port out
        # of range in an external termination spec).
        if source == "synthetic":
            good = fast_scenario("good")
            bad = fast_scenario("bad", termination_spec="*=r(50)")
        else:
            good = ScenarioSpec(
                name="good", data_file=str(EXTERNAL_S2P), data_max_points=30,
                n_poles=6, refinement_rounds=0, enforcement_max_iterations=5,
            )
            bad = replace(good, name="bad", termination_spec="5=r(50)")
        cache = tmp_path / "cache"
        assert run_campaign([good], cache=cache, jobs=1).n_ok == 1
        pair = [bad, good] if bad_first else [good, bad]
        result = run_campaign(pair, cache=cache, jobs=1)
        records = {r["name"]: r for r in result.records}
        assert records["good"]["cache_hit"] is True
        assert records["bad"]["status"] == "failed"
        assert records["bad"]["cache_hit"] is False
        assert records["bad"]["cache_key"] is None


class TestRegistry:
    def test_manifest_roundtrip(self, campaign_env):
        registry = campaign_env["registry"]
        manifest = registry.load_manifest()
        assert manifest["campaign"]["name"] == "mini"
        assert manifest["n_runs"] == 2
        run_ids = {entry["run_id"] for entry in manifest["runs"]}
        assert run_ids == {r["run_id"]
                           for r in campaign_env["result"].records}

    def test_manifest_keeps_earlier_runs_on_partial_rerun(
        self, campaign_env, tmp_path
    ):
        # Full campaign, then a filtered re-run into the same registry:
        # the manifest must still index every stored run.
        registry = CampaignRegistry(tmp_path / "reg")
        spec = campaign_env["spec"]
        run_campaign(spec, registry=registry,
                     cache=campaign_env["cache"], jobs=1)
        subset = [s for s in spec.expand() if "absolute" in s.name]
        run_campaign(spec, scenarios=subset, registry=registry,
                     cache=campaign_env["cache"], jobs=1)
        manifest = registry.load_manifest()
        assert manifest["n_runs"] == 2
        assert {r["run_id"] for r in manifest["runs"]} == \
               {s.run_id for s in spec.expand()}

    def test_model_json_carries_only_the_run_pointer(self, campaign_env):
        registry = campaign_env["registry"]
        for record in campaign_env["result"].records:
            _, metadata = registry.load_model(record["run_id"])
            assert metadata == {"run_id": record["run_id"],
                                "cache_key": record["cache_key"]}
            assert record["cache_key"] is not None

    def test_result_json_is_the_sanitized_record(self, campaign_env):
        registry = campaign_env["registry"]
        for record in campaign_env["result"].records:
            path = registry.runs_dir / record["run_id"] / "result.json"
            assert path.read_text(encoding="utf-8") == json.dumps(
                sanitize_metadata(record)
            )

    def test_old_layout_still_reads_and_resumes(self, campaign_env, tmp_path):
        # Indented JSON everywhere and the whole record as model metadata.
        root = tmp_path / "old"
        shutil.copytree(campaign_env["registry"].root, root)
        for run_dir in (root / "runs").iterdir():
            record = json.loads((run_dir / "result.json").read_text())
            (run_dir / "result.json").write_text(json.dumps(record, indent=1))
            model = json.loads((run_dir / "model.json").read_text())
            model["metadata"] = record
            (run_dir / "model.json").write_text(json.dumps(model, indent=1))
        manifest = json.loads((root / "manifest.json").read_text())
        (root / "manifest.json").write_text(json.dumps(manifest, indent=1))

        registry = CampaignRegistry(root)
        assert registry.load_manifest()["n_runs"] == 2
        records = {r["run_id"]: r for r in registry.iter_results()}
        assert set(records) == {s.run_id for s in campaign_env["spec"].expand()}
        for run_id, record in records.items():
            model, metadata = registry.load_model(run_id)
            assert metadata == record
            assert check_passivity(model).is_passive
        result = run_campaign(campaign_env["spec"], registry=registry,
                              cache=campaign_env["cache"], jobs=1,
                              resume=True)
        assert result.n_resumed == 2 and result.n_ok == 2

    @pytest.mark.parametrize("mode", ["resume", "retry_failed"])
    def test_truncated_result_is_no_record(
        self, campaign_env, tmp_path, caplog, mode
    ):
        # A campaign killed while writing result.json (before writes became
        # atomic) leaves a truncated file: resume and retry-failed run that
        # scenario again, and the readers skip it with a warning.
        root = tmp_path / "cut"
        shutil.copytree(campaign_env["registry"].root, root)
        registry = CampaignRegistry(root)
        cut, kept = sorted(p.name for p in registry.runs_dir.iterdir())
        path = registry.runs_dir / cut / "result.json"
        path.write_bytes(path.read_bytes()[:100])
        with caplog.at_level("WARNING", logger="repro.campaign.registry"):
            assert [r["run_id"] for r in registry.iter_results()] == [kept]
        assert "unreadable" in caplog.text

        result = run_campaign(campaign_env["spec"], registry=registry,
                              cache=campaign_env["cache"], jobs=1,
                              **{mode: True})
        by_id = {r["run_id"]: r for r in result.records}
        assert by_id[kept].get("resumed") is True
        assert not by_id[cut].get("resumed") and by_id[cut]["status"] == "ok"
        assert registry.load_result(cut)["status"] == "ok"
        assert registry.load_manifest()["n_runs"] == 2

    def test_uncommitted_run_is_no_record(self, campaign_env, tmp_path,
                                          monkeypatch):
        # model.json is written first and result.json last: a run cut off
        # between the two has no record, so resume runs it again.
        from repro.campaign import registry as registry_module

        def crash(path, text):
            raise KeyboardInterrupt

        registry = CampaignRegistry(tmp_path / "reg")
        scenario = campaign_env["spec"].expand()[0]
        monkeypatch.setattr(registry_module, "write_text_atomic", crash)
        with pytest.raises(KeyboardInterrupt):
            run_campaign([scenario], registry=registry,
                         cache=campaign_env["cache"], jobs=1)
        monkeypatch.undo()
        run_dir = registry.runs_dir / scenario.run_id
        assert (run_dir / "model.json").exists()
        assert not list(run_dir.glob("result.json*"))
        result = run_campaign([scenario], registry=registry,
                              cache=campaign_env["cache"], jobs=1,
                              resume=True)
        assert result.n_resumed == 0 and result.n_ok == 1
        assert registry.has_result(scenario.run_id)

    def test_manifest_reads_only_runs_not_in_hand(
        self, campaign_env, tmp_path, monkeypatch
    ):
        registry = CampaignRegistry(tmp_path / "reg")
        spec = campaign_env["spec"]
        run_campaign(spec, registry=registry, cache=campaign_env["cache"],
                     jobs=1)
        reads = []
        read_text = Path.read_text

        def counting_read(self, *args, **kwargs):
            if self.name == "result.json":
                reads.append(self.parent.name)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read)
        subset = [s for s in spec.expand() if "absolute" in s.name]
        run_campaign(spec, scenarios=subset, registry=registry,
                     cache=campaign_env["cache"], jobs=1)
        others = {s.run_id for s in spec.expand()} - {subset[0].run_id}
        assert sorted(reads) == sorted(others)

    def test_query_and_aggregation(self, campaign_env):
        registry = campaign_env["registry"]
        records = registry.query()
        assert len(records) == 2
        relative_only = registry.query(
            lambda r: r["scenario"]["weight_mode"] == "relative"
        )
        assert len(relative_only) == 1
        worst = worst_by_group(records, "weight_mode",
                               "max_rel_impedance_weighted_cost")
        assert set(worst) == {"relative", "absolute"}
        for entry in worst.values():
            assert entry["value"] >= 0.0

    def test_report_renders(self, campaign_env):
        text = campaign_report(campaign_env["result"])
        assert "worst max_rel_impedance_weighted_cost" in text
        assert "mini" in text


class TestCampaignCLI:
    def _write_spec(self, path, n_frequencies=31):
        payload = {
            "name": "clicamp",
            "base": dict(FAST, name="cli", n_frequencies=n_frequencies),
            "axes": {"weight_mode": ["relative", "absolute"]},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")

    def test_dry_run_lists_scenarios(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        self._write_spec(spec_path)
        code = main(["campaign", str(spec_path), "--dry-run",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out

    def test_filter_without_match(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        self._write_spec(spec_path)
        code = main(["campaign", str(spec_path), "--filter", "zzz",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert "no scenarios" in capsys.readouterr().out

    def test_campaign_and_resume(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        self._write_spec(spec_path)
        out_dir = tmp_path / "campaigns"
        argv = ["campaign", str(spec_path), "--jobs", "1",
                "--output-dir", str(out_dir)]
        assert main(argv) == 0
        assert (out_dir / "clicamp" / "manifest.json").exists()
        assert (out_dir / "clicamp" / "report.txt").exists()
        capsys.readouterr()

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 resumed" in out
