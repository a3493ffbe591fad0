"""Tests for repro.ingest: conditioning pipeline, generic terminations,
external-data scenarios and the CLI external-data flow path."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.stages import compute_base_weights
from repro.circuits.components import (
    OpenTermination,
    ResistiveTermination,
    SeriesRLC,
    ShortTermination,
)
from repro.flow.macromodel import FlowOptions
from repro.ingest import (
    ConditioningOptions,
    build_termination,
    condition_network,
    load_network,
    parse_termination_spec,
)
from repro.pdn.spec import termination_from_dict, termination_to_dict
from repro.sparams.conversions import s_to_z, y_to_s
from repro.sparams.network import NetworkData
from repro.sparams.touchstone import write_touchstone

FIXTURE = Path(__file__).resolve().parent.parent / "examples/data/coupled_rlc.s2p"


def _passive_two_port(k=40, f_min=1e4, f_max=1e9, seed=1, include_dc=False):
    """Analytic passive reciprocal 2-port (RLC Pi network)."""
    f = np.logspace(np.log10(f_min), np.log10(f_max), k)
    if include_dc:
        f = np.concatenate([[0.0], f])
    w = 2 * np.pi * f
    y12 = 1.0 / (0.5 + 1j * w * 5e-9)
    y2 = np.full_like(y12, 0.1)
    y1 = np.zeros_like(y12)
    nz = w != 0.0
    y1[nz] = 1.0 / (0.2 + 1.0 / (1j * w[nz] * 1e-9))
    y = np.empty((f.size, 2, 2), dtype=complex)
    y[:, 0, 0] = y1 + y12
    y[:, 1, 1] = y2 + y12
    y[:, 0, 1] = y[:, 1, 0] = -y12
    return NetworkData(frequencies=f, samples=y_to_s(y, 50.0))


# ----------------------------------------------------------------------
# Conditioning pipeline
# ----------------------------------------------------------------------
def test_band_selection_and_decimation():
    data = _passive_two_port(k=60)
    out, report = condition_network(
        data,
        ConditioningOptions(f_min=1e5, f_max=1e8, max_points=16),
    )
    assert out.frequencies[0] >= 1e5
    assert out.frequencies[-1] <= 1e8
    assert out.n_frequencies == 16
    # Endpoints of the selected band are kept by decimation.
    band = data.band(1e5, 1e8)
    assert out.frequencies[0] == band.frequencies[0]
    assert out.frequencies[-1] == band.frequencies[-1]
    assert any(a.step == "decimation" and a.changed for a in report.actions)


def test_dc_policy_drop_and_keep():
    data = _passive_two_port(include_dc=True)
    dropped, _ = condition_network(data, ConditioningOptions(dc_policy="drop"))
    assert dropped.frequencies[0] > 0.0
    kept, _ = condition_network(
        data, ConditioningOptions(dc_policy="keep", f_min=1e6)
    )
    # The kept DC point survives an f_min band edge.
    assert kept.frequencies[0] == 0.0
    assert kept.frequencies[1] >= 1e6


def test_symmetrize_auto_cleans_solver_noise():
    data = _passive_two_port()
    rng = np.random.default_rng(7)
    noisy = data.with_samples(
        data.samples + 1e-9 * rng.normal(size=data.samples.shape)
    )
    out, report = condition_network(noisy, ConditioningOptions())
    assert np.array_equal(out.samples, out.samples.transpose(0, 2, 1))
    assert report.reciprocal is True


def test_symmetrize_auto_leaves_nonreciprocal_data():
    data = _passive_two_port()
    skewed = data.samples.copy()
    skewed[:, 0, 1] *= 1.5  # genuinely non-reciprocal
    out, report = condition_network(
        data.with_samples(skewed), ConditioningOptions()
    )
    assert np.array_equal(out.samples, skewed)
    assert report.reciprocal is False
    forced, report2 = condition_network(
        data.with_samples(skewed), ConditioningOptions(symmetrize="always")
    )
    assert np.array_equal(forced.samples, forced.samples.transpose(0, 2, 1))


def test_renormalization_preserves_impedance():
    data = _passive_two_port()
    out, report = condition_network(
        data, ConditioningOptions(z0=75.0, symmetrize="never")
    )
    assert out.z0 == 75.0
    assert np.allclose(
        s_to_z(out.samples, 75.0), s_to_z(data.samples, 50.0), rtol=1e-9
    )


def test_passivity_precheck_flags_active_data():
    data = _passive_two_port()
    active = data.with_samples(1.3 * data.samples)
    _, report = condition_network(active, ConditioningOptions())
    assert report.data_is_passive is False
    assert report.worst_sigma > 1.0
    assert report.n_passivity_violations > 0


def test_report_is_json_serializable(tmp_path):
    data = _passive_two_port()
    _, report = condition_network(
        data, ConditioningOptions(max_points=10), source="unit-test"
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["source"] == "unit-test"
    assert payload["n_points_out"] == 10
    report.save(tmp_path / "r.json")
    assert json.loads((tmp_path / "r.json").read_text())["n_ports"] == 2
    assert "unit-test" in report.summary()


def test_load_network_folds_reader_repairs(tmp_path):
    data = _passive_two_port(k=10)
    path = tmp_path / "x.s2p"
    write_touchstone(data, path)
    # Duplicate a row to simulate a stitched export.
    lines = path.read_text().splitlines()
    lines.insert(5, lines[4])
    path.write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="duplicate"):
        out, report = load_network(path)
    assert out.n_frequencies == 10
    assert any(a.step == "dedupe_grid" for a in report.actions)
    assert any(a.step == "port_count" for a in report.actions)


# ----------------------------------------------------------------------
# Generic terminations
# ----------------------------------------------------------------------
def test_parse_termination_spec_grammar():
    network = parse_termination_spec(
        "*=r(50);0=rlc(r=0.2,c=2e-9,j=1);2-3=open;4=short(1e-4)", 5
    )
    assert isinstance(network.terminations[0], SeriesRLC)
    assert isinstance(network.terminations[1], ResistiveTermination)
    assert isinstance(network.terminations[2], OpenTermination)
    assert isinstance(network.terminations[3], OpenTermination)
    assert isinstance(network.terminations[4], ShortTermination)
    assert network.excitations[0] == 1.0
    assert np.sum(network.excitations != 0.0) == 1


def test_parse_termination_positional_params():
    network = parse_termination_spec("0=short(1e-3);1=vrm(1e-3,1e-10)", 2)
    assert network.terminations[0].resistance == 1e-3
    assert network.terminations[1].inductance == 1e-10


@pytest.mark.parametrize(
    "bad",
    [
        "0=bogus(1)",
        "9=open",
        "0=r(a=1)",
        "0=r(1,2)",
        "0-x=open",
        "",
        "0=rlc(r=0.2,1e-9)",  # positional after keyword: ambiguous, rejected
    ],
)
def test_parse_termination_spec_errors(bad):
    with pytest.raises(ValueError):
        parse_termination_spec(bad, 2)


def test_later_entry_overrides_excitation_too():
    network = parse_termination_spec("0=r(1,j=2);0=r(5)", 2)
    assert network.terminations[0].resistance == 5.0
    assert not np.any(network.excitations)  # the stale 2 A source is gone


def test_build_termination_defaults_and_excitation():
    network = build_termination(None, 3, observe_port=2, default_z0=75.0)
    assert all(
        isinstance(t, ResistiveTermination) and t.resistance == 75.0
        for t in network.terminations
    )
    assert network.excitations[2] == 1.0


def test_build_termination_json_path(tmp_path):
    from repro.pdn.spec import save_termination

    network = parse_termination_spec("*=r(50);0=rlc(r=0.2,c=2e-9,j=0.5)", 2)
    path = tmp_path / "term.json"
    save_termination(network, path)
    back = build_termination(str(path), 2, observe_port=0)
    omega = np.array([0.0, 1e6, 1e9])
    assert np.allclose(
        back.admittance_matrices(omega), network.admittance_matrices(omega)
    )
    assert back.excitations[0] == 0.5  # spec excitation survives


def test_inline_spec_not_shadowed_by_same_named_file(tmp_path, monkeypatch):
    # A file literally named 'open' in the cwd must not turn the inline
    # spec 'open' into a JSON load.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "open").write_text("not json")
    network = build_termination("open", 2, observe_port=0)
    assert all(isinstance(t, OpenTermination) for t in network.terminations)


def test_build_termination_port_count_mismatch():
    network = parse_termination_spec("*=r(50)", 2)
    with pytest.raises(ValueError, match="ports"):
        build_termination(network, 3)


def test_series_rlc_component():
    rlc = SeriesRLC(resistance=0.2, inductance=1e-9, capacitance=2e-9)
    w = np.array([0.0, 1e8])
    y = rlc.admittance(w)
    assert y[0] == 0.0  # series C blocks DC
    expected = 1.0 / (0.2 + 1j * 1e8 * 1e-9 + 1.0 / (1j * 1e8 * 2e-9))
    assert np.allclose(y[1], expected)
    # Codec round-trip through the JSON termination schema.
    from repro.pdn.termination import TerminationNetwork

    network = TerminationNetwork(terminations=[rlc])
    back = termination_from_dict(termination_to_dict(network))
    assert back.terminations[0] == rlc
    # Degenerate configurations are rejected.
    with pytest.raises(ValueError):
        SeriesRLC()  # DC short
    with pytest.raises(ValueError):
        SeriesRLC(resistance=0.0, capacitance=1e-9).state_space()


def test_series_rlc_state_space_matches_admittance():
    for rlc in (
        SeriesRLC(resistance=0.5, inductance=2e-9, capacitance=1e-9),
        SeriesRLC(resistance=0.5, inductance=2e-9),
        SeriesRLC(resistance=0.5, capacitance=1e-9),
        SeriesRLC(resistance=0.5),
    ):
        a, b, c, d = rlc.state_space()
        omega = np.array([1e7, 1e9])
        for w in omega:
            if a.size:
                h = c @ np.linalg.solve(
                    1j * w * np.eye(a.shape[0]) - a, b
                ) + d
                h = complex(h[0, 0])
            else:
                h = complex(d)
            assert np.isclose(h, rlc.admittance(np.array([w]))[0], rtol=1e-9)


# ----------------------------------------------------------------------
# base_weights guards
# ----------------------------------------------------------------------
def test_base_weights_clamps_zero_reference():
    xi = np.linspace(1.0, 2.0, 8)
    reference = np.linspace(1.0, 2.0, 8).astype(complex)
    reference[3] = 0.0  # a zero target-impedance sample
    weights = compute_base_weights(FlowOptions(), xi, reference)
    assert np.all(np.isfinite(weights))
    assert np.max(weights) == 1.0


def test_base_weights_uniform_fallback_for_flat_sensitivity():
    weights = compute_base_weights(
        FlowOptions(), np.zeros(8), np.ones(8, dtype=complex)
    )
    assert np.array_equal(weights, np.ones(8))


def test_base_weights_rejects_nonfinite_inputs():
    options = FlowOptions()
    with pytest.raises(ValueError, match="non-finite"):
        compute_base_weights(
            options, np.array([1.0, np.inf, 1.0, 1.0]),
            np.ones(4, dtype=complex),
        )
    with pytest.raises(ValueError, match="relative"):
        compute_base_weights(options, np.ones(4), np.zeros(4, dtype=complex))


# ----------------------------------------------------------------------
# External-data scenarios and campaign integration
# ----------------------------------------------------------------------
def _fast_external_scenario(**overrides):
    from repro.campaign.scenario import ScenarioSpec

    params = dict(
        name="ext",
        data_file=str(FIXTURE),
        termination_spec="0=r(1);1=rlc(r=0.2,c=1e-6)",
        observe_port=1,
        data_max_points=30,
        n_poles=6,
        refinement_rounds=1,
        enforcement_max_iterations=5,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


def test_scenario_builds_external_testcase():
    scenario = _fast_external_scenario()
    testcase = scenario.build_testcase()
    assert testcase.geometry is None
    assert testcase.data.n_ports == 2
    assert testcase.data.n_frequencies == 30
    assert testcase.observe_port == 1
    assert testcase.ingest is not None
    assert testcase.ingest.data_is_passive is True
    assert np.any(testcase.termination.excitations)
    assert "external data" in testcase.summary()


def test_scenario_external_fields_require_data_file_at_build():
    from repro.campaign.scenario import CampaignSpec, ScenarioSpec

    # A synthetic scenario carrying external-only knobs fails on build...
    stray = ScenarioSpec(name="bad", termination_spec="*=r(50)")
    with pytest.raises(ValueError, match="data_file"):
        stray.build_testcase()
    # ... but a campaign base may hold them while data_file is an axis.
    spec = CampaignSpec.from_axes(
        "files",
        base=ScenarioSpec(
            name="files", termination_spec="*=r(50)", observe_port=1,
            data_max_points=20,
        ),
        axes={"data_file": [str(FIXTURE)]},
    )
    (scenario,) = spec.expand()
    assert scenario.build_testcase().data.n_ports == 2


def test_external_campaign_runs_with_cache(tmp_path):
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec.from_axes(
        "external-sweep",
        base=_fast_external_scenario(),
        axes={"termination_spec": ["0=r(1);1=rlc(r=0.2,c=1e-6)", "*=r(50)"]},
    )
    cache = tmp_path / "cache"
    result = run_campaign(spec, cache=cache, jobs=1)
    assert result.n_runs == 2
    assert result.n_failed == 0
    assert all(r.get("ingest") for r in result.records)
    # Second pass is served entirely from the content-addressed cache.
    again = run_campaign(spec, cache=cache, jobs=1)
    assert again.n_cache_hits == 2


def test_external_campaign_missing_file_fails_in_isolation(tmp_path):
    from repro.campaign import run_campaign

    bad = _fast_external_scenario(
        name="missing", data_file=str(tmp_path / "nope.s2p")
    )
    good = _fast_external_scenario(name="good")
    result = run_campaign([bad, good], jobs=1)
    assert result.n_failed == 1
    assert result.n_ok == 1


def test_external_campaign_bad_spec_isolated_on_warm_cache(tmp_path):
    """A member whose termination spec cannot even be fingerprinted must
    fail alone, also when its prefit group probes a warm cache."""
    from repro.campaign import run_campaign

    cache = tmp_path / "cache"
    good = _fast_external_scenario(name="good")
    run_campaign([good], cache=cache, jobs=1)  # warm the cache
    bad = _fast_external_scenario(
        name="bad", termination_spec="5=r(50)"  # port out of range
    )
    result = run_campaign([good, bad], cache=cache, jobs=1)
    assert result.n_ok == 1
    assert result.n_failed == 1
    assert result.n_cache_hits == 1


def test_external_default_termination_matches_renormalized_z0():
    scenario = _fast_external_scenario(
        name="matched", termination_spec=None, data_z0=10.0
    )
    testcase = scenario.build_testcase()
    assert testcase.data.z0 == 10.0
    assert all(
        isinstance(t, ResistiveTermination) and t.resistance == 10.0
        for t in testcase.termination.terminations
    )


def test_shared_standard_fits_group_external_scenarios():
    from repro.campaign.executor import _shared_standard_fits, _standard_fit_key

    scenarios = [
        _fast_external_scenario(name="a"),
        _fast_external_scenario(name="b", termination_spec="*=r(50)"),
    ]
    assert _standard_fit_key(scenarios[0]) == _standard_fit_key(scenarios[1])
    prefits = _shared_standard_fits(scenarios)
    assert len(prefits) == 1
    (fit,) = prefits.values()
    assert fit.model.n_ports == 2


def test_fixture_suffixless_copy_parses_to_two_ports(tmp_path):
    """Acceptance: a suffix-less copy of the CI fixture still reads as 2-port."""
    from repro.sparams.touchstone import read_touchstone_with_info

    bare = tmp_path / "coupled_rlc_export"
    bare.write_text(FIXTURE.read_text())
    data, info = read_touchstone_with_info(bare)
    assert data.n_ports == 2
    assert info.ports_source == "inferred"
    assert data.port_names == ("in", "out")


# ----------------------------------------------------------------------
# CLI external-data path
# ----------------------------------------------------------------------
def test_cli_fit_full_flow_on_external_file(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "fit",
            str(FIXTURE),
            "--termination",
            "0=r(1);1=rlc(r=0.2,c=1e-6)",
            "--observe-port",
            "1",
            "--poles",
            "6",
            "--max-points",
            "30",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ingest:" in out
    assert "passive, weighted cost" in out
    assert (tmp_path / "passive_model.json").exists()
    assert (tmp_path / "flow_report.txt").exists()
    assert (tmp_path / "flow_series.csv").exists()
    report = json.loads((tmp_path / "ingest_report.json").read_text())
    assert report["n_ports"] == 2
    assert report["data_is_passive"] is True


def test_cli_fit_plain_still_works(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "fit",
            str(FIXTURE),
            "--poles",
            "6",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "ingest_report.json").exists()


def test_cli_fit_bad_termination_is_a_clean_error(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "fit",
            str(FIXTURE),
            "--termination",
            "0=bogus(1)",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_flow_inline_termination(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "flow",
            str(FIXTURE),
            "--termination",
            "*=r(50)",
            "--observe-port",
            "0",
            "--poles",
            "6",
            "--max-points",
            "25",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "passive_model.json").exists()
