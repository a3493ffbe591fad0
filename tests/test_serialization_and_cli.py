"""Model serialization, termination specs, and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.circuits.components import DecouplingCapacitor, DieBlock
from repro.pdn.spec import load_termination, save_termination
from repro.statespace.serialization import (
    load_model,
    load_model_with_metadata,
    save_model,
)
from tests.conftest import make_random_stable_model


class TestModelSerialization:
    def test_roundtrip(self, rng, tmp_path):
        model = make_random_stable_model(rng, n_ports=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.allclose(back.poles, model.poles)
        assert np.allclose(back.residues, model.residues)
        assert np.allclose(back.const, model.const)

    def test_response_preserved(self, rng, tmp_path):
        model = make_random_stable_model(rng, n_ports=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        omega = np.geomspace(0.1, 50.0, 20)
        assert np.allclose(
            back.frequency_response(omega), model.frequency_response(omega)
        )

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a"):
            load_model(path)

    def test_metadata_roundtrip(self, rng, tmp_path):
        model = make_random_stable_model(rng, n_ports=2)
        path = tmp_path / "model.json"
        metadata = {
            "enforcement": {"iterations": np.int64(7),
                            "converged": np.bool_(True)},
            "worst_sigma": np.float64(0.999),
            "weights": np.array([1.0, 0.5]),
        }
        save_model(model, path, metadata=metadata)
        back, meta = load_model_with_metadata(path)
        assert np.allclose(back.poles, model.poles)
        assert meta["enforcement"] == {"iterations": 7, "converged": True}
        assert meta["worst_sigma"] == pytest.approx(0.999)
        assert meta["weights"] == [1.0, 0.5]
        # Plain load_model ignores metadata entirely.
        assert np.allclose(load_model(path).poles, model.poles)

    def test_no_metadata_loads_empty(self, rng, tmp_path):
        model = make_random_stable_model(rng, n_ports=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        _, meta = load_model_with_metadata(path)
        assert meta == {}

    def test_tampered_header_rejected(self, rng, tmp_path):
        model = make_random_stable_model(rng, n_ports=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["n_ports"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="disagree"):
            load_model(path)


class TestTerminationSpec:
    def test_roundtrip(self, tmp_path, testcase):
        path = tmp_path / "term.json"
        save_termination(testcase.termination, path)
        back = load_termination(path)
        assert back.n_ports == testcase.termination.n_ports
        assert np.allclose(back.source_vector(), testcase.termination.source_vector())
        omega = np.geomspace(1e4, 1e10, 20)
        assert np.allclose(
            back.admittance_matrices(omega),
            testcase.termination.admittance_matrices(omega),
        )

    def test_all_component_types(self, tmp_path):
        spec = {
            "ports": [
                {"type": "open"},
                {"type": "resistor", "resistance": 50.0},
                {"type": "short", "resistance": 1e-4},
                {"type": "vrm", "resistance": 1e-3, "inductance": 1e-10},
                {"type": "decap", "capacitance": 1e-6, "esr": 5e-3, "esl": 1e-9},
                {"type": "die_rc", "resistance": 0.2, "capacitance": 2e-9,
                 "excitation": 1.0},
            ]
        }
        path = tmp_path / "term.json"
        path.write_text(json.dumps(spec))
        net = load_termination(path)
        assert net.n_ports == 6
        assert isinstance(net.terminations[4], DecouplingCapacitor)
        assert isinstance(net.terminations[5], DieBlock)
        assert net.source_vector()[5] == 1.0

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "term.json"
        path.write_text(json.dumps({"ports": [{"type": "inductor"}]}))
        with pytest.raises(ValueError, match="unknown termination"):
            load_termination(path)

    def test_bad_parameters_rejected(self, tmp_path):
        path = tmp_path / "term.json"
        path.write_text(json.dumps({"ports": [{"type": "decap", "farads": 1}]}))
        with pytest.raises(ValueError, match="bad parameters"):
            load_termination(path)

    def test_empty_spec_rejected(self, tmp_path):
        path = tmp_path / "term.json"
        path.write_text(json.dumps({"ports": []}))
        with pytest.raises(ValueError, match="non-empty"):
            load_termination(path)


class TestCLI:
    def test_testcase_command(self, tmp_path):
        out = tmp_path / "case"
        code = main(["testcase", "--size", "small", "--output-dir", str(out)])
        assert code == 0
        assert (out / "pdn.s9p").exists()
        assert (out / "termination.json").exists()

    def test_fit_command(self, tmp_path, coarse_testcase):
        from repro.sparams.touchstone import write_touchstone

        data_path = tmp_path / "pdn.s9p"
        write_touchstone(coarse_testcase.data, data_path)
        out = tmp_path / "fit"
        code = main(
            ["fit", str(data_path), "--poles", "10", "--output-dir", str(out)]
        )
        assert code == 0
        assert (out / "model.json").exists()
        report = (out / "fit_report.txt").read_text()
        assert "rms error" in report
        model = load_model(out / "model.json")
        assert model.n_poles == 10

    def test_flow_command_port_mismatch(self, tmp_path, coarse_testcase):
        from repro.sparams.touchstone import write_touchstone

        data_path = tmp_path / "pdn.s9p"
        write_touchstone(coarse_testcase.data, data_path)
        term_path = tmp_path / "term.json"
        term_path.write_text(json.dumps({"ports": [{"type": "open"}]}))
        code = main(
            [
                "flow", str(data_path),
                "--termination", str(term_path),
                "--output-dir", str(tmp_path / "flow"),
            ]
        )
        assert code == 2

    def test_flow_profile_prints_span_rollup(
        self, tmp_path, coarse_testcase, capsys
    ):
        from repro.sparams.touchstone import write_touchstone

        data_path = tmp_path / "pdn.s9p"
        write_touchstone(coarse_testcase.data, data_path)
        term_path = tmp_path / "term.json"
        save_termination(coarse_testcase.termination, term_path)
        code = main(
            [
                "flow", str(data_path),
                "--termination", str(term_path),
                "--observe-port", str(coarse_testcase.observe_port),
                "--poles", "8", "--refinement-rounds", "0",
                "--output-dir", str(tmp_path / "flow"),
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "time breakdown (span totals)" in out
        rows = [line.split()[0] for line in out.splitlines()
                if line.startswith("    stage:")]
        assert "stage:enforce" in rows
        assert any(
            row.startswith("stage:enforce/")
            and row.rsplit("/", 1)[-1].startswith(("enforce:", "kernel:qp_solve"))
            for row in rows
        )
        # In memory: no telemetry directory is written.
        assert not (tmp_path / "flow" / "telemetry").exists()

    def test_flow_command_end_to_end(self, tmp_path, testcase):
        """Full CLI pipeline on the canonical case (slowest CLI test)."""
        from repro.sparams.touchstone import write_touchstone

        data_path = tmp_path / "pdn.s9p"
        write_touchstone(testcase.data, data_path)
        term_path = tmp_path / "term.json"
        save_termination(testcase.termination, term_path)
        out = tmp_path / "flow"
        code = main(
            [
                "flow", str(data_path),
                "--termination", str(term_path),
                "--observe-port", str(testcase.observe_port),
                "--refinement-rounds", "1",
                "--output-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "passive_model.json").exists()
        assert (out / "flow_series.csv").exists()
        report = (out / "flow_report.txt").read_text()
        assert "passive, weighted cost" in report
        model = load_model(out / "passive_model.json")
        from repro.passivity.check import check_passivity

        assert check_passivity(model).is_passive
