"""The benchmark's independent checks reject known-bad inputs.

Every check the benchmark gates on is run on a model or a flow result
that is wrong in one known way, and must report it; the same check
accepts the program's real output.  One reduced flow (9 ports, 41
points, 6 poles, one refinement round) supplies the inputs, so the
module takes about a second.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import bench_checks as checks
from repro.flow.macromodel import FlowOptions, run_flow
from repro.pdn.testcase import make_paper_testcase
from repro.vectfit.options import VFOptions

RMS_BOUND = 0.02


@pytest.fixture(scope="module")
def flow():
    case = make_paper_testcase("small", n_frequencies=41)
    options = FlowOptions(vf=VFOptions(n_poles=6), refinement_rounds=1)
    return case, run_flow(case.data, case.termination, case.observe_port, options)


def triple_of(result, attr):
    return checks.model_triple(getattr(result, attr).model)


def replaced(result, **models):
    """The flow result with some of its four models swapped out."""
    fields = {attr: getattr(result, attr) for _, attr in checks.FLOW_MODELS}
    for attr, (poles, residues, const) in models.items():
        fields[attr] = SimpleNamespace(model=SimpleNamespace(
            poles=poles, residues=residues, const=const))
    return SimpleNamespace(accuracy_rows=result.accuracy_rows, **fields)


def audit(flow, result):
    case, _ = flow
    failures, _ = checks.audit_flow(
        result, case.data, case.termination, case.observe_port, RMS_BOUND)
    return failures


def scaled_residue(triple, scale):
    """One pole's residue (with its conjugate partner) scaled."""
    poles, residues, const = (part.copy() for part in triple)
    k = int(np.argmax(poles.imag >= 0.0))
    residues[k] *= scale
    if poles[k].imag > 0.0:
        residues[k + 1] = np.conj(residues[k])
    return poles, residues, const


def test_real_flow_passes(flow):
    assert audit(flow, flow[1]) == []


def test_realization_matches_pole_residue_response(flow):
    case, result = flow
    omega = case.data.omega[1::8]
    assert checks.realization_error(triple_of(result, "weighted_enforced"), omega) < 1e-10


def test_passivity_test_rejects_the_weighted_fit(flow):
    case, result = flow
    verdict = checks.passivity_test(triple_of(result, "weighted_fit"), case.data.omega)
    assert not verdict.passive and verdict.worst_sigma > 1.0 and verdict.crossings > 0
    assert verdict.worst_sigma == pytest.approx(
        result.pre_enforcement_report.worst_sigma, rel=1e-3)


def test_audit_rejects_a_non_passive_enforced_model(flow):
    result = flow[1]
    bad = replaced(result, weighted_enforced=triple_of(result, "weighted_fit"))
    assert any(f.startswith("weighted_enforced: not certified") for f in audit(flow, bad))


def test_passivity_test_rejects_unstable_nonreciprocal_and_large_d(flow):
    case, result = flow
    omega = case.data.omega
    poles, residues, const = triple_of(result, "weighted_enforced")
    assert not checks.passivity_test((-poles.conj(), residues, const), omega).stable
    skew = residues.copy()
    skew[:, 0, 1] += 1e-3 * np.max(np.abs(residues))
    assert not checks.passivity_test((poles, skew, const), omega).reciprocal
    big_d = const / np.linalg.norm(const, 2) * 1.01
    assert not checks.passivity_test((poles, residues, big_d), omega).passive


def test_eq2_recomputation_rejects_a_perturbed_residue(flow):
    result = flow[1]
    bad = replaced(result, weighted_enforced=scaled_residue(
        triple_of(result, "weighted_enforced"), 1.01))
    assert any("recomputed" in f and f.startswith("weighted_enforced")
               for f in audit(flow, bad))


def test_rms_bound_rejects_a_bad_fit(flow):
    result = flow[1]
    bad = replaced(result, standard_fit=scaled_residue(triple_of(result, "standard_fit"), 3.0))
    assert any(f.startswith("standard_fit: fit RMS") for f in audit(flow, bad))


def test_audit_rejects_weighted_cost_losing_to_standard_cost(flow):
    result = flow[1]
    bad = replaced(result, weighted_enforced=triple_of(result, "standard_enforced"),
                   standard_enforced=triple_of(result, "weighted_enforced"))
    assert any(f.startswith("weighted-cost low-band error") for f in audit(flow, bad))
