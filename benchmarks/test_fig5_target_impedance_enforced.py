"""Paper Fig. 5 -- the headline result: target impedance after passivity
enforcement for the four model variants (nominal, non-passive weighted
fit, passive standard-cost, passive weighted-cost).

Shape claims: standard (unweighted L2) enforcement deviates significantly
at low frequency, making the model "useless for practical design"; the
sensitivity-weighted enforcement stays accurate at all frequencies.  The
timed kernel is one weighted enforcement run.
"""

import numpy as np

from benchmarks.conftest import GOLDEN, emit, save_series
from repro.passivity.enforce import enforce_passivity
from repro.sensitivity.weighted_norm import sensitivity_weighted_cost
from repro.sensitivity.zpdn import target_impedance_of_model


def test_fig5_target_impedance_enforced(
    benchmark, testcase, flow_result, artifacts_dir
):
    data = testcase.data
    omega, f = data.omega, data.frequencies
    zref = flow_result.reference_impedance

    def z_of(model):
        return target_impedance_of_model(
            model, omega, testcase.termination, testcase.observe_port
        )

    z_nonpassive = z_of(flow_result.weighted_fit.model)
    z_standard = z_of(flow_result.standard_enforced.model)
    z_weighted = z_of(flow_result.weighted_enforced.model)
    save_series(
        artifacts_dir / "fig5_target_impedance_enforced.csv",
        [
            "frequency_hz",
            "z_nominal_ohm",
            "z_nonpassive_ohm",
            "z_passive_standard_ohm",
            "z_passive_weighted_ohm",
        ],
        [f, np.abs(zref), np.abs(z_nonpassive), np.abs(z_standard), np.abs(z_weighted)],
    )

    low = f < 1e6
    rel = {
        "non-passive (weighted fit)": np.abs(z_nonpassive - zref) / np.abs(zref),
        "passive, standard cost": np.abs(z_standard - zref) / np.abs(zref),
        "passive, weighted cost": np.abs(z_weighted - zref) / np.abs(zref),
    }
    lines = ["Fig. 5 -- target impedance after passivity enforcement",
             f"  {'model':<28s} {'max relZ':>10s} {'low-f relZ':>11s}"]
    for label, r in rel.items():
        lines.append(f"  {label:<28s} {r.max():10.4f} {r[low].max():11.4f}")
    factor = rel["passive, standard cost"][low].max() / rel[
        "passive, weighted cost"
    ][low].max()
    lines += [
        f"  low-band improvement factor (standard/weighted): {factor:.1f}x",
        "  paper shape claim: standard enforcement destroys the low-f",
        "  impedance; weighted enforcement preserves accuracy everywhere",
        f"  claim holds      : {factor > 5.0}",
    ]
    emit(artifacts_dir / "fig5_summary.txt", "\n".join(lines))

    assert factor > 5.0
    assert rel["passive, weighted cost"][low].max() < 0.25
    # Pinned outputs (the shared flow runs at the golden BLAS count).
    golden = GOLDEN["fig5"]
    np.testing.assert_allclose(
        [rel["passive, standard cost"][low].max(),
         rel["passive, weighted cost"][low].max()],
        [golden["lowband_standard"], golden["lowband_weighted"]],
        rtol=golden["rtol"],
    )

    def weighted_enforcement_kernel():
        cost = sensitivity_weighted_cost(
            flow_result.weighted_fit.model, flow_result.weight_model.model
        )
        return enforce_passivity(flow_result.weighted_fit.model, cost)

    benchmark.pedantic(weighted_enforcement_kernel, rounds=1, iterations=1)
