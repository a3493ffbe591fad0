"""Derived Table D: cost of the sensitivity-based weighting machinery.

The paper's Sec. V remark: "the computational cost for implementation of
the sensitivity-based weights is negligible with respect to all other
steps of model extraction".  This bench times each pipeline stage
separately and verifies that weight construction (sensitivity + MVF +
cascade Gramian) is a small fraction of fitting + enforcement.
"""

import time

from benchmarks.conftest import emit
from repro.passivity.cost import l2_gramian_cost
from repro.passivity.enforce import enforce_passivity
from repro.sensitivity.firstorder import sensitivity_analytic
from repro.sensitivity.weighted_norm import sensitivity_weighted_cost
from repro.sensitivity.weightmodel import build_weight_model
from repro.vectfit.core import vector_fit
from repro.vectfit.options import VFOptions


def test_tabD_overhead(benchmark, testcase, flow_result, timing_artifacts_dir):
    data = testcase.data
    timings = {}

    def timed(label, fn):
        start = time.perf_counter()
        result = fn()
        timings[label] = time.perf_counter() - start
        return result

    timed(
        "standard VF fit",
        lambda: vector_fit(data.omega, data.samples, options=VFOptions(n_poles=12)),
    )
    xi = timed(
        "sensitivity samples (eq. 5)",
        lambda: sensitivity_analytic(
            data.samples, data.omega, testcase.termination, testcase.observe_port
        ),
    )
    weight = timed(
        "weight model MVF (eq. 17)",
        lambda: build_weight_model(data.omega, xi / xi.max(), order=8),
    )
    timed(
        "weighted cost Gramian (eqs. 18-21)",
        lambda: sensitivity_weighted_cost(
            flow_result.weighted_fit.model, weight.model
        ),
    )
    timed(
        "weighted VF fit (incl. refinement)",
        lambda: vector_fit(
            data.omega,
            data.samples,
            flow_result.final_weights,
            VFOptions(n_poles=12),
        ),
    )
    timed(
        "passivity enforcement (L2)",
        lambda: enforce_passivity(
            flow_result.weighted_fit.model,
            l2_gramian_cost(flow_result.weighted_fit.model),
        ),
    )

    weighting_cost = (
        timings["sensitivity samples (eq. 5)"]
        + timings["weight model MVF (eq. 17)"]
        + timings["weighted cost Gramian (eqs. 18-21)"]
    )
    baseline_cost = (
        timings["standard VF fit"] + timings["passivity enforcement (L2)"]
    )
    lines = ["Table D -- weighting overhead (paper: 'negligible')"]
    for label, seconds in timings.items():
        lines.append(f"  {label:<38s} {seconds * 1e3:10.1f} ms")
    lines += [
        f"  total weighting machinery              {weighting_cost * 1e3:10.1f} ms",
        f"  fit + enforcement baseline             {baseline_cost * 1e3:10.1f} ms",
        f"  overhead ratio: {weighting_cost / baseline_cost:.2f} "
        "(claim holds if < 1)",
    ]
    emit(timing_artifacts_dir / "tabD_overhead.txt", "\n".join(lines))

    assert weighting_cost < baseline_cost

    benchmark.pedantic(
        lambda: sensitivity_weighted_cost(
            flow_result.weighted_fit.model, weight.model
        ),
        rounds=3,
        iterations=1,
    )
