"""Derived Table G: port-count scaling.

The paper's test case has P = 45 ports; ours defaults to P = 9 for speed.
This bench runs the identification + check + enforcement chain on the
P = 20 "large" variant and reports stage timings, demonstrating that the
flow scales to realistic port counts (cost grows with P^2 elements in the
fit and the QP variable count P^2 N).
"""

import time

import numpy as np

from benchmarks.conftest import emit
from repro.passivity.check import check_passivity
from repro.passivity.cost import l2_gramian_cost
from repro.passivity.enforce import enforce_passivity
from repro.pdn.testcase import make_paper_testcase
from repro.vectfit.core import vector_fit
from repro.vectfit.options import VFOptions


def test_tabG_scaling(benchmark, timing_artifacts_dir):
    timings = {}

    def timed(label, fn):
        start = time.perf_counter()
        out = fn()
        timings[label] = time.perf_counter() - start
        return out

    large = timed(
        "data generation (MNA sweep)",
        lambda: make_paper_testcase(size="large", n_frequencies=121),
    )
    fit = timed(
        "vector fit (16 poles)",
        lambda: vector_fit(
            large.data.omega, large.data.samples, options=VFOptions(n_poles=16)
        ),
    )
    report = timed("passivity check", lambda: check_passivity(fit.model))
    enforcement = None
    if not report.is_passive:
        enforcement = timed(
            "passivity enforcement (L2)",
            lambda: enforce_passivity(fit.model, l2_gramian_cost(fit.model)),
        )

    lines = [
        "Table G -- scaling to the large test case "
        f"(P = {large.data.n_ports} ports, K = {large.data.n_frequencies})",
        f"  scattering data passive : "
        f"{bool(np.all(large.data.passivity_metric() <= 1.0 + 1e-9))}",
        f"  fit RMS error           : {fit.rms_error:.3e}",
        f"  model passive before    : {report.is_passive} "
        f"(worst sigma {report.worst_sigma:.6f})",
    ]
    if enforcement is not None:
        lines.append(
            f"  enforcement             : converged={enforcement.converged} "
            f"in {enforcement.iterations} iterations"
        )
    for label, seconds in timings.items():
        lines.append(f"  {label:<28s} {seconds:8.2f} s")
    emit(timing_artifacts_dir / "tabG_scaling.txt", "\n".join(lines))

    assert fit.rms_error < 0.05
    if enforcement is not None:
        assert enforcement.converged

    benchmark.pedantic(
        lambda: check_passivity(fit.model), rounds=1, iterations=1
    )
