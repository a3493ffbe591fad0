"""Derived Table I: fast passivity engine enforcement times.

Times the enforcement loop (the cached-invariant Hamiltonian test every
iteration, half-size for these reciprocal models, plus one full-size
certificate of the passing verdict) on the small/medium/large PDN
variants.  The wall time recorded by the first version of the code on
the Table G case (98.91 s: a full-size check every iteration,
per-element Python QP assembly, dense dual Gram) is printed as history
only: it was recorded on another machine, so it bounds nothing here.

The half-size Hamiltonian acceptance is measured within the same
process: the large-case run is recorded in an in-memory telemetry
session and repeated once with the engine's full-size fallback forced
(the original design: a 2N x 2N eigensolve every iteration).  The
structural checks (every steering check takes the n x n structured
eigensolve, each converged run takes exactly one 2n x 2n certificate,
the reference takes the 2n x 2n one throughout, and both runs' final
reports match the stateless full-size check of their models) run
everywhere; only the wall-clock comparison between the
two runs is skipped under REPRO_SKIP_PERF_ASSERTS.

The cases run once per session at the golden BLAS thread count: the
large case's iteration count and certified worst sigma are pinned
(tests/data/golden/enforcement.json), and its first enforcement QP's
working set must stay within a small multiple of its active set.
"""

import functools
import os
import time

import numpy as np

from benchmarks.conftest import GOLDEN, emit, golden_blas_threads
from repro.obs.telemetry import Telemetry, events_of, session
from repro.passivity import engine
from repro.passivity.check import check_passivity
from repro.passivity.cost import l2_gramian_cost
from repro.passivity.enforce import enforce_passivity
from repro.vectfit.core import vector_fit
from repro.vectfit.options import VFOptions
from repro.pdn.testcase import make_paper_testcase

# Table G enforcement wall time recorded by the PR-1 code on this case
# (see benchmarks/artifacts/tabG_scaling.txt in the PR-1 tree); another
# machine, so a history row of the artifact and never a bound.
PR1_LARGE_ENFORCEMENT_SECONDS = 98.91

# Large-case exact-strategy enforcement wall time recorded by the PR-7
# code (full-size 2N x 2N Hamiltonian eigensolve every iteration; see
# benchmarks/artifacts/tabI_fast_passivity.txt in the PR-7 tree).  The
# figure is kept only as a historical row of the artifact: the half-size
# acceptance compares against a full-size run measured in the same
# process, since a wall time from another machine says nothing about
# this one.
PR7_LARGE_EXACT_ENFORCEMENT_SECONDS = 5.06

CASES = (
    ("small", 201, 12),
    ("medium", 161, 14),
    ("large", 121, 16),
)


def _fit_case(size, n_frequencies, n_poles):
    case = make_paper_testcase(size=size, n_frequencies=n_frequencies)
    fit = vector_fit(
        case.data.omega, case.data.samples,
        options=VFOptions(n_poles=n_poles),
    )
    return case, fit


@functools.lru_cache(maxsize=None)
def _run_case(size, n_frequencies, n_poles):
    """Fit and enforce one case, once per session, at the golden BLAS
    thread count: ``(case, fit, result, seconds, telemetry)``."""
    with golden_blas_threads():
        case, fit = _fit_case(size, n_frequencies, n_poles)
        return (case, fit, *_enforce_recorded(fit.model))


def _enforce_recorded(model):
    """Timed enforcement inside an in-memory telemetry session."""
    telemetry = Telemetry(None)
    cost = l2_gramian_cost(model)
    with session(telemetry):
        start = time.perf_counter()
        result = enforce_passivity(model, cost)
        seconds = time.perf_counter() - start
    return result, seconds, telemetry


def _eigensolve_spans(telemetry):
    """The session's finished ``kernel:hamiltonian_eig`` spans, in order."""
    return [
        e for e in events_of(telemetry, "span.finish")
        if e["span"].split("/")[-1] == "kernel:hamiltonian_eig"
    ]


def _disable_half_size(*args, **kwargs):
    raise ValueError("half-size eigensolve disabled for the reference run")


def test_tabI_fast_passivity(timing_artifacts_dir, monkeypatch):
    lines = [
        "Table I -- fast passivity engine: enforcement wall time",
        "  (Hamiltonian test every iteration, half-size for reciprocal "
        "iterates; full-size certificate of the passing verdict)",
        "  case    ports  poles   enforce [s]  iters  eig (half/full)  "
        "worst sigma",
    ]
    for size, n_frequencies, n_poles in CASES:
        case, fit, result, seconds, telemetry = _run_case(
            size, n_frequencies, n_poles
        )
        assert result.converged
        assert result.report_after.worst_sigma <= 1.0

        # The steering checks take the n x n structured eigensolve; the
        # certificate of the one passing verdict is the only 2n x 2n one,
        # and it is the run's last check.
        spans = _eigensolve_spans(telemetry)
        n = fit.model.n_ports * fit.model.element_state_dimension()
        half = [e for e in spans if e["half_size"]]
        full = [e for e in spans if not e["half_size"]]
        assert half and {e["n"] for e in half} == {n}
        assert [e["n"] for e in full] == [2 * n]
        assert spans[-1] is full[0]
        assert len(spans) == telemetry.counters["checker.exact_checks"]

        lines.append(
            f"  {size:<7s} {case.data.n_ports:>5d}  {n_poles:>5d}   "
            f"{seconds:>11.2f}  {result.iterations:>5d}  "
            f"{len(half):>7d}/{len(full):<7d}  "
            f"{result.report_after.worst_sigma:.8f}"
        )
        if size == "large":
            large_model = fit.model
            large_result = result
            large_seconds = seconds
            large_telemetry = telemetry

    # Same-run reference for the half-size acceptance: the large case
    # again with the engine's full-size fallback forced (the checker
    # treats a ValueError from half_size_invariants as "no structured
    # path"), i.e. the original design with a 2N x 2N eigensolve per
    # check.
    with monkeypatch.context() as patch, golden_blas_threads():
        patch.setattr(engine, "half_size_invariants", _disable_half_size)
        full, large_full_size_seconds, full_telemetry = _enforce_recorded(
            large_model
        )
    half_spans = _eigensolve_spans(large_telemetry)
    full_spans = _eigensolve_spans(full_telemetry)
    half_eig_seconds = sum(e["seconds"] for e in half_spans)
    full_eig_seconds = sum(e["seconds"] for e in full_spans)

    lines += [
        "",
        f"  PR-1 recorded large-case enforcement : "
        f"{PR1_LARGE_ENFORCEMENT_SECONDS:.2f} s (exact checks, dense "
        "dual Gram, per-element Python assembly; historical, other "
        "machine)",
        f"  this run, large case                 : "
        f"{large_seconds:.2f} s "
        f"({PR1_LARGE_ENFORCEMENT_SECONDS / large_seconds:.1f}x)",
        f"  this run, full-size eigensolve only  : "
        f"{large_full_size_seconds:.2f} s "
        f"({PR1_LARGE_ENFORCEMENT_SECONDS / large_full_size_seconds:.1f}x; "
        "half-size path disabled)",
        f"  kernel:hamiltonian_eig, half-size run: "
        f"{half_eig_seconds:.2f} s over {len(half_spans)} checks",
        f"  kernel:hamiltonian_eig, full-size run: "
        f"{full_eig_seconds:.2f} s over {len(full_spans)} checks "
        f"(n = {full_spans[0]['n'] if full_spans else 0})",
        f"  PR-7 recorded exact-strategy run     : "
        f"{PR7_LARGE_EXACT_ENFORCEMENT_SECONDS:.2f} s (full-size "
        "Hamiltonian eigensolve, historical; other machine)",
    ]
    emit(timing_artifacts_dir / "tabI_fast_passivity.txt", "\n".join(lines))

    # Half-size Hamiltonian acceptance, structural part (any hardware):
    # the forced reference takes the 2n x 2n eigensolve on every check,
    # and both runs end on a full-size certificate of their own model.
    # (The two runs steer with different crossing tests, so they may take
    # different paths to different passive models.)
    assert full_spans
    assert not any(e["half_size"] for e in full_spans)
    assert full.converged
    golden = GOLDEN["tabI_large"]
    assert large_result.iterations == golden["iterations"]
    np.testing.assert_allclose(
        large_result.report_after.worst_sigma, golden["worst_sigma"],
        rtol=golden["rtol"],
    )
    for result in (large_result, full):
        oracle = check_passivity(result.model)
        assert oracle.is_passive
        assert np.isclose(
            result.report_after.worst_sigma, oracle.worst_sigma, rtol=1e-12
        )

    # Half-size Hamiltonian acceptance, wall-clock part: the run with
    # structured steering eigensolves must beat the full-size-eigensolve
    # run measured in this process.  Skippable on shared/loaded runners
    # (CI sets REPRO_SKIP_PERF_ASSERTS and relies on the structural
    # checks above).
    if not os.environ.get("REPRO_SKIP_PERF_ASSERTS"):
        assert large_seconds < large_full_size_seconds


def test_tabI_perf_smoke(timing_artifacts_dir):
    """CI perf smoke: the small case must enforce quickly.

    Generous threshold -- the fast engine finishes in well under a
    second on commodity hardware; 30 s only trips on gross regressions
    (e.g. reintroducing a dense dual Gram or per-iteration Hamiltonian
    rebuilds).
    """
    _case, fit = _fit_case("small", 201, 12)
    result, seconds, _telemetry = _enforce_recorded(fit.model)
    assert result.converged
    assert result.report_after.worst_sigma <= 1.0
    assert seconds < 30.0
    emit(
        timing_artifacts_dir / "tabI_perf_smoke.txt",
        f"perf smoke: small-case enforcement {seconds:.2f} s "
        f"(threshold 30 s), converged={result.converged}",
    )


def test_tabI_half_size_hamiltonian_engaged(timing_artifacts_dir):
    """CI perf smoke: the exact checker must run the half-size eigensolve.

    Machine-independent structural assertion backing the wall-clock
    acceptance check above: PDN scattering data is reciprocal, so the
    exact passivity test on a fitted PDN model must take the structured
    half-size path (n x n product eigensolve instead of the 2n x 2n
    Hamiltonian), and it must agree with the full-size oracle check.
    """
    from repro.passivity.engine import PassivityChecker

    _case, fit = _fit_case("small", 201, 12)
    checker = PassivityChecker(fit.model)
    start = time.perf_counter()
    report = checker.check_exact(fit.model)
    t_half = time.perf_counter() - start
    assert checker.n_half_size_checks == 1

    oracle = check_passivity(fit.model)
    assert report.is_passive == oracle.is_passive
    assert np.isclose(
        report.worst_sigma, oracle.worst_sigma,
        rtol=1e-6, atol=1e-9,
    )
    emit(
        timing_artifacts_dir / "tabI_half_size_smoke.txt",
        f"half-size exact check: {t_half:.3f} s, "
        f"n_half_size_checks={checker.n_half_size_checks}, "
        f"worst sigma {report.worst_sigma:.8f} "
        f"(oracle {oracle.worst_sigma:.8f})",
    )


def test_tabI_qp_structure():
    """CI perf smoke: the enforcement QP's working set stays bounded.

    Structural, for any hardware: on the large case's first QP (the
    largest, every violated row of the unperturbed model), the final
    working set stays within 12x the active set, and the QP call and
    iteration counts are the golden ones.
    """
    _case, _fit, result, _seconds, telemetry = _run_case(*CASES[-1])
    qp_spans = [
        e for e in events_of(telemetry, "span.finish")
        if e["span"].split("/")[-1] == "kernel:qp_solve"
    ]
    iterations = [
        e for e in events_of(telemetry, "enforce.iteration")
        if e["iteration"] > 0
    ]
    golden = GOLDEN["tabI_large"]["iterations"]
    assert result.iterations == golden
    assert len(qp_spans) == len(iterations) == golden
    first_span, first = qp_spans[0], iterations[0]
    assert first_span["working_set"] == first["working_set"]
    assert first_span["rounds"] >= 1
    assert 0 < first["active_set"] <= first["working_set"]
    assert first["working_set"] <= 12 * first["active_set"]
