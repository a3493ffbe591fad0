"""Derived Table I: fast passivity engine speedup.

Times the enforcement loop under both checker strategies ("exact" =
Hamiltonian eigenvalue test every iteration, "fast" = warm-started
sampling for intermediate iterations with exact certification) on the
small/medium/large PDN variants.  The PR-1 wall time of the Table G
case (98.91 s: exact check every iteration, per-element Python QP
assembly, dense dual Gram) is printed as history only: it was recorded
on another machine, so it bounds nothing here.

Both strategies now share the vectorized kernels (structured working-set
QP, cached Hamiltonian invariants, batched constraint assembly), so the
exact-vs-fast gap isolates the checker strategy itself.

The half-size Hamiltonian acceptance is measured within the same
process: the large-case exact run is recorded in an in-memory telemetry
session and repeated once with the engine's full-size fallback forced
(the original design: a 2N x 2N eigensolve every iteration).  The
structural checks (every exact check takes the n x n structured
eigensolve, the reference takes the 2n x 2n one, both certify the same
worst sigma) run everywhere; only the wall-clock comparison between the
two runs is skipped under REPRO_SKIP_PERF_ASSERTS.
"""

import os
import time

import numpy as np

from benchmarks.conftest import emit
from repro.obs.telemetry import Telemetry, events_of, session
from repro.passivity import engine
from repro.passivity.cost import l2_gramian_cost
from repro.passivity.enforce import EnforcementOptions, enforce_passivity
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


def _enforce_timed(model, strategy):
    cost = l2_gramian_cost(model)
    start = time.perf_counter()
    result = enforce_passivity(
        model, cost, EnforcementOptions(checker_strategy=strategy)
    )
    return result, time.perf_counter() - start


def _enforce_recorded(model, strategy):
    """:func:`_enforce_timed` inside an in-memory telemetry session."""
    telemetry = Telemetry(None)
    with session(telemetry):
        result, seconds = _enforce_timed(model, strategy)
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
        "Table I -- fast passivity engine: enforcement wall time by "
        "checker strategy",
        "  (exact = Hamiltonian test every iteration; fast = sampling-"
        "first with exact certificate)",
        "  case    ports  poles   exact [s]  fast [s]  iters(e/f)  "
        "worst sigma (fast)",
    ]
    large_fast_seconds = None
    for size, n_frequencies, n_poles in CASES:
        case, fit = _fit_case(size, n_frequencies, n_poles)
        if size == "large":
            exact, t_exact, half_telemetry = _enforce_recorded(
                fit.model, "exact"
            )
        else:
            exact, t_exact = _enforce_timed(fit.model, "exact")
        fast, t_fast = _enforce_timed(fit.model, "fast")

        # Identical convergence behavior: both certified by the exact
        # Hamiltonian test, agreeing on the verdict and worst sigma.
        assert exact.converged and fast.converged
        assert fast.report_after.worst_sigma <= 1.0
        assert exact.report_after.worst_sigma <= 1.0
        assert abs(
            fast.report_after.worst_sigma - exact.report_after.worst_sigma
        ) < 5e-3

        lines.append(
            f"  {size:<7s} {case.data.n_ports:>5d}  {n_poles:>5d}   "
            f"{t_exact:>9.2f}  {t_fast:>8.2f}  "
            f"{exact.iterations:>4d}/{fast.iterations:<4d}  "
            f"{fast.report_after.worst_sigma:.8f}"
        )
        if size == "large":
            large_model = fit.model
            large_exact = exact
            large_fast_seconds = t_fast
            large_exact_seconds = t_exact

    # Same-run reference for the half-size acceptance: the large case
    # again with the engine's full-size fallback forced (the checker
    # treats a ValueError from half_size_invariants as "no structured
    # path"), i.e. the original design with a 2N x 2N eigensolve per
    # check.
    with monkeypatch.context() as patch:
        patch.setattr(engine, "half_size_invariants", _disable_half_size)
        full, large_full_size_seconds, full_telemetry = _enforce_recorded(
            large_model, "exact"
        )
    half_spans = _eigensolve_spans(half_telemetry)
    full_spans = _eigensolve_spans(full_telemetry)
    half_eig_seconds = sum(e["seconds"] for e in half_spans)
    full_eig_seconds = sum(e["seconds"] for e in full_spans)

    speedup_vs_pr1 = PR1_LARGE_ENFORCEMENT_SECONDS / large_fast_seconds
    lines += [
        "",
        f"  PR-1 recorded large-case enforcement : "
        f"{PR1_LARGE_ENFORCEMENT_SECONDS:.2f} s (exact checks, dense "
        "dual Gram, per-element Python assembly; historical, other "
        "machine)",
        f"  this run, exact strategy             : "
        f"{large_exact_seconds:.2f} s "
        f"({PR1_LARGE_ENFORCEMENT_SECONDS / large_exact_seconds:.1f}x)",
        f"  this run, fast strategy              : "
        f"{large_fast_seconds:.2f} s ({speedup_vs_pr1:.1f}x)",
        f"  this run, exact, full-size eigensolve: "
        f"{large_full_size_seconds:.2f} s "
        f"({PR1_LARGE_ENFORCEMENT_SECONDS / large_full_size_seconds:.1f}x; "
        "half-size path disabled)",
        f"  kernel:hamiltonian_eig, half-size    : "
        f"{half_eig_seconds:.2f} s over {len(half_spans)} checks "
        f"(n = {half_spans[0]['n'] if half_spans else 0})",
        f"  kernel:hamiltonian_eig, full-size    : "
        f"{full_eig_seconds:.2f} s over {len(full_spans)} checks "
        f"(n = {full_spans[0]['n'] if full_spans else 0})",
        f"  PR-7 recorded exact-strategy run     : "
        f"{PR7_LARGE_EXACT_ENFORCEMENT_SECONDS:.2f} s (full-size "
        "Hamiltonian eigensolve, historical; other machine)",
    ]
    emit(timing_artifacts_dir / "tabI_fast_passivity.txt", "\n".join(lines))

    # Half-size Hamiltonian acceptance, structural part (any hardware):
    # every exact check of the large-case run takes the n x n structured
    # eigensolve ...
    n_exact_checks = half_telemetry.counters.get("checker.exact_checks", 0)
    assert n_exact_checks > 0
    assert len(half_spans) == n_exact_checks
    assert all(e["half_size"] for e in half_spans)
    # ... the forced reference takes the 2n x 2n one on every check ...
    assert full_spans
    assert not any(e["half_size"] for e in full_spans)
    assert {e["n"] for e in full_spans} == {2 * e["n"] for e in half_spans}
    # ... and both certify the same worst singular value.
    assert full.converged
    assert np.isclose(
        full.report_after.worst_sigma, large_exact.report_after.worst_sigma,
        rtol=1e-6, atol=1e-9,
    )

    # Half-size Hamiltonian acceptance, wall-clock part: the exact
    # strategy (one structured eigensolve per iteration) must beat the
    # full-size-eigensolve run measured in this process.  Skippable on
    # shared/loaded runners (CI sets REPRO_SKIP_PERF_ASSERTS and relies
    # on the structural checks above).
    if not os.environ.get("REPRO_SKIP_PERF_ASSERTS"):
        assert large_exact_seconds < large_full_size_seconds


def test_tabI_perf_smoke(timing_artifacts_dir):
    """CI perf smoke: the small case must enforce quickly.

    Generous threshold -- the fast engine finishes in well under a
    second on commodity hardware; 30 s only trips on gross regressions
    (e.g. reintroducing a dense dual Gram or per-iteration Hamiltonian
    rebuilds).
    """
    _case, fit = _fit_case("small", 201, 12)
    fast, t_fast = _enforce_timed(fit.model, "fast")
    assert fast.converged
    assert fast.report_after.worst_sigma <= 1.0
    assert t_fast < 30.0
    emit(
        timing_artifacts_dir / "tabI_perf_smoke.txt",
        f"perf smoke: small-case fast enforcement {t_fast:.2f} s "
        f"(threshold 30 s), converged={fast.converged}",
    )


def test_tabI_half_size_hamiltonian_engaged(timing_artifacts_dir):
    """CI perf smoke: the exact checker must run the half-size eigensolve.

    Machine-independent structural assertion backing the wall-clock
    acceptance check above: PDN scattering data is reciprocal, so the
    exact passivity test on a fitted PDN model must take the structured
    half-size path (n x n product eigensolve instead of the 2n x 2n
    Hamiltonian), and it must agree with the full-size oracle check.
    """
    from repro.passivity.check import check_passivity
    from repro.passivity.engine import CheckerOptions, PassivityChecker

    _case, fit = _fit_case("small", 201, 12)
    checker = PassivityChecker(
        fit.model, options=CheckerOptions(strategy="exact")
    )
    start = time.perf_counter()
    report = checker.check(fit.model)
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
