"""Derived Table K: telemetry overhead on the standard pipeline.

The telemetry hooks live inside the hot solver loops (vector-fitting pole
relocation, passivity-enforcement iterations, checker grids), so the
subsystem is only acceptable if it is near-free when disabled and cheap
when recording.  Both paths are priced the same way: the measured
per-call cost of the module-level ``emit``/``incr``/``span`` free
functions, projected onto the number of hook executions an instrumented
medium-case pipeline run actually performs.

* **disabled path** -- no active session: ``emit``/``incr`` are one
  attribute load + ``None`` check, and ``span`` builds one small object
  that reads the clock on entry and exit (spans always time themselves);
* **recording path** -- an active session with a JSONL event sink, the
  same kind of session the recorded pipeline run uses.

Budgets: disabled < 2 % of the run, recording < 5 %.  The wall times of
the pipeline run with and without a session are reported too, but not
asserted: their run-to-run spread on a shared 2-core box is several
times the 5 % budget.
"""

import os
import tempfile
import time

from benchmarks.conftest import emit
from repro.api import Pipeline, ReproConfig, standard_stages
from repro.obs import telemetry as obs
from repro.obs import telemetry_session
from repro.pdn.testcase import make_paper_testcase

DISABLED_BUDGET = 0.02
RECORDING_BUDGET = 0.05
ROUNDS = 3


def _seed():
    case = make_paper_testcase(size="medium", n_frequencies=161)
    return {
        "network": case.data,
        "termination": case.termination,
        "observe_port": case.observe_port,
    }


def _timed_run(seed, telemetry_dir=None):
    pipeline = Pipeline(standard_stages())
    config = ReproConfig()
    if telemetry_dir is None:
        start = time.perf_counter()
        pipeline.run(config, dict(seed))
        return time.perf_counter() - start, None
    with telemetry_session(telemetry_dir, label="tabK") as telemetry:
        start = time.perf_counter()
        pipeline.run(config, dict(seed))
        seconds = time.perf_counter() - start
        snapshot = telemetry.snapshot()
    return seconds, snapshot


def _triple_cost(calls: int) -> float:
    """Seconds per emit+incr+span triple under the current session."""
    start = time.perf_counter()
    for _ in range(calls):
        obs.incr("bench.counter")
        obs.emit("bench.event", value=1.0)
        with obs.span("bench.span"):
            pass
    return (time.perf_counter() - start) / calls


def _disabled_call_cost(calls: int = 200_000) -> float:
    """Seconds per disabled emit+incr+span triple (no active session)."""
    assert obs.active() is None
    return _triple_cost(calls)


def _recording_call_cost(directory, calls: int = 20_000) -> float:
    """Seconds per recorded emit+incr+span triple (session with a sink).

    ``calls`` keeps the 2 * calls buffered events (each span also emits
    its ``span.finish``) under the session's event cap, so every call
    pays the full recording cost.
    """
    with telemetry_session(directory, label="tabK-hooks"):
        return _triple_cost(calls)


def _hook_executions(snapshot) -> int:
    """How many telemetry hooks fired during the recorded run.

    ``n_events`` covers every ``emit`` (span finishes included); counter
    values approximate the ``incr`` calls (the hot-loop counters all
    increment by 1); each recorded span adds one ``span`` entry call.
    """
    n_incr = sum(snapshot["counters"].values())
    n_spans = sum(t["count"] for t in snapshot["spans"].values())
    return int(snapshot["n_events"] + n_incr + n_spans)


def test_tabK_telemetry_overhead(timing_artifacts_dir):
    seed = _seed()
    _timed_run(seed)  # warmup: JIT-free but primes caches/allocator

    off_times, on_times = [], []
    snapshot = None
    with tempfile.TemporaryDirectory() as tmp:
        for round_index in range(ROUNDS):
            off, _ = _timed_run(seed)
            on, snapshot = _timed_run(seed, f"{tmp}/round{round_index}")
            off_times.append(off)
            on_times.append(on)

        recording_triple = _recording_call_cost(f"{tmp}/hooks")

    t_off = min(off_times)
    t_on = min(on_times)
    wall_difference = (t_on - t_off) / t_off

    per_triple = _disabled_call_cost()
    hooks = _hook_executions(snapshot)
    # Each "triple" above times incr+emit+span together; a single hook is
    # one of the three, so per-hook cost is at most the triple cost / 1.
    projected_disabled = hooks * per_triple / 3.0
    disabled_overhead = projected_disabled / t_off
    projected_recording = hooks * recording_triple / 3.0
    recording_overhead = projected_recording / t_off

    lines = [
        "Table K -- telemetry overhead (medium case, standard 5-stage "
        "pipeline)",
        f"  pipeline run, telemetry off          {t_off * 1e3:10.1f} ms"
        f"  (min of {ROUNDS})",
        f"  pipeline run, telemetry on           {t_on * 1e3:10.1f} ms"
        f"  (min of {ROUNDS})",
        f"  on/off wall-time difference          {wall_difference:10.2%}"
        "  (reported, not asserted)",
        f"  hook executions in the run           {hooks:10d}",
        f"  recording hook cost                  "
        f"{recording_triple / 3 * 1e9:10.1f} ns/hook",
        f"  projected recording overhead         {recording_overhead:10.4%}"
        f"  (budget {RECORDING_BUDGET:.0%})",
        f"  disabled hook cost                   {per_triple / 3 * 1e9:10.1f}"
        " ns/hook",
        f"  projected disabled overhead          {disabled_overhead:10.4%}"
        f"  (budget {DISABLED_BUDGET:.0%})",
        f"  events recorded                      {snapshot['n_events']:10d}",
    ]
    emit(timing_artifacts_dir / "tabK_telemetry_overhead.txt", "\n".join(lines))

    assert snapshot["n_events"] > 0
    assert snapshot["counters"].get("vf.iterations", 0) > 0
    assert snapshot["counters"].get("enforce.iterations", 0) > 0
    # Wall-clock budgets are skippable on shared/loaded runners; the
    # perf-smoke threshold below still guards gross regressions there.
    if not os.environ.get("REPRO_SKIP_PERF_ASSERTS"):
        assert disabled_overhead < DISABLED_BUDGET
        assert recording_overhead < RECORDING_BUDGET


def test_tabK_perf_smoke(timing_artifacts_dir):
    """CI perf smoke: disabled telemetry hooks must stay near-free.

    5 us/hook is far above the measured cost of the disabled path (a
    module attribute load + None check for ``emit``/``incr``, a
    self-timing span object with two clock reads for ``span``); it only
    trips if someone puts real work ahead of the ``_ACTIVE is None``
    guards.
    """
    per_hook = _disabled_call_cost(50_000) / 3.0
    assert per_hook < 5e-6
    emit(
        timing_artifacts_dir / "tabK_perf_smoke.txt",
        f"perf smoke: disabled telemetry hook {per_hook * 1e9:.0f} ns "
        "(threshold 5000 ns)",
    )
