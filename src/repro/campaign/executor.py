"""Parallel campaign execution.

The unit of work is :func:`execute_scenario`: a module-level function (so
it pickles to :class:`~concurrent.futures.ProcessPoolExecutor` workers)
that builds the scenario's PDN variant, runs the sensitivity-weighted
flow and returns a plain JSON-compatible run record plus the passive
model.  Whole runs live in the campaign's content-addressed
:class:`~repro.api.artifacts.ArtifactStore` (under
:meth:`~repro.api.pipeline.Pipeline.run_key`), and only the dispatcher
touches them: one lookup pass keys every scenario and serves the hits,
workers get the misses, and the dispatcher stores what they compute.

Failure isolation is two-layered: the worker converts any exception into a
``status="failed"`` record (one diverging scenario never aborts the
campaign), and the dispatcher additionally guards ``future.result()`` so
even a crashed worker process only fails its own scenario.  Serial and
pooled campaigns share that one dispatcher (:func:`_dispatch`); a serial
one runs on an in-process executor instead of a process pool.

Two batch-level optimizations live in :func:`run_campaign`:

* **BLAS thread budgeting** -- every worker process caps its BLAS/OpenMP
  thread pool to ``cpu_count // jobs`` (overridable).  Without the cap,
  each worker's BLAS spawns one thread per core and N workers fight over
  the same cores; the oversubscription used to *erase* the pool speedup
  (tabH measured 0.98x for 2 workers).  The applied budget and the
  mechanism that enforced it are recorded in each run record.
* **Shared standard fits** -- scenarios of a sweep that differ only in
  termination knobs reuse the same scattering data, so their (expensive,
  weight-independent) standard vector fits are identical.  The dispatcher
  groups pending scenarios by standard-fit fingerprint and computes one
  fit per group through :func:`repro.vectfit.core.fit_many`.  Delivery is
  store-level: with caching enabled the fits are written into the
  campaign's store under :class:`~repro.api.stages.StandardFitStage`'s own
  content key, and every worker's pipeline picks them up as ordinary stage
  cache hits.  Without a cache directory the fits are shipped to workers
  by value.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

from repro.api.artifacts import ArtifactStore, artifact_digest
from repro.api.config import ReproConfig
from repro.api.pipeline import standard_pipeline
from repro.api.stages import StandardFitStage
from repro.campaign.registry import CampaignRegistry
from repro.campaign.scenario import EXTERNAL_DEFAULTS, CampaignSpec, ScenarioSpec
from repro.flow.macromodel import run_flow
from repro.flow.metrics import accuracy_table
from repro.obs import telemetry as obs
from repro.obs.metrics import build_campaign_metrics, write_metrics_files
from repro.obs.telemetry import telemetry_session
from repro.pdn.testcase import PDNTestCase, perturb_termination
from repro.resilience import faultinject
from repro.resilience.errors import error_code_of, stage_of
from repro.resilience.retry import RetryPolicy
from repro.statespace.poleresidue import PoleResidueModel
from repro.util.logging import enable_console_logging, get_logger
from repro.vectfit.core import VFResult, fit_many
from repro.vectfit.options import VFOptions

_LOG = get_logger(__name__)

#: Environment knobs honoured by the common BLAS/OpenMP runtimes; set in
#: every worker before heavy imports run so freshly-loaded libraries obey
#: the budget even when the runtime API probe below fails.
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Thread budget applied to this process (None = uncapped), and the
#: mechanism that enforced it; recorded in run records for forensics.
_WORKER_BLAS_LIMIT: int | None = None
_WORKER_BLAS_METHOD: str | None = None


def limit_blas_threads(limit: int) -> str:
    """Best-effort cap of this process's BLAS/OpenMP thread pools.

    Worker processes are forked with NumPy -- and its already-initialized
    OpenBLAS thread pool -- inherited from the parent, so environment
    variables alone arrive too late.  Three mechanisms are tried, most
    reliable first; the one that succeeds is returned (and recorded in
    run records):

    1. ``threadpoolctl`` when installed (handles every BLAS flavour);
    2. the runtime ``*set_num_threads`` entry point of the OpenBLAS
       shared library bundled with the NumPy/SciPy wheels, located via
       ``ctypes`` (covers the common pip-installed stack);
    3. the environment variables only (effective for libraries loaded
       after this call, e.g. under a ``spawn`` start method).
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")  # reprolint: disable=error-taxonomy -- caller-argument validation, raised before any scenario runs
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(limit)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limit)
        return "threadpoolctl"
    except ImportError:
        pass
    try:
        import ctypes
        import glob
        from pathlib import Path

        import numpy

        site_dir = Path(numpy.__file__).resolve().parent.parent
        pattern = str(site_dir / "*.libs" / "lib*openblas*.so*")
        symbols = (
            "openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_",
        )
        hit = None
        for shared_object in sorted(glob.glob(pattern)):
            try:
                library = ctypes.CDLL(shared_object)
            except OSError:
                continue
            for symbol in symbols:
                setter = getattr(library, symbol, None)
                if setter is not None:
                    setter(int(limit))
                    hit = "ctypes-openblas"
        if hit:
            return hit
    except Exception:  # noqa: BLE001 -- probing must never break a worker
        pass
    return "env-only"


def default_blas_threads(jobs: int) -> int:
    """Per-worker thread budget: share the machine's cores evenly."""
    return max(1, (os.cpu_count() or 1) // max(jobs, 1))

def default_jobs() -> int:
    """Default worker count: the machine's cores, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _run_key(data_digest: str, termination, observe_port: int, config: ReproConfig) -> str:
    """Store key of one scenario's whole-run entry.

    The one place a campaign derives it: the dispatcher's lookup pass
    (:func:`_member_run`) reads whole runs under it and stores computed
    ones.  The data enters as its digest, computed once per data group.
    """
    return standard_pipeline().key_from_digests(config, {
        "network": data_digest,
        "termination": artifact_digest(termination),
        "observe_port": artifact_digest(int(observe_port)),
    })


def _new_record(scenario: ScenarioSpec, attempt: int, **fields) -> dict:
    """A run record: the scenario's identity, failed until ``fields`` say so."""
    return {"run_id": scenario.run_id, "name": scenario.name,
            "scenario": scenario.to_dict(), "status": "failed", "cache_hit": False,
            "error": None, "metrics": None, "cache_key": None,
            "attempt": attempt, **fields}


def execute_scenario(
    scenario: ScenarioSpec,
    store: str | None = None,
    standard_fit: VFResult | None = None,
    telemetry_dir: str | None = None,
    attempt: int = 0,
    testcase: PDNTestCase | None = None,
) -> tuple[dict, PoleResidueModel | None]:
    """Run one scenario end-to-end; never raises.

    ``store`` is the directory of the campaign's content-addressed
    :class:`~repro.api.artifacts.ArtifactStore`; only the standard-fit
    stage is read from and written to it, so shared and earlier fits are
    reused (whole runs are read and stored by the dispatcher, under
    :func:`_run_key`).  ``standard_fit`` optionally injects the scenario's
    precomputed standard vector fit (shared across scenarios reusing the
    same scattering data); a fit whose order does not match the
    scenario's options is ignored rather than trusted.  ``telemetry_dir``
    opens a per-run telemetry session whose events stream to a sidecar
    ``events-scenario-<run_id>-<pid>.jsonl`` file in that directory and
    whose summary rides along in ``record["telemetry"]`` (merged into
    the registry record and the campaign-level metrics).  ``attempt`` is
    the dispatcher's 0-based retry counter: recorded in the run record
    and published to the fault-injection harness so attempt-pinned
    faults stay deterministic across pool respawns.  ``testcase`` is the
    scenario's test case when the dispatcher already built it (see
    :func:`_member_run`); otherwise it is built here.  Returns
    ``(record, model)`` where ``record`` is JSON-compatible and ``model``
    is the passive weighted-cost macromodel (``None`` when the scenario
    failed).  Failed records carry a machine-readable ``error_code``
    (from the :mod:`repro.resilience.errors` taxonomy), the
    ``failed_stage`` that raised, and the full ``traceback``.
    """
    if telemetry_dir is not None:
        with telemetry_session(
            telemetry_dir,
            label="scenario",
            run_id=scenario.run_id,
            write_metrics=False,
        ) as tel:
            record, model = execute_scenario(
                scenario, store, standard_fit, attempt=attempt,
                testcase=testcase,
            )
            record["telemetry"] = tel.snapshot()
        return record, model

    faultinject.set_attempt(attempt)
    faultinject.set_scenario(scenario.run_id)
    started = time.perf_counter()
    record = _new_record(scenario, attempt, environment={
        "blas_thread_limit": _WORKER_BLAS_LIMIT,
        "blas_limit_method": _WORKER_BLAS_METHOD,
        "shared_standard_fit": standard_fit is not None,
    })
    boundary = "testcase"
    try:
        faultinject.check("scenario.run")
        build_start = time.perf_counter()
        if testcase is None:
            testcase = scenario.build_testcase()
        observe_port = scenario.resolve_observe_port(testcase)
        config = scenario.config()
        build_s = time.perf_counter() - build_start
        if testcase.ingest is not None:
            record["ingest"] = testcase.ingest.to_dict()
        if (
            standard_fit is not None
            and standard_fit.model.n_poles != config.vf.n_poles
        ):
            _LOG.warning(
                "run %s: shared standard fit order mismatch, recomputing",
                record["run_id"],
            )
            standard_fit = None
            record["environment"]["shared_standard_fit"] = False

        boundary = "flow"
        flow_start = time.perf_counter()
        # The whole-run entry already makes runs resumable, so the stage
        # store is restricted to the one stage whose sharing the campaign
        # exploits: persisting every heavy enforcement artifact per
        # scenario would roughly double a cold campaign's wall time for no
        # additional reuse.
        result = run_flow(testcase.data, testcase.termination,
                          observe_port, config, standard_fit=standard_fit,
                          store=ArtifactStore(store) if store else None,
                          store_stages=("standard_fit",))
        flow_s = time.perf_counter() - flow_start
        table = accuracy_table(list(result.accuracy_rows))
        record["environment"]["shared_standard_fit"] = any(
            stage["stage"] == "standard_fit" and stage["cache_hit"]
            for stage in result.stage_provenance
        )
        obs.incr(
            "campaign.shared_fit_hits"
            if record["environment"]["shared_standard_fit"]
            else "campaign.shared_fit_misses"
        )
        record.update(
            status="ok",
            metrics=dict(result.headline_metrics),
            accuracy_table=table,
            timings={
                "testcase_s": build_s,
                "flow_s": flow_s,
                "total_s": time.perf_counter() - started,
                "stages": [dict(stage) for stage in result.stage_provenance],
                "stage_seconds": result.stage_timings(),
                "enforcement_profile": {
                    "standard_cost": result.standard_enforced.profile(),
                    "weighted_cost": result.weighted_enforced.profile(),
                },
            },
        )
        model = result.weighted_enforced.model
        _LOG.info(
            "run %s: ok in %.2fs (max relZ weighted cost %.4f)",
            record["run_id"],
            record["timings"]["total_s"],
            record["metrics"]["max_rel_impedance_weighted_cost"],
        )
        return record, model
    except Exception as exc:  # noqa: BLE001 -- isolation is the contract
        record["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        record["error_code"] = error_code_of(exc)
        record["failed_stage"] = stage_of(exc) or boundary
        record["traceback"] = traceback.format_exc()
        record["timings"] = {"total_s": time.perf_counter() - started}
        obs.incr(f"campaign.errors.{record['error_code']}")
        _LOG.warning(
            "run %s: failed in stage %s [%s]: %s",
            record["run_id"],
            record["failed_stage"],
            record["error_code"],
            record["error"],
        )
        return record, None
    finally:
        record["duration_s"] = time.perf_counter() - started


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    campaign: str
    records: list[dict] = field(repr=False)
    wall_time_s: float = 0.0
    jobs: int = 1

    def _count(self, **conditions) -> int:
        return sum(
            1
            for record in self.records
            if all(record.get(k) == v for k, v in conditions.items())
        )

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def n_ok(self) -> int:
        return self._count(status="ok")

    @property
    def n_failed(self) -> int:
        return self._count(status="failed")

    @property
    def n_cache_hits(self) -> int:
        return self._count(cache_hit=True)

    @property
    def n_resumed(self) -> int:
        return self._count(resumed=True)

    def summary(self) -> str:
        return (
            f"campaign {self.campaign!r}: {self.n_runs} runs, "
            f"{self.n_ok} ok, {self.n_failed} failed, "
            f"{self.n_cache_hits} cache hits, {self.n_resumed} resumed, "
            f"{self.wall_time_s:.2f}s wall with {self.jobs} job(s)"
        )


def _worker_init(log_level: int | None, blas_limit: int | None) -> None:
    global _WORKER_BLAS_LIMIT, _WORKER_BLAS_METHOD
    if log_level is not None:
        enable_console_logging(log_level)
    if blas_limit is not None:
        _WORKER_BLAS_LIMIT = blas_limit
        _WORKER_BLAS_METHOD = limit_blas_threads(blas_limit)


class _InProcessExecutor(Executor):
    """Executor whose ``submit`` runs the call at once, in this process.

    Serial campaigns dispatch through it, so they share the pooled
    path's retries, backoff, budget and finalization while starting no
    process.  Its futures are finished when ``submit`` returns, so no
    deadline can interrupt a run.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 -- delivered via the future
            future.set_exception(exc)
        return future


def _dispatch(
    todo: list[ScenarioSpec],
    policy: RetryPolicy,
    max_workers: int,
    new_executor,
    args_of,
    budget_ok,
    note_retry,
    finalize,
    failed_record,
) -> None:
    """The campaign's one dispatch engine: deadlines, crash recovery, backoff.

    ``new_executor()`` returns the executor the scenarios run on: a
    process pool, or :class:`_InProcessExecutor` for a serial campaign.
    At most ``max_workers`` scenarios are in flight, so a deadline only
    runs while its scenario does, and a serial campaign records each
    run as it finishes.  Three failure channels are distinguished:

    * an *in-worker* exception returns a ``status="failed"`` record
      (``execute_scenario`` never raises) -- retried per the policy;
    * a *worker crash* (the process died: OOM kill, segfault, injected
      ``os._exit``) surfaces as :class:`BrokenProcessPool` on every
      in-flight future.  Futures that already carry results are
      salvaged, the pool is respawned, and each lost scenario is
      requeued once more than ``max_retries`` allows for plain failures
      (``error_code="worker_crash"`` when the allowance is exhausted);
    * a *wall-clock timeout* (``policy.timeout_s``): the pool offers no
      per-task kill, so the whole pool is respawned; innocent in-flight
      scenarios resubmit at the same attempt, the expired scenario is
      requeued (``error_code="stage_timeout"`` once its allowance is
      exhausted).

    Retries re-enter through a ``waiting`` queue ordered by their
    deterministic backoff due-times, ahead of scenarios not yet started,
    so the schedule is a pure function of run ids and attempt numbers.
    """
    pool = new_executor()
    fresh = deque(todo)
    pending: dict = {}  # future -> (scenario, attempt, deadline)
    waiting: list[tuple[float, ScenarioSpec, int]] = []  # (due, ...)
    timeout_counts: dict[str, int] = {}
    crash_counts: dict[str, int] = {}
    # Crashes and timeouts are external events, not model divergence:
    # even a no-retry policy grants them one requeue.
    requeue_allowance = max(1, policy.max_retries)

    def _submit(scenario: ScenarioSpec, attempt: int) -> None:
        deadline = (
            time.monotonic() + policy.timeout_s
            if policy.timeout_s is not None
            else None
        )
        future = pool.submit(execute_scenario, *args_of(scenario, attempt))
        pending[future] = (scenario, attempt, deadline)

    def _fill() -> None:
        while len(pending) < max_workers:
            now = time.monotonic()
            due = [i for i, item in enumerate(waiting) if item[0] <= now]
            if due:
                _due, scenario, attempt = waiting.pop(due[0])
                _submit(scenario, attempt)
            elif fresh:
                _submit(fresh.popleft(), 0)
            else:
                return

    def _respawn() -> None:
        nonlocal pool
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 -- already-dead processes
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        pool = new_executor()

    def _requeue_or_fail(
        scenario: ScenarioSpec, attempt: int, error_code: str,
        message: str, counter: str, counts: dict[str, int],
    ) -> None:
        run_id = scenario.run_id
        counts[run_id] = counts.get(run_id, 0) + 1
        if counts[run_id] <= requeue_allowance and budget_ok():
            backoff = policy.backoff_s(run_id, attempt + 1)
            note_retry(
                run_id, attempt, error_code, message, "campaign", backoff
            )
            obs.incr(counter)
            waiting.append(
                (time.monotonic() + backoff, scenario, attempt + 1)
            )
            _LOG.warning(
                "run %s: %s; requeued with %.2fs backoff",
                run_id, message, backoff,
            )
        else:
            finalize(
                failed_record(scenario, attempt, error_code, message),
                None, attempt,
            )

    def _handle_result(
        scenario: ScenarioSpec, attempt: int, record: dict, model
    ) -> None:
        if (
            record["status"] == "failed"
            and attempt < policy.max_retries
            and budget_ok()
        ):
            backoff = policy.backoff_s(scenario.run_id, attempt + 1)
            note_retry(
                scenario.run_id, attempt, record.get("error_code"),
                record.get("error"), record.get("failed_stage"), backoff,
            )
            waiting.append(
                (time.monotonic() + backoff, scenario, attempt + 1)
            )
            _LOG.warning(
                "run %s: attempt %d failed [%s]; requeued in %.2fs",
                scenario.run_id, attempt + 1,
                record.get("error_code"), backoff,
            )
        else:
            finalize(record, model, attempt)

    try:
        while pending or waiting or fresh:
            _fill()
            if not pending:
                # Everything is backing off; sleep until the next retry.
                next_due = min(item[0] for item in waiting)
                time.sleep(max(0.0, next_due - time.monotonic()))
                continue
            now = time.monotonic()
            candidates = [
                deadline - now
                for (_, _, deadline) in pending.values()
                if deadline is not None
            ]
            if waiting and len(pending) < max_workers:
                candidates.append(min(item[0] for item in waiting) - now)
            timeout = max(0.0, min(candidates)) if candidates else None
            done, _ = wait(
                list(pending), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )

            crash_victims: list[tuple[ScenarioSpec, int]] = []
            # Submission order, so simultaneous completions finalize
            # deterministically.
            for future in [f for f in pending if f in done]:
                scenario, attempt, _deadline = pending.pop(future)
                try:
                    record, model = future.result()
                except BrokenProcessPool:
                    crash_victims.append((scenario, attempt))
                    continue
                except Exception as exc:  # noqa: BLE001 -- dispatch error
                    record = failed_record(
                        scenario, attempt, error_code_of(exc),
                        f"dispatch failed: {exc!r}",
                    )
                    _handle_result(scenario, attempt, record, None)
                    continue
                _handle_result(scenario, attempt, record, model)
            if crash_victims:
                # The pool is broken; every other in-flight future is
                # lost too.  Salvage completed results, requeue the rest.
                for future in list(pending):
                    scenario, attempt, _deadline = pending.pop(future)
                    if future.done() and future.exception() is None:
                        record, model = future.result()
                        _handle_result(scenario, attempt, record, model)
                    else:
                        crash_victims.append((scenario, attempt))
                _respawn()
                obs.incr("campaign.worker_crashes", len(crash_victims))
                for scenario, attempt in crash_victims:
                    _requeue_or_fail(
                        scenario, attempt, "worker_crash",
                        "worker process crashed",
                        "retry.requeued_after_crash", crash_counts,
                    )
                continue

            if policy.timeout_s is None:
                continue
            now = time.monotonic()
            victims = [
                (future, scenario, attempt)
                for future, (scenario, attempt, deadline) in pending.items()
                if deadline is not None and deadline <= now
            ]
            if not victims:
                continue
            victim_futures = {future for future, _, _ in victims}
            survivors = [
                (scenario, attempt)
                for future, (scenario, attempt, _d) in pending.items()
                if future not in victim_futures
            ]
            pending.clear()
            _respawn()
            obs.incr("retry.timeouts", len(victims))
            for scenario, attempt in survivors:
                _submit(scenario, attempt)
            for _future, scenario, attempt in victims:
                _requeue_or_fail(
                    scenario, attempt, "stage_timeout",
                    f"scenario exceeded the {policy.timeout_s:g}s "
                    "wall-clock budget",
                    "retry.requeued_after_timeout", timeout_counts,
                )
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _standard_fit_key(scenario: ScenarioSpec) -> tuple:
    """Fingerprint of a scenario's standard vector fit.

    For synthetic scenarios the scattering data depends only on the PDN
    size and the frequency grid (termination knobs perturb the loading,
    not the planes; see :func:`repro.pdn.testcase.make_variant_testcase`);
    for external scenarios it depends on the data file and the
    conditioning knobs.  The standard fit additionally depends only on
    the VF configuration.
    """
    if scenario.data_file is not None:
        return (
            "data",
            scenario.data_file,
            scenario.data_z0,
            scenario.data_dc_policy,
            scenario.data_f_min,
            scenario.data_f_max,
            scenario.data_max_points,
            scenario.data_symmetrize,
            scenario.n_poles,
            scenario.vf_kernel,
        )
    return (
        "pdn",
        scenario.size,
        scenario.n_frequencies,
        scenario.include_dc,
        scenario.n_poles,
        scenario.vf_kernel,
    )


def _nominal_testcase(scenario: ScenarioSpec):
    """The prefit group's shared base: the scenario with nominal loading.

    Loading knobs never touch the scattering data, so any member stripped
    of them materializes the group's common data (and, for synthetic
    cases, the nominal termination the per-member perturbations start
    from).  Stripping also drops what only fails one member's own build
    (a bad termination spec or observe port, a synthetic member's stray
    external knobs), so one bad member cannot fail its whole group.
    """
    nominal = dict(decap_c_scale=1.0, decap_esr_scale=1.0, vrm_resistance=None,
                   total_die_current=None, termination_spec=None,
                   observe_port=None)
    if scenario.data_file is None:
        nominal.update(EXTERNAL_DEFAULTS)
    return replace(scenario, **nominal).build_testcase()


def _group_bases(scenarios: list[ScenarioSpec]) -> dict[tuple, object]:
    """Each data group's base testcase, built once, keyed by standard fit.

    A group whose base cannot be built (e.g. a missing data file) maps to
    ``None``, so the failure stays isolated to its own scenarios.
    """
    bases: dict[tuple, object] = {}
    for scenario in scenarios:
        key = _standard_fit_key(scenario)
        if key in bases:
            continue
        try:
            bases[key] = _nominal_testcase(scenario)
        except Exception as exc:  # noqa: BLE001 -- isolate to the group
            bases[key] = None
            _LOG.warning(
                "group %s: cannot build its data (%s); its scenarios "
                "will run (and fail) individually", key, exc,
            )
    return bases


def _member_run(
    scenario: ScenarioSpec, base, data_digest: str | None
) -> tuple[str, PDNTestCase] | None:
    """A member's whole-run key and test case, derived from its group's base
    and the digest of the base's data.

    Loading knobs never touch the group's data, so this is the member's
    own test case without a build of its own.  ``None`` for a member
    whose own build would fail (no base, an invalid termination spec,
    stray external knobs on a synthetic case): it is neither served nor
    stored, and execute_scenario builds it and reports the failure.
    """
    if base is None or (
        scenario.data_file is None and scenario._stray_external_fields()
    ):
        return None
    try:
        if scenario.data_file is not None:
            # Resolved per member: the base was built from another member.
            nominal = scenario.external_termination(
                base.data.n_ports, default_z0=base.data.z0
            )
            observe_port = scenario.external_observe_port
        else:
            nominal = base.termination
            observe_port = scenario.resolve_observe_port(base)
        termination = perturb_termination(
            nominal,
            decap_c_scale=scenario.decap_c_scale,
            decap_esr_scale=scenario.decap_esr_scale,
            vrm_resistance=scenario.vrm_resistance,
            total_die_current=scenario.total_die_current,
        )
        key = _run_key(data_digest, termination, observe_port, scenario.config())
    except Exception:  # noqa: BLE001 -- a lookup must never abort the run
        return None
    return key, replace(base, termination=termination, observe_port=observe_port)


def _served_run(
    scenario: ScenarioSpec, key: str, base, store: ArtifactStore
) -> tuple[dict, PoleResidueModel] | None:
    """A stored whole run as a finished record, built in-process; ``None`` on a miss."""
    started = time.perf_counter()
    cached = store.get(key)
    if cached is None:
        return None
    # Served in the dispatcher, which is never BLAS-capped and fits nothing.
    record = _new_record(
        scenario, 0, status="ok", cache_hit=True, cache_key=key, attempts=1,
        metrics=cached["record"].get("metrics"),
        accuracy_table=cached["record"].get("accuracy_table"),
        environment={"blas_thread_limit": None, "blas_limit_method": None,
                     "shared_standard_fit": False},
    )
    if base.ingest is not None:
        record["ingest"] = base.ingest.to_dict()
    elapsed = time.perf_counter() - started
    record["timings"] = {"testcase_s": 0.0, "flow_s": 0.0, "total_s": elapsed}
    record["duration_s"] = elapsed
    _LOG.info("run %s: cache hit (%s)", scenario.run_id, key[:12])
    return record, cached["model"]


def _shared_standard_fits(
    scenarios: list[ScenarioSpec],
    store: ArtifactStore | None = None,
    bases: dict[tuple, object] | None = None,
) -> dict[tuple, VFResult]:
    """One standard fit per group of scenarios sharing scattering data.

    ``scenarios`` are the cache misses; only groups with at least two of
    them are prefit (a singleton gains nothing from precomputation), from
    ``bases`` (see :func:`_group_bases`) when the dispatcher built them.
    Groups sharing a frequency grid and VF configuration -- e.g. several
    PDN sizes swept together, or external data files exported on one
    grid -- are fitted in a single :func:`fit_many` call, which
    amortizes grid validation, starting poles and iteration-0 basis
    assembly across them.

    ``store`` also receives each prefit under
    :class:`~repro.api.stages.StandardFitStage`'s content key, so worker
    pipelines consume them as ordinary stage cache hits instead of
    pickled arguments.
    """
    members_of: dict[tuple, list[ScenarioSpec]] = {}
    for scenario in scenarios:
        members_of.setdefault(_standard_fit_key(scenario), []).append(scenario)
    shared = [members[0] for members in members_of.values() if len(members) > 1]
    if not shared:
        return {}
    built = _group_bases(shared) if bases is None else bases
    bases = {key: built[key] for key in map(_standard_fit_key, shared)
             if built.get(key) is not None}

    # Batch groups that share a frequency grid and VF configuration into
    # one fit_many call; the grid itself is the batch discriminator, so
    # synthetic sizes and external files mix freely when grids coincide.
    batches: dict[tuple, list[tuple]] = {}
    for key, base in bases.items():
        n_poles, vf_kernel = key[-2], key[-1]
        grid_token = base.data.omega.tobytes()
        batches.setdefault((n_poles, vf_kernel, grid_token), []).append(key)

    prefits: dict[tuple, VFResult] = {}
    for (n_poles, vf_kernel, _), keys in batches.items():
        datasets = [bases[key].data for key in keys]
        obs.incr("campaign.prefit_groups", len(keys))
        with obs.span("campaign:prefit", n_groups=len(keys)):
            results = fit_many(
                datasets[0].omega,
                [data.samples for data in datasets],
                options=VFOptions(n_poles=n_poles, kernel=vf_kernel),
            )
        obs.incr("campaign.prefit_fits", len(results))
        for key, result in zip(keys, results):
            prefits[key] = result
        _LOG.info(
            "shared standard fits: %d group(s) at order %d "
            "(%d points, kernel=%s)",
            len(keys), n_poles, datasets[0].n_frequencies, vf_kernel,
        )

    if store is not None and prefits:
        stage = StandardFitStage()
        for key, fit in prefits.items():
            stage_key = stage.result_key(
                members_of[key][0].config(), {"network": bases[key].data}
            )
            store.put(stage_key, {"standard_fit": fit})
        _LOG.info(
            "shared standard fits: %d published to the store",
            len(prefits),
        )
    return prefits


def run_campaign(
    spec: CampaignSpec | list[ScenarioSpec],
    *,
    registry: CampaignRegistry | None = None,
    cache: ArtifactStore | str | Path | None = None,
    scenarios: list[ScenarioSpec] | None = None,
    jobs: int = 1,
    resume: bool = False,
    worker_log_level: int | None = None,
    name: str | None = None,
    share_fits: bool = True,
    blas_threads: int | None = None,
    telemetry_dir: str | None = None,
    retry: RetryPolicy | None = None,
    retry_failed: bool = False,
) -> CampaignResult:
    """Execute a campaign: expand, (optionally) resume, dispatch, record.

    Parameters
    ----------
    spec:
        A :class:`CampaignSpec` (expanded here) or a pre-built scenario
        list.
    scenarios:
        Optional pre-expanded (e.g. filtered) scenario subset; when given
        it is executed instead of ``spec.expand()`` while the manifest
        still records the full spec.
    registry:
        Result store; run records, model artifacts and the manifest are
        written as results arrive.  ``None`` disables persistence.
    cache:
        The campaign's content-addressed store (an on-disk
        :class:`~repro.api.artifacts.ArtifactStore` or its directory):
        whole runs and shared standard fits live there.  ``None``
        disables caching.
    jobs:
        Worker processes.  ``1``, or a campaign with a single scenario
        to compute, runs serially in-process: no process starts and BLAS
        stays uncapped.  ``>1`` uses a process pool.  Both go through
        one dispatcher, so retries, backoff and the retry budget behave
        the same; a serial campaign runs one scenario at a time, a due
        retry before the next scenario not yet started.
    resume:
        Skip scenarios whose run ID already has a successful record in the
        registry; their stored records are returned with ``resumed=True``.
    worker_log_level:
        When set, worker processes attach a console log handler at this
        level so per-run progress survives process boundaries.
    share_fits:
        Precompute one standard vector fit per group of scenarios that
        share scattering data and VF configuration (termination sweeps),
        instead of refitting it in every worker.
    blas_threads:
        Per-worker BLAS/OpenMP thread budget for pooled execution;
        default ``cpu_count // jobs``.  Serial runs are never capped.
    telemetry_dir:
        When set, each scenario records a telemetry session (sidecar
        ``events-*.jsonl`` per worker process, summary merged into its
        registry record) and the dispatcher writes campaign-level
        ``run_metrics.json`` + ``metrics.prom`` into this directory.
    retry:
        Retry/timeout policy (:class:`~repro.resilience.RetryPolicy`);
        ``None`` runs every scenario once with no wall-clock budget.
        Backoff delays are deterministic functions of the run id and
        attempt number, never of wall clock or RNG.  ``timeout_s`` can
        only stop a pooled run (by respawning the pool): an in-process
        run cannot be killed and always runs to completion.
    retry_failed:
        Resume mode that re-runs *only* the scenarios whose registry
        records failed; successful records are returned as resumed and
        scenarios with no record at all are skipped.  Requires
        ``registry``.
    """
    run = partial(
        _run_campaign_impl, spec, registry=registry, cache=cache,
        scenarios=scenarios, jobs=jobs, resume=resume,
        worker_log_level=worker_log_level, name=name, share_fits=share_fits,
        blas_threads=blas_threads, telemetry_dir=telemetry_dir, retry=retry,
        retry_failed=retry_failed,
    )
    if telemetry_dir is not None:
        with telemetry_session(
            telemetry_dir, label="campaign", kind="campaign",
            write_metrics=False,
        ) as tel:
            result = run()
            runs = [
                {
                    "run_id": record.get("run_id"),
                    "seconds": record.get("duration_s"),
                    "snapshot": record.get("telemetry"),
                }
                for record in result.records
            ]
            failures = [
                {
                    "run_id": record.get("run_id"),
                    "error_code": record.get("error_code"),
                    "failed_stage": record.get("failed_stage"),
                    "attempts": record.get("attempts", 1),
                }
                for record in result.records
                if record.get("status") == "failed"
            ]
            payload = build_campaign_metrics(
                tel, runs,
                extra={"campaign": result.campaign,
                       "wall_time_s": result.wall_time_s,
                       "failures": failures},
            )
            write_metrics_files(
                telemetry_dir, tel, kind="campaign", payload=payload
            )
        return result
    return run()


def _run_campaign_impl(
    spec: CampaignSpec | list[ScenarioSpec],
    *,
    registry: CampaignRegistry | None = None,
    cache: ArtifactStore | str | Path | None = None,
    scenarios: list[ScenarioSpec] | None = None,
    jobs: int = 1,
    resume: bool = False,
    worker_log_level: int | None = None,
    name: str | None = None,
    share_fits: bool = True,
    blas_threads: int | None = None,
    telemetry_dir: str | None = None,
    retry: RetryPolicy | None = None,
    retry_failed: bool = False,
) -> CampaignResult:
    if retry_failed and registry is None:
        raise ValueError("retry_failed requires a registry")  # reprolint: disable=error-taxonomy -- API-usage validation at dispatch time, not a scenario failure
    if isinstance(spec, CampaignSpec):
        campaign_name = name or spec.name
        if scenarios is None:
            scenarios = spec.expand()
        campaign_info = spec.to_dict()
    else:
        campaign_name = name or "campaign"
        scenarios = list(spec) if scenarios is None else list(scenarios)
        campaign_info = {"name": campaign_name, "ad_hoc": True}

    # Identical specs share a run ID; keep the first occurrence so the
    # registry never sees two writers for one run directory.
    unique: list[ScenarioSpec] = []
    seen: set[str] = set()
    for scenario in scenarios:
        run_id = scenario.run_id
        if run_id in seen:
            _LOG.info("dropping duplicate scenario %s", run_id)
            continue
        seen.add(run_id)
        unique.append(scenario)
    scenarios = unique

    store = None
    if cache is not None:
        store = cache if isinstance(cache, ArtifactStore) else ArtifactStore(cache)
        if store.root is None:
            # Workers open the store by path.
            raise ValueError("the campaign cache must be on disk")  # reprolint: disable=error-taxonomy -- API-usage validation at dispatch time, not a scenario failure
    store_dir = None if store is None else str(store.root)

    started = time.perf_counter()
    by_id: dict[str, dict] = {}

    todo = scenarios
    if retry_failed or (resume and registry is not None):
        # Successful records are served; retry_failed re-runs only the
        # failed ones and skips scenarios without a record.  An unreadable
        # record (None) was cut off mid-write, so it counts as failed.
        stored = registry.stored_records()
        todo = []
        for scenario in scenarios:
            record = stored.get(scenario.run_id, {})
            status = "failed" if record is None else record.get("status")
            if status == "ok":
                record["resumed"] = True
                by_id[scenario.run_id] = record
                _LOG.info("run %s: resumed from registry", scenario.run_id)
            elif not retry_failed or status == "failed":
                todo.append(scenario)
            else:
                _LOG.info(
                    "run %s: no record to retry, skipped", scenario.run_id
                )
        if retry_failed:
            _LOG.info("retry-failed: re-running %d failed run(s)", len(todo))

    def _finish(record: dict, model: PoleResidueModel | None) -> None:
        by_id[record["run_id"]] = record
        if registry is not None:
            registry.record_run(record, model)
        done = len(by_id)
        _LOG.info(
            "[%d/%d] %s: %s%s",
            done,
            len(scenarios),
            record["run_id"],
            record["status"],
            " (cache hit)" if record.get("cache_hit") else "",
        )

    # One lookup pass keys every scenario from its data group's base (built
    # once) and serves the stored runs.  Only the misses go on to
    # prefits/workers, with their test cases; their keys store the results.
    bases: dict[tuple, object] | None = None
    prepared: dict[str, tuple[str, PDNTestCase]] = {}
    if store is not None and todo:
        misses: list[ScenarioSpec] = []
        with obs.span("campaign:lookup", n_scenarios=len(todo)):
            bases = _group_bases(todo)
            digests = {group: artifact_digest(base.data)
                       for group, base in bases.items() if base is not None}
            for scenario in todo:
                group = _standard_fit_key(scenario)
                base = bases.get(group)
                member = _member_run(scenario, base, digests.get(group))
                hit = _served_run(scenario, member[0], base, store) if member else None
                if hit is not None:
                    _finish(*hit)
                    continue
                misses.append(scenario)
                if member is not None:
                    prepared[scenario.run_id] = member
        todo = misses

    prefits: dict[tuple, VFResult] = {}
    if share_fits and len(todo) > 1:
        prefit_start = time.perf_counter()
        prefits = _shared_standard_fits(todo, store, bases)
        if prefits:
            _LOG.info(
                "shared standard fits: %d computed in %.2fs",
                len(prefits),
                time.perf_counter() - prefit_start,
            )

    def _args(scenario: ScenarioSpec, attempt: int) -> tuple:
        # Store-published prefits reach workers as stage cache hits; only
        # store-less campaigns ship the fit object by value.
        prefit = None if store is not None else prefits.get(_standard_fit_key(scenario))
        _key, testcase = prepared.get(scenario.run_id, (None, None))
        return scenario, store_dir, prefit, telemetry_dir, attempt, testcase

    # ------------------------------------------------------------------
    # Retry bookkeeping of the dispatcher.
    # ------------------------------------------------------------------
    policy = retry or RetryPolicy()
    budget_left = [policy.retry_budget]  # None = unlimited

    def _budget_ok() -> bool:
        return budget_left[0] is None or budget_left[0] > 0

    attempt_log: dict[str, list[dict]] = {}

    def _note_retry(
        run_id: str, attempt: int, error_code: str | None,
        error: str | None, failed_stage: str | None, backoff: float,
    ) -> None:
        attempt_log.setdefault(run_id, []).append({
            "attempt": attempt,
            "error_code": error_code,
            "error": error,
            "failed_stage": failed_stage,
            "backoff_s": backoff,
        })
        obs.incr("retry.attempts")
        if budget_left[0] is not None:
            budget_left[0] -= 1

    def _finalize(
        record: dict, model: PoleResidueModel | None, attempt: int
    ) -> None:
        key, _testcase = prepared.get(record["run_id"], (None, None))
        if key is not None and record["status"] == "ok":
            # Stored as the worker computed it, minus per-execution fields.
            record["cache_key"] = key
            stored = {k: v for k, v in record.items()
                      if k not in ("telemetry", "duration_s")}
            store.put(key, {"model": model, "record": stored})
        record["attempts"] = attempt + 1
        log = attempt_log.get(record["run_id"])
        if log:
            record["retries"] = log
            if record["status"] == "ok":
                obs.incr("retry.recovered")
        _finish(record, model)

    def _failed_record(
        scenario: ScenarioSpec, attempt: int, error_code: str,
        message: str,
    ) -> dict:
        """Dispatcher-synthesized record for a run that never returned
        (worker crash, wall-clock timeout)."""
        return _new_record(
            scenario, attempt, error=message, error_code=error_code,
            failed_stage="campaign", duration_s=None,
        )

    active_tel = obs.active()
    new_executor: Callable[[], Executor]
    if jobs <= 1 or len(todo) <= 1:
        max_workers = 1
        new_executor = _InProcessExecutor
        blas_meta = {"jobs": jobs, "blas_threads": None, "method": "uncapped"}
    else:
        max_workers = min(jobs, len(todo))
        worker_blas = (
            blas_threads if blas_threads is not None
            else default_blas_threads(max_workers)
        )
        new_executor = partial(
            ProcessPoolExecutor, max_workers=max_workers,
            initializer=_worker_init, initargs=(worker_log_level, worker_blas),
        )
        blas_meta = {"jobs": max_workers, "blas_threads": worker_blas,
                     "method": "worker-init"}
    if active_tel is not None:
        active_tel.meta.setdefault("blas", blas_meta)
    _dispatch(
        todo, policy, max_workers, new_executor,
        _args, _budget_ok, _note_retry, _finalize, _failed_record,
    )

    records = [
        by_id[scenario.run_id]
        for scenario in scenarios
        if scenario.run_id in by_id
    ]
    result = CampaignResult(
        campaign=campaign_name,
        records=records,
        wall_time_s=time.perf_counter() - started,
        jobs=jobs,
    )
    if registry is not None:
        campaign_info = dict(campaign_info)
        campaign_info.update(
            jobs=jobs,
            resume=resume,
            share_fits=share_fits,
            blas_threads=blas_threads,
            retry=policy.to_dict(),
            retry_failed=retry_failed,
        )
        registry.write_manifest(campaign_info, records)
    _LOG.info("%s", result.summary())
    return result
