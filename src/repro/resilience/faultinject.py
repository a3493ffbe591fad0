"""Deterministic fault injection for resilience testing.

A *fault plan* is a list of :class:`FaultSpec` entries, each arming one
named instrumentation site (``"scenario.run"``, ``"qp.structured"``,
``"enforce.step"``, ``"vf.relocate_batched"``, ``"vf.residues_batched"``)
to misbehave on its k-th call: raise, poison the payload with NaNs, scale
it, stall, hang, or kill the process.  Sites are
instrumented with :func:`check` (count the call, return the armed action)
and :func:`corrupt` (apply array-poisoning actions in place of the clean
value).

Activation crosses process boundaries: :func:`activate` (or the
:class:`fault_plan` context manager) stores the plan both in this module
and in the ``REPRO_FAULT_PLAN`` environment variable as JSON, so campaign
worker processes -- forked or spawned after activation -- replay the same
plan.  Call counts are per-process and per-site, which keeps plans
deterministic under the process pool: a respawned worker starts counting
from zero again, so specs that must fire only on the first *scenario
attempt* pin ``attempt=0`` (the executor publishes the current attempt
via :func:`set_attempt`) and specs that must hit one scenario of a
campaign pin ``scenario`` to a run-id substring (published via
:func:`set_scenario`).

When no plan is active every hook is a module attribute load plus a
``None`` check -- the production hot paths pay essentially nothing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.resilience.errors import ReproError

__all__ = [
    "ENV_PLAN",
    "FaultSpec",
    "InjectedFault",
    "activate",
    "check",
    "corrupt",
    "fault_plan",
    "plan_active",
    "reset_counters",
    "set_attempt",
    "set_scenario",
]

#: Environment variable carrying the JSON-encoded plan into workers.
ENV_PLAN = "REPRO_FAULT_PLAN"

_ACTIONS = ("raise", "nan", "scale", "stall", "hang", "exit")

#: Exit status of ``action="exit"`` workers; distinct from common codes
#: so a crash test can assert the kill was the injected one.
_EXIT_STATUS = 23


class InjectedFault(ReproError):
    """The exception raised by ``action="raise"`` faults."""

    error_code = "injected_fault"


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault.

    Parameters
    ----------
    site:
        Instrumentation site name the fault applies to.
    action:
        ``"raise"`` (raise :class:`InjectedFault`), ``"nan"`` (poison
        the site's payload array), ``"scale"`` (multiply the payload by
        ``factor``), ``"stall"`` (report a solver stall: the site
        returns its no-solution sentinel), ``"hang"`` (sleep
        ``seconds``), ``"exit"`` (kill the process with ``os._exit``).
    index / count:
        Fire on calls ``index .. index+count-1`` at the site (per
        process, 0-based).
    attempt:
        When set, fire only while the executor-published scenario
        attempt equals this value (lets retries succeed).
    scenario:
        When set, fire only while the executor-published run id
        contains this substring (targets one scenario of a campaign).
    seconds:
        Sleep duration of ``"hang"``.
    factor:
        Multiplier of ``"scale"``.
    """

    site: str
    action: str = "raise"
    index: int = 0
    count: int = 1
    attempt: int | None = None
    scenario: str | None = None
    seconds: float = 3600.0
    factor: float = 8.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.index < 0 or self.count < 1:
            raise ValueError("index must be >= 0 and count >= 1")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(**payload)


_UNSET = object()
#: The resolved plan: _UNSET until first use, then list[FaultSpec] | None.
_PLAN = _UNSET
_CALLS: dict[str, int] = {}
_ATTEMPT = 0
_SCENARIO: str | None = None


def _resolve_plan():
    """Resolve the plan from the environment on first use (workers under
    a ``spawn`` start method import this module fresh)."""
    global _PLAN
    if _PLAN is _UNSET:
        raw = os.environ.get(ENV_PLAN)
        if raw:
            _PLAN = [FaultSpec.from_dict(d) for d in json.loads(raw)]
        else:
            _PLAN = None
    return _PLAN


def plan_active() -> bool:
    """Whether any fault plan is armed in this process."""
    return bool(_resolve_plan())


def activate(specs=None) -> None:
    """Arm ``specs`` (an iterable of :class:`FaultSpec`), or disarm with
    ``None``.  The plan is mirrored into :data:`ENV_PLAN` so processes
    started afterwards inherit it."""
    global _PLAN
    _CALLS.clear()
    if specs is None:
        _PLAN = None
        os.environ.pop(ENV_PLAN, None)
        return
    plan = [
        spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
        for spec in specs
    ]
    _PLAN = plan
    os.environ[ENV_PLAN] = json.dumps([spec.to_dict() for spec in plan])


def reset_counters() -> None:
    """Zero the per-site call counters (between test phases)."""
    _CALLS.clear()


def set_attempt(attempt: int) -> None:
    """Publish the current scenario attempt (see :attr:`FaultSpec.attempt`)."""
    global _ATTEMPT
    _ATTEMPT = int(attempt)


def set_scenario(run_id: str | None) -> None:
    """Publish the current run id (see :attr:`FaultSpec.scenario`)."""
    global _SCENARIO
    _SCENARIO = run_id


class fault_plan:
    """Context manager arming a plan for the dynamic extent (tests)."""

    def __init__(self, *specs: FaultSpec) -> None:
        self.specs = specs
        self._saved_env: str | None = None

    def __enter__(self) -> "fault_plan":
        self._saved_env = os.environ.get(ENV_PLAN)
        activate(self.specs)
        return self

    def __exit__(self, *exc: object) -> bool:
        activate(None)
        if self._saved_env is not None:
            os.environ[ENV_PLAN] = self._saved_env
            reset_counters()
            global _PLAN
            _PLAN = _UNSET
        return False


def check(site: str) -> str | None:
    """Count one call at ``site``; apply and report the armed action.

    Returns ``None`` (no fault), or the action string for actions the
    call site must apply itself (``"nan"``, ``"scale"``, ``"stall"``).
    ``"raise"`` raises :class:`InjectedFault` here; ``"hang"`` sleeps
    here; ``"exit"`` never returns.
    """
    plan = _PLAN
    if plan is _UNSET:
        plan = _resolve_plan()
    if plan is None:
        return None
    k = _CALLS.get(site, 0)
    _CALLS[site] = k + 1
    for spec in plan:
        if spec.site != site:
            continue
        if spec.attempt is not None and spec.attempt != _ATTEMPT:
            continue
        if spec.scenario is not None and (
            _SCENARIO is None or spec.scenario not in _SCENARIO
        ):
            continue
        if not (spec.index <= k < spec.index + spec.count):
            continue
        if spec.action == "raise":
            raise InjectedFault(
                f"injected fault at {site} (call {k})", stage=site
            )
        if spec.action == "hang":
            time.sleep(spec.seconds)
            return None
        if spec.action == "exit":
            os._exit(_EXIT_STATUS)
        return spec.action
    return None


def corrupt(site: str, value: np.ndarray) -> np.ndarray:
    """``value``, or a poisoned copy when an array fault is armed.

    ``"nan"`` replaces every entry with NaN; ``"scale"`` multiplies by
    the spec's ``factor``.  Non-array actions raised/applied inside
    :func:`check` behave as there.
    """
    action = check(site)
    if action == "nan":
        return np.full_like(np.asarray(value), np.nan)
    if action == "scale":
        plan = _PLAN if _PLAN is not _UNSET else _resolve_plan()
        factor = next(
            (s.factor for s in plan or () if s.site == site), 8.0
        )
        return np.asarray(value) * factor
    return value
