"""The pipeline runner: typed stage graph, store-backed execution, events.

A :class:`Pipeline` is an ordered list of
:class:`~repro.api.stages.PipelineStage` objects validated as a graph:
every artifact has exactly one producer, and every stage's inputs must be
satisfied by an earlier stage or by the run's *seed* artifacts.  Running
a pipeline walks the stages in order; for each stage it either

* **seeds** -- all declared outputs were provided by the caller (e.g. a
  precomputed standard fit shipped by the campaign dispatcher), so the
  stage is skipped;
* **loads** -- a content-addressed :class:`~repro.api.artifacts.
  ArtifactStore` already holds the stage's outputs under its
  :meth:`~repro.api.stages.PipelineStage.result_key` (resume, or another
  scenario already did this work);
* **computes** -- runs the stage and stores the outputs.

Every decision is recorded as a :class:`StageExecution` (status, wall
time, store key), which is the provenance surfaced in ``FlowResult``
summaries and campaign records.  Observers receive
``on_stage_start``/``on_stage_finish`` callbacks -- the structured
replacement for ad-hoc ``--profile`` plumbing.

Pipelines are immutable and composable: :meth:`Pipeline.with_stage`
inserts a custom stage relative to an existing one and
:meth:`Pipeline.replace_stage` swaps an implementation (e.g. an
alternative weighting law), each returning a new validated pipeline.

:meth:`Pipeline.run_key` keys a *whole* run the same way a stage result
is keyed: the campaign executor stores each scenario's passive model and
run record in the same store under it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api.artifacts import ArtifactStore, artifact_digest
from repro.api.config import ReproConfig
from repro.api.stages import PipelineStage, standard_stages
from repro.obs import telemetry as obs
from repro.resilience.guards import ensure_finite_outputs
from repro.util.logging import get_logger

_LOG = get_logger(__name__)

#: StageExecution.status values, in the order a stage tries them.
STATUS_SEEDED = "seeded"
STATUS_CACHED = "cached"
STATUS_COMPUTED = "computed"

_RUN_KEY_FORMAT = "repro.run-key/1"


def _checked_config(config: ReproConfig | None) -> ReproConfig:
    """The one config type a pipeline takes (``None`` = defaults)."""
    if config is None:
        return ReproConfig()
    if not isinstance(config, ReproConfig):
        raise TypeError(
            f"expected a ReproConfig or None, got {type(config).__name__}; "
            "wrap flow options as ReproConfig(flow=options)"
        )
    return config


@dataclass(frozen=True)
class StageExecution:
    """Provenance of one stage in one pipeline run."""

    stage: str
    status: str
    seconds: float
    key: str | None = None
    outputs: tuple[str, ...] = ()

    @property
    def cache_hit(self) -> bool:
        """True when no computation happened (seeded or store-served)."""
        return self.status != STATUS_COMPUTED

    def to_dict(self) -> dict:
        """JSON-compatible form (flow summaries, campaign records)."""
        return {
            "stage": self.stage,
            "status": self.status,
            "seconds": self.seconds,
            "cache_hit": self.cache_hit,
            "key": self.key,
            "outputs": list(self.outputs),
        }


class PipelineObserver:
    """Event hook base class; override any subset of the callbacks."""

    def on_stage_start(self, stage: PipelineStage) -> None:
        """Called immediately before a stage is resolved (any status)."""

    def on_stage_finish(
        self, stage: PipelineStage, execution: StageExecution
    ) -> None:
        """Called after a stage resolved, with its provenance record."""


class EventObserver(PipelineObserver):
    """Observer receiving stage callbacks as structured event dicts.

    The callback payloads are the same shapes the telemetry layer records
    (``{"event": "stage.start", "stage": name}`` and ``{"event":
    "stage.finish", **execution.to_dict()}``), so an observer written
    against :meth:`on_event` works identically over a live pipeline run
    and over a replayed ``events-*.jsonl`` telemetry stream.
    """

    def on_event(self, event: dict) -> None:
        """Receive one structured event; override in subclasses."""

    def on_stage_start(self, stage: PipelineStage) -> None:
        self.on_event({"event": "stage.start", "stage": stage.name})

    def on_stage_finish(
        self, stage: PipelineStage, execution: StageExecution
    ) -> None:
        self.on_event({"event": "stage.finish", **execution.to_dict()})


class ConsoleObserver(EventObserver):
    """Reports stage progress and timings (the CLI ``--profile`` surface).

    By default lines go through the package logger (``repro.api.pipeline``
    at INFO), so library embedders control them with standard logging
    configuration and nothing hits stdout unbidden.  Passing a ``stream``
    writes the same lines there instead -- the CLI passes ``sys.stdout``
    to keep ``--profile`` output visible without logging setup.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream

    def _emit_line(self, line: str) -> None:
        if self.stream is not None:
            print(line, file=self.stream)
        else:
            _LOG.info("%s", line)

    def on_event(self, event: dict) -> None:
        if event.get("event") == "stage.start":
            self._emit_line(f"stage {event['stage']}: running ...")
        elif event.get("event") == "stage.finish":
            self._emit_line(
                f"stage {event['stage']}: {event['status']} "
                f"in {event['seconds']:.3f}s"
            )


@dataclass(frozen=True)
class PipelineRun:
    """Everything one :meth:`Pipeline.run` produced."""

    artifacts: dict = field(repr=False)
    executions: tuple[StageExecution, ...] = ()

    def __getitem__(self, name: str):
        return self.artifacts[name]

    def __contains__(self, name: str) -> bool:
        return name in self.artifacts

    def timings(self) -> dict[str, float]:
        """Wall seconds per stage (zero for seeded/loaded stages)."""
        return {e.stage: e.seconds for e in self.executions}

    def provenance(self) -> list[dict]:
        """JSON-compatible per-stage execution records."""
        return [e.to_dict() for e in self.executions]


class Pipeline:
    """Immutable, validated sequence of stages executable as one flow."""

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        *,
        store: ArtifactStore | None = None,
        store_stages: Iterable[str] | None = None,
        observers: Iterable[PipelineObserver] = (),
    ) -> None:
        """``store_stages`` restricts which stages use the store (both
        lookup and write); ``None`` means every cacheable stage.  Callers
        that store whole runs under :meth:`run_key` (the campaign
        executor) use it to persist only the stages whose sharing they
        exploit, instead of double-writing every heavy artifact."""
        self.stages: tuple[PipelineStage, ...] = tuple(stages)
        self.store = store
        self.store_stages: frozenset[str] | None = (
            None if store_stages is None else frozenset(store_stages)
        )
        self.observers: tuple[PipelineObserver, ...] = tuple(observers)
        self._validate_graph()

    # ------------------------------------------------------------------
    # Graph validation and composition
    # ------------------------------------------------------------------
    def _validate_graph(self) -> None:
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")
        producer: dict[str, str] = {}
        names: set[str] = set()
        for stage in self.stages:
            if stage.name in names:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            names.add(stage.name)
            for spec in stage.outputs:
                if spec.name in producer:
                    raise ValueError(
                        f"artifact {spec.name!r} produced by both "
                        f"{producer[spec.name]!r} and {stage.name!r}"
                    )
                producer[spec.name] = stage.name

    def describe(self) -> str:
        """Human-readable stage graph (name, inputs -> outputs)."""
        lines = []
        for stage in self.stages:
            ins = ", ".join(s.name for s in stage.inputs) or "-"
            outs = ", ".join(s.name for s in stage.outputs)
            lines.append(f"{stage.name}: {ins} -> {outs}")
        return "\n".join(lines)

    def _index_of(self, name: str) -> int:
        for index, stage in enumerate(self.stages):
            if stage.name == name:
                return index
        raise ValueError(f"pipeline has no stage named {name!r}")

    def with_stage(
        self,
        stage: PipelineStage,
        *,
        after: str | None = None,
        before: str | None = None,
        store: ArtifactStore | None = None,
        observers: Iterable[PipelineObserver] | None = None,
    ) -> "Pipeline":
        """A new pipeline with ``stage`` inserted relative to an existing one.

        Exactly one of ``after``/``before`` selects the anchor; omitting
        both appends.  ``store``/``observers`` default to this pipeline's.
        """
        if after is not None and before is not None:
            raise ValueError("pass only one of 'after' and 'before'")
        stages = list(self.stages)
        if after is not None:
            stages.insert(self._index_of(after) + 1, stage)
        elif before is not None:
            stages.insert(self._index_of(before), stage)
        else:
            stages.append(stage)
        return Pipeline(
            stages,
            store=self.store if store is None else store,
            store_stages=self.store_stages,
            observers=self.observers if observers is None else observers,
        )

    def replace_stage(
        self, name: str, stage: PipelineStage
    ) -> "Pipeline":
        """A new pipeline with the named stage swapped for ``stage``."""
        stages = list(self.stages)
        stages[self._index_of(name)] = stage
        return Pipeline(
            stages, store=self.store, store_stages=self.store_stages,
            observers=self.observers,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_key(self, config: ReproConfig | None, seed: dict) -> str:
        """Content-addressed store key of a whole run of this pipeline.

        A SHA-256 over every stage's identity (name, concrete class,
        ``version``), the full configuration and the content digest of
        each seeded artifact.  Bumping any stage's ``version`` therefore
        retires every stored run that stage took part in, exactly as it
        retires the stage's own store entries.
        """
        return self.key_from_digests(
            config,
            {name: artifact_digest(value) for name, value in seed.items()},
        )

    def key_from_digests(self, config: ReproConfig | None, digests: dict[str, str]) -> str:
        """:meth:`run_key` from each seed artifact's :func:`artifact_digest`,
        for callers that key many runs sharing one (large) artifact."""
        payload = {
            "format": _RUN_KEY_FORMAT,
            "stages": [
                [stage.name,
                 f"{type(stage).__module__}.{type(stage).__qualname__}",
                 stage.version]
                for stage in self.stages
            ],
            "config": _checked_config(config).to_dict(),
            "seed": digests,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def run(
        self,
        config: ReproConfig | None = None,
        seed: dict | None = None,
        *,
        stop_after: str | None = None,
    ) -> PipelineRun:
        """Execute the stages; see the module docstring for semantics.

        Parameters
        ----------
        config:
            Unified configuration, or ``None`` for defaults.  A bare
            ``FlowOptions`` raises :class:`TypeError`; wrap it as
            ``ReproConfig(flow=options)``.
        seed:
            Pre-existing artifacts by name.  A stage whose *every* output
            is seeded is skipped; seeding only part of a stage's outputs
            is an error (the stage would recompute and shadow the seed).
        stop_after:
            Stop once the named stage resolved -- partial runs for
            prewarming or debugging; downstream artifacts stay absent.
        """
        config = _checked_config(config)
        if stop_after is not None:
            self._index_of(stop_after)  # fail fast on typos
        state: dict = dict(seed or {})
        executions: list[StageExecution] = []

        for stage in self.stages:
            out_names = [spec.name for spec in stage.outputs]
            seeded = [name for name in out_names if name in state]
            for observer in self.observers:
                observer.on_stage_start(stage)
            with obs.span(f"stage:{stage.name}"):
                started = time.perf_counter()
                if seeded and len(seeded) == len(out_names):
                    execution = StageExecution(
                        stage=stage.name, status=STATUS_SEEDED, seconds=0.0,
                        outputs=tuple(out_names),
                    )
                elif seeded:
                    raise ValueError(
                        f"stage {stage.name!r}: outputs {sorted(seeded)} are "
                        "seeded but "
                        f"{sorted(set(out_names) - set(seeded))} are not; "
                        "seed all of a stage's outputs or none"
                    )
                else:
                    missing = [
                        spec.name for spec in stage.inputs
                        if spec.name not in state
                    ]
                    if missing:
                        raise ValueError(
                            f"stage {stage.name!r} requires artifacts "
                            f"{sorted(missing)} which no earlier stage or "
                            "seed provides"
                        )
                    inputs = {
                        spec.name: state[spec.name] for spec in stage.inputs
                    }
                    for spec in stage.inputs:
                        spec.check(inputs[spec.name])
                    try:
                        execution, values = self._resolve(
                            stage, config, inputs, started
                        )
                    except Exception as exc:
                        # Tag the failing stage so campaign failure
                        # records can name it even for exceptions
                        # raised deep inside solver code.
                        if getattr(exc, "repro_stage", None) is None:
                            try:
                                exc.repro_stage = stage.name
                            except AttributeError:
                                pass  # slotted exception; keep original
                        raise
                    state.update(values)
            executions.append(execution)
            obs.incr(f"pipeline.stages_{execution.status}")
            obs.emit("stage.finish", **execution.to_dict())
            for observer in self.observers:
                observer.on_stage_finish(stage, execution)
            if stage.name == stop_after:
                break

        return PipelineRun(artifacts=state, executions=tuple(executions))

    def _resolve(
        self,
        stage: PipelineStage,
        config: ReproConfig,
        inputs: dict,
        started: float,
    ) -> tuple[StageExecution, dict]:
        """Load the stage's outputs from the store or compute (and store)."""
        out_names = [spec.name for spec in stage.outputs]
        key: str | None = None
        values: dict | None = None
        status = STATUS_COMPUTED
        store_this = (
            self.store is not None
            and stage.cacheable
            and (self.store_stages is None or stage.name in self.store_stages)
        )
        if store_this:
            key = stage.result_key(config, inputs)
            hit = self.store.get(key)
            if hit is not None and set(hit) >= set(out_names):
                values = {name: hit[name] for name in out_names}
                status = STATUS_CACHED
        if values is None:
            values = stage.run(config, inputs)
            missing = sorted(set(out_names) - set(values))
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} did not produce declared "
                    f"outputs {missing}"
                )
            for spec in stage.outputs:
                spec.check(values[spec.name])
            # Boundary guard *before* the store write: a stage emitting
            # NaN/Inf fails here with a typed error naming the stage,
            # and the poisoned artifacts never enter the cache.
            ensure_finite_outputs(
                stage.name, {name: values[name] for name in out_names}
            )
            if store_this and key is not None:
                self.store.put(key, {name: values[name] for name in out_names})
        values = {name: values[name] for name in out_names}
        seconds = time.perf_counter() - started
        if status == STATUS_CACHED:
            _LOG.info("stage %s: store hit (%s)", stage.name, key[:12])
        execution = StageExecution(
            stage=stage.name, status=status, seconds=seconds,
            key=key, outputs=tuple(out_names),
        )
        return execution, values


def standard_pipeline(
    *,
    store: ArtifactStore | None = None,
    store_stages: Iterable[str] | None = None,
    observers: Iterable[PipelineObserver] = (),
) -> Pipeline:
    """The paper's five-step flow over in-memory data.

    Seed ``network``/``termination``/``observe_port`` (and optionally a
    precomputed ``standard_fit``) when running it; use
    :func:`file_pipeline` to start from a Touchstone file instead.
    """
    return Pipeline(
        standard_stages(), store=store, store_stages=store_stages,
        observers=observers,
    )


def file_pipeline(
    source,
    termination: str | None = None,
    observe_port: int = 0,
    *,
    store: ArtifactStore | None = None,
    store_stages: Iterable[str] | None = None,
    observers: Iterable[PipelineObserver] = (),
) -> Pipeline:
    """Ingest stage + the standard flow: Touchstone file to passive model."""
    from repro.api.stages import IngestStage

    return Pipeline(
        (IngestStage(source, termination, observe_port), *standard_stages()),
        store=store,
        store_stages=store_stages,
        observers=observers,
    )
