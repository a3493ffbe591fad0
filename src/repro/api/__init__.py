"""repro.api: the composable, embeddable pipeline engine.

This package turns the paper's fixed five-step chain (fit -> sensitivity
-> weighting -> enforcement -> validation) into a typed stage graph that
every execution surface shares -- ``repro.flow.run_flow``, the
``repro fit``/``flow`` CLI subcommands, and the campaign executor all run
the same :class:`Pipeline`.

* :mod:`repro.api.config` -- :class:`ReproConfig`, one JSON-round-
  trippable configuration composing every option dataclass;
* :mod:`repro.api.stages` -- the :class:`PipelineStage` protocol and the
  concrete stages with typed artifact declarations;
* :mod:`repro.api.artifacts` -- artifact codecs, content digests and the
  content-addressed :class:`ArtifactStore` (per-stage caching/resume);
* :mod:`repro.api.pipeline` -- the :class:`Pipeline` runner and its
  per-stage provenance records.

Quick start (embedding)::

    from repro.api import ArtifactStore, ReproConfig, standard_pipeline

    pipeline = standard_pipeline(store=ArtifactStore("stores/stages"))
    run = pipeline.run(ReproConfig(), seed={
        "network": data, "termination": termination, "observe_port": 0,
    })
    passive = run["weighted_enforced"].model
"""

from repro.api.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    artifact_digest,
    decode_artifact,
    encode_artifact,
)
from repro.api.config import (
    ReproConfig,
    ValidationOptions,
    options_from_dict,
    options_to_dict,
    options_token,
)
from repro.api.pipeline import (
    Pipeline,
    PipelineRun,
    StageExecution,
    file_pipeline,
    standard_pipeline,
)
from repro.api.stages import (
    EnforceStage,
    IngestStage,
    PipelineStage,
    SensitivityStage,
    StandardFitStage,
    ValidateStage,
    WeightingStage,
    compute_base_weights,
    refine_weighted_fit,
    standard_stages,
)

__all__ = [
    "ArtifactSpec",
    "ArtifactStore",
    "artifact_digest",
    "decode_artifact",
    "encode_artifact",
    "ReproConfig",
    "ValidationOptions",
    "options_from_dict",
    "options_to_dict",
    "options_token",
    "Pipeline",
    "PipelineRun",
    "StageExecution",
    "file_pipeline",
    "standard_pipeline",
    "EnforceStage",
    "IngestStage",
    "PipelineStage",
    "SensitivityStage",
    "StandardFitStage",
    "ValidateStage",
    "WeightingStage",
    "compute_base_weights",
    "refine_weighted_fit",
    "standard_stages",
]
