"""Stage provenance records and the pipeline's per-stage log line."""

import logging

from repro.api import (
    Pipeline,
    PipelineStage,
    ReproConfig,
    StageExecution,
)
from repro.api.artifacts import ArtifactSpec


class _CountStage(PipelineStage):
    """Trivial stage: counts its own executions."""

    inputs = ()
    outputs = (ArtifactSpec("token", object, "a value"),)
    cacheable = False

    def __init__(self, name="count"):
        self.name = name
        self.calls = 0
        self.outputs = (ArtifactSpec(f"{name}_token", object, "a value"),)

    def run(self, config, inputs):
        self.calls += 1
        return {f"{self.name}_token": self.calls}


class TestRunProvenance:
    def test_records_every_execution(self):
        run = Pipeline([_CountStage()]).run(ReproConfig())
        assert isinstance(run.executions[0], StageExecution)
        assert run.executions[0].status == "computed"
        assert run.provenance() == [e.to_dict() for e in run.executions]


class TestStageExecution:
    def test_to_dict_round_trip(self):
        execution = StageExecution(
            stage="fit", status="cached", seconds=1.25,
            key="ab" * 32, outputs=("standard_fit",),
        )
        payload = execution.to_dict()
        assert payload == {
            "stage": "fit",
            "status": "cached",
            "seconds": 1.25,
            "cache_hit": True,
            "key": "ab" * 32,
            "outputs": ["standard_fit"],
        }
        rebuilt = StageExecution(
            stage=payload["stage"], status=payload["status"],
            seconds=payload["seconds"], key=payload["key"],
            outputs=tuple(payload["outputs"]),
        )
        assert rebuilt == execution
        assert rebuilt.to_dict() == payload

    def test_json_compatible(self):
        import json

        execution = StageExecution(stage="fit", status="computed",
                                   seconds=0.5)
        assert json.loads(json.dumps(execution.to_dict()))


class TestStageLog:
    def test_stage_line_logged_at_info(self, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="repro.api.pipeline"):
            Pipeline([_CountStage()]).run(ReproConfig())
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            m.startswith("stage count: computed in ") and m.endswith("s")
            for m in messages
        )
        # Nothing printed: embedders are not spammed on stdout.
        assert "stage count" not in capsys.readouterr().out
