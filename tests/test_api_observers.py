"""Observer layer: run provenance, console output, event views."""

import io
import logging

from repro.api import (
    ConsoleObserver,
    EventObserver,
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


class TestConsoleObserver:
    def test_stream_output_format(self):
        stream = io.StringIO()
        Pipeline(
            [_CountStage()], observers=[ConsoleObserver(stream)]
        ).run(ReproConfig())
        lines = stream.getvalue().splitlines()
        assert lines[0] == "stage count: running ..."
        assert lines[1].startswith("stage count: computed in ")
        assert lines[1].endswith("s")

    def test_default_routes_through_package_logger(self, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="repro.api.pipeline"):
            Pipeline(
                [_CountStage()], observers=[ConsoleObserver()]
            ).run(ReproConfig())
        messages = [r.getMessage() for r in caplog.records]
        assert any(m == "stage count: running ..." for m in messages)
        assert any(m.startswith("stage count: computed in ")
                   for m in messages)
        # Nothing printed: embedders are not spammed on stdout.
        assert "stage count" not in capsys.readouterr().out


class TestEventObserver:
    def test_receives_structured_events(self):
        events = []

        class Recorder(EventObserver):
            def on_event(self, event):
                events.append(event)

        Pipeline([_CountStage()], observers=[Recorder()]).run(ReproConfig())
        assert [e["event"] for e in events] == ["stage.start", "stage.finish"]
        assert events[0]["stage"] == "count"
        finish = events[1]
        assert finish["status"] == "computed"
        assert finish["cache_hit"] is False
        assert finish["outputs"] == ["count_token"]

    def test_event_payload_matches_telemetry_stream(self, tmp_path):
        """The observer view and the telemetry sink see the same record."""
        import json

        from repro.obs import telemetry_session

        events = []

        class Recorder(EventObserver):
            def on_event(self, event):
                if event["event"] == "stage.finish":
                    events.append(event)

        with telemetry_session(tmp_path, label="t") as tel:
            Pipeline(
                [_CountStage()], observers=[Recorder()]
            ).run(ReproConfig())
        recorded = [
            e for e in tel.events if e.get("event") == "stage.finish"
        ]
        assert len(recorded) == 1 and len(events) == 1
        for key in ("stage", "status", "seconds", "cache_hit", "outputs"):
            assert recorded[0][key] == events[0][key]
