"""Fixture: telemetry names that follow the grammar (clean)."""

from repro import obs


def instrumented(strategy):
    with obs.span("stage:fit"):
        obs.incr("vf.iterations")  # registered counter
        obs.emit("vf.converged", iterations=3)
        obs.gauge(f"checker.strategy.{strategy}", 1)
