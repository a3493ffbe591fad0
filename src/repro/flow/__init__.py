"""End-to-end macromodeling flow and accuracy metrics."""

from repro.flow.macromodel import (
    FlowOptions,
    FlowResult,
    flow_result_from_run,
    run_flow,
)
from repro.flow.metrics import (
    accuracy_table,
    flow_accuracy_rows,
    headline_metrics,
    impedance_error_report,
    max_relative_impedance_error,
    rms_scattering_error,
)

__all__ = [
    "FlowOptions",
    "FlowResult",
    "flow_result_from_run",
    "run_flow",
    "accuracy_table",
    "flow_accuracy_rows",
    "headline_metrics",
    "impedance_error_report",
    "max_relative_impedance_error",
    "rms_scattering_error",
]
