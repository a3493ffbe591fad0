"""Accuracy metrics for macromodels: scattering-domain and loaded-impedance
errors, plus tabular reports used by the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pdn.termination import TerminationNetwork
from repro.sensitivity.zpdn import target_impedance_of_model
from repro.statespace.poleresidue import PoleResidueModel


def rms_scattering_error(
    model: PoleResidueModel, omega: np.ndarray, samples: np.ndarray
) -> float:
    """Unweighted RMS scattering error (paper eq. 4 scale)."""
    response = model.frequency_response(np.asarray(omega, dtype=float))
    return float(np.sqrt(np.mean(np.abs(response - samples) ** 2)))


def max_scattering_error(
    model: PoleResidueModel, omega: np.ndarray, samples: np.ndarray
) -> float:
    """Worst-case entry-wise scattering error."""
    response = model.frequency_response(np.asarray(omega, dtype=float))
    return float(np.max(np.abs(response - samples)))


def relative_impedance_error(
    model: PoleResidueModel,
    omega: np.ndarray,
    reference: np.ndarray,
    termination: TerminationNetwork,
    observe_port: int,
    *,
    z0: float = 50.0,
) -> np.ndarray:
    """Per-frequency relative target-impedance error |Z_model - Z_ref|/|Z_ref|."""
    z_model = target_impedance_of_model(
        model, omega, termination, observe_port, z0=z0
    )
    return np.abs(z_model - reference) / np.abs(reference)


def max_relative_impedance_error(
    model: PoleResidueModel,
    omega: np.ndarray,
    reference: np.ndarray,
    termination: TerminationNetwork,
    observe_port: int,
    *,
    band: tuple[float, float] | None = None,
    z0: float = 50.0,
) -> float:
    """Maximum relative target-impedance error, optionally band-limited.

    ``band`` is an (omega_low, omega_high) angular-frequency window; the
    paper's headline claim concerns the low-frequency band where standard
    enforcement destroys accuracy.
    """
    omega = np.asarray(omega, dtype=float)
    errors = relative_impedance_error(
        model, omega, reference, termination, observe_port, z0=z0
    )
    if band is not None:
        mask = (omega >= band[0]) & (omega <= band[1])
        if not mask.any():
            raise ValueError("band selects no frequency points")
        errors = errors[mask]
    return float(np.max(errors))


@dataclass(frozen=True)
class ModelAccuracyRow:
    """One row of the accuracy summary table (per model variant)."""

    label: str
    rms_scattering: float
    max_scattering: float
    max_rel_impedance: float
    low_band_rel_impedance: float
    is_passive: bool

    def format(self) -> str:
        return (
            f"{self.label:<28s} {self.rms_scattering:11.3e} "
            f"{self.max_scattering:11.3e} {self.max_rel_impedance:13.4f} "
            f"{self.low_band_rel_impedance:13.4f} {str(self.is_passive):>7s}"
        )


def flow_accuracy_rows(
    result,
    data,
    termination: TerminationNetwork,
    observe_port: int,
    *,
    low_band_hz: float = 1e6,
) -> list[ModelAccuracyRow]:
    """Accuracy rows for the four model variants of a flow run.

    ``result`` is a :class:`repro.flow.macromodel.FlowResult`; the order of
    rows matches the paper's Fig. 5 comparison (standard fit, weighted fit,
    and the two enforced models).  Shared by the CLI ``flow`` command and
    the campaign executor so every surface reports identical numbers.

    The passivity verdicts of the weighted fit and of both enforced models
    are read from the exact Hamiltonian certificates the flow already
    holds (``pre_enforcement_report`` and each ``report_after``); only the
    standard fit, which no earlier stage certifies, is checked here.
    """
    from repro.passivity.check import check_passivity

    omega = data.omega
    low_band = (0.0, 2.0 * np.pi * low_band_hz)
    variants = [
        (
            "standard VF",
            result.standard_fit.model,
            check_passivity(result.standard_fit.model).is_passive,
        ),
        (
            "weighted VF (non-passive)",
            result.weighted_fit.model,
            result.pre_enforcement_report.is_passive,
        ),
        (
            "passive, standard cost",
            result.standard_enforced.model,
            result.standard_enforced.report_after.is_passive,
        ),
        (
            "passive, weighted cost",
            result.weighted_enforced.model,
            result.weighted_enforced.report_after.is_passive,
        ),
    ]
    rows = []
    for label, model, is_passive in variants:
        rows.append(
            ModelAccuracyRow(
                label=label,
                rms_scattering=rms_scattering_error(model, omega, data.samples),
                max_scattering=max_scattering_error(model, omega, data.samples),
                max_rel_impedance=max_relative_impedance_error(
                    model, omega, result.reference_impedance, termination,
                    observe_port, z0=data.z0,
                ),
                low_band_rel_impedance=max_relative_impedance_error(
                    model, omega, result.reference_impedance, termination,
                    observe_port, band=low_band, z0=data.z0,
                ),
                is_passive=is_passive,
            )
        )
    return rows


#: Accuracy-table labels promoted to headline metrics (per-model suffix).
_HEADLINE_ROWS = {
    "passive, standard cost": "standard_cost",
    "passive, weighted cost": "weighted_cost",
}


def accuracy_table(rows: list[ModelAccuracyRow]) -> list[dict]:
    """JSON-compatible form of the accuracy rows (campaign records)."""
    return [
        {
            "label": row.label,
            "rms_scattering": row.rms_scattering,
            "max_scattering": row.max_scattering,
            "max_rel_impedance": row.max_rel_impedance,
            "low_band_rel_impedance": row.low_band_rel_impedance,
            "is_passive": row.is_passive,
        }
        for row in rows
    ]


def headline_metrics(table: list[dict], result) -> dict:
    """Scalar summary metrics of one flow run.

    ``table`` is :func:`accuracy_table` output; ``result`` is any object
    with the flow-result attributes ``weighted_fit``,
    ``pre_enforcement_report`` and ``weighted_enforced`` (a
    :class:`~repro.flow.macromodel.FlowResult` or the validation stage's
    proxy).  Shared by the validation stage and the campaign executor so
    every surface reports identical numbers.
    """
    metrics: dict = {}
    for row in table:
        suffix = _HEADLINE_ROWS.get(row["label"])
        if suffix is None:
            continue
        metrics[f"max_rel_impedance_{suffix}"] = row["max_rel_impedance"]
        metrics[f"low_band_rel_impedance_{suffix}"] = (
            row["low_band_rel_impedance"]
        )
        metrics[f"passive_{suffix}"] = row["is_passive"]
    metrics["rms_scattering_weighted_fit"] = float(
        result.weighted_fit.rms_error
    )
    metrics["worst_sigma_before_enforcement"] = float(
        result.pre_enforcement_report.worst_sigma
    )
    metrics["enforcement_iterations_weighted_cost"] = int(
        result.weighted_enforced.iterations
    )
    metrics["enforcement_converged_weighted_cost"] = bool(
        result.weighted_enforced.converged
    )
    return metrics


def impedance_error_report(
    rows: list[ModelAccuracyRow],
) -> str:
    """Render the accuracy summary table (derived Table B of DESIGN.md)."""
    header = (
        f"{'model':<28s} {'rms(S err)':>11s} {'max(S err)':>11s} "
        f"{'max relZ':>13s} {'low-f relZ':>13s} {'passive':>7s}"
    )
    lines = [header, "-" * len(header)]
    lines.extend(row.format() for row in rows)
    return "\n".join(lines)
