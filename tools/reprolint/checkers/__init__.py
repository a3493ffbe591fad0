"""Checker registry: every rule reprolint knows about."""

from tools.reprolint.checkers.error_taxonomy import ErrorTaxonomyChecker
from tools.reprolint.checkers.fingerprint import FingerprintSafetyChecker
from tools.reprolint.checkers.telemetry import TelemetryHygieneChecker

#: Instantiable rule classes, in catalogue order.
CHECKER_CLASSES = (
    TelemetryHygieneChecker,
    ErrorTaxonomyChecker,
    FingerprintSafetyChecker,
)


def default_checkers():
    """Fresh instances of every registered checker."""
    return [cls() for cls in CHECKER_CLASSES]


__all__ = [
    "TelemetryHygieneChecker",
    "ErrorTaxonomyChecker",
    "FingerprintSafetyChecker",
    "CHECKER_CLASSES",
    "default_checkers",
]
