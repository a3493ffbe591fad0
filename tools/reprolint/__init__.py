"""reprolint: AST-based invariant checks for the repro codebase.

The conventions this package enforces are the ones the test suite and CI
already *rely on* but could not previously *check*:

* telemetry names follow the span/counter grammar that ``repro trace``
  and the CI ``run_metrics.json`` assertions parse, and every literal
  counter is committed to a registry (``telemetry-hygiene``);
* stage code raises the typed ``repro.resilience`` taxonomy so retry
  classification keeps working (``error-taxonomy``);
* option dataclasses that feed content-addressed digests stay hashable
  and fully consumed by their digest functions (``fingerprint-safety``).

Run ``python -m tools.reprolint src tests`` from the repository root, or
``repro lint``.  Suppress a finding with an inline pragma that carries a
mandatory reason::

    with obs.span("rescue"):  # reprolint: disable=telemetry-hygiene -- legacy span name

See ``tools/reprolint/README.md`` for the rule catalogue.
"""

from tools.reprolint.core import (
    Engine,
    Finding,
    Module,
    Project,
    parse_pragmas,
)

__all__ = ["Engine", "Finding", "Module", "Project", "parse_pragmas"]
