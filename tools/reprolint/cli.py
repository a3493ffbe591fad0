"""Command-line front end shared by ``python -m tools.reprolint`` and
``repro lint``.

Exit codes are deterministic and CI-friendly: 0 clean, 1 findings,
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.reprolint.checkers import default_checkers
from tools.reprolint.checkers.telemetry import (
    REGISTRY_PATH,
    collect_counters,
    load_registry,
)
from tools.reprolint.core import Engine, Finding, write_json

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

DEFAULT_PATHS = ("src", "tests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based invariant checks for the repro codebase: "
            "telemetry hygiene, error taxonomy, fingerprint safety."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to scan (default: src tests)",
    )
    parser.add_argument(
        "--root", default=None,
        help="repository root paths are relative to (default: cwd)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated subset of rules to run",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--update-registry", action="store_true",
        help=(
            "rewrite tools/reprolint/registry/counters.txt from the "
            "literal counter names in the scanned files (mirrors "
            "tools/api_surface.py --update)"
        ),
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run each checker against its embedded fixtures and exit",
    )
    return parser


def main(argv: list[str] | None = None, root: Path | None = None) -> int:
    args = build_parser().parse_args(argv)
    checkers = default_checkers()

    if args.list_rules:
        for checker in checkers:
            print(f"{checker.name}: {checker.description}")
        print("pragma: suppression pragmas must carry a reason and name "
              "known rules (reserved; cannot be suppressed)")
        return EXIT_CLEAN

    if args.self_test:
        from tools.reprolint.selftest import run_self_test

        return run_self_test()

    engine = Engine(
        checkers, root=Path(args.root) if args.root else root
    )
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        if args.update_registry:
            return _update_registry(engine, args.paths)
        report = engine.run(args.paths, rules=rules)
    except (FileNotFoundError, ValueError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report.findings.extend(_registry_drift(engine, args.paths))
    if args.json:
        write_json(report)
    else:
        print(report.render())
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


def _registry_drift(engine: Engine, paths: list[str]) -> list[Finding]:
    """Stale committed counters: in the registry, absent from the code.

    Only meaningful when the scan covers the instrumented tree, so the
    check is skipped unless ``src`` is among the scanned paths.
    """
    if not any(Path(p).name == "src" for p in paths):
        return []
    project, _ = engine.load(paths)
    live = collect_counters(project)
    stale = sorted(load_registry() - live)
    registry_rel = REGISTRY_PATH.name
    return [
        Finding(
            f"tools/reprolint/registry/{registry_rel}", 1, 0,
            "telemetry-hygiene",
            f"registered counter {name!r} no longer appears at any "
            "instrumented call site; run --update-registry",
        )
        for name in stale
    ]


def _update_registry(engine: Engine, paths: list[str]) -> int:
    project, errors = engine.load(paths)
    if errors:
        for finding in errors:
            print(finding.render(), file=sys.stderr)
        return EXIT_ERROR
    counters = sorted(collect_counters(project))
    REGISTRY_PATH.parent.mkdir(parents=True, exist_ok=True)
    REGISTRY_PATH.write_text(
        "# Counter names reachable from literal obs.incr() call sites.\n"
        "# Regenerate with: python -m tools.reprolint --update-registry\n"
        + "".join(f"{name}\n" for name in counters),
        encoding="utf-8",
    )
    print(f"reprolint: wrote {len(counters)} counters to {REGISTRY_PATH}")
    return EXIT_CLEAN
