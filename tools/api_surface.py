#!/usr/bin/env python
"""Public API surface snapshot: dump, check, or update.

Dumps the public names of the API-bearing modules (``repro``,
``repro.api``, ``repro.campaign``, ``repro.flow``, ``repro.ingest``,
``repro.obs``, ``repro.passivity``, ``repro.resilience``) as sorted ``module.name`` lines and diffs
them against the committed snapshot ``tests/data/api_surface.txt``, so an
accidental rename/removal in a future refactor fails CI instead of
silently breaking downstream users.

Usage::

    python tools/api_surface.py            # print the current surface
    python tools/api_surface.py --check    # diff against the snapshot
    python tools/api_surface.py --update   # rewrite the snapshot
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "tests" / "data" / "api_surface.txt"
MODULES = ("repro", "repro.api", "repro.campaign", "repro.flow",
           "repro.ingest", "repro.obs", "repro.passivity", "repro.resilience")


def public_names(module_name: str) -> list[str]:
    """Sorted public names of one module (``__all__``, else non-underscore)."""
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return sorted(set(names))


def current_surface() -> str:
    lines = []
    for module_name in MODULES:
        lines.extend(
            f"{module_name}.{name}" for name in public_names(module_name)
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when the surface differs from the snapshot",
    )
    mode.add_argument(
        "--update", action="store_true",
        help="rewrite the snapshot from the current surface",
    )
    args = parser.parse_args(argv)

    surface = current_surface()
    if args.update:
        SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT.write_text(surface, encoding="utf-8")
        print(f"wrote {SNAPSHOT} ({len(surface.splitlines())} names)")
        return 0
    if args.check:
        if not SNAPSHOT.exists():
            print(f"missing snapshot {SNAPSHOT}; run with --update",
                  file=sys.stderr)
            return 1
        recorded = SNAPSHOT.read_text(encoding="utf-8")
        if recorded == surface:
            print(f"API surface unchanged ({len(surface.splitlines())} names)")
            return 0
        diff = difflib.unified_diff(
            recorded.splitlines(keepends=True),
            surface.splitlines(keepends=True),
            fromfile="tests/data/api_surface.txt",
            tofile="current",
        )
        sys.stderr.writelines(diff)
        print(
            "\nAPI surface changed; review the diff and run "
            "'python tools/api_surface.py --update' if intentional.",
            file=sys.stderr,
        )
        return 1
    print(surface, end="")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
