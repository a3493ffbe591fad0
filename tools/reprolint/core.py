"""reprolint engine: file discovery, pragma parsing, reporting.

The engine is deliberately small: a :class:`Module` is one parsed file
(source, AST, suppression pragmas), a :class:`Project` is the set of
scanned modules (checkers that need cross-file context, like
``fingerprint-safety``, look other modules up by path suffix), and a
checker is any object with ``name``/``description`` attributes and a
``check(module, project)`` generator yielding :class:`Finding`.

Suppression pragmas
-------------------
Two forms, both with a **mandatory reason** after ``--``:

* line pragma, on any physical line of the flagged statement::

      # reprolint: disable=error-taxonomy -- caller bug, raised before any stage runs

* file pragma, anywhere in the file (conventionally near the top),
  silencing a rule for the whole module::

      # reprolint: disable-file=telemetry-hygiene -- fixture emitting arbitrary names

A pragma without a reason, or naming an unknown rule, is itself reported
under the reserved ``pragma`` rule (which cannot be suppressed).
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, Protocol

REPORT_FORMAT = "reprolint-report/1"

#: Directories never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", "build"}

#: Path prefixes (posix, relative to root) excluded by default: fixture
#: trees contain *deliberate* violations for the checker tests.
_SKIP_PREFIXES = ("tests/data/",)

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s-]+?)\s*"
    r"(?:--\s*(?P<reason>.*\S)\s*)?$"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``end_line`` widens the window a line pragma may sit on (multi-line
    calls accept the pragma on any of their physical lines); it is not
    part of the JSON report.
    """

    file: str
    line: int
    col: int
    rule: str
    message: str
    end_line: int | None = dataclasses.field(default=None, compare=False)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload.pop("end_line")
        return payload

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclasses.dataclass(frozen=True)
class Pragma:
    """One parsed suppression comment."""

    line: int
    kind: str  # "disable" | "disable-file"
    rules: tuple[str, ...]
    reason: str | None


class Checker(Protocol):
    name: str
    description: str

    def check(self, module: "Module", project: "Project") -> Iterator[Finding]:
        ...  # pragma: no cover - protocol


def parse_pragmas(text: str) -> list[Pragma]:
    """All reprolint pragmas in ``text``, in line order.

    Malformed pragmas (no ``=``, empty rule list) parse as best they can;
    validation against the known-rule set and the mandatory-reason policy
    happens in :meth:`Engine.run` so the errors carry file locations.
    """
    pragmas: list[Pragma] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "reprolint" not in line:
            continue
        match = _PRAGMA_RE.search(line)
        if match is None:
            # A comment mentioning reprolint without the pragma shape is
            # left alone (this file's own docs would otherwise trip it).
            continue
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        pragmas.append(
            Pragma(
                line=lineno,
                kind=match.group("kind"),
                rules=rules,
                reason=match.group("reason"),
            )
        )
    return pragmas


class Module:
    """One parsed source file presented to checkers."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath  # posix, relative to the scan root
        self.text = text
        self.tree = ast.parse(text, filename=relpath)
        self.pragmas = parse_pragmas(text)
        self._line_rules: dict[int, set[str]] = {}
        self._file_rules: set[str] = set()
        for pragma in self.pragmas:
            if pragma.reason is None:
                continue  # unusable; reported by the engine
            if pragma.kind == "disable-file":
                self._file_rules.update(pragma.rules)
            else:
                self._line_rules.setdefault(pragma.line, set()).update(
                    pragma.rules
                )

    def suppressed(self, rule: str, first_line: int, last_line: int | None) -> bool:
        """Is ``rule`` suppressed for a node spanning the given lines?"""
        if rule in self._file_rules:
            return True
        last = last_line if last_line is not None else first_line
        return any(
            rule in self._line_rules.get(line, ())
            for line in range(first_line, last + 1)
        )


class Project:
    """The full scan set; lookup service for cross-file checkers."""

    def __init__(self, modules: list[Module]) -> None:
        self.modules = modules
        self._by_relpath = {m.relpath: m for m in modules}

    def find(self, relpath_suffix: str) -> Module | None:
        """The scanned module whose relpath ends with ``relpath_suffix``."""
        hit = self._by_relpath.get(relpath_suffix)
        if hit is not None:
            return hit
        for relpath, module in self._by_relpath.items():
            if relpath.endswith("/" + relpath_suffix):
                return module
        return None


@dataclasses.dataclass
class Report:
    """Outcome of one engine run."""

    findings: list[Finding]
    files_scanned: int
    rules: list[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "files_scanned": self.files_scanned,
            "rules": sorted(self.rules),
            "n_findings": len(self.findings),
            "findings": [f.to_dict() for f in sorted(
                self.findings, key=lambda f: (f.file, f.line, f.col, f.rule)
            )],
        }

    def render(self) -> str:
        lines = [f.render() for f in sorted(
            self.findings, key=lambda f: (f.file, f.line, f.col, f.rule)
        )]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"reprolint: {len(self.findings)} {noun} in "
            f"{self.files_scanned} files"
        )
        return "\n".join(lines)


def discover(root: Path, paths: Iterable[str]) -> list[Path]:
    """Python files under ``paths`` (files or directories), sorted."""
    found: set[Path] = set()
    for entry in paths:
        target = (root / entry).resolve() if not Path(entry).is_absolute() else Path(entry)
        if target.is_file() and target.suffix == ".py":
            found.add(target)
            continue
        if not target.is_dir():
            raise FileNotFoundError(f"no such file or directory: {entry}")
        for path in target.rglob("*.py"):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            found.add(path)
    kept = []
    for path in sorted(found):
        rel = _relpath(root, path)
        if rel.startswith(_SKIP_PREFIXES):
            continue
        kept.append(path)
    return kept


def _relpath(root: Path, path: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


class Engine:
    """Load files, run checkers, validate pragmas, collect findings."""

    def __init__(self, checkers: list[Checker], root: Path | None = None) -> None:
        self.checkers = list(checkers)
        self.root = (root or Path.cwd()).resolve()
        names = [c.name for c in self.checkers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate checker names: {names}")

    @property
    def rule_names(self) -> set[str]:
        return {c.name for c in self.checkers}

    def load(self, paths: Iterable[str]) -> tuple[Project, list[Finding]]:
        modules: list[Module] = []
        errors: list[Finding] = []
        for path in discover(self.root, paths):
            rel = _relpath(self.root, path)
            try:
                text = path.read_text(encoding="utf-8")
                modules.append(Module(path, rel, text))
            except (SyntaxError, UnicodeDecodeError) as exc:
                line = getattr(exc, "lineno", 1) or 1
                errors.append(Finding(rel, line, 0, "parse", str(exc)))
        return Project(modules), errors

    def run(self, paths: Iterable[str], rules: Iterable[str] | None = None) -> Report:
        selected = self.checkers
        if rules is not None:
            wanted = set(rules)
            unknown = wanted - self.rule_names
            if unknown:
                raise ValueError(f"unknown rules: {sorted(unknown)}")
            selected = [c for c in self.checkers if c.name in wanted]
        project, findings = self.load(paths)
        for module in project.modules:
            findings.extend(self._pragma_findings(module))
        for checker in selected:
            for module in project.modules:
                for finding in checker.check(module, project):
                    if module.suppressed(
                        finding.rule, finding.line, self._end_line(module, finding)
                    ):
                        continue
                    findings.append(finding)
        return Report(
            findings=findings,
            files_scanned=len(project.modules),
            rules=[c.name for c in selected],
        )

    @staticmethod
    def _end_line(module: Module, finding: Finding) -> int:
        return finding.end_line if finding.end_line is not None else finding.line

    def _pragma_findings(self, module: Module) -> Iterator[Finding]:
        """Malformed pragmas: missing reason or unknown rule names."""
        known = self.rule_names
        for pragma in module.pragmas:
            if pragma.reason is None:
                yield Finding(
                    module.relpath, pragma.line, 0, "pragma",
                    "suppression pragma requires a reason: "
                    "`# reprolint: disable=<rule> -- <why>`",
                )
            if not pragma.rules:
                yield Finding(
                    module.relpath, pragma.line, 0, "pragma",
                    "suppression pragma names no rules",
                )
            for rule in pragma.rules:
                if rule not in known:
                    yield Finding(
                        module.relpath, pragma.line, 0, "pragma",
                        f"unknown rule {rule!r} in suppression pragma "
                        f"(known: {', '.join(sorted(known))})",
                    )


# ----------------------------------------------------------------------
# AST helpers for the checkers
# ----------------------------------------------------------------------
def literal_str(node: ast.expr) -> list[str]:
    """Literal string values an expression can take (empty when dynamic).

    Handles plain constants and conditional expressions over constants
    (``"a" if flag else "b"`` yields both arms), which is exactly the
    shape of the counter names at the instrumented call sites.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return literal_str(node.body) + literal_str(node.orelse)
    return []


def fstring_prefix(node: ast.expr) -> str | None:
    """Leading literal text of an f-string, or ``None``."""
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def write_json(report: Report, stream=None) -> None:
    json.dump(report.to_dict(), stream or sys.stdout, indent=1, sort_keys=False)
    (stream or sys.stdout).write("\n")
