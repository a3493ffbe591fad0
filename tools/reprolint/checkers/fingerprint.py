"""fingerprint-safety: digest-fed option dataclasses stay sound.

The artifact store (stage and whole-run keys) and the campaign registry
key on content-addressed digests of option dataclasses
(:func:`repro.api.config.options_to_dict` via
:meth:`repro.api.config.ReproConfig.to_dict` and
:func:`repro.api.config.options_token`,
:meth:`repro.campaign.scenario.ScenarioSpec.run_id`).  Two invariants
keep those keys trustworthy:

1. **No mutable defaults.**  A ``list``/``dict``/``set`` default (even
   via ``field(default_factory=...)``) can be mutated after
   construction, so two logically different configs could digest
   identically -- or one config could change its own key mid-run.

2. **Every field reaches the digest.**  A field the digest function
   never consumes aliases two distinct configs onto one cache entry,
   which resurrects the exact stale-cache bug content addressing was
   built to kill.  Digest functions that serialize via
   ``dataclasses.asdict`` / ``dataclasses.fields`` /
   ``options_to_dict`` cover every field structurally; functions that
   enumerate fields by hand must mention each one.

The watched (class, digest) pairs are pinned in :data:`WATCHED`; add an
entry when a new option dataclass starts feeding a digest.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator

from tools.reprolint.core import Finding, Module, Project


@dataclasses.dataclass(frozen=True)
class Watched:
    """One dataclass/digest pair under the rule."""

    class_name: str
    class_path: str  # relpath suffix of the defining module
    digest_path: str  # relpath suffix of the module holding the digest fn
    digest_func: str  # "func" or "Class.method"


#: Option dataclasses that feed content-addressed digests.
WATCHED = (
    Watched("VFOptions", "repro/vectfit/options.py",
            "repro/api/config.py", "options_to_dict"),
    Watched("EnforcementOptions", "repro/passivity/enforce.py",
            "repro/api/config.py", "options_to_dict"),
    Watched("FlowOptions", "repro/flow/macromodel.py",
            "repro/api/config.py", "options_to_dict"),
    Watched("ReproConfig", "repro/api/config.py",
            "repro/api/config.py", "ReproConfig.to_dict"),
    Watched("ScenarioSpec", "repro/campaign/scenario.py",
            "repro/campaign/scenario.py", "ScenarioSpec.to_dict"),
)

#: Calls inside a digest function that consume *all* fields at once.
_FULL_COVERAGE_CALLS = frozenset({
    "asdict", "fields", "options_to_dict", "to_dict",
})

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


def _dataclass_fields(class_node: ast.ClassDef) -> list[tuple[str, ast.AnnAssign]]:
    out = []
    for stmt in class_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            out.append((stmt.target.id, stmt))
    return out


def _find_class(module: Module, name: str) -> ast.ClassDef | None:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_function(module: Module, dotted: str) -> ast.FunctionDef | None:
    parts = dotted.split(".")
    scope: list[ast.stmt] = module.tree.body
    node: ast.stmt | None = None
    for part in parts:
        node = None
        for stmt in scope:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == part:
                node = stmt
                break
        if node is None:
            return None
        scope = node.body if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else []
    return node if isinstance(node, ast.FunctionDef) else None


class FingerprintSafetyChecker:
    name = "fingerprint-safety"
    description = (
        "digest-fed option dataclasses: no mutable defaults; every "
        "field must be consumed by the digest function"
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for watched in WATCHED:
            if not module.relpath.endswith(watched.class_path):
                continue
            class_node = _find_class(module, watched.class_name)
            if class_node is None:
                yield Finding(
                    module.relpath, 1, 0, self.name,
                    f"watched dataclass {watched.class_name} not found in "
                    f"{module.relpath} (update tools/reprolint/checkers/"
                    "fingerprint.py WATCHED)",
                )
                continue
            fields = _dataclass_fields(class_node)
            yield from self._check_defaults(module, watched, fields)
            yield from self._check_coverage(module, project, watched,
                                            class_node, fields)

    # ------------------------------------------------------------------
    def _check_defaults(
        self,
        module: Module,
        watched: Watched,
        fields: list[tuple[str, ast.AnnAssign]],
    ) -> Iterator[Finding]:
        for name, stmt in fields:
            default = stmt.value
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id == "field"
            ):
                for kw in default.keywords:
                    if (
                        kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in _MUTABLE_FACTORIES
                    ):
                        mutable = True
            if mutable:
                yield Finding(
                    module.relpath, stmt.lineno, stmt.col_offset, self.name,
                    f"{watched.class_name}.{name} has a mutable default -- "
                    "digest-fed options must be immutable so cache keys "
                    "cannot drift after construction",
                    end_line=stmt.end_lineno,
                )

    # ------------------------------------------------------------------
    def _check_coverage(
        self,
        module: Module,
        project: Project,
        watched: Watched,
        class_node: ast.ClassDef,
        fields: list[tuple[str, ast.AnnAssign]],
    ) -> Iterator[Finding]:
        digest_module = project.find(watched.digest_path)
        if digest_module is None:
            return  # digest module outside the scan set; nothing to verify
        func = _find_function(digest_module, watched.digest_func)
        if func is None:
            yield Finding(
                digest_module.relpath, 1, 0, self.name,
                f"digest function {watched.digest_func} for "
                f"{watched.class_name} not found in {digest_module.relpath} "
                "(update WATCHED)",
            )
            return
        consumed, full = self._consumed_names(func)
        if full:
            return
        missing = sorted(
            name for name, _ in fields if name not in consumed
        )
        if missing:
            yield Finding(
                module.relpath, class_node.lineno, class_node.col_offset,
                self.name,
                f"{watched.class_name} fields {missing} are never consumed "
                f"by digest function {watched.digest_func} "
                f"({digest_module.relpath}) -- two configs differing only "
                "there would collide on one cache key",
                end_line=class_node.lineno,
            )

    @staticmethod
    def _consumed_names(func: ast.FunctionDef) -> tuple[set[str], bool]:
        """(attribute names read off any object, full-coverage flag).

        Full coverage means a sentinel call (``asdict``/``fields``/...)
        receives the digested object *itself* (a bare name such as
        ``self`` or the options parameter) -- ``options_to_dict(
        self.flow)`` only covers the nested dataclass, so the enclosing
        function still gets per-field analysis.
        """
        consumed: set[str] = set()
        full = False
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                consumed.add(node.attr)
            if isinstance(node, ast.Call):
                callee = node.func
                callee_name = None
                if isinstance(callee, ast.Name):
                    callee_name = callee.id
                elif isinstance(callee, ast.Attribute):
                    callee_name = callee.attr
                if callee_name in _FULL_COVERAGE_CALLS and any(
                    isinstance(arg, ast.Name) for arg in node.args[:1]
                ):
                    full = True
        return consumed, full
