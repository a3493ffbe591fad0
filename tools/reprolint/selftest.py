"""Built-in sanity fixtures: each rule must fire on its seeded violation
and fall silent once the violation is pragma'd with a reason.

Run with ``python -m tools.reprolint --self-test``.  The real
fixture-file tests live in ``tests/test_reprolint.py``; this embedded
variant keeps the tool self-verifying even outside the test suite
(e.g. as a CI preflight).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from tools.reprolint.checkers import default_checkers
from tools.reprolint.core import Engine

#: rule -> (relative path, violating source).  Paths matter: most rules
#: are scoped to specific subtrees.
_VIOLATIONS: dict[str, tuple[str, str]] = {
    "telemetry-hygiene": (
        "src/repro/selftest_mod.py",
        "from repro import obs\n"
        "def f():\n"
        "    obs.incr('no-such-counter!')\n",
    ),
    "error-taxonomy": (
        "src/repro/ingest/selftest_mod.py",
        "def load(path):\n"
        "    raise ValueError('bad file')\n",
    ),
    "fingerprint-safety": (
        # Checked via WATCHED below -- the embedded fixture instead
        # exercises the mutable-default arm on a stand-in VFOptions.
        "src/repro/vectfit/options.py",
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class VFOptions:\n"
        "    tags: list = field(default_factory=list)\n",
    ),
}

_PRAGMA = "  # reprolint: disable={rule} -- self-test suppression"


def run_self_test() -> int:
    failures: list[str] = []
    for rule, (relpath, source) in _VIOLATIONS.items():
        fired = _findings_for(rule, relpath, source)
        if not fired:
            failures.append(f"{rule}: did not fire on the seeded violation")
            continue
        suppressed_src = _suppress(source, fired[0], rule)
        still = _findings_for(rule, relpath, suppressed_src)
        if still:
            failures.append(
                f"{rule}: pragma with reason did not suppress "
                f"({still[0].message})"
            )
    if failures:
        for failure in failures:
            print(f"reprolint self-test FAIL: {failure}")
        return 1
    print(f"reprolint self-test: {len(_VIOLATIONS)} rules OK")
    return 0


def _findings_for(rule: str, relpath: str, source: str):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        engine = Engine(default_checkers(), root=root)
        report = engine.run([relpath], rules=[rule])
        return [f for f in report.findings if f.rule == rule]


def _suppress(source: str, finding, rule: str) -> str:
    lines = source.splitlines()
    index = finding.line - 1
    lines[index] = lines[index] + _PRAGMA.format(rule=rule)
    return "\n".join(lines) + "\n"
