"""tools/reprolint: checkers, suppression pragmas, CLI and report schema.

Each rule is exercised against committed fixture mini-trees under
``tests/data/reprolint/`` (which the real scan skips via the
``tests/data/`` prefix): ``violations/`` seeds one or more findings per
rule, ``clean/`` shows the compliant counterpart plus both pragma forms.
The last test runs the engine over the actual repository tree -- the
adoption criterion is that it stays at zero findings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import Engine, parse_pragmas  # noqa: E402
from tools.reprolint.checkers import default_checkers  # noqa: E402
from tools.reprolint.checkers.telemetry import load_registry  # noqa: E402
from tools.reprolint.cli import (  # noqa: E402
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    _registry_drift,
)
from tools.reprolint.cli import main as lint_main  # noqa: E402
from tools.reprolint.core import REPORT_FORMAT  # noqa: E402

DATA = REPO_ROOT / "tests" / "data" / "reprolint"

RULES = {
    "telemetry-hygiene",
    "error-taxonomy",
    "fingerprint-safety",
}


def run_tree(tree: str, paths=("src",), rules=None):
    engine = Engine(default_checkers(), root=DATA / tree)
    return engine.run(list(paths), rules=rules)


def by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ----------------------------------------------------------------------
# per-rule fixture pairs
# ----------------------------------------------------------------------
def test_violations_tree_fires_every_rule():
    report = run_tree("violations")
    fired = {f.rule for f in report.findings}
    assert RULES | {"pragma"} <= fired


def test_clean_tree_has_no_findings():
    report = run_tree("clean")
    assert report.findings == [], [f.render() for f in report.findings]


def test_telemetry_hygiene_span_counter_and_prefix():
    report = run_tree("violations")
    hits = by_rule(report, "telemetry-hygiene")
    messages = [f.message for f in hits]
    assert any("'fit_stage'" in m and "category" in m for m in messages)
    assert any("'NotDotted'" in m for m in messages)
    assert any(
        "'totally.unregistered_counter'" in m and "registry" in m
        for m in messages
    )
    assert any("'UPPER.'" in m for m in messages)


def test_error_taxonomy_flags_bare_raises():
    report = run_tree("violations")
    hits = by_rule(report, "error-taxonomy")
    assert {f.file for f in hits} == {"src/repro/ingest/bad_ingest.py"}
    assert {m.split("`")[1] for m in (f.message for f in hits)} == {
        "raise ValueError",
        "raise RuntimeError",
    }


def test_error_taxonomy_exempts_post_init_validation():
    # the clean tree raises ValueError inside __post_init__ unflagged
    report = run_tree("clean")
    assert by_rule(report, "error-taxonomy") == []


def test_fingerprint_mutable_defaults_and_missing_coverage():
    report = run_tree("violations")
    hits = by_rule(report, "fingerprint-safety")
    messages = " ".join(f.message for f in hits)
    assert "VFOptions.weights has a mutable default" in messages
    assert "VFOptions.extras has a mutable default" in messages
    assert "['vf_kernel']" in messages and "ScenarioSpec" in messages


# ----------------------------------------------------------------------
# suppression pragmas
# ----------------------------------------------------------------------
def test_parse_pragmas_grammar():
    pragmas = parse_pragmas(
        "x = 1  # reprolint: disable=telemetry-hygiene -- legacy name\n"
        "# reprolint: disable-file=error-taxonomy, fingerprint-safety -- legacy\n"
        "y = 2  # reprolint: disable=telemetry-hygiene\n"
    )
    assert [p.kind for p in pragmas] == ["disable", "disable-file", "disable"]
    assert pragmas[0].rules == ("telemetry-hygiene",)
    assert pragmas[0].reason == "legacy name"
    assert pragmas[1].rules == ("error-taxonomy", "fingerprint-safety")
    assert pragmas[2].reason is None  # missing reason survives parsing...


def test_reasonless_and_unknown_rule_pragmas_are_reported():
    # ...but the engine reports it under the reserved `pragma` rule.
    report = run_tree("violations")
    hits = by_rule(report, "pragma")
    assert {f.file for f in hits} == {"src/repro/pragma_bad.py"}
    messages = " ".join(f.message for f in hits)
    assert "requires a reason" in messages
    assert "unknown rule 'not-a-rule'" in messages


def test_line_pragma_suppresses_across_multiline_statement():
    # suppressed.py carries the pragma on the first line of one call and
    # on the LAST physical line of another; both must silence the rule.
    report = run_tree("clean", paths=("src/repro/vectfit/suppressed.py",))
    assert report.findings == [], [f.render() for f in report.findings]


def test_file_pragma_silences_whole_module():
    report = run_tree("clean", paths=("src/repro/statespace/reference.py",))
    assert report.findings == [], [f.render() for f in report.findings]


def test_unknown_rule_subset_rejected():
    with pytest.raises(ValueError, match="unknown rules"):
        run_tree("clean", rules=["no-such-rule"])


# ----------------------------------------------------------------------
# CLI: exit codes, JSON schema, registry workflow
# ----------------------------------------------------------------------
def test_cli_exit_codes():
    root = str(DATA / "violations")
    assert lint_main(["src/repro", "--root", root]) == EXIT_FINDINGS
    assert (
        lint_main(["src/repro", "--root", str(DATA / "clean")]) == EXIT_CLEAN
    )
    assert lint_main(["no_such_dir", "--root", root]) == EXIT_ERROR
    assert lint_main(["src/repro", "--root", root, "--rules", "bogus"]) \
        == EXIT_ERROR


def test_cli_json_report_schema(capsys):
    rc = lint_main(["src/repro", "--root", str(DATA / "violations"), "--json"])
    assert rc == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == REPORT_FORMAT
    assert set(payload) == {
        "format", "files_scanned", "rules", "n_findings", "findings",
    }
    assert payload["rules"] == sorted(RULES)
    assert payload["n_findings"] == len(payload["findings"]) > 0
    for finding in payload["findings"]:
        assert set(finding) == {"file", "line", "col", "rule", "message"}
        assert isinstance(finding["line"], int) and finding["line"] >= 1
    # findings are sorted for stable diffs
    keys = [(f["file"], f["line"], f["col"]) for f in payload["findings"]]
    assert keys == sorted(keys)


def test_registry_drift_detects_stale_counters():
    engine = Engine(default_checkers(), root=DATA / "clean")
    drift = _registry_drift(engine, ["src"])
    stale = {f.message.split("'")[1] for f in drift}
    # the clean tree only increments vf.iterations; every other committed
    # counter reads as stale against it
    assert stale == load_registry() - {"vf.iterations"}
    assert all(f.rule == "telemetry-hygiene" for f in drift)
    # and the drift pass is skipped when src is not scanned
    assert _registry_drift(engine, ["src/repro"]) == []


def test_update_registry_rewrites_counter_file(tmp_path, monkeypatch):
    import tools.reprolint.cli as cli_mod

    target = tmp_path / "counters.txt"
    monkeypatch.setattr(cli_mod, "REGISTRY_PATH", target)
    rc = lint_main(
        ["src/repro", "--root", str(DATA / "clean"), "--update-registry"]
    )
    assert rc == EXIT_CLEAN
    assert target.read_text(encoding="utf-8").splitlines()[-1] \
        == "vf.iterations"


def test_self_test_passes():
    from tools.reprolint.selftest import run_self_test

    assert run_self_test() == 0


def test_repro_lint_subcommand_list_rules(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES | {"pragma"}:
        assert rule in out


# ----------------------------------------------------------------------
# the adoption criterion: the real tree is clean
# ----------------------------------------------------------------------
def test_repository_tree_is_clean():
    engine = Engine(default_checkers(), root=REPO_ROOT)
    report = engine.run(["src", "tests"])
    report.findings.extend(_registry_drift(engine, ["src"]))
    assert report.ok, "\n" + report.render()
