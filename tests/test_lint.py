"""Tests for ``repro.lint`` — the invariant checker itself.

Three layers:

* **Fixture goldens** — every rule (RL001-RL005, plus RL000 suppression
  hygiene) has snippets under ``tests/lint_fixtures/`` proving it fires,
  and a ``*_suppressed`` twin proving the inline
  ``# reprolint: allow[RLxxx] reason=...`` escape hatch works.
* **Unit tests** — suppression parsing, import-graph reachability,
  baseline round-trip.
* **CLI meta-tests** — ``python -m repro.lint src`` exits 0 on the real
  tree (the acceptance gate), and exits 1 on a seeded violation, which is
  exactly what fails the CI lint job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.baseline import load_baseline, split_baselined, write_baseline
from repro.lint.cli import main as lint_main
from repro.lint.importgraph import worker_reachable_modules
from repro.lint.suppressions import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
EXPECTED = FIXTURES / "expected"

_FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.py"))


def _strip_path(finding):
    return {k: v for k, v in finding.to_dict().items() if k != "path"}


# ------------------------------------------------------------------ goldens


@pytest.mark.parametrize("name", _FIXTURE_NAMES)
def test_fixture_matches_golden(name):
    findings, suppressed, files = run_lint([str(FIXTURES / f"{name}.py")])
    assert files == 1
    expected = json.loads((EXPECTED / f"{name}.json").read_text())
    assert [_strip_path(f) for f in findings] == expected["findings"]
    assert [_strip_path(f) for f in suppressed] == expected["suppressed"]


@pytest.mark.parametrize("rule", ["RL001", "RL002", "RL003", "RL004", "RL005"])
def test_every_rule_fires_and_suppresses(rule):
    """Meta-golden: each rule has >=1 firing fixture and >=1 suppressed one."""
    fired = suppressed = 0
    for name in _FIXTURE_NAMES:
        doc = json.loads((EXPECTED / f"{name}.json").read_text())
        fired += sum(f["rule"] == rule for f in doc["findings"])
        suppressed += sum(f["rule"] == rule for f in doc["suppressed"])
    assert fired >= 1, f"{rule} never fires in any fixture"
    assert suppressed >= 1, f"{rule} has no suppression-proof fixture"


def test_suppression_without_reason_does_not_silence():
    findings, suppressed, _ = run_lint(
        [str(FIXTURES / "rl000_bad_suppression.py")]
    )
    rules = [f.rule for f in findings]
    assert "RL000" in rules  # the malformed suppression is itself reported
    assert "RL001" in rules  # ... and the violation it targeted still fires
    assert suppressed == []


# --------------------------------------------------------------- unit tests


def test_parse_suppressions_trailing_and_standalone():
    source = (
        "x = 1  # reprolint: allow[RL001] reason=trailing\n"
        "# reprolint: allow[RL002,RL004] reason=standalone covers next line\n"
        "y = 2\n"
    )
    supps = parse_suppressions(source)
    assert supps[1][0].allows("RL001")
    assert not supps[1][0].allows("RL002")
    assert supps[2][0].allows("RL002") and supps[2][0].allows("RL004")
    assert supps[3][0].allows("RL004")  # standalone spills onto line 3


def test_directive_in_docstring_is_ignored():
    source = '"""docs mention # reprolint: allow[RL001] reason=x here."""\n'
    assert parse_suppressions(source) == {}


def test_worker_reachability_matches_engine_imports():
    reachable = worker_reachable_modules()
    # The worker runs the parent's engine: these must be in its closure.
    for module in (
        "repro.engine.worker",
        "repro.engine.payload",
        "repro.telemetry.spans",
        "repro.nn.tensor",
        "repro.network.road_network",
    ):
        assert module in reachable, module
    # Experiments and the linter itself never run inside workers.
    for module in ("repro.experiments.common", "repro.lint.core"):
        assert module not in reachable, module


def test_baseline_round_trip(tmp_path):
    findings, _, _ = run_lint([str(FIXTURES / "rl001_bad.py")])
    assert findings
    baseline = tmp_path / "baseline.json"
    write_baseline(findings, str(baseline))
    fingerprints = load_baseline(str(baseline))
    new, old = split_baselined(findings, fingerprints)
    assert new == [] and len(old) == len(findings)


def test_checked_in_baseline_is_empty():
    """src/ carries no grandfathered violations — keep it that way."""
    fingerprints = load_baseline(str(REPO_ROOT / ".reprolint-baseline.json"))
    assert fingerprints == set()


# ---------------------------------------------------------------- CLI layer


def _run_cli(args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_cli_src_and_tests_are_clean():
    """Acceptance gate: the real tree lints clean (exit 0)."""
    result = _run_cli(
        ["src", "tests", "--baseline", ".reprolint-baseline.json"]
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_fails_on_seeded_violation(tmp_path):
    """What the CI lint job does on a regression: nonzero exit, JSON report."""
    bad = tmp_path / "seeded.py"
    bad.write_text(
        "# reprolint: module=repro.network.road_network.seeded\n"
        "import math\n"
        "def f(x, y):\n"
        "    return math.hypot(x, y)\n"
    )
    result = _run_cli([str(bad), "--format", "json"])
    assert result.returncode == 1
    document = json.loads(result.stdout)
    assert [f["rule"] for f in document["findings"]] == ["RL001"]


def test_cli_select_and_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("RL001", "RL002", "RL003", "RL004", "RL005"):
        assert rule in out
    # --select restricts the run: only RL005 findings from the RL001 fixture
    assert (
        lint_main(
            [str(FIXTURES / "rl001_bad.py"), "--select", "RL005"]
        )
        == 0
    )


def test_cli_write_baseline_then_clean(tmp_path):
    baseline = tmp_path / "grandfathered.json"
    bad = str(FIXTURES / "rl002_bad.py")
    assert lint_main([bad, "--write-baseline", str(baseline)]) == 0
    assert lint_main([bad, "--baseline", str(baseline)]) == 0
    assert lint_main([bad]) == 1


def test_cli_unknown_path_is_usage_error():
    assert lint_main(["no/such/path.py"]) == 2


def test_fixture_dir_skipped_on_directory_walk():
    """Directory arguments never descend into lint_fixtures/."""
    findings, _, files = run_lint([str(REPO_ROOT / "tests")])
    assert files > 0
    assert all("lint_fixtures" not in f.path for f in findings)
    assert findings == []
