"""Every RC rule fires on its seeded fixture and stays quiet on src/.

The fixture tree mirrors the package layout under ``fixtures/src/repro``,
so :func:`repro.checks.lint.framework.infer_module` assigns the fixtures
the same dotted modules (``repro.obs.…``) as shipped code — scoping
is exercised for real, not bypassed.
"""

from pathlib import Path

import pytest

from repro.checks.lint import lint_file, render_report, run_lint
from repro.checks.lint.framework import infer_module
from repro.checks.lint.rules import ALL_RULES, rule_by_id

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

EXPECTED = {
    "obs/rc002_raw_write.py": "RC002",
    "obs/rc005_unregistered_names.py": "RC005",
    "util/rc004_overbroad_except.py": "RC004",
    "util/rc007_mutable_default.py": "RC007",
    "util/rc009_runtime_error.py": "RC009",
}


@pytest.mark.parametrize("rel,rule_id", sorted(EXPECTED.items()))
def test_fixture_fires_its_rule(rel, rule_id):
    violations = lint_file(FIXTURES / rel)
    fired = {v.rule for v in violations}
    assert rule_id in fired, f"{rel} should trip {rule_id}, got {fired}"


def test_every_rule_has_a_fixture():
    covered = set(EXPECTED.values())
    assert covered == {r.id for r in ALL_RULES}


def test_rc005_flags_each_name_kind():
    violations = lint_file(FIXTURES / "obs/rc005_unregistered_names.py")
    messages = " ".join(v.message for v in violations)
    assert "engine.itertions" in messages  # metric
    assert "twophase.corr" in messages  # span
    assert "graph.laoded" in messages  # event
    assert len(violations) == 3


def test_shipped_tree_is_clean():
    violations = run_lint([REPO_SRC])
    assert violations == [], render_report(violations)


def test_rule_scoping_excludes_other_packages(tmp_path):
    # The same RC002 raw write outside the persistence layers must not fire.
    out = tmp_path / "src" / "repro" / "engines" / "notpersist.py"
    out.parent.mkdir(parents=True)
    out.write_text("def f(out):\n    out.write_text('x')\n")
    assert lint_file(out, rules=[rule_by_id("RC002")]) == []


def test_infer_module_anchors_at_src():
    path = FIXTURES / "obs" / "rc002_raw_write.py"
    assert infer_module(path) == "repro.obs.rc002_raw_write"


def test_noqa_line_suppression(tmp_path):
    out = tmp_path / "src" / "repro" / "util" / "sup.py"
    out.parent.mkdir(parents=True)
    out.write_text(
        "def f(run):\n"
        "    try:\n"
        "        run()\n"
        "    except Exception:  # repro: noqa RC004\n"
        "        pass\n"
    )
    assert lint_file(out) == []


def test_noqa_bare_suppresses_all_rules(tmp_path):
    out = tmp_path / "src" / "repro" / "util" / "sup2.py"
    out.parent.mkdir(parents=True)
    out.write_text("def f(seen=[]):  # repro: noqa\n    return seen\n")
    assert lint_file(out) == []


def test_noqa_wrong_id_does_not_suppress(tmp_path):
    out = tmp_path / "src" / "repro" / "util" / "sup3.py"
    out.parent.mkdir(parents=True)
    out.write_text("def f(seen=[]):  # repro: noqa RC009\n    return seen\n")
    assert [v.rule for v in lint_file(out)] == ["RC007"]


def test_noqa_file_suppression(tmp_path):
    out = tmp_path / "src" / "repro" / "util" / "sup4.py"
    out.parent.mkdir(parents=True)
    out.write_text(
        "# repro: noqa-file RC007\n"
        "def f(seen=[]):\n    return seen\n"
        "def g(seen=[]):\n    return seen\n"
    )
    assert lint_file(out) == []


def test_render_report_summarizes_by_rule():
    violations = run_lint([FIXTURES])
    report = render_report(violations)
    assert "violation(s)" in report
    assert "RC002" in report and "RC009" in report


def test_rc004_allows_reraise(tmp_path):
    out = tmp_path / "src" / "repro" / "util" / "reraise.py"
    out.parent.mkdir(parents=True)
    out.write_text(
        "def f(run, log):\n"
        "    try:\n"
        "        run()\n"
        "    except Exception:\n"
        "        log()\n"
        "        raise\n"
    )
    assert lint_file(out, rules=[rule_by_id("RC004")]) == []


def test_rule_by_id_unknown_raises():
    with pytest.raises(KeyError):
        rule_by_id("RC999")
