"""Exit-code contract of the ``repro-coregraph check`` subcommand."""

from pathlib import Path

import pytest

from repro.checks.cli import (
    main,
    run_races,
    run_sanitize_smoke,
    run_static,
    run_strict_noqa,
)

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"
RACE_FIXTURES = FIXTURES / "race"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_static_nonzero_on_seeded_violations(capsys):
    assert run_static([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "violation(s)" in out


@pytest.mark.parametrize(
    "rel,rule_id",
    [
        ("obs/rc002_raw_write.py", "RC002"),
        ("obs/rc005_unregistered_names.py", "RC005"),
    ],
)
def test_static_nonzero_per_fixture(rel, rule_id, capsys):
    assert run_static([str(FIXTURES / rel)], rules=[rule_id]) == 1
    assert rule_id in capsys.readouterr().out


def test_static_zero_on_shipped_tree(capsys):
    assert run_static([str(REPO_SRC)]) == 0
    assert "clean" in capsys.readouterr().out


def test_static_rule_filter_excludes_other_rules(capsys):
    # RC007 never fires in the obs fixtures, so filtering to it
    # turns a dirty tree into a clean run.
    assert run_static([str(FIXTURES / "obs")], rules=["RC007"]) == 0


def test_static_unknown_rule_raises():
    with pytest.raises(KeyError):
        run_static([str(FIXTURES)], rules=["RC999"])


def test_main_defaults_to_static(capsys):
    assert main([str(FIXTURES)]) == 1
    assert "violation(s)" in capsys.readouterr().out


def test_main_static_clean_tree(capsys):
    assert main(["--static", str(REPO_SRC)]) == 0


def test_harness_check_is_the_same_front_door(capsys):
    from repro.harness.cli import main as harness_main

    assert harness_main(["check", "--rule", "RC009", str(FIXTURES)]) == 1
    assert "RC009" in capsys.readouterr().out
    assert harness_main(["check", "--races", str(REPO_SRC)]) == 0


def test_sanitize_smoke_clean(capsys):
    assert run_sanitize_smoke() == 0
    out = capsys.readouterr().out
    assert "sanitized smoke clean" in out


# ----------------------------------------------------------------------
# --races
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", sorted(p.name for p in RACE_FIXTURES.glob("rc1*.py"))
)
def test_races_nonzero_on_each_seeded_mutant(name, capsys):
    # The acceptance contract: every mutant in the corpus exits non-zero.
    assert main(["--races", str(RACE_FIXTURES / name)]) == 1
    assert name.split("_")[0].upper() in capsys.readouterr().out


def test_races_zero_on_shipped_tree(capsys):
    assert main(["--races", str(REPO_SRC)]) == 0
    assert "race analysis: clean" in capsys.readouterr().out


def test_races_rule_filter(capsys):
    # RC104 never fires in the RC101 mutant, so filtering cleans it.
    assert run_races([str(RACE_FIXTURES / "rc101_dropped_lock.py")],
                     rules=["RC104"]) == 0


# ----------------------------------------------------------------------
# --strict-noqa
# ----------------------------------------------------------------------
def _noqa_case(tmp_path, body):
    out = tmp_path / "src" / "repro" / "util" / "case.py"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(body)
    return str(out)


def test_strict_noqa_clean_on_shipped_tree(capsys):
    assert main(["--strict-noqa", str(REPO_SRC)]) == 0
    assert "every suppression is live" in capsys.readouterr().out


def test_strict_noqa_accepts_live_justified_suppression(tmp_path):
    path = _noqa_case(
        tmp_path,
        "def f(seen=[]):  # repro: noqa RC007 — accumulator by design\n"
        "    return seen\n",
    )
    assert run_strict_noqa([path]) == 0


def test_strict_noqa_flags_stale_suppression(tmp_path, capsys):
    path = _noqa_case(
        tmp_path,
        "def f(seen):  # repro: noqa RC007 — nothing fires here\n"
        "    return seen\n",
    )
    assert run_strict_noqa([path]) == 1
    assert "stale suppression" in capsys.readouterr().out


def test_strict_noqa_flags_missing_justification(tmp_path, capsys):
    path = _noqa_case(
        tmp_path,
        "def f(seen=[]):  # repro: noqa RC007\n    return seen\n",
    )
    assert run_strict_noqa([path]) == 1
    assert "justification" in capsys.readouterr().out


def test_strict_noqa_ignores_docstring_prose(tmp_path):
    path = _noqa_case(
        tmp_path,
        '"""Explains that `# repro: noqa RC007` suppresses a line."""\n',
    )
    assert run_strict_noqa([path]) == 0


def test_strict_noqa_checks_file_wide_suppressions(tmp_path, capsys):
    path = _noqa_case(
        tmp_path,
        "# repro: noqa-file RC009 — no RC009 anywhere below\n"
        "def f():\n    return 1\n",
    )
    assert run_strict_noqa([path]) == 1
    assert "anywhere in this file" in capsys.readouterr().out
