"""The concurrency analyzer: mutant corpus, clean tree, unit behaviors.

Acceptance contract from the issue: every seeded mutant under
``fixtures/src/repro/race`` is caught (non-zero, right rule), the
shipped tree comes out clean, and the whole-program analysis stays fast
enough to gate CI.
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.checks.race import RACE_RULES, analyze, build_model, race_rule_by_id

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro" / "race"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

EXPECTED = {
    "rc101_dropped_lock.py": "RC101",
    "rc102_inconsistent_guard.py": "RC102",
    "rc104_blocking_under_lock.py": "RC104",
    "rc105_leaked_pin.py": "RC105",
    "rc105_rename_without_fsync.py": "RC105",
}


@pytest.mark.parametrize("rel,rule_id", sorted(EXPECTED.items()))
def test_mutant_is_caught(rel, rule_id):
    violations = analyze([FIXTURES / rel])
    fired = {v.rule for v in violations}
    assert rule_id in fired, f"{rel} should trip {rule_id}, got {fired}"


@pytest.mark.parametrize("rel,rule_id", sorted(EXPECTED.items()))
def test_mutant_fires_only_its_rule(rel, rule_id):
    # Each fixture seeds exactly one defect class; cross-talk would mean
    # the analyzer is attributing findings to the wrong pass.
    fired = {v.rule for v in analyze([FIXTURES / rel])}
    assert fired == {rule_id}


def test_every_race_rule_has_a_mutant():
    assert set(EXPECTED.values()) == {r.id for r in RACE_RULES}


def test_race_rule_by_id_round_trip():
    assert race_rule_by_id("RC104").id == "RC104"
    with pytest.raises(KeyError):
        race_rule_by_id("RC999")


def test_shipped_tree_is_clean_and_fast():
    t0 = time.perf_counter()
    violations = analyze([REPO_SRC])
    elapsed = time.perf_counter() - t0
    assert violations == [], "\n".join(v.render() for v in violations)
    assert elapsed < 30.0, f"analyzer took {elapsed:.1f}s (budget 30s)"


def test_shipped_tree_raw_findings_all_suppressed():
    # Raw mode must still see the justified sites (otherwise the
    # suppressions are stale), and every one must carry a suppression.
    raw = analyze([REPO_SRC], respect_suppressions=False)
    assert raw, "expected justified raw findings in the shipped tree"
    assert analyze([REPO_SRC]) == []


def test_rule_filter_restricts_output():
    vs = analyze([FIXTURES], rules=["RC104"])
    assert vs and {v.rule for v in vs} == {"RC104"}


def _write(tmp_path: Path, body: str) -> Path:
    out = tmp_path / "src" / "repro" / "race_case.py"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(textwrap.dedent(body))
    return out


def test_noqa_suppresses_race_finding(tmp_path):
    out = _write(tmp_path, """\
        import threading


        class T:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._n = 0
                self._t = threading.Thread(target=self._spin)

            def bump(self) -> None:
                self._n = self._n + 1  # repro: noqa RC101 — test case

            def _spin(self) -> None:
                while True:
                    with self._lock:
                        snapshot = self._n
        """)
    assert analyze([out]) == []
    assert {v.rule for v in analyze([out], respect_suppressions=False)} \
        == {"RC101"}


def test_guarded_writes_are_clean(tmp_path):
    out = _write(tmp_path, """\
        import threading


        class T:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._n = 0
                self._t = threading.Thread(target=self._spin)

            def bump(self) -> None:
                with self._lock:
                    self._n = self._n + 1

            def _spin(self) -> None:
                with self._lock:
                    self._n = self._n + 1
        """)
    assert analyze([out]) == []


def test_interprocedural_lock_context_reaches_helpers(tmp_path):
    # The helper only ever runs under the lock, so its write is guarded
    # even though the `with` is in the caller.
    out = _write(tmp_path, """\
        import threading


        class T:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._n = 0
                self._t = threading.Thread(target=self._spin)

            def bump(self) -> None:
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self) -> None:
                self._n = self._n + 1

            def _spin(self) -> None:
                with self._lock:
                    self._bump_locked()
        """)
    assert analyze([out]) == []


def test_unshared_field_is_not_flagged(tmp_path):
    # No thread ever touches _n: single-threaded state needs no lock.
    out = _write(tmp_path, """\
        class T:
            def __init__(self) -> None:
                self._n = 0

            def bump(self) -> None:
                self._n = self._n + 1
        """)
    assert analyze([out]) == []


def test_budget_reuse_in_loop(tmp_path):
    out = _write(tmp_path, """\
        class Runner:
            def run_all(self, budget, jobs):
                for job in jobs:
                    budget.begin_run()
                    job()
        """)
    vs = analyze([out])
    assert [v.rule for v in vs] == ["RC105"]
    assert "BudgetReuseError" in vs[0].message


def test_budget_built_per_lap_is_clean(tmp_path):
    out = _write(tmp_path, """\
        class Runner:
            def run_all(self, jobs):
                for job in jobs:
                    budget = Budget()
                    budget.begin_run()
                    job()
        """)
    assert analyze([out]) == []


def test_init_open_without_close(tmp_path):
    out = _write(tmp_path, """\
        class Sink:
            def __init__(self, path):
                self._fh = path.open("w")

            def emit(self, line):
                self._fh.write(line)
        """)
    vs = analyze([out])
    assert [v.rule for v in vs] == ["RC105"]
    assert "closes" in vs[0].message


def test_init_open_with_close_is_clean(tmp_path):
    out = _write(tmp_path, """\
        class Sink:
            def __init__(self, path):
                self._fh = path.open("w")

            def close(self) -> None:
                self._fh.close()
        """)
    assert analyze([out]) == []


def test_model_discovers_thread_roots():
    model = build_model([FIXTURES / "rc101_dropped_lock.py"])
    roots = {k for k, s in model.methods.items() if s.is_thread_root}
    assert roots == {("DroppedLockTally", "_drain")}
