"""Every paper table and figure cell matches the committed golden file.

Regenerates all experiments in a subprocess (≈ 10 s) and compares them
cell for cell, exactly, with ``benchmarks/paper_tables.json``. A change
that moves a cell rewrites the file with
``PYTHONPATH=src python benchmarks/paper_tables.py`` and lists the moved
cells in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "paper_tables.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("paper_tables", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved_cells(golden, fresh):
    """Human-readable list of every cell that differs."""
    moved = []
    for exp_id in sorted(set(golden) | set(fresh)):
        old, new = golden.get(exp_id), fresh.get(exp_id)
        if old is None or new is None:
            moved.append(f"{exp_id}: only in {'fresh' if old is None else 'golden'}")
            continue
        if old["headers"] != new["headers"] or len(old["rows"]) != len(new["rows"]):
            moved.append(f"{exp_id}: table shape changed")
            continue
        for r, (a, b) in enumerate(zip(old["rows"], new["rows"])):
            for h, x, y in zip(old["headers"], a, b):
                if x != y:
                    moved.append(f"{exp_id} row {r} ({a[0]}) {h}: {x} -> {y}")
    return moved


def test_paper_tables_match_golden_file():
    script = _load_script()
    fresh = script.dumps(script.regenerate())
    golden = script.GOLDEN.read_text()
    if fresh != golden:
        moved = _moved_cells(json.loads(golden), json.loads(fresh))
        raise AssertionError(
            f"{len(moved)} paper-table cells moved:\n" + "\n".join(moved[:50])
        )
