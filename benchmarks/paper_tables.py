"""Golden file of every paper table and figure cell.

``paper_tables.json`` (next to this script) holds the ``headers`` and
``rows`` of every registered experiment at full float precision, as
``repro-coregraph run all --save`` produces them at
``REPRO_SCALE_DELTA=-4`` on fresh caches. ``tests/harness/
test_paper_tables.py`` regenerates it and requires an exact match, so any
change that moves a cell has to rewrite the file and say which cells moved.

Rewrite the file (≈ 10 s) from the repository root with::

    PYTHONPATH=src python benchmarks/paper_tables.py

Cells that measure wall-clock time differ between runs and are left out
(see :data:`WALL_CLOCK_COLUMNS`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

GOLDEN = Path(__file__).resolve().with_name("paper_tables.json")
SRC = Path(__file__).resolve().parents[1] / "src"
SCALE_DELTA = "-4"

#: Per experiment, the columns whose cells are wall-clock measurements.
WALL_CLOCK_COLUMNS = {"ablation_identification": ("build s",)}


def collect(results_dir: Path) -> Dict[str, Any]:
    """``{exp_id: {"headers", "rows"}}`` from a ``run --save`` directory."""
    tables: Dict[str, Any] = {}
    for path in sorted(results_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        headers = payload["headers"]
        rows = payload["rows"]
        drop = WALL_CLOCK_COLUMNS.get(payload["id"], ())
        keep = [i for i, h in enumerate(headers) if h not in drop]
        tables[payload["id"]] = {
            "headers": [headers[i] for i in keep],
            "rows": [[row[i] for i in keep] for row in rows],
        }
    return tables


def regenerate() -> Dict[str, Any]:
    """Run every experiment in a fresh process and collect its tables.

    The child inherits no ``REPRO_*`` setting (so no graph cache and the
    default hub and query counts) except the scale and a private results
    directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_SCALE_DELTA"] = SCALE_DELTA
    with tempfile.TemporaryDirectory(prefix="paper-tables-") as tmp:
        env["REPRO_RESULTS_DIR"] = str(Path(tmp) / "results")
        subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "run", "all", "--save"],
            cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        return collect(Path(env["REPRO_RESULTS_DIR"]))


def dumps(tables: Dict[str, Any]) -> str:
    """The golden file's canonical text (floats round-trip exactly)."""
    return json.dumps(tables, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(dumps(regenerate()))
    print(f"wrote {GOLDEN}")
