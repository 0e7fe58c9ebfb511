#!/usr/bin/env python3
"""The repository's benchmark: four workloads, one command.

    python3 benchmarks/suite/run.py --workload serve-tt --seed 11 --seconds 12 --trace 0
    python3 benchmarks/suite/run.py --out benchmarks/suite/out/run.json   # all workloads
    python3 benchmarks/suite/run.py --agree A.json B.json

With ``--workload`` the process *is* the workload (so ``peak_rss_mb`` and
every cache are per-workload) and its last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it every workload runs both ways in a subprocess of its own and the
detailed results (sample counts, within-run spread, layer tables) are
written to ``--out``. See README.md for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
SRC_DIR = SUITE_DIR.parent.parent / "src"
sys.path.insert(0, str(SUITE_DIR))
sys.path.insert(0, str(SRC_DIR))

try:
    import repro  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"cannot import the program under test from {SRC_DIR}: {exc}")

from catalogue import END_TO_END, LAYERS, OP  # noqa: E402
from measure import (  # noqa: E402
    OUT_DIR,
    Spans,
    environment,
    peak_rss_mb,
    refuse_foreign_env,
    scratch_dir,
    stat,
)
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 11


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None) -> dict:
    """Run one workload in this process; returns the detailed result."""
    workload = WORKLOADS[name]
    rec = Spans() if trace else None
    with scratch_dir() as scratch:
        outcome = workload.run(sizes or workload.sizes, seed, seconds, rec, scratch)
    tally = outcome.tally
    catalogue = LAYERS if trace else END_TO_END
    if trace:
        for problem in rec.problems():
            tally.check(False, problem)
        rec.dump(OUT_DIR / f"trace-{name}.jsonl")
    else:
        outcome.metrics["peak_rss_mb"] = stat(peak_rss_mb())
    if set(outcome.metrics) != set(catalogue):
        missing = sorted(set(catalogue) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(catalogue))
        raise RuntimeError(f"{name}: metrics missing {missing}, uncatalogued {extra}")
    for metric, row in outcome.metrics.items():
        row["unit"] = catalogue[metric].unit
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": tally.attempted, "failed": tally.failed,
        "notes": tally.notes, "metrics": outcome.metrics,
        "layer_table": outcome.layer_table,
    }


def contract_line(result: dict) -> str:
    """The one-line object the benchmark driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in result["metrics"].items()
        },
    })


def run_all(seed: int, seconds: float, out: Path) -> int:
    """Every workload, plain then traced, each in its own subprocess."""
    merged = {"env": environment(seed), "seconds": seconds, "workloads": {}}
    failed = 0
    for name in WORKLOADS:
        slot = merged["workloads"][name] = {"op": OP[name]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            part = OUT_DIR / f"part-{name}-{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--out", str(part)],
                stdout=subprocess.DEVNULL)
            if not part.exists():
                raise SystemExit(f"{name} --trace {trace} exited {proc.returncode} "
                                 "without a result")
            result = json.loads(part.read_text())
            part.unlink()
            slot[key] = result["metrics"]
            slot[f"{key}_checks"] = {k: result[k] for k in
                                     ("attempted", "failed", "notes")}
            if trace:
                slot["layer_table"] = result["layer_table"]
            failed += result["failed"]
            print(f"== {name} --trace {trace}: {result['attempted']} checked, "
                  f"{result['failed']} failed")
            for metric, row in result["metrics"].items():
                print(f"   {metric:38s} {row['value']:14.4f} {row['unit']:9s}"
                      f" n={row['n']}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# --agree
# ----------------------------------------------------------------------
def agree(path_a: Path, path_b: Path) -> int:
    """One row per (metric, workload): do two result files agree?

    ``same``: B is within the metric's bound of A. ``unresolved``: it is
    not, but the within-run spread either file recorded is wider than the
    bound, so the difference cannot be told from noise. ``differs``:
    otherwise — and always for an exact-count layer metric that changed.
    """
    a, b = (json.loads(p.read_text())["workloads"] for p in (path_a, path_b))
    differs = 0
    print(f"{'workload':11s} {'metric':34s} {'A':>12s} {'B':>12s} {'B vs A':>8s}  verdict")
    for name in a:
        if name not in b:
            print(f"{name:11s} missing from {path_b}")
            differs += 1
            continue
        for metric, spec in END_TO_END.items():
            ra, rb = a[name]["end_to_end"][metric], b[name]["end_to_end"][metric]
            rel = (rb["value"] - ra["value"]) / ra["value"]
            spread = max(ra["spread"] or 0.0, rb["spread"] or 0.0)
            if abs(rel) <= spec.bound:
                verdict = "same"
            elif spread > spec.bound:
                verdict = "unresolved"
            else:
                verdict = "differs"
                differs += 1
            print(f"{name:11s} {metric:34s} {ra['value']:12.4f} {rb['value']:12.4f} "
                  f"{rel:+8.1%}  {verdict}")
        failed = sum(f[name][f"{k}_checks"]["failed"]
                     for f in (a, b) for k in ("end_to_end", "per_layer"))
        if failed:
            print(f"{name:11s} {failed} failed operations  differs")
            differs += 1
        for metric, spec in LAYERS.items():
            if not spec.exact:
                continue
            va = a[name]["per_layer"][metric]["value"]
            vb = b[name]["per_layer"][metric]["value"]
            if va != vb:
                print(f"{name:11s} {metric:34s} {va:12.6f} {vb:12.6f} "
                      f"{'':8s}  differs (exact count)")
                differs += 1
    print(f"{differs} differing rows")
    return 1 if differs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="measured time per run (BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the detailed result here")
    ap.add_argument("--agree", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.agree:
        return agree(*args.agree)
    refuse_foreign_env()
    if SRC_DIR not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not this checkout")
    if args.workload is None:
        return run_all(args.seed, args.seconds,
                       args.out or OUT_DIR / f"run-seed{args.seed}.json")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    for note in result["notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    print(contract_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
