"""The suite's metric catalogue: what is measured, in which unit, which way
is better, and — for layer metrics — which end-to-end number on which
workload the layer is expected to move.

``BENCHMARK.json`` at the repository root carries the subset of this table
the driver understands (name / unit / better / bound); ``test_suite.py``
holds the two in agreement. Everything else here (``exact``, ``moves``) is
what ``run.py --agree`` and the README are generated against.

Every workload emits every name. End-to-end metrics mean "what the caller
of this workload sees" (see ``OP`` below); layer metrics are taken on the
workload's own graph by the probes in ``layers.py``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: Query kinds with their own ``.K`` layer rows. WCC shares REACH's CG.
KINDS: Tuple[str, ...] = ("SSSP", "SSWP", "REACH", "WCC")
#: Kinds that get a core graph built for them.
CG_KINDS: Tuple[str, ...] = ("SSSP", "SSWP", "REACH")

#: The operation ``op_ms_*`` / ``ops_per_s`` time on each workload.
OP: Dict[str, str] = {
    "static-fr1": "one two_phase() call (SSSP/SSWP/REACH over 16 sources + 2 WCC per cycle)",
    "serve-tt": "one SSSP request through QueryService: submit -> result at window 1; "
                "ops_per_s is the window-8 closed-loop saturation rate",
    "churn-tt": "one EpochMaintainer.apply() of a 64-edge batch, acked after the fsync'd "
                "WAL append (p95 carries the snapshot stall)",
    "live-tt": "one SSSP read through QueryService between 8-edge batches, telemetry on; "
               "ops_per_s counts reads over apply + read time",
}


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    what: str


class Layer(NamedTuple):
    unit: str
    better: str
    exact: bool  # must repeat bit-for-bit for one (commit, seed)
    moves: str   # end-to-end metric @ workload this layer should move


END_TO_END: Dict[str, EndToEnd] = {
    "setup_s": EndToEnd(
        "s", "lower", 0.25,
        "graph generation + CG build(s) + maintainer/WAL/service start, "
        "median of three set-ups"),
    "op_ms_p50": EndToEnd(
        "ms", "lower", 0.25,
        "median latency of the workload's operation (median of block medians)"),
    "op_ms_p95": EndToEnd(
        "ms", "lower", 0.25,
        "95th percentile of the same latencies, pooled over the phase"),
    "ops_per_s": EndToEnd(
        "1/s", "higher", 0.25,
        "operations completed per second of measured time"),
    "speedup_vs_direct": EndToEnd(
        "ratio", "higher", 0.25,
        "median over sources of direct evaluate_query ms / the 2Phase answer's "
        "ms at this workload's surface, on the graph the answer was computed on"),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.10, "ru_maxrss of the workload process"),
}


def _per_kind(prefix: str, kinds: Tuple[str, ...], row: Layer) -> Dict[str, Layer]:
    return {f"{prefix}.{k}": row for k in kinds}


_STATIC = "op_ms_p50, speedup_vs_direct @ static-fr1"
_SERVE = "op_ms_p50, ops_per_s @ serve-tt"
_APPLY = "op_ms_p50 @ churn-tt; ops_per_s @ live-tt"

LAYERS: Dict[str, Layer] = {
    # -- set-up -----------------------------------------------------------
    "datasets.graph_gen_s": Layer("s", "lower", False, "setup_s @ all"),
    **_per_kind("core.cg_build_s", CG_KINDS,
                Layer("s", "lower", False, "setup_s @ all")),
    **_per_kind("core.cg_edge_frac", CG_KINDS,
                Layer("ratio", "lower", True, "speedup_vs_direct @ static-fr1")),
    # -- engine round and 2Phase ------------------------------------------
    **_per_kind("engines.direct_ms_p50", KINDS,
                Layer("ms", "lower", False, "speedup_vs_direct @ all")),
    **_per_kind("engines.core_phase_ms_p50", KINDS,
                Layer("ms", "lower", False, _STATIC)),
    **_per_kind("core.two_phase_ms_p50", KINDS,
                Layer("ms", "lower", False, _STATIC + "; " + _SERVE)),
    **_per_kind("engines.edges_per_query", KINDS,
                Layer("count", "lower", True, _STATIC)),
    **_per_kind("engines.rounds_per_query", KINDS,
                Layer("count", "lower", True, "op_ms_p50 @ serve-tt")),
    **_per_kind("core.edge_reduction", KINDS,
                Layer("ratio", "lower", True, "speedup_vs_direct @ static-fr1")),
    "core.impacted_frac": Layer("ratio", "lower", True,
                                "speedup_vs_direct @ static-fr1"),
    "core.glue_ms_p50": Layer("ms", "lower", False, "op_ms_p50 @ serve-tt"),
    "engines.medges_per_s": Layer("Medges/s", "higher", False, _STATIC),
    "engines.us_per_round": Layer("us", "lower", False, "op_ms_p50 @ serve-tt"),
    "engines.batch8_ms_per_source": Layer(
        "ms", "lower", False, "ops_per_s @ serve-tt once coalescing lands"),
    "core.batch2phase_ms_per_source": Layer(
        "ms", "lower", False, "ops_per_s @ serve-tt once coalescing lands"),
    # -- service wrapper --------------------------------------------------
    "serve.start_stop_s": Layer("s", "lower", False, "setup_s @ serve-tt, live-tt"),
    "serve.submit_us_p50": Layer("us", "lower", False, _SERVE),
    "serve.queue_wait_ms_p50": Layer("ms", "lower", False, "ops_per_s @ serve-tt"),
    "serve.queue_wait_ms_p95": Layer("ms", "lower", False, "ops_per_s @ serve-tt"),
    "serve.service_ms_p50": Layer("ms", "lower", False, _SERVE),
    "serve.overhead_ms_p50": Layer("ms", "lower", False,
                                   "op_ms_p50 @ serve-tt, live-tt"),
    "serve.latency_ms_p99": Layer("ms", "lower", False, "op_ms_p95 @ serve-tt"),
    "serve.window8_rps": Layer("1/s", "higher", False, "ops_per_s @ serve-tt"),
    "serve.paced_p95_ms_lo": Layer("ms", "lower", False, "op_ms_p95 @ serve-tt"),
    "serve.paced_p95_ms_hi": Layer("ms", "lower", False, "op_ms_p95 @ serve-tt"),
    "serve.gen_lateness_ms_p95": Layer("ms", "lower", False,
                                       "generator health; moves nothing"),
    "serve.max_rate_ok": Layer("1/s", "higher", False, "ops_per_s @ serve-tt"),
    "serve.rejected": Layer("count", "lower", False, "failed @ all"),
    "serve.degraded": Layer("count", "lower", False, "failed @ all"),
    "serve.failed": Layer("count", "lower", False, "failed @ all"),
    "serve.lost": Layer("count", "lower", False, "failed @ all"),
    # -- mutation path, inner to outer ------------------------------------
    "evolve.stream_gen_ms_p50": Layer("ms", "lower", False,
                                      "harness cost; excluded from op_ms"),
    "graph.mutate_ms_p50": Layer("ms", "lower", False, _APPLY),
    "graph.fingerprint_ms": Layer("ms", "lower", False, _APPLY),
    "core.evolving_self_ms_p50": Layer("ms", "lower", False, _APPLY),
    "evolve.epoch_self_ms_p50": Layer("ms", "lower", False, _APPLY),
    "evolve.wal_self_ms_p50": Layer(
        "ms", "lower", False,
        "op_ms_p50 @ churn-tt (visible only once realign is O(batch))"),
    "evolve.apply_ms_p50": Layer("ms", "lower", False, _APPLY),
    "evolve.wal_append_us_p50": Layer("us", "lower", False, "op_ms_p50 @ churn-tt"),
    "evolve.wal_fsyncs_per_batch": Layer("count", "lower", True,
                                         "op_ms_p50 @ churn-tt"),
    "evolve.wal_bytes_per_edge": Layer("B", "lower", True, "op_ms_p50 @ churn-tt"),
    "evolve.snapshot_save_ms": Layer("ms", "lower", False, "op_ms_p95 @ churn-tt"),
    "evolve.snapshot_bytes_per_edge": Layer("B", "lower", False,
                                            "op_ms_p95 @ churn-tt"),
    "evolve.snapshot_load_ms": Layer("ms", "lower", False,
                                     "evolve.recover_ms_per_batch"),
    "evolve.read_wal_ms": Layer("ms", "lower", False,
                                "evolve.recover_ms_per_batch"),
    "evolve.recover_ms_per_batch": Layer("ms", "lower", False,
                                         "restart time after a crash @ churn-tt"),
    # -- telemetry --------------------------------------------------------
    "obs.overhead_frac.metrics": Layer("ratio", "lower", False,
                                       "op_ms_p50, ops_per_s @ live-tt only"),
    "obs.overhead_frac.journal": Layer("ratio", "lower", False,
                                       "op_ms_p50, ops_per_s @ live-tt only"),
    "obs.journal_bytes_per_query": Layer("B", "lower", False,
                                         "ops_per_s @ live-tt only"),
    # -- the traced main phase: where the workload's own time went --------
    "suite.trace_overhead_frac": Layer("ratio", "lower", False,
                                       "cost of the suite's span recorder"),
    "suite.span_coverage_frac": Layer("ratio", "higher", False,
                                      "share of the traced phase inside layer spans"),
    "suite.self_share.engines": Layer("ratio", "lower", False, "op_ms_p50 @ workload"),
    "suite.self_share.core": Layer("ratio", "lower", False, "op_ms_p50 @ workload"),
    "suite.self_share.serve": Layer("ratio", "lower", False, "op_ms_p50 @ workload"),
    "suite.self_share.evolve": Layer("ratio", "lower", False, "op_ms_p50 @ workload"),
    "suite.self_share.harness": Layer("ratio", "lower", False,
                                      "generator + bookkeeping; excluded from op_ms"),
}
