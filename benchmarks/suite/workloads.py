"""The four workloads. Each is a function of (sizes, seed, seconds, trace):
the plain run reports the end-to-end metrics, the traced run repeats the
main phase in shorter boxes under the span recorder and then runs every
layer probe on the workload's own graph.

Why these four (see README.md for the full map):

* ``static-fr1`` — the paper's own use: many queries on one big static
  graph. Rounds touch 10^5-element arrays, so numpy kernels dominate;
  serve / evolve / obs do nothing in its timed phase.
* ``serve-tt`` — a small graph behind ``QueryService``: the engine round is
  call-overhead bound and the service wrapper is a visible share. Request
  coalescing must show here; kernel-only speed-ups should show little.
* ``churn-tt`` — writes only: mutate + CG realign + fingerprint + WAL +
  snapshot. Queries never run in the timed phase, so engine work does not
  move it.
* ``live-tt`` — reads beside writes on epochs that change under the
  service, telemetry on. A delta-overlay that speeds ``apply`` but slows
  reads, or telemetry cost, shows here and nowhere else.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.evolve import EpochMaintainer, WalWriter
from repro.queries.registry import get_spec
from repro.serve import QueryService

from catalogue import CG_KINDS
from drive import (
    Tally,
    against,
    against_fresh,
    build_pair,
    closed_loop,
    pick_sources,
    query_cycle,
    reference_answers,
    speedup_stat,
    stream,
)
from layers import (
    build_metrics,
    probe_engines,
    probe_evolve,
    probe_obs,
    probe_serve,
    recover_and_check,
)
from measure import (
    Spans,
    blocked,
    clock,
    median,
    pctl,
    phase,
    rate_blocks,
    stat,
)


WCC_PER_CYCLE = 2      # static: WCC queries per cycle
BATCH_SIZE = 64        # churn and the write-path probe: edges per batch (half deletes)
SNAPSHOT_EVERY = 8     # EpochMaintainer's default cadence
LIVE_BATCH_SIZE = 8    # live: edges per batch
READS_PER_ROUND = 16   # live: reads between two batches


@dataclass(frozen=True)
class Sizes:
    """Everything that scales a workload; tests shrink these, the CLI
    never does."""

    graph: str
    scale_delta: int = 0
    hubs: int = 20
    sources: int = 16
    setup_reps: int = 3
    probe_sources: int = 16
    probe_batches: int = 4
    paced_rates: Tuple[float, float] = (40.0, 80.0)
    paced_seconds: float = 1.5
    latency_limit_ms: float = 50.0


@dataclass
class Outcome:
    metrics: Dict[str, dict]
    tally: Tally
    layer_table: Optional[dict] = None


def _repeat_setup(setup: Callable[[int], tuple], reps: int):
    """Set up ``reps`` times, tearing the previous one down first; returns
    the last product, its closer, and the median set-up time."""
    times: List[float] = []
    product, close = None, None
    for i in range(reps):
        if close is not None:
            close()
        product = None  # drop the old graph before building the next
        t0 = clock()
        product, close = setup(i)
        times.append(clock() - t0)
    mid = median(times)
    spread = (max(times) - min(times)) / mid if reps > 1 else None
    return product, close, stat(mid, reps, spread)


def _latency_metrics(latencies: List[float], block: int) -> dict:
    """p50 and p95 over blocks of ``block`` operations (one pass over the
    workload's sources, so every block holds the same mix)."""
    ms = [l * 1e3 for l in latencies]
    return {
        "op_ms_p50": blocked(ms, median, block),
        "op_ms_p95": blocked(ms, lambda b: pctl(b, 95), block),
    }


def _trace_metrics(rec: Spans, roots: List[int], overhead: dict
                   ) -> Tuple[dict, dict]:
    """``suite.*`` rows and the layer table of the traced main phase."""
    table = rec.layer_table(roots)
    wall = rec.wall(roots)
    share = {"engines": 0.0, "core": 0.0, "serve": 0.0, "evolve": 0.0}
    for name, row in table.items():
        layer = name.split(".")[0]
        if layer in share:
            share[layer] += row["self_s"] / wall
    metrics = {
        "suite.trace_overhead_frac": overhead,
        "suite.span_coverage_frac": stat(rec.coverage(roots)),
        # Whatever is not a program layer is the harness: stream generation,
        # answer checking, pacing sleeps, and the loop between spans.
        "suite.self_share.harness": stat(1.0 - sum(share.values())),
    }
    for layer, value in share.items():
        metrics[f"suite.self_share.{layer}"] = stat(value)
    for row in table.values():
        row["self_share"] = row["self_s"] / wall
    return metrics, table


def _all_probes(sz: Sizes, seed: int, tally: Tally, rec: Spans, scratch: Path,
                g, cgs, gen_s: float, build_s: dict, sources: List[int]) -> dict:
    """Every layer probe on this workload's graph (traced run only)."""
    probe = sources[:sz.probe_sources]
    refs = reference_answers(g, [("SSSP", s) for s in probe])
    out = build_metrics(g, cgs, gen_s, build_s)
    out.update(probe_engines(g, cgs, probe, tally, rec))
    out.update(probe_serve(
        g, cgs["SSSP"], probe, refs, tally, rec, rates=sz.paced_rates,
        limit_ms=sz.latency_limit_ms, w1_seconds=1.0, w8_seconds=1.5,
        paced_seconds=sz.paced_seconds))
    out.update(probe_evolve(
        g, cgs["SSSP"], tally, rec, scratch, seed=seed,
        batch_size=BATCH_SIZE, batches=sz.probe_batches, hubs=sz.hubs))
    out.update(probe_obs(g, cgs["SSSP"], probe, scratch, rec))
    return out


def _plain_and_traced(run_box: Callable, seconds: float, rec: Spans, name: str,
                      pairs: int = 4):
    """The main phase in alternating boxes: plain, then the same under the
    span recorder, ``pairs`` times. ``run_box(seconds, rec, parent)`` returns
    the operations it completed. Returns the traced boxes' root spans and
    the recorder's cost as the median pairwise ratio of seconds per
    operation, minus one."""
    roots, ratios = [], []
    for _ in range(pairs):
        t0 = clock()
        ops = run_box(seconds / pairs, None, None)
        plain = (clock() - t0) / ops
        with phase(rec, name) as root:
            ops = run_box(seconds / pairs, rec, root)
        roots.append(root)
        ratios.append(rec.wall([root]) / ops / plain)
    return roots, stat(median(ratios) - 1.0, pairs)


# ----------------------------------------------------------------------
# static-fr1
# ----------------------------------------------------------------------
def static(sz: Sizes, seed: int, seconds: float, rec: Optional[Spans],
           scratch: Path) -> Outcome:
    tally = Tally()
    traced = rec is not None
    (g, cgs, gen_s, build_s), _, setup = _repeat_setup(
        lambda i: (build_pair(sz.graph, sz.scale_delta, CG_KINDS, sz.hubs), None),
        1 if traced else sz.setup_reps)
    sources = pick_sources(g, sz.sources, seed)
    pairs = [(kind, s) for s in sources for kind in CG_KINDS]
    pairs += [("WCC", None)] * WCC_PER_CYCLE
    refs = reference_answers(g, pairs)
    query_cycle(g, cgs, pairs, refs, tally)  # warm: symmetric views, caches

    def cycles_for(box_s, rec_=None, parent=None, speedups=None, at_least=1):
        out, deadline = [], clock() + box_s
        while len(out) < at_least or clock() < deadline:
            out.append(query_cycle(g, cgs, pairs, refs, tally, rec_, parent,
                                   speedups))
        return out

    if traced:
        def run_box(box_s, rec_, parent):
            return sum(len(c) for c in cycles_for(box_s, rec_, parent))

        metrics, table = _trace_metrics(rec, *_plain_and_traced(
            run_box, 0.2 * seconds, rec, "phase:static.queries"))
        metrics.update(_all_probes(sz, seed, tally, rec, scratch, g, cgs, gen_s,
                                   build_s, sources))
        return Outcome(metrics, tally, table)

    cycles = cycles_for(0.5 * seconds, at_least=5)
    speedups: Dict[str, List[float]] = {}
    cycles_for(0.35 * seconds, speedups=speedups)
    flat = [l for cycle in cycles for l in cycle]
    # One block per cycle: every block then holds the same (kind, source) mix.
    metrics = _latency_metrics(flat, len(pairs))
    metrics["ops_per_s"] = blocked(flat, lambda b: len(b) / sum(b), len(pairs))
    metrics["speedup_vs_direct"] = speedup_stat(speedups)
    metrics["setup_s"] = setup
    return Outcome(metrics, tally)


# ----------------------------------------------------------------------
# serve-tt
# ----------------------------------------------------------------------
def serve(sz: Sizes, seed: int, seconds: float, rec: Optional[Spans],
          scratch: Path) -> Outcome:
    tally = Tally()
    traced = rec is not None
    kinds = CG_KINDS if traced else ("SSSP",)

    def setup(i):
        g, cgs, gen_s, build_s = build_pair(sz.graph, sz.scale_delta, kinds, sz.hubs)
        svc = QueryService(g, cgs["SSSP"]).start()  # default ServiceConfig
        return (g, cgs, gen_s, build_s, svc), svc.close

    (g, cgs, gen_s, build_s, svc), close, setup_stat = _repeat_setup(
        setup, 1 if traced else sz.setup_reps)
    try:
        sources = pick_sources(g, sz.sources, seed)
        check = against(reference_answers(g, [("SSSP", s) for s in sources]))
        closed_loop(svc, sources, check, tally, window=1, count=50)  # warm-up

        if traced:
            def run_box(box_s, rec_, parent):
                served = closed_loop(svc, sources, check, tally, window=1,
                                     seconds=box_s, rec=rec_, parent=parent)
                return len(served.latency)

            traced_main = _plain_and_traced(
                run_box, 0.2 * seconds, rec, "phase:serve.window1")
        else:
            w1 = closed_loop(svc, sources, check, tally, window=1,
                             seconds=0.4 * seconds)
            w8 = closed_loop(svc, sources, check, tally, window=8,
                             seconds=0.3 * seconds)
            paired = closed_loop(svc, sources, against_fresh(g), tally, window=1,
                                 seconds=0.2 * seconds, count=len(sources))
        stats = svc.stats()
        tally.check(stats.lost == 0 and stats.rejected == 0 and stats.failed == 0
                    and stats.degraded == 0, f"service accounting: {stats}")
    finally:
        close()

    if traced:
        metrics, table = _trace_metrics(rec, *traced_main)
        metrics.update(_all_probes(sz, seed, tally, rec, scratch, g, cgs, gen_s,
                                   build_s, sources))
        return Outcome(metrics, tally, table)

    metrics = _latency_metrics(w1.latency, len(sources))
    metrics["ops_per_s"] = rate_blocks(w8.done_at, w8.start, w8.end)
    metrics["speedup_vs_direct"] = stat(median(paired.speedup), len(paired.speedup))
    metrics["setup_s"] = setup_stat
    return Outcome(metrics, tally)


# ----------------------------------------------------------------------
# churn-tt
# ----------------------------------------------------------------------
def churn(sz: Sizes, seed: int, seconds: float, rec: Optional[Spans],
          scratch: Path) -> Outcome:
    tally = Tally()
    traced = rec is not None
    spec = get_spec("SSSP")

    def setup(i):
        g, cgs, gen_s, build_s = build_pair(
            sz.graph, sz.scale_delta, CG_KINDS if traced else (), sz.hubs)
        wal_dir = scratch / f"churn-wal-{i}"
        m = EpochMaintainer(
            g, spec, num_hubs=sz.hubs, wal=WalWriter(wal_dir, fsync="always"),
            snapshot_every=SNAPSHOT_EVERY)
        return (g, cgs, gen_s, build_s, m, wal_dir), m.wal.close

    (g, cgs, gen_s, build_s, m, wal_dir), close, setup_stat = _repeat_setup(
        setup, 1 if traced else sz.setup_reps)
    try:
        if traced:
            step = [0]

            def run_box(box_s, rec_, parent):
                run = stream(m, seed=seed, batch_size=BATCH_SIZE,
                             first_step=step[0], count=1, seconds=box_s,
                             rec=rec_, parent=parent)
                step[0] += len(run.applied)
                return len(run.applied)

            traced_main = _plain_and_traced(
                run_box, 0.2 * seconds, rec, "phase:churn.apply")
        else:
            # Stop half way between two snapshots, so the recovery below
            # always replays the same tail length.
            half = SNAPSHOT_EVERY // 2
            run = stream(m, seed=seed, batch_size=BATCH_SIZE,
                         seconds=0.7 * seconds, count=SNAPSHOT_EVERY,
                         until=lambda n: n % SNAPSHOT_EVERY == half)
        final = m.store.current()
    finally:
        close()

    if traced:
        metrics, table = _trace_metrics(rec, *traced_main)
        metrics.update(_all_probes(sz, seed, tally, rec, scratch, g, cgs, gen_s,
                                   build_s, pick_sources(g, sz.sources, seed)))
        return Outcome(metrics, tally, table)

    tally.attempted += len(run.applied)  # a failed apply raises
    recover_and_check(wal_dir, final.fingerprint, tally)

    # The maintained CG must still answer exactly, and still be worth using.
    pairs = [("SSSP", s) for s in pick_sources(final.graph, sz.sources, seed)]
    refs = reference_answers(final.graph, pairs)
    speedups: Dict[str, List[float]] = {}
    for _ in range(4):
        query_cycle(final.graph, {"SSSP": final.proxy}, pairs, refs, tally,
                    speedups=speedups)

    half_cycle = max(2, SNAPSHOT_EVERY // 2)
    metrics = _latency_metrics(run.applied, half_cycle)
    # A block p95 would flip with whether the block holds a snapshot batch;
    # the pooled p95 always does (one batch in eight pays the stall).
    metrics["op_ms_p95"] = stat(pctl(run.applied, 95) * 1e3, len(run.applied))
    metrics["ops_per_s"] = blocked(run.applied, lambda b: len(b) / sum(b),
                                   half_cycle)
    metrics["speedup_vs_direct"] = speedup_stat(speedups)
    metrics["setup_s"] = setup_stat
    return Outcome(metrics, tally)


# ----------------------------------------------------------------------
# live-tt
# ----------------------------------------------------------------------
def live(sz: Sizes, seed: int, seconds: float, rec: Optional[Spans],
         scratch: Path) -> Outcome:
    tally = Tally()
    traced = rec is not None
    spec = get_spec("SSSP")

    def setup(i):
        with ExitStack() as stack:
            stack.enter_context(obs.telemetry(
                trace_path=scratch / f"live-journal-{i}.jsonl", seed=seed))
            g, cgs, gen_s, build_s = build_pair(
                sz.graph, sz.scale_delta, CG_KINDS if traced else (), sz.hubs)
            m = EpochMaintainer(
                g, spec, num_hubs=sz.hubs,
                wal=WalWriter(scratch / f"live-wal-{i}", fsync="always"),
                snapshot_every=SNAPSHOT_EVERY)
            stack.callback(m.wal.close)
            svc = QueryService(epochs=m.store, maintainer=m).start()
            stack.callback(svc.close)
            return (g, cgs, gen_s, build_s, m, svc), stack.pop_all().close

    (g, cgs, gen_s, build_s, m, svc), close, setup_stat = _repeat_setup(
        setup, 1 if traced else sz.setup_reps)
    # More sources than one round reads: rounds walk through them in turn,
    # so the seed's draw of sources moves the medians less.
    sources = pick_sources(g, sz.sources, seed)
    reads: List[float] = []
    speedups: List[float] = []
    round_rates: List[float] = []

    def one_round(rec_=None, parent=None) -> int:
        """One batch, then the reads; every read is checked against a fresh
        direct evaluation on the epoch that batch published."""
        r = len(round_rates)
        wrote = stream(m, seed=seed, batch_size=LIVE_BATCH_SIZE, first_step=r,
                       count=1, rec=rec_, parent=parent)
        epoch = wrote.results[0]
        got = closed_loop(
            svc, sources, against_fresh(epoch.graph, rec_, parent, epoch), tally,
            window=1, count=READS_PER_ROUND, rec=rec_, parent=parent,
            first=r * READS_PER_ROUND)
        reads.extend(got.latency)
        speedups.extend(got.speedup)
        round_rates.append(
            len(got.latency) / (wrote.applied[0] + sum(got.latency)))
        return len(got.latency)

    try:
        one_round()  # warm-up
        warm = len(reads)

        if traced:
            def run_box(box_s, rec_, parent):
                deadline, ops = clock() + box_s, 0
                while not ops or clock() < deadline:
                    ops += one_round(rec_, parent)
                return ops

            traced_main = _plain_and_traced(
                run_box, 0.2 * seconds, rec, "phase:live.rounds")
        else:
            deadline = clock() + 0.9 * seconds
            while len(round_rates) < 6 or clock() < deadline:
                one_round()
        stats = svc.stats()
        tally.attempted += len(round_rates)  # a failed apply raises
        tally.check(stats.lost == 0 and stats.rejected == 0 and stats.failed == 0
                    and stats.degraded == 0, f"service accounting: {stats}")
    finally:
        close()

    if traced:
        metrics, table = _trace_metrics(rec, *traced_main)
        metrics.update(_all_probes(sz, seed, tally, rec, scratch, g, cgs, gen_s,
                                   build_s, sources))
        return Outcome(metrics, tally, table)

    metrics = _latency_metrics(reads[warm:], 2 * READS_PER_ROUND)
    metrics["ops_per_s"] = blocked(round_rates[1:], median, 2)
    metrics["ops_per_s"]["n"] = len(reads) - warm
    metrics["speedup_vs_direct"] = stat(median(speedups[warm:]),
                                        len(speedups) - warm)
    metrics["setup_s"] = setup_stat
    return Outcome(metrics, tally)


@dataclass(frozen=True)
class Workload:
    run: Callable
    sizes: Sizes
    why: str


WORKLOADS: Dict[str, Workload] = {
    "static-fr1": Workload(
        static,
        # Slower service per request than TT: lower paced rates, looser limit.
        Sizes("FR", scale_delta=1, sources=16, probe_batches=2,
              paced_rates=(8.0, 16.0), latency_limit_ms=150.0),
        "many queries on one big static graph (FR+1, 32k v / 468k e): numpy "
        "kernels dominate; serve, evolve and obs are not on its timed path"),
    "serve-tt": Workload(
        serve,
        Sizes("TT", sources=64, paced_seconds=2.4),
        "small graph (TT, 8k v / 111k e) behind QueryService: call overhead "
        "and the service wrapper show; kernel-only speed-ups should not"),
    "churn-tt": Workload(
        churn,
        Sizes("TT", sources=16),
        "writes only on TT: mutate + CG realign + fingerprint + fsync'd WAL + "
        "snapshots; no query runs in the timed phase, so engine work is absent"),
    "live-tt": Workload(
        live,
        Sizes("TT", sources=64),
        "reads beside 8-edge writes on changing epochs with telemetry on: the "
        "only workload where obs cost and read/write trade-offs show"),
}
