"""Layer probes: each layer's cost on the workload's own graph, measured
from outside.

A layer's *self* time is obtained by replaying the same inputs against
successively outer public entry points and subtracting — ``graph.mutate``
alone, then ``EvolvingCoreGraph``, then ``EpochMaintainer.apply`` without
and with a WAL; bare ``two_phase`` then the same sources through
``QueryService`` — or by reading the public return values (``RunStats``,
``Outcome.wait_s``/``service_s``, ``WalWriter.stats()``). Every probe runs
on every workload, so a layer row exists for each (layer, workload) pair.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core import EvolvingCoreGraph, two_phase, two_phase_batch
from repro.engines import RunStats, evaluate_batch, evaluate_query
from repro.evolve import (
    EpochMaintainer,
    SnapshotStore,
    WalWriter,
    next_batch,
    read_wal,
    recover,
)
from repro.graph.mutate import add_edges, remove_edges
from repro.queries.registry import get_spec
from repro.serve import QueryService

from catalogue import CG_KINDS, KINDS
from drive import Tally, against, cg_for, closed_loop, open_loop
from measure import Spans, clock, median, pctl, phase, stat, timed


def build_metrics(g, cgs, gen_s: float, build_s: Dict[str, float]) -> dict:
    out = {"datasets.graph_gen_s": stat(gen_s)}
    for kind in CG_KINDS:
        out[f"core.cg_build_s.{kind}"] = stat(build_s[kind])
        out[f"core.cg_edge_frac.{kind}"] = stat(
            cgs[kind].num_edges / g.num_edges)
    return out


# ----------------------------------------------------------------------
# Engine round and 2Phase
# ----------------------------------------------------------------------
def probe_engines(g, cgs, sources: Sequence[int], tally: Tally,
                  rec: Optional[Spans]) -> dict:
    """Direct, core-phase-only and 2Phase evaluation of the same pairs."""
    out: dict = {}
    edges_total = wall_total = 0.0
    rounds_us: List[float] = []
    glue: List[float] = []
    impacted: List[float] = []
    with phase(rec, "probe:engines") as root:
        for kind in KINDS:
            spec = get_spec(kind)
            cg = cg_for(cgs, kind)
            srcs = [None] if kind == "WCC" else list(sources)
            direct, core, full = [], [], []
            d_edges, d_rounds, t_edges = [], [], []
            for i, source in enumerate(srcs):
                d_stats, c_stats = RunStats(), RunStats()
                ref, t0, t1, _ = timed(rec, root, "engines.direct", evaluate_query,
                                       g, spec, source, stats=d_stats, request=i)
                direct.append(t1 - t0)
                _, t0, t1, _ = timed(rec, root, "engines.core_only", evaluate_query,
                                     cg.graph, spec, source, stats=c_stats,
                                     request=i)
                core.append(t1 - t0)
                res, t0, t1, _ = timed(rec, root, "core.two_phase", two_phase,
                                       g, cg, spec, source, request=i)
                full.append(t1 - t0)
                tally.check(np.array_equal(res.values, ref),
                            f"probe two_phase {kind} from {source} is wrong")
                total = res.total
                d_edges.append(d_stats.edges_processed)
                d_rounds.append(d_stats.iterations)
                t_edges.append(total.edges_processed)
                edges_total += d_stats.edges_processed + total.edges_processed
                wall_total += d_stats.wall_time + total.wall_time
                if total.iterations:
                    rounds_us.append(total.wall_time / total.iterations * 1e6)
                glue.append((t1 - t0) - total.wall_time)
                impacted.append(res.impacted / g.num_vertices)
            n = len(srcs)
            out[f"engines.direct_ms_p50.{kind}"] = stat(median(direct) * 1e3, n)
            out[f"engines.core_phase_ms_p50.{kind}"] = stat(median(core) * 1e3, n)
            out[f"core.two_phase_ms_p50.{kind}"] = stat(median(full) * 1e3, n)
            out[f"engines.edges_per_query.{kind}"] = stat(np.mean(d_edges), n)
            out[f"engines.rounds_per_query.{kind}"] = stat(np.mean(d_rounds), n)
            out[f"core.edge_reduction.{kind}"] = stat(
                np.sum(t_edges) / max(1, np.sum(d_edges)), n)
        out["core.impacted_frac"] = stat(np.mean(impacted), len(impacted))
        out["core.glue_ms_p50"] = stat(median(glue) * 1e3, len(glue))
        out["engines.medges_per_s"] = stat(edges_total / wall_total / 1e6, len(glue))
        out["engines.us_per_round"] = stat(median(rounds_us), len(rounds_us))

        # One edge scan amortised over eight sources: what a coalescing
        # executor would pay per request.
        eight = list(sources[:8])
        sssp = get_spec("SSSP")
        _, t0, t1, _ = timed(rec, root, "engines.batch8", evaluate_batch,
                             g, sssp, eight)
        out["engines.batch8_ms_per_source"] = stat((t1 - t0) / len(eight) * 1e3)
        res, t0, t1, _ = timed(rec, root, "core.batch2phase", two_phase_batch,
                               g, cgs["SSSP"], sssp, eight)
        out["core.batch2phase_ms_per_source"] = stat((t1 - t0) / len(eight) * 1e3)
        ref = evaluate_query(g, sssp, eight[0])
        tally.check(np.array_equal(res.values[0], ref), "two_phase_batch is wrong")
    return out


# ----------------------------------------------------------------------
# Service wrapper
# ----------------------------------------------------------------------
def serve_metrics(w1, w8, paced: Dict[str, dict], rates: Sequence[float],
                  limit_ms: float, overhead: List[float],
                  svc_stats, start_stop_s: float) -> dict:
    """The ``serve.*`` rows from a window-1 phase, a window-8 phase and the
    two paced phases (``paced`` maps "lo"/"hi" to ``open_loop`` results)."""
    out = {
        "serve.start_stop_s": stat(start_stop_s),
        "serve.submit_us_p50": stat(median(w1.submit) * 1e6, len(w1.submit)),
        "serve.service_ms_p50": stat(median(w1.service) * 1e3, len(w1.service)),
        "serve.latency_ms_p99": stat(pctl(w1.latency, 99) * 1e3, len(w1.latency)),
        "serve.queue_wait_ms_p50": stat(median(w8.wait) * 1e3, len(w8.wait)),
        "serve.queue_wait_ms_p95": stat(pctl(w8.wait, 95) * 1e3, len(w8.wait)),
        "serve.window8_rps": stat(len(w8.latency) / (w8.end - w8.start),
                                  len(w8.latency)),
    }
    out["serve.overhead_ms_p50"] = stat(median(overhead) * 1e3, len(overhead))
    ok_rate, lateness = 0.0, []
    for key, rate in zip(("lo", "hi"), rates):
        run = paced[key]
        lat = run["served"].latency
        p95 = pctl(lat, 95) * 1e3
        out[f"serve.paced_p95_ms_{key}"] = stat(p95, len(lat))
        lateness += run["lateness"]
        if p95 <= limit_ms and not run["growing"] and not run["failed"]:
            ok_rate = max(ok_rate, rate)
    out["serve.gen_lateness_ms_p95"] = stat(pctl(lateness, 95) * 1e3, len(lateness))
    out["serve.max_rate_ok"] = stat(ok_rate)
    out["serve.rejected"] = stat(svc_stats.rejected)
    out["serve.degraded"] = stat(svc_stats.degraded)
    out["serve.failed"] = stat(svc_stats.failed)
    out["serve.lost"] = stat(svc_stats.lost)
    return out


def paced_phases(svc, sources, check, tally: Tally, rates: Sequence[float],
                 seconds: float, rec: Optional[Spans]) -> Dict[str, dict]:
    out = {}
    for key, rate in zip(("lo", "hi"), rates):
        before = tally.failed
        with phase(rec, f"phase:serve.paced_{key}") as root:
            out[key] = open_loop(svc, sources, check, tally, rate=rate,
                                 seconds=seconds, rec=rec, parent=root)
        out[key]["failed"] = tally.failed - before
    return out


def probe_serve(g, cg, sources: Sequence[int], refs: Dict, tally: Tally,
                rec: Optional[Spans], *, rates: Sequence[float], limit_ms: float,
                w1_seconds: float, w8_seconds: float, paced_seconds: float) -> dict:
    """A fresh default-config service over ``(g, cg)``: the wrapper's
    overhead, window 1, window 8, then the two paced rates."""

    check = against(refs)
    t0 = clock()
    svc = QueryService(g, cg).start()
    started = clock() - t0
    try:
        closed_loop(svc, sources, check, tally, window=1, count=len(sources))
        overhead = wrapper_overhead(svc, g, cg, sources, check, tally)
        with phase(rec, "phase:serve.window1") as root:
            w1 = closed_loop(svc, sources, check, tally, window=1,
                             seconds=w1_seconds, count=len(sources),
                             rec=rec, parent=root)
        with phase(rec, "phase:serve.window8") as root:
            w8 = closed_loop(svc, sources, check, tally, window=8,
                             seconds=w8_seconds, count=2 * len(sources),
                             rec=rec, parent=root)
        paced = paced_phases(svc, sources, check, tally, rates, paced_seconds, rec)
        stats = svc.stats()
    finally:
        t0 = clock()
        svc.close()
        stopped = clock() - t0
    return serve_metrics(w1, w8, paced, rates, limit_ms, overhead, stats,
                         started + stopped)


def wrapper_overhead(svc, g, cg, sources: Sequence[int], check, tally: Tally,
                     passes: int = 3) -> List[float]:
    """One request through the idle service minus bare ``two_phase`` from
    the same source, the two taken back to back so that they share whatever
    the machine and the allocator were doing."""
    spec = get_spec("SSSP")
    out = []
    for _ in range(passes):
        for source in sources:
            t0 = clock()
            two_phase(g, cg, spec, source)
            bare = clock() - t0
            one = closed_loop(svc, [source], check, tally, window=1, count=1)
            out.append(one.latency[0] - bare)
    return out


# ----------------------------------------------------------------------
# Mutation path, inner to outer
# ----------------------------------------------------------------------
def probe_evolve(g, cg, tally: Tally, rec: Optional[Spans], scratch: Path, *,
                 seed: int, batch_size: int, batches: int, hubs: int) -> dict:
    """One seeded batch stream against every rung of the write path in
    lockstep — each batch goes to ``graph.mutate`` alone, to
    ``EvolvingCoreGraph``, to ``EpochMaintainer.apply`` without a log and
    with one, back to back, all four started from the same graph. A rung's
    self time is the median over batches of (rung − the rung below), so a
    noisy second moves one pair, not the difference. Then the durable
    pieces alone: WAL append, snapshot, log read, recovery."""
    spec = get_spec("SSSP")
    out: dict = {}
    state = {"g": g}
    ev = EvolvingCoreGraph(g, spec, num_hubs=hubs, cg=cg)
    volatile = EpochMaintainer(g, spec, num_hubs=hubs)
    wal_dir = scratch / "probe-wal"
    durable = EpochMaintainer(
        g, spec, num_hubs=hubs, wal=WalWriter(wal_dir, fsync="always"),
        snapshot_every=0)

    def mutate(inserts, deletes):
        grown = add_edges(state["g"], inserts)
        state["g"], _ = remove_edges(grown, deletes)

    def evolve(inserts, deletes):
        ev.insert_edges(inserts)
        ev.delete_edges(deletes)

    rungs = (("graph.mutate", mutate), ("core.evolving", evolve),
             ("evolve.apply_volatile", volatile.apply),
             ("evolve.apply", durable.apply))
    took: List[List[float]] = []
    generated, fingerprints, batches_seen = [], [], []
    with phase(rec, "probe:evolve") as root:
        try:
            for step in range(batches):
                batch, t0, t1, _ = timed(
                    rec, root, "suite.stream_gen", next_batch, state["g"], step,
                    batch_size=batch_size, delete_fraction=0.5, seed=seed)
                generated.append(t1 - t0)
                batches_seen.append(batch)
                # Whichever rung goes first pays for cold caches and fresh
                # pages; rotate the order so no rung pays it every time.
                row = [0.0] * len(rungs)
                for k in range(len(rungs)):
                    k = (k + step) % len(rungs)
                    name, apply = rungs[k]
                    _, t0, t1, _ = timed(rec, root, name, apply, batch.inserts,
                                         batch.deletes, request=step)
                    row[k] = t1 - t0
                took.append(row)
                # fingerprint() caches on the graph object; a mutate result
                # is a fresh graph, so this is what an epoch stamp pays.
                _, t0, t1, _ = timed(rec, root, "graph.fingerprint",
                                     state["g"].fingerprint)
                fingerprints.append(t1 - t0)
            last = durable.store.current()
        finally:
            durable.wal.close()
        final_fingerprint = state["g"].fingerprint()
        tally.check(ev.graph.fingerprint() == final_fingerprint
                    and volatile.store.current().fingerprint == final_fingerprint
                    and last.fingerprint == final_fingerprint,
                    "the write-path rungs diverged on the same batch stream")

        def rung_ms(k: int, below: Optional[int] = None) -> dict:
            return stat(median([row[k] - (row[below] if below is not None else 0.0)
                                for row in took]) * 1e3, batches)

        out["evolve.stream_gen_ms_p50"] = stat(median(generated) * 1e3, batches)
        out["graph.mutate_ms_p50"] = rung_ms(0)
        out["graph.fingerprint_ms"] = stat(median(fingerprints) * 1e3, batches)
        out["core.evolving_self_ms_p50"] = rung_ms(1, 0)
        out["evolve.epoch_self_ms_p50"] = rung_ms(2, 1)
        out["evolve.wal_self_ms_p50"] = rung_ms(3, 2)
        out["evolve.apply_ms_p50"] = rung_ms(3)

        # The log alone: the same payloads appended to a standalone writer.
        appends = []
        with WalWriter(scratch / "probe-wal-alone", fsync="always") as alone:
            for i, batch in enumerate(batches_seen):
                _, t0, t1, _ = timed(
                    rec, root, "evolve.wal_append", alone.append, "batch", i + 1,
                    fingerprint=final_fingerprint,
                    inserts=[list(e) for e in batch.inserts],
                    deletes=[list(p) for p in batch.deletes])
                appends.append(t1 - t0)
            wal_stats = alone.stats()
        out["evolve.wal_append_us_p50"] = stat(median(appends) * 1e6, len(appends))
        out["evolve.wal_fsyncs_per_batch"] = stat(wal_stats["fsyncs"] / batches)
        out["evolve.wal_bytes_per_edge"] = stat(
            wal_stats["bytes"] / (batches * batch_size))

        # Snapshot save / load of the last epoch, three times each.
        snaps = SnapshotStore(scratch / "probe-snapshots")
        saves, loads = [], []
        for _ in range(3):
            path, t0, t1, _ = timed(rec, root, "evolve.snapshot_save",
                                    snaps.save, last)
            saves.append(t1 - t0)
            _, t0, t1, _ = timed(rec, root, "evolve.snapshot_load",
                                 snaps.load, path)
            loads.append(t1 - t0)
        out["evolve.snapshot_save_ms"] = stat(median(saves) * 1e3, 3)
        out["evolve.snapshot_load_ms"] = stat(median(loads) * 1e3, 3)
        out["evolve.snapshot_bytes_per_edge"] = stat(
            Path(path).stat().st_size / last.graph.num_edges)

        reads = []
        for _ in range(3):
            _, t0, t1, _ = timed(rec, root, "evolve.read_wal", read_wal, wal_dir)
            reads.append(t1 - t0)
        out["evolve.read_wal_ms"] = stat(median(reads) * 1e3, 3)

        # Recovery: epoch-0 snapshot + the whole log as its tail.
        out["evolve.recover_ms_per_batch"] = recover_and_check(
            wal_dir, last.fingerprint, tally, rec, root)
    return out


def recover_and_check(wal_dir: Path, fingerprint: str, tally: Tally,
                      rec: Optional[Spans] = None,
                      parent: Optional[int] = None) -> dict:
    """``recover(verify=True)`` from ``wal_dir``; the recovered fingerprint
    must equal the one published before the log was closed. Returns the
    wall time per replayed batch."""
    (_, report), t0, t1, _ = timed(
        rec, parent, "evolve.recover", recover, wal_dir, get_spec("SSSP"),
        verify=True, attach=False)
    tally.check(report.fingerprint == fingerprint and report.verified,
                f"recover() reached {report.fingerprint[:12]}, "
                f"expected {fingerprint[:12]}")
    return stat((t1 - t0) / max(1, report.replayed) * 1e3, report.replayed)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def probe_obs(g, cg, sources: Sequence[int], scratch: Path,
              rec: Optional[Spans], passes: int = 3) -> dict:
    """Bare ``two_phase`` with telemetry off, metrics-only, and journaled;
    the overhead is the median over sources of the pairwise ratio − 1."""
    spec = get_spec("SSSP")
    lat: Dict[str, Dict[int, List[float]]] = {
        mode: {s: [] for s in sources} for mode in ("off", "metrics", "journal")}
    journal_bytes = journal_queries = 0

    def one_pass(mode: str, root) -> None:
        for s in sources:
            _, t0, t1, _ = timed(rec, root, f"obs.two_phase_{mode}", two_phase,
                                 g, cg, spec, s)
            lat[mode][s].append(t1 - t0)

    with phase(rec, "probe:obs") as root:
        for i in range(passes):
            one_pass("off", root)
            with obs.telemetry():
                one_pass("metrics", root)
            path = scratch / f"probe-journal-{i}.jsonl"
            with obs.telemetry(trace_path=path, seed=0):
                one_pass("journal", root)
            journal_bytes += path.stat().st_size
            journal_queries += len(sources)
        obs.reset()
    out = {}
    for mode in ("metrics", "journal"):
        ratios = [median(lat[mode][s]) / median(lat["off"][s]) for s in sources]
        out[f"obs.overhead_frac.{mode}"] = stat(median(ratios) - 1.0, len(ratios))
    out["obs.journal_bytes_per_query"] = stat(journal_bytes / journal_queries,
                                              journal_queries)
    return out
