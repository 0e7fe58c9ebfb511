"""Load loops shared by the workloads and the layer probes.

One driver thread generates all load. Every answer is checked against
``evaluate_query`` on the graph it was computed on, after its latency has
been taken, and counted in a :class:`Tally`.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import build_cg, two_phase
from repro.datasets.zoo import load_zoo_graph
from repro.engines import evaluate_query
from repro.evolve import next_batch
from repro.queries.registry import get_spec

from measure import Spans, clock, median, stat, timed

RESULT_TIMEOUT_S = 60.0


@dataclass
class Tally:
    """Operations attempted and failed (wrong answer, rejected, lost...)."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.notes) < 20:
                self.notes.append(what)
        return ok


def pick_sources(g, k: int, seed: int) -> List[int]:
    """``k`` seeded sources with out-edges (the harness's convention: a
    sink answers in one round and would make latencies bimodal)."""
    candidates = np.flatnonzero(g.out_degree() > 0)
    rng = np.random.default_rng(seed)
    picked = rng.choice(candidates, min(k, candidates.size), replace=False)
    return [int(s) for s in picked]


def build_pair(graph: str, scale_delta: int, kinds: Sequence[str], hubs: int):
    """Generate the zoo graph and one CG per kind; returns timings too."""
    t0 = clock()
    g = load_zoo_graph(graph, scale_delta=scale_delta)
    gen_s = clock() - t0
    cgs, build_s = {}, {}
    for kind in kinds:
        t0 = clock()
        cgs[kind] = build_cg(g, get_spec(kind), num_hubs=hubs)
        build_s[kind] = clock() - t0
    return g, cgs, gen_s, build_s


def cg_for(cgs: Dict, kind: str):
    """WCC is served by REACH's general core graph (Algorithm 2)."""
    return cgs["REACH" if kind == "WCC" else kind]


def source_of(kind: str, source: Optional[int]) -> Optional[int]:
    return None if kind == "WCC" else source


def reference_answers(g, pairs) -> Dict:
    """``evaluate_query`` on ``g`` for every (kind, source) pair."""
    return {(kind, source): evaluate_query(g, get_spec(kind), source_of(kind, source))
            for kind, source in pairs}


def timed_direct(g, kind: str, source: Optional[int]):
    """A fresh direct evaluation and how long it took."""
    t0 = clock()
    truth = evaluate_query(g, get_spec(kind), source_of(kind, source))
    return truth, clock() - t0


def speedup_stat(by_kind: Dict[str, List[float]]) -> dict:
    """Geometric mean over kinds of each kind's median direct / 2Phase
    ratio. The kinds' ratios sit in separate clusters (REACH near 1.3, SSSP
    and SSWP near 1.9 on FR+1), so a median over the pooled pairs lands in
    the gap between two clusters and moves with every sample."""
    medians = [median(ratios) for ratios in by_kind.values()]
    return stat(float(np.exp(np.mean(np.log(medians)))),
                sum(len(ratios) for ratios in by_kind.values()))


def add_two_phase_children(rec: Spans, sid: int, t0: float, t1: float, res) -> None:
    """Core and completion phase as derived children of a 2Phase span;
    what is left over is the glue between them."""
    rec.add("engines.core_phase", t0, t0 + res.phase1.wall_time, sid, derived=True)
    rec.add("engines.completion_phase", t1 - res.phase2.wall_time, t1, sid,
            derived=True)


def query_cycle(g, cgs, pairs, refs, tally: Tally, rec: Optional[Spans] = None,
                parent: Optional[int] = None,
                speedups: Optional[Dict[str, List[float]]] = None) -> List[float]:
    """One ``two_phase`` call per pair; returns the latencies in order.

    With ``speedups`` every call is followed at once by the direct
    evaluation of the same pair and direct / 2Phase seconds is appended
    under the pair's kind: taken back to back, the two share whatever the
    machine was doing.
    """
    lat = []
    for i, (kind, source) in enumerate(pairs):
        res, t0, t1, sid = timed(
            rec, parent, "core.two_phase", two_phase,
            g, cg_for(cgs, kind), get_spec(kind), source_of(kind, source),
            request=i)
        lat.append(t1 - t0)
        if rec is not None:
            add_two_phase_children(rec, sid, t0, t1, res)
        truth = refs[(kind, source)]
        if speedups is not None:
            truth, direct_s = timed_direct(g, kind, source)
            speedups.setdefault(kind, []).append(direct_s / (t1 - t0))
        tally.check(not res.degraded and np.array_equal(res.values, truth),
                    f"two_phase {kind} from {source} disagrees with evaluate_query")
    return lat


# ----------------------------------------------------------------------
# Service loops
# ----------------------------------------------------------------------
@dataclass
class Served:
    """What one service phase saw, request by request (arrival order)."""

    latency: List[float] = field(default_factory=list)   # caller's view
    done_at: List[float] = field(default_factory=list)
    submit: List[float] = field(default_factory=list)
    wait: List[float] = field(default_factory=list)
    service: List[float] = field(default_factory=list)
    speedup: List[float] = field(default_factory=list)   # direct / latency
    start: float = 0.0
    end: float = 0.0


def against(refs: Dict) -> Callable:
    """Checker for a static graph: compare with precomputed answers."""
    def check(outcome, source):
        return np.array_equal(outcome.result.values, refs[("SSSP", source)]), None
    return check


def against_fresh(g, rec: Optional[Spans] = None, parent: Optional[int] = None,
                  epoch=None) -> Callable:
    """Checker that evaluates the query directly on ``g`` right after the
    answer arrives (and reports how long that took, for the speed-up). With
    ``epoch`` the answer must also carry that epoch's stamp."""
    def check(outcome, source):
        t0 = clock()
        truth, direct_s = timed_direct(g, "SSSP", source)
        if rec is not None:
            rec.add("suite.verify", t0, clock(), parent)
        stamped = epoch is None or (
            outcome.epoch == epoch.number
            and outcome.graph_fingerprint == epoch.fingerprint)
        return stamped and np.array_equal(outcome.result.values, truth), direct_s
    return check


def _settle(served: Served, tally: Tally, outcome, source: int, ts0: float,
            ts1: float, t_done: float, origin: float, check: Callable,
            rec: Optional[Spans], parent: Optional[int], request: int) -> None:
    """Account one resolved ticket; ``origin`` is where its latency starts
    (the submit call in a closed loop, the due time in an open one)."""
    served.latency.append(t_done - origin)
    served.done_at.append(t_done)
    served.submit.append(ts1 - ts0)
    served.wait.append(outcome.wait_s)
    served.service.append(outcome.service_s)
    ok = outcome.status == "ok" and outcome.result is not None
    right, direct_s = check(outcome, source) if ok else (False, None)
    tally.check(right, f"request {request} from {source}: {outcome.status}")
    if direct_s is not None:
        served.speedup.append(direct_s / (t_done - origin))
    if rec is not None and ok:
        sid = rec.add("serve.request", origin, t_done, parent, request)
        rec.add("serve.submit", ts0, ts1, sid, request)
        picked = outcome.request.submitted_perf + outcome.wait_s
        rec.add("serve.queue_wait", ts1, picked, sid, request, derived=True)
        run = rec.add("serve.service", picked, picked + outcome.service_s, sid,
                      request, derived=True)
        lo, hi = rec.rows[run][1], rec.rows[run][2]
        add_two_phase_children(rec, run, lo, hi, outcome.result)


def closed_loop(svc, sources: Sequence[int], check: Callable, tally: Tally, *,
                window: int, seconds: float = 0.0, count: int = 0,
                rec: Optional[Spans] = None, parent: Optional[int] = None,
                first: int = 0) -> Served:
    """``window`` requests kept in flight until ``seconds`` and ``count``
    are both reached; a new one is sent only when the oldest returns."""
    served = Served(start=clock())
    flight: collections.deque = collections.deque()
    i = first
    deadline = served.start + seconds
    while True:
        while len(flight) < window and (
                clock() < deadline or (i - first) < count):
            source = sources[i % len(sources)]
            ts0 = clock()
            ticket = svc.submit("SSSP", source=source)
            ts1 = clock()
            flight.append((ticket, source, ts0, ts1, i))
            i += 1
        if not flight:
            break
        ticket, source, ts0, ts1, req = flight.popleft()
        outcome = ticket.result(RESULT_TIMEOUT_S)
        t_done = clock()
        _settle(served, tally, outcome, source, ts0, ts1, t_done, ts0, check,
                rec, parent, req)
    served.end = clock()
    return served


def open_loop(svc, sources: Sequence[int], check: Callable, tally: Tally, *,
              rate: float, seconds: float, rec: Optional[Spans] = None,
              parent: Optional[int] = None) -> dict:
    """Requests sent on a fixed schedule whatever the service does.

    Latency runs from each request's *due* time, so a generator or service
    stall is charged to the requests it delayed. Completion times are read
    from the outcomes (``submitted_perf + wait_s + service_s``): there is no
    collector thread, the one driver thread only paces and submits.
    """
    served = Served(start=clock())
    total = max(1, int(rate * seconds))
    tickets, lateness, backlog_mid = [], [], 0
    for i in range(total):
        due = served.start + i / rate
        now = clock()
        if due > now:
            time.sleep(due - now)
            if rec is not None:
                rec.add("suite.idle", now, clock(), parent)
        source = sources[i % len(sources)]
        ts0 = clock()
        ticket = svc.submit("SSSP", source=source)
        ts1 = clock()
        lateness.append(ts0 - due)
        tickets.append((ticket, source, ts0, ts1, due))
        if i == total // 2:
            backlog_mid = sum(not t[0].done() for t in tickets)
    backlog_end = sum(not t[0].done() for t in tickets)
    for i, (ticket, source, ts0, ts1, due) in enumerate(tickets):
        outcome = ticket.result(RESULT_TIMEOUT_S)
        t_done = max(ts1, outcome.request.submitted_perf + outcome.wait_s
                     + outcome.service_s)
        _settle(served, tally, outcome, source, ts0, ts1, t_done, due, check,
                rec, parent, i)
    served.end = clock()
    return {
        "served": served,
        "lateness": lateness,
        # Still climbing when the schedule ran out: the rate is past
        # capacity and its latencies describe the box length, not the rate.
        "growing": backlog_end > max(8, 2 * backlog_mid),
    }


# ----------------------------------------------------------------------
# Mutation stream
# ----------------------------------------------------------------------
@dataclass
class Streamed:
    """One run of the seeded batch stream through a maintainer."""

    applied: List[float] = field(default_factory=list)    # apply latencies
    results: list = field(default_factory=list)


def stream(m, *, seed: int, batch_size: int,
           first_step: int = 0, count: int = 0, seconds: float = 0.0,
           until: Optional[Callable[[int], bool]] = None,
           rec: Optional[Spans] = None, parent: Optional[int] = None) -> Streamed:
    """Generate the seeded batch stream against the maintainer's current
    graph and ``apply`` each batch; generation is timed apart from
    application. A batch is a function of (graph, seed, step).

    Runs until ``count`` batches and ``seconds`` have both passed and
    ``until(batches_done)`` (if given) holds.
    """
    out = Streamed()
    deadline = clock() + seconds
    step = first_step
    while True:
        done = step - first_step
        if done >= count and clock() >= deadline and (until is None or until(done)):
            return out
        batch, _, _, _ = timed(
            rec, parent, "suite.stream_gen", next_batch, m.graph, step,
            batch_size=batch_size, delete_fraction=0.5, seed=seed)
        result, t0, t1, _ = timed(rec, parent, "evolve.apply", m.apply,
                                  batch.inserts, batch.deletes, request=step)
        out.applied.append(t1 - t0)
        out.results.append(result)
        step += 1
