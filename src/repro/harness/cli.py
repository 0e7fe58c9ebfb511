"""Command-line entry point: ``repro-coregraph``.

Examples::

    repro-coregraph list
    repro-coregraph run table04 table05
    repro-coregraph run all --save
    repro-coregraph info FR
    repro-coregraph build FR SSSP --out fr-sssp.npz
    repro-coregraph build my_edges.txt SSSP --out my-cg.npz
    repro-coregraph query FR SSSP 42 --cg fr-sssp.npz --triangle

Every subcommand accepts the telemetry flags ``--trace PATH`` (write a
JSONL run journal: manifest line, span/iteration/event lines, final
metrics snapshot) and ``--metrics`` (print span and metrics summary
tables on exit)::

    repro-coregraph query FR SSSP 42 --cg fr-sssp.npz --trace run.jsonl
    repro-coregraph build FR SSSP --metrics

The ``obs`` family analyzes journals after the fact::

    repro-coregraph obs report run.jsonl --html report.html
    repro-coregraph obs diff old.jsonl new.jsonl
    repro-coregraph obs baseline run.jsonl --out benchmarks/baselines/x.json
    repro-coregraph obs check run.jsonl --baseline benchmarks/baselines/ \\
        --fail-on-regress
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.harness.config import default_config
from repro.resilience.atomic import atomic_write_text
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.results import save_result


def _cmd_list(_args) -> int:
    for exp_id in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[exp_id].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{exp_id:10s} {summary}")
    return 0


def _cmd_run(args) -> int:
    ids: List[str] = args.experiments
    if ids == ["all"]:
        ids = sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    config = default_config()
    for exp_id in ids:
        start = time.perf_counter()
        result = run_experiment(exp_id, config)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"[{exp_id} completed in {elapsed:.1f}s]\n")
        if args.save:
            path = save_result(result)
            print(f"saved -> {path}\n")
    return 0


def _cmd_info(args) -> int:
    from repro.datasets.zoo import zoo_entry
    from repro.harness.cache import get_graph

    entry = zoo_entry(args.graph)
    g = get_graph(args.graph)
    print(f"{entry.name}: stand-in for paper graph with "
          f"|E|={entry.paper_edges:,}, |V|={entry.paper_vertices:,}")
    print(f"  generated: {g}")
    print(f"  R-MAT scale={entry.scale} edge_factor={entry.edge_factor} "
          f"params={entry.params} weights={entry.weight_scheme}")
    return 0


def _resolve_graph(name_or_path: str):
    """A zoo name (FR, TT, ...) or a path to an edge list / .npz graph."""
    from pathlib import Path

    from repro.datasets.zoo import ZOO
    from repro.harness.cache import get_graph

    if name_or_path.upper() in ZOO:
        g = get_graph(name_or_path)
        _emit_graph_loaded(name_or_path.upper(), g)
        return g
    path = Path(name_or_path)
    if not path.exists():
        raise SystemExit(
            f"'{name_or_path}' is neither a zoo graph ({sorted(ZOO)}) "
            "nor an existing file"
        )
    if path.suffix == ".npz":
        from repro.io.binary import load_graph

        g = load_graph(path)
    else:
        from repro.graph.edgelist import read_edge_list

        g = read_edge_list(path)
    _emit_graph_loaded(name_or_path, g)
    return g


def _emit_graph_loaded(name: str, g) -> None:
    """Record the resolved graph's shape in the journal (if tracing).

    The content fingerprint also becomes ambient journal context, so
    every downstream result event is stamped with the exact graph bytes
    it was computed on and ``obs compare`` can refuse to diff runs whose
    "same" graph drifted between recordings.
    """
    from repro.obs import journal as obs_journal

    fingerprint = g.fingerprint()
    obs_journal.set_global_context(graph_fingerprint=fingerprint)
    obs_journal.emit(
        {
            "type": "event",
            "name": "graph.loaded",
            "graph": name,
            "num_vertices": int(g.num_vertices),
            "num_edges": int(g.num_edges),
            "graph_fingerprint": fingerprint,
        }
    )


def _cmd_build(args) -> int:
    import time

    from repro.core.dispatch import build_cg
    from repro.io.binary import save_core_graph
    from repro.queries.registry import get_spec

    g = _resolve_graph(args.graph)
    spec = get_spec(args.query)
    start = time.perf_counter()
    cg = build_cg(g, spec, num_hubs=args.hubs)
    elapsed = time.perf_counter() - start
    print(f"{cg}")
    print(f"identified in {elapsed:.2f}s from {len(cg.hubs)} hubs "
          f"({cg.connectivity_edges} connectivity edges added)")
    if args.out:
        path = save_core_graph(cg, args.out)
        print(f"saved -> {path}")
    return 0


def _cmd_query(args) -> int:
    import time

    import numpy as np

    from repro.core.twophase import two_phase
    from repro.engines.frontier import evaluate_query
    from repro.queries.registry import get_spec
    from repro.resilience.anytime import CERT_EXACT, summarize_certificate
    from repro.resilience.budget import Budget, BudgetExceeded

    g = _resolve_graph(args.graph)
    spec = get_spec(args.query)
    source = None if spec.multi_source else args.source
    if source is None and not spec.multi_source:
        raise SystemExit(f"{spec.name} needs a source vertex")
    if (args.checkpoint or args.resume) and not args.cg:
        raise SystemExit("--checkpoint/--resume require --cg")

    truth = None
    if not args.no_direct:
        start = time.perf_counter()
        truth = evaluate_query(g, spec, source)
        direct_time = time.perf_counter() - start
        reached = (int(spec.reached(truth).sum()) if not spec.multi_source
                   else g.num_vertices)
        print(f"direct evaluation: {direct_time * 1e3:.1f} ms, "
              f"{reached} vertices reached")

    if args.cg:
        from repro.io.binary import load_core_graph

        cg = load_core_graph(args.cg)
        budget = None
        if args.deadline is not None or args.max_iters is not None:
            budget = Budget(deadline_s=args.deadline,
                            max_iterations=args.max_iters)
        start = time.perf_counter()
        try:
            res = two_phase(
                g, cg, spec, source, triangle=args.triangle,
                budget=budget, anytime=args.anytime,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
            )
        except BudgetExceeded as exc:
            info = exc.as_dict()
            print(f"budget exceeded: {info['limit']} at {info['site']} "
                  f"(iteration {info['iteration']}, "
                  f"{info['elapsed_s']:.3f}s elapsed); "
                  "re-run with --anytime for a partial result",
                  file=sys.stderr)
            return 3
        cg_time = time.perf_counter() - start
        if res.degraded:
            info = res.budget_error.as_dict()
            print(f"2phase via CG: {cg_time * 1e3:.1f} ms, DEGRADED "
                  f"({info['limit']} at {info['site']}), "
                  f"impacted={res.impacted}, "
                  f"certified={res.certified_precise}")
            print(summarize_certificate(res.certificate))
            if truth is not None:
                exact_mask = res.certificate == CERT_EXACT
                certified_ok = bool(np.array_equal(
                    res.values[exact_mask], truth[exact_mask]
                ))
                print(f"certified-exact vertices match ground truth: "
                      f"{certified_ok}")
                if not certified_ok:
                    return 1
        elif truth is not None:
            exact = bool(np.array_equal(res.values, truth))
            print(f"2phase via CG: {cg_time * 1e3:.1f} ms, exact={exact}, "
                  f"impacted={res.impacted}, "
                  f"certified={res.certified_precise}")
            if not exact:
                return 1
        else:
            print(f"2phase via CG: {cg_time * 1e3:.1f} ms, "
                  f"impacted={res.impacted}, "
                  f"certified={res.certified_precise}")
    return 0


def _cmd_queries(_args) -> int:
    """Describe every supported query kind (the Table 6 contract)."""
    from repro.queries.registry import ALL_SPECS, EXTENDED_SPECS, cg_spec_for

    header = (f"{'query':8s} {'select':6s} {'combine ⊕':18s} "
              f"{'weights':7s} {'CG algorithm':12s} {'serves/notes'}")
    print(header)
    print("-" * len(header))
    combine = {
        "SSSP": "Val(u) + w", "BFS": "Val(u) + 1",
        "SSNP": "max(Val(u), w)", "SSWP": "min(Val(u), w)",
        "Viterbi": "Val(u) * p(w)", "REACH": "Val(u)", "WCC": "Val(u)",
    }
    for spec in EXTENDED_SPECS:
        notes = []
        if cg_spec_for(spec) is not spec:
            notes.append(f"uses {cg_spec_for(spec).name}'s CG")
        if spec.symmetric:
            notes.append("undirected view")
        if spec not in ALL_SPECS:
            notes.append("extension beyond the paper's six")
        print(f"{spec.name:8s} {spec.selection.value:6s} "
              f"{combine.get(spec.name, '?'):18s} "
              f"{'yes' if spec.uses_weights else 'no':7s} "
              f"{spec.identification:12s} {'; '.join(notes)}")
    return 0


def _cmd_stats(args) -> int:
    """Characterize any graph: summary statistics + effective diameter."""
    from repro.analysis.diameter import estimate_effective_diameter
    from repro.analysis.stats import graph_summary

    g = _resolve_graph(args.graph)
    summary = graph_summary(g)
    for key, val in summary.as_dict().items():
        if isinstance(val, float):
            print(f"{key:18s} {val:.4f}")
        else:
            print(f"{key:18s} {val}")
    est = estimate_effective_diameter(g, samples=args.samples)
    print(f"{'effective_diam_90':18s} {est.effective_90:.1f}")
    print(f"{'max_hop_observed':18s} {est.max_observed}")
    if summary.degree_gini > 0.4:
        print("verdict: power-law regime — core graphs should work well")
    else:
        print("verdict: low degree skew — see the paper's Limitations; "
              "measure the CG's precision before relying on it")
    return 0


def _cmd_summarize(args) -> int:
    """Compile saved results/*.json into one markdown report."""
    import json
    from pathlib import Path

    from repro.harness.tables import render_table

    results_dir = Path(args.dir)
    paths = sorted(results_dir.glob("*.json"))
    if not paths:
        print(f"no results under {results_dir}", file=sys.stderr)
        return 1
    lines = ["# Measured results", ""]
    for path in paths:
        payload = json.loads(path.read_text())
        lines.append(f"## {payload['id']} — {payload['title']}")
        lines.append(f"*{payload['paper_reference']}*")
        lines.append("")
        lines.append("```")
        lines.append(render_table(payload["headers"], payload["rows"]))
        lines.append("```")
        if payload.get("notes"):
            lines.append(f"Note: {payload['notes']}")
        lines.append("")
    out = Path(args.out) if args.out else results_dir / "SUMMARY.md"
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"summarized {len(paths)} results -> {out}")
    return 0


def _cmd_check(args) -> int:
    """Static analysis, race analysis, noqa audit, sanitized smoke."""
    from repro.checks.cli import (
        run_races,
        run_sanitize_smoke,
        run_static,
        run_strict_noqa,
    )

    static = args.static or not (
        args.races or args.strict_noqa or args.sanitize_run
    )
    rc = 0
    if static:
        rc = run_static(args.paths or None, rules=args.rules,
                        with_ruff=args.ruff, with_mypy=args.mypy,
                        as_json=args.as_json)
    if args.races:
        rc = run_races(args.paths or None, rules=args.rules,
                       as_json=args.as_json) or rc
    if args.strict_noqa:
        rc = run_strict_noqa(args.paths or None,
                             as_json=args.as_json) or rc
    if args.sanitize_run:
        rc = run_sanitize_smoke() or rc
    return rc


def _cmd_serve(args) -> int:
    """Self-checking smoke of the concurrent query service.

    Bursts ``--requests`` queries at a :class:`repro.serve.QueryService`
    over one shared (graph, CG) pair, drains, and verifies the chaos
    invariant: every submitted request resolved (``lost == 0``). Exit 1
    when any request was lost or never resolved — the CI chaos step runs
    this under ``REPRO_FAULTS`` worker kills and ``REPRO_SANITIZE=1``.

    With ``--mutate-stream`` the service runs in live-graph mode: a
    writer thread applies insert/delete batches through an
    :class:`repro.evolve.EpochMaintainer` while the burst is in flight,
    a :class:`repro.evolve.RebuildSupervisor` refreshes the CG in the
    background, and the summary additionally asserts ``torn=0`` (no
    request ever observed a mixed graph/CG pair) and that every answer
    computed on a superseded epoch carried a staleness certificate.
    """
    import threading
    import time

    from repro.harness.cache import get_cg, get_graph, get_sources
    from repro.queries.registry import get_spec
    from repro.serve import QueryService, ServiceConfig

    if not args.smoke:
        print(
            "the query service is in-process (a library, not a daemon); "
            "run `repro-coregraph serve --smoke` for the self-checking "
            "demo, or use repro.serve.QueryService directly",
            file=sys.stderr,
        )
        return 2
    spec = get_spec(args.query)
    g = get_graph(args.graph)
    _emit_graph_loaded(args.graph.upper(), g)
    sources = get_sources(args.graph, k=min(args.requests, 16))
    cfg = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        default_deadline_s=args.deadline,
        default_max_iterations=args.max_iters,
        breaker_failure_threshold=args.breaker_failures,
        breaker_cooldown_s=args.cooldown,
    )
    maintainer = supervisor = churn_thread = None
    stop_churn = threading.Event()
    churn_stats = {"batches": 0, "rolled_back": 0}
    if args.mutate_stream:
        from repro.evolve import (
            EpochMaintainer,
            RebuildSupervisor,
            next_batch,
        )
        from repro.resilience.faults import InjectedFault

        if args.wal:
            maintainer = _open_durable_maintainer(args, g, spec)
        else:
            maintainer = EpochMaintainer(g, spec, num_hubs=args.hubs)
        supervisor = RebuildSupervisor(
            maintainer, poll_interval_s=args.mutate_interval
        )
        svc = QueryService(
            config=cfg, epochs=maintainer.store, maintainer=maintainer
        )

        def churn() -> None:
            step = 0
            while not stop_churn.is_set():
                batch = next_batch(
                    maintainer.graph, step,
                    batch_size=args.mutate_batch,
                    delete_fraction=args.delete_fraction,
                    seed=11,
                )
                try:
                    maintainer.apply(batch.inserts, batch.deletes)
                    churn_stats["batches"] += 1
                except InjectedFault:
                    # The maintainer restored its state; the batch is
                    # simply lost, which is the crash semantics under
                    # test — keep the storm going.
                    churn_stats["rolled_back"] += 1
                step += 1
                stop_churn.wait(args.mutate_interval)

        churn_thread = threading.Thread(
            target=churn, name="serve-churn", daemon=True
        )
    else:
        cg = get_cg(args.graph, spec)
        svc = QueryService(g, cg, cfg)
    start = time.perf_counter()
    with svc:
        if supervisor is not None:
            supervisor.start()
        if churn_thread is not None:
            churn_thread.start()
        if args.export_port is not None:
            exporter = svc.start_exporter(port=args.export_port)
            print(f"exporter: {exporter.url('/metrics')} "
                  f"(/healthz, /statz)", flush=True)
        tickets = [
            svc.submit(
                spec.name,
                source=(
                    None if spec.multi_source
                    else int(sources[i % len(sources)])
                ),
                priority=i % 3,
            )
            for i in range(args.requests)
        ]
        drained = svc.drain(timeout=args.timeout)
        elapsed = time.perf_counter() - start
        stop_churn.set()
        if churn_thread is not None:
            churn_thread.join(timeout=5.0)
        if supervisor is not None:
            supervisor.stop()
        if args.export_port is not None and args.linger > 0:
            # Keep the endpoints up for outside scrapers (the CI smoke
            # curls /metrics while the drained service lingers).
            print(f"lingering {args.linger:.0f}s for scrapers...",
                  flush=True)
            time.sleep(args.linger)
    stats = svc.stats()
    print(stats.render())
    unresolved = sum(1 for t in tickets if not t.done())
    print(
        f"serve smoke: {args.requests} requests in {elapsed:.2f}s "
        f"({args.requests / elapsed:.1f}/s), lost={stats.lost}, "
        f"unresolved={unresolved}"
    )
    failed = stats.lost != 0 or unresolved or not drained
    if maintainer is not None:
        # Live-graph invariants. A sanitizer epoch_integrity violation
        # kills the worker mid-request, so a torn epoch surfaces as a
        # failed outcome naming the probe — zero of those means no
        # request ever saw a mixed graph/CG pair. Every answer from a
        # superseded epoch must have carried a certificate.
        outcomes = [t.result(0) for t in tickets if t.done()]
        torn = sum(
            1 for o in outcomes
            if o.error is not None and "epoch_integrity" in o.error
        )
        certified = sum(1 for o in outcomes if o.staleness is not None)
        maintainer.emit_stats()
        if maintainer.wal is not None:
            info = maintainer.durability()
            wstats = maintainer.wal.stats()
            print(
                f"durability: wal fsync={info['fsync']} "
                f"appends={wstats['appends']} fsyncs={wstats['fsyncs']} "
                f"segments={wstats['segments']} "
                f"(compacted {wstats['compacted_segments']})"
            )
            maintainer.wal.close()
        print(
            f"mutate stream: epoch={stats.graph_epoch}, "
            f"batches={churn_stats['batches']} "
            f"(+{churn_stats['rolled_back']} rolled back), "
            f"rebuilds={supervisor.stats.rebuilds}, "
            f"restarts={supervisor.stats.supervisor_restarts}, "
            f"torn={torn}, stale={stats.stale_answers}, "
            f"certified={certified}"
        )
        if torn != 0 or certified != stats.stale_answers:
            print(
                "serve smoke FAILED: torn epoch observed or an "
                "uncertified stale answer was served", file=sys.stderr,
            )
            failed = True
    if failed:
        print("serve smoke FAILED: requests were lost or never resolved",
              file=sys.stderr)
        return 1
    return 0


def _open_durable_maintainer(args, g, spec):
    """Recover-or-create an :class:`EpochMaintainer` behind ``--wal DIR``.

    An existing log (segments or snapshots present) is recovered and
    resumed — the crash→restart sequence the CI chaos job drives; an
    empty directory starts a fresh durable maintainer whose epoch 0
    snapshot anchors future recoveries.
    """
    from pathlib import Path

    from repro.evolve import EpochMaintainer, WalWriter, recover
    from repro.evolve.snapshot import SnapshotStore
    from repro.evolve.wal import list_segments

    wal_dir = Path(args.wal)
    existing = (
        list_segments(wal_dir)
        or SnapshotStore(wal_dir / "snapshots").paths()
    )
    if existing:
        maintainer, report = recover(
            wal_dir, spec, num_hubs=args.hubs, fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )
        print(report.render())
        return maintainer
    maintainer = EpochMaintainer(
        g, spec, num_hubs=args.hubs,
        wal=WalWriter(wal_dir, fsync=args.fsync),
        snapshot_every=args.snapshot_every,
    )
    info = maintainer.durability()
    print(f"durability: wal dir={info['dir']} fsync={info['fsync']} "
          f"snapshot_every={info.get('snapshot_every')}")
    return maintainer


def _cmd_evolve_recover(args) -> int:
    """Rebuild the pre-crash epoch from a WAL directory and report it.

    Exits non-zero when recovery cannot reach a consistent epoch: mid-log
    corruption (typed ``CorruptWalError``), no usable snapshot, or — under
    ``--verify`` — any fingerprint mismatch between a replayed epoch and
    its WAL record.
    """
    from repro.evolve import (
        CorruptWalError,
        RecoveryError,
        recover,
    )
    from repro.queries.registry import get_spec

    spec = get_spec(args.recover_query) if args.recover_query else None
    try:
        _, report = recover(
            args.path, spec,
            verify=args.verify,
            to_epoch=args.to_epoch,
            num_hubs=args.hubs,
            attach=False,
        )
    except (CorruptWalError, RecoveryError) as exc:
        print(f"recover FAILED: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _cmd_evolve(args) -> int:
    """Live-graph demo: churn an evolving CG, probe, optionally rebuild.

    Applies ``--batches`` insert/delete batches through an
    :class:`repro.evolve.EpochMaintainer` (each publishing a new epoch),
    prints the epoch history with probe precision, and — with
    ``--rebuild`` — runs a supervised background rebuild under a budget
    with checkpointed progress. Exits 1 if the final epoch's 2Phase
    answer is not exact against a from-scratch evaluation.
    """
    import time

    import numpy as np

    from repro.core.twophase import two_phase
    from repro.engines.frontier import evaluate_query
    from repro.evolve import EpochMaintainer, RebuildSupervisor, next_batch
    from repro.harness.cache import get_graph, get_sources
    from repro.queries.registry import get_spec
    from repro.resilience.budget import Budget

    spec = get_spec(args.query)
    g = get_graph(args.graph)
    _emit_graph_loaded(args.graph.upper(), g)
    t0 = time.perf_counter()
    if args.wal:
        maintainer = _open_durable_maintainer(args, g, spec)
    else:
        maintainer = EpochMaintainer(g, spec, num_hubs=args.hubs)
    built = time.perf_counter() - t0
    epoch0 = maintainer.store.current()
    print(
        f"epoch {epoch0.number}: {epoch0.graph.num_edges} edges, "
        f"CG {epoch0.proxy.num_edges} edges "
        f"({args.hubs} hubs, ready in {built:.2f}s)"
    )
    for step in range(args.batches):
        batch = next_batch(
            maintainer.graph, step,
            batch_size=args.batch_size,
            delete_fraction=args.delete_fraction,
            seed=args.seed,
        )
        epoch = maintainer.apply(batch.inserts, batch.deletes)
        print(
            f"epoch {epoch.number}: +{len(batch.inserts)} "
            f"-{len(batch.deletes)} edges "
            f"(cumulative +{epoch.inserted_edges} -{epoch.deleted_edges}), "
            f"CG {epoch.proxy.num_edges} edges, "
            f"triangle_safe={epoch.triangle_safe}"
        )
    precision = maintainer.probe()
    print(f"probe precision after churn: {precision:.1f}%")
    if args.rebuild:
        supervisor = RebuildSupervisor(
            maintainer,
            poll_interval_s=0.01,
            budget_factory=(
                None if args.deadline is None
                else lambda: Budget(deadline_s=args.deadline)
            ),
            checkpoint_path=args.checkpoint,
        )
        supervisor.request_rebuild()
        supervisor.start()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with supervisor.stats._lock:
                done = supervisor.stats.rebuilds > 0
            if done:
                break
            time.sleep(0.02)
        supervisor.stop()
        print(f"rebuild: {supervisor.describe()}")
        epoch = maintainer.store.current()
        print(
            f"epoch {epoch.number}: CG {epoch.proxy.num_edges} edges, "
            f"triangle_safe={epoch.triangle_safe} "
            f"(rebuilt from snapshot of epoch {epoch.rebuilt_from})"
        )
        print(f"probe precision after rebuild: {maintainer.probe():.1f}%")
    maintainer.emit_stats()
    if maintainer.wal is not None:
        maintainer.wal.close()
    final = maintainer.store.current()
    source = int(get_sources(args.graph, k=1)[0])
    res = two_phase(final.graph, final.proxy, spec,
                    None if spec.multi_source else source)
    baseline = evaluate_query(final.graph, spec,
                              None if spec.multi_source else source)
    exact = bool(np.allclose(res.values, baseline, equal_nan=True))
    print(f"2Phase on epoch {final.number} exact vs from-scratch: {exact}")
    return 0 if exact else 1


def _cmd_obs_report(args) -> int:
    """Render one journal as a terminal (and optionally HTML/JSON) report."""
    import json

    from repro.obs.journal import read_events
    from repro.obs.report import render_html, render_report, report_payload

    events = read_events(args.journal)
    print(render_report(events, source=str(args.journal)))
    if args.html:
        path = render_html(events, args.html, source=str(args.journal))
        print(f"\nhtml report -> {path}")
    if args.json:
        from repro.resilience.atomic import atomic_write_text

        payload = report_payload(events, source=str(args.journal))
        atomic_write_text(args.json, json.dumps(payload, indent=2) + "\n")
        print(f"json report -> {args.json}")
    return 0


def _cmd_obs_trace(args) -> int:
    """Render one request's causal trace; list/pick traces without an id.

    Exits 1 when the requested trace has orphan spans (a span naming a
    parent that never journaled) — the CI trace round-trip smoke treats a
    broken causal chain as a failure, not a cosmetic defect.
    """
    from repro.obs.journal import read_events
    from repro.obs.traceview import (
        build_tree, find_explain, pick_trace, render_trace,
        render_trace_html, render_trace_table, summarize_traces,
    )

    events = read_events(args.journal)
    if args.pick is not None:
        tid = pick_trace(events, status=args.pick)
        if tid is None:
            print(f"no trace with status {args.pick!r}", file=sys.stderr)
            return 2
        print(tid)
        return 0
    if args.trace_id is None:
        print(render_trace_table(summarize_traces(events)))
        return 0
    tree = build_tree(events, args.trace_id)
    if not tree.roots and not tree.orphans:
        print(f"no spans for trace {args.trace_id} in {args.journal}",
              file=sys.stderr)
        return 2
    print(render_trace(tree))
    if args.html:
        path = render_trace_html(
            tree, args.html, explain=find_explain(events, args.trace_id)
        )
        print(f"\nhtml trace -> {path}")
    if tree.orphans:
        print(f"\ntrace {args.trace_id} has {len(tree.orphans)} orphan "
              f"span(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_explain(args) -> int:
    """Render the explain record (wide event) of one traced request."""
    from repro.obs.journal import read_events
    from repro.obs.traceview import find_explain
    from repro.serve.explain import render_explain

    events = read_events(args.journal)
    payload = find_explain(events, args.trace_id)
    if payload is None:
        print(f"no serve.explain event for trace {args.trace_id} in "
              f"{args.journal}", file=sys.stderr)
        return 2
    print(render_explain(payload))
    return 0


def _cmd_obs_diff(args) -> int:
    """Compare two journals; exit 1 when the newer run regressed."""
    from repro.obs.compare import Thresholds, compare, regressions, summarize_run
    from repro.obs.report import render_diff

    base = summarize_run(args.journal_a, source=str(args.journal_a))
    new = summarize_run(args.journal_b, source=str(args.journal_b))
    deltas = compare(base, new, Thresholds.from_args(args))
    print(render_diff(deltas, base.label() or str(args.journal_a),
                      new.label() or str(args.journal_b)))
    bad = regressions(deltas)
    if bad:
        print(f"\n{len(bad)} regression(s) beyond thresholds")
        return 1
    return 0


def _cmd_obs_baseline(args) -> int:
    """Distill a journal into a committed-baseline JSON file."""
    from repro.obs.compare import summarize_run, write_baseline

    summary = summarize_run(args.journal, source=str(args.journal))
    path = write_baseline(summary, args.out)
    print(f"baseline ({summary.label()}) -> {path}")
    return 0


def _cmd_obs_check(args) -> int:
    """Gate a journal against a committed baseline (file or directory)."""
    from repro.obs.compare import (
        Thresholds, align, compare, drift_skipped, load_baselines,
        regressions, summarize_run,
    )
    from repro.obs.report import render_diff, render_html

    summary = summarize_run(args.journal, source=str(args.journal))
    baselines = load_baselines(args.baseline)
    if not baselines:
        print(f"no baselines under {args.baseline}", file=sys.stderr)
        return 2
    baseline = align(summary, baselines)
    if baseline is None:
        drifted = drift_skipped(summary, baselines)
        if drifted:
            # Same experiment, different graph bytes: a comparison would
            # report phantom regressions, so skip it loudly instead.
            for b in drifted:
                print(
                    f"SKIPPED baseline {b.label()} ({b.source}): graph "
                    f"content drifted (fingerprint "
                    f"{b.key.get('graph_fingerprint', '?')[:12]} vs "
                    f"{summary.key.get('graph_fingerprint', '?')[:12]}); "
                    "re-record the baseline on the current graph",
                    file=sys.stderr,
                )
            return 0
        print(
            f"no baseline matches run key {summary.key} "
            f"(checked {len(baselines)} under {args.baseline})",
            file=sys.stderr,
        )
        return 2
    deltas = compare(baseline, summary, Thresholds.from_args(args))
    print(render_diff(deltas, f"baseline:{baseline.label()}",
                      summary.label() or str(args.journal)))
    if args.html:
        from repro.obs.journal import read_events

        render_html(read_events(args.journal), args.html,
                    source=str(args.journal), deltas=deltas)
        print(f"html report -> {args.html}")
    bad = regressions(deltas)
    if bad:
        print(f"\n{len(bad)} regression(s) vs {baseline.source}:")
        for d in bad:
            print(f"  {d.name}: {d.base:.6g} -> {d.new:.6g}"
                  + (f" ({d.pct:+.1f}%)" if d.pct is not None else ""))
        if args.fail_on_regress:
            return 1
        print("(informational: pass --fail-on-regress to gate on this)")
    else:
        print("\nno regressions vs baseline")
    return 0


def _cmd_obs_top(args) -> int:
    """Live terminal dashboard over a running exporter endpoint."""
    import json
    import re as _re
    import time
    import urllib.error
    import urllib.request

    from repro.obs.live import prom

    base = args.endpoint
    if "://" not in base:
        base = f"http://{base}"
    base = base.rstrip("/")

    def fetch(path: str):
        try:
            with urllib.request.urlopen(
                base + path, timeout=args.timeout
            ) as resp:
                return resp.status, resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8", "replace")

    span_series = _re.compile(r'\{.*span="([^"]+)".*\}')
    frames = 0
    while True:
        try:
            health_status, health_body = fetch("/healthz")
            _, metrics_text = fetch("/metrics")
            statz_status, statz_body = fetch("/statz")
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot scrape {base}: {exc}", file=sys.stderr)
            return 2
        try:
            fams = prom.parse(metrics_text)
        except ValueError as exc:
            print(f"malformed /metrics from {base}: {exc}", file=sys.stderr)
            return 2
        lines = [f"== obs top @ {base} "
                 f"(healthz {health_status}, frame {frames + 1}) =="]
        try:
            health = json.loads(health_body)
            lines.append("health   " + "  ".join(
                f"{k}={v}" for k, v in sorted(health.items())
            ))
        except ValueError:
            pass
        if statz_status == 200:
            statz = json.loads(statz_body)
            keys = ("submitted", "completed", "degraded", "failed",
                    "queue_depth", "lost")
            lines.append("service  " + "  ".join(
                f"{k}={statz[k]}" for k in keys if k in statz
            ))
            p50, p95 = statz.get("latency_p50_ms"), statz.get("latency_p95_ms")
            if p50 is not None:
                lines.append(
                    f"latency  p50={p50:.2f}ms  "
                    f"p95={(p95 if p95 is not None else p50):.2f}ms"
                )
            slo = statz.get("slo") or {}
            for spec in slo.get("specs", ()):
                flag = "FIRING" if spec.get("firing") else "ok"
                lines.append(
                    f"slo      {spec['name']:<16s} burn_long="
                    f"{spec['burn_long']:<8g} burn_short="
                    f"{spec['burn_short']:<8g} {flag}"
                )
        for fam, label in (("proc_rss_bytes", "rss_bytes"),
                           ("proc_threads", "threads"),
                           ("obs_live_exporter_scrapes_total", "scrapes")):
            series = fams.get(fam)
            if series:
                value = next(iter(series.values()))
                lines.append(f"proc     {label}={value:g}")
        counts = fams.get("obs_live_span_ms_count", {})
        sums = fams.get("obs_live_span_ms_sum", {})
        span_rows = []
        for series, count in counts.items():
            m = span_series.search(series)
            if m is None or not count:
                continue
            total = sums.get(series.replace("_count", "_sum"), 0.0)
            span_rows.append((total, m.group(1), int(count)))
        for total, name, count in sorted(span_rows, reverse=True)[:8]:
            lines.append(
                f"span     {name:<24s} n={count:<7d} total={total:.1f}ms"
            )
        if not args.once:
            print("\x1b[2J\x1b[H", end="")
        print("\n".join(lines), flush=True)
        frames += 1
        if args.once:
            return 0
        time.sleep(args.interval)


def _cmd_cache(args) -> int:
    from repro.io.artifacts import ArtifactCache

    cache = ArtifactCache(args.dir)
    if args.clear:
        removed = cache.invalidate()
        print(f"removed {removed} artifacts")
        return 0
    manifest = cache.manifest()
    if not manifest:
        print("cache is empty")
        return 0
    for name, size in manifest.items():
        print(f"{size:>12,}  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coregraph",
        description="Regenerate the tables and figures of the Core Graph "
        "paper (EuroSys '24) on scaled stand-in graphs.",
    )
    # Telemetry flags ride on every subcommand (argparse only accepts
    # top-level options before the subcommand, which nobody expects).
    tele = argparse.ArgumentParser(add_help=False)
    tele.add_argument("--trace", metavar="PATH", default=None,
                      help="write a JSONL telemetry journal of this run")
    tele.add_argument("--metrics", action="store_true",
                      help="print span/metrics summary tables on exit")
    tele.add_argument("--profile", metavar="PATH", default=None,
                      help="sample stacks for the whole run and write a "
                           "collapsed-stack flamegraph file here (implies "
                           "telemetry, for span attribution)")
    tele.add_argument("--profile-interval", type=float, default=0.005,
                      metavar="SECONDS",
                      help="sampling period for --profile (default 5ms)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "list", help="list experiment ids", parents=[tele]
    ).set_defaults(func=_cmd_list)
    run_p = sub.add_parser("run", help="run experiments by id (or 'all')",
                           parents=[tele])
    run_p.add_argument("experiments", nargs="+")
    run_p.add_argument("--save", action="store_true",
                       help="write JSON results under the results directory")
    run_p.set_defaults(func=_cmd_run)
    info_p = sub.add_parser("info", help="describe a zoo graph",
                            parents=[tele])
    info_p.add_argument("graph")
    info_p.set_defaults(func=_cmd_info)

    build_p = sub.add_parser(
        "build", help="identify a core graph (zoo name, edge list, or .npz)",
        parents=[tele],
    )
    build_p.add_argument("graph", help="zoo name or path")
    build_p.add_argument("query", help="SSSP/SSNP/Viterbi/SSWP/REACH/WCC")
    build_p.add_argument("--hubs", type=int, default=20)
    build_p.add_argument("--out", help="write the CG as .npz")
    build_p.set_defaults(func=_cmd_build)

    query_p = sub.add_parser(
        "query", help="evaluate a query directly and (optionally) via a CG",
        parents=[tele],
    )
    query_p.add_argument("graph", help="zoo name or path")
    query_p.add_argument("query")
    query_p.add_argument("source", nargs="?", type=int, default=None)
    query_p.add_argument("--cg", help="core graph .npz from 'build'")
    query_p.add_argument("--triangle", action="store_true",
                         help="enable Theorem 1 certificates")
    query_p.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget across both 2phase phases")
    query_p.add_argument("--max-iters", type=int, default=None, metavar="N",
                         help="iteration budget across both 2phase phases")
    query_p.add_argument("--anytime", action="store_true",
                         help="on budget abort, return the partial result "
                              "with a per-vertex precision certificate "
                              "instead of failing")
    query_p.add_argument("--checkpoint", metavar="PATH",
                         help="write atomic engine snapshots here "
                              "(requires --cg)")
    query_p.add_argument("--checkpoint-every", type=int, default=1,
                         metavar="N", help="snapshot every N iterations")
    query_p.add_argument("--resume", metavar="PATH",
                         help="resume a killed run from a checkpoint "
                              "(requires --cg)")
    query_p.add_argument("--no-direct", action="store_true",
                         help="skip the direct ground-truth evaluation "
                              "(only the 2phase run executes)")
    query_p.set_defaults(func=_cmd_query)

    cache_p = sub.add_parser("cache", help="inspect or clear an artifact cache",
                             parents=[tele])
    cache_p.add_argument("dir")
    cache_p.add_argument("--clear", action="store_true")
    cache_p.set_defaults(func=_cmd_cache)

    sub.add_parser(
        "queries", help="describe the supported query kinds (Table 6)",
        parents=[tele],
    ).set_defaults(func=_cmd_queries)

    stats_p = sub.add_parser(
        "stats", help="summary statistics + effective diameter of a graph",
        parents=[tele],
    )
    stats_p.add_argument("graph", help="zoo name or path")
    stats_p.add_argument("--samples", type=int, default=6,
                         help="BFS samples for the diameter estimate")
    stats_p.set_defaults(func=_cmd_stats)

    sum_p = sub.add_parser(
        "summarize", help="compile saved results into one markdown report",
        parents=[tele],
    )
    sum_p.add_argument("dir", nargs="?", default="results")
    sum_p.add_argument("--out", help="output path (default <dir>/SUMMARY.md)")
    sum_p.set_defaults(func=_cmd_summarize)

    chk_p = sub.add_parser(
        "check",
        help="static analysis (RC rules) and/or a sanitized smoke run",
        parents=[tele],
    )
    chk_p.add_argument("--static", action="store_true",
                       help="run the RC lint rules (default when no mode "
                            "flag is given)")
    chk_p.add_argument("--races", action="store_true",
                       help="whole-program concurrency analyzer "
                            "(RC101-RC105)")
    chk_p.add_argument("--strict-noqa", action="store_true",
                       dest="strict_noqa",
                       help="fail on stale or unjustified "
                            "'# repro: noqa' suppressions (RC100)")
    chk_p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit violations as one JSON object")
    chk_p.add_argument("--sanitize-run", action="store_true",
                       help="REPRO_SANITIZE smoke: sanitized two_phase of "
                            "every query kind on the example dataset")
    chk_p.add_argument("paths", nargs="*",
                       help="files/directories to lint (default src/repro)")
    chk_p.add_argument("--rule", action="append", dest="rules", metavar="RC",
                       help="restrict lint to specific rule ids (repeatable)")
    chk_p.add_argument("--ruff", action="store_true",
                       help="also run ruff when installed")
    chk_p.add_argument("--mypy", action="store_true",
                       help="also run mypy when installed")
    chk_p.set_defaults(func=_cmd_check)

    serve_p = sub.add_parser(
        "serve",
        help="concurrent query service smoke: burst, drain, verify lost=0",
        parents=[tele],
    )
    serve_p.add_argument("--smoke", action="store_true",
                         help="run the self-checking burst demo")
    serve_p.add_argument("--graph", default="PK", help="zoo graph name")
    serve_p.add_argument("--query", default="SSSP")
    serve_p.add_argument("--requests", type=int, default=48,
                         help="burst size submitted before draining")
    serve_p.add_argument("--workers", type=int, default=4)
    serve_p.add_argument("--queue-capacity", type=int, default=32,
                         help="admission queue bound (excess is shed as "
                              "typed queue_full rejections)")
    serve_p.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS", help="per-request deadline")
    serve_p.add_argument("--max-iters", type=int, default=None, metavar="N",
                         help="per-request iteration budget")
    serve_p.add_argument("--breaker-failures", type=int, default=3,
                         help="consecutive completion blowups that trip "
                              "the breaker")
    serve_p.add_argument("--cooldown", type=float, default=0.25,
                         metavar="SECONDS", help="breaker cooldown before "
                         "a half-open probe")
    serve_p.add_argument("--timeout", type=float, default=120.0,
                         help="drain timeout before declaring failure")
    serve_p.add_argument("--export-port", type=int, default=None,
                         metavar="PORT",
                         help="serve /metrics, /healthz, /statz on this "
                              "port for the duration (0 = ephemeral)")
    serve_p.add_argument("--linger", type=float, default=0.0,
                         metavar="SECONDS",
                         help="keep the exporter up this long after the "
                              "burst drains (for outside scrapers)")
    serve_p.add_argument("--mutate-stream", action="store_true",
                         help="live-graph mode: apply mutation batches "
                              "concurrently with the burst (epoch-swapped "
                              "double buffering + background CG rebuilds)")
    serve_p.add_argument("--mutate-batch", type=int, default=16,
                         metavar="EDGES",
                         help="edges mutated per batch in --mutate-stream")
    serve_p.add_argument("--delete-fraction", type=float, default=0.25,
                         metavar="FRAC",
                         help="fraction of each mutation batch that "
                              "deletes existing edges")
    serve_p.add_argument("--mutate-interval", type=float, default=0.005,
                         metavar="SECONDS",
                         help="pause between mutation batches (also the "
                              "rebuild supervisor's poll interval)")
    serve_p.add_argument("--hubs", type=int, default=16,
                         help="hubs for the CG built in --mutate-stream "
                              "(static mode reuses the cached CG)")
    serve_p.add_argument("--wal", metavar="DIR", default=None,
                         help="durable live-graph mode: journal every "
                              "acknowledged batch to a WAL under DIR "
                              "(recovers and resumes an existing log)")
    serve_p.add_argument("--fsync", default="always",
                         metavar="POLICY",
                         help="WAL fsync policy: always, never, or "
                              "group[:MS] (default always)")
    serve_p.add_argument("--snapshot-every", type=int, default=8,
                         metavar="N",
                         help="full-graph snapshot every N epochs "
                              "(anchors WAL compaction; 0 disables)")
    serve_p.set_defaults(func=_cmd_serve)

    evolve_p = sub.add_parser(
        "evolve",
        help="live-graph demo: churn batches, probe precision, rebuild",
        parents=[tele],
    )
    evolve_p.add_argument("--graph", default="PK", help="zoo graph name")
    evolve_p.add_argument("--query", default="SSSP")
    evolve_p.add_argument("--batches", type=int, default=10,
                          help="mutation batches to apply")
    evolve_p.add_argument("--batch-size", type=int, default=16,
                          metavar="EDGES", help="edges per batch")
    evolve_p.add_argument("--delete-fraction", type=float, default=0.25,
                          metavar="FRAC")
    evolve_p.add_argument("--hubs", type=int, default=16,
                          help="hubs for the initial and rebuilt CG")
    evolve_p.add_argument("--seed", type=int, default=11,
                          help="mutation stream seed")
    evolve_p.add_argument("--rebuild", action="store_true",
                          help="run a supervised rebuild after the churn")
    evolve_p.add_argument("--checkpoint", metavar="PATH", default=None,
                          help="rebuild progress checkpoint file")
    evolve_p.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="per-attempt rebuild budget deadline")
    evolve_p.add_argument("--wal", metavar="DIR", default=None,
                          help="journal acknowledged batches to a WAL "
                               "under DIR (recovers an existing log)")
    evolve_p.add_argument("--fsync", default="always", metavar="POLICY",
                          help="WAL fsync policy: always, never, or "
                               "group[:MS] (default always)")
    evolve_p.add_argument("--snapshot-every", type=int, default=8,
                          metavar="N",
                          help="full-graph snapshot every N epochs "
                               "(0 disables periodic snapshots)")
    evolve_p.set_defaults(func=_cmd_evolve)

    evolve_sub = evolve_p.add_subparsers(dest="evolve_cmd")
    recover_p = evolve_sub.add_parser(
        "recover",
        help="replay a WAL directory back to the exact pre-crash epoch",
        parents=[tele],
    )
    recover_p.add_argument("path", help="WAL directory (with snapshots/)")
    recover_p.add_argument("--verify", action="store_true",
                           help="exit non-zero on any fingerprint "
                                "mismatch or internal inconsistency")
    recover_p.add_argument("--to-epoch", type=int, default=None,
                           metavar="N",
                           help="stop the replay at epoch N "
                                "(point-in-time recovery)")
    recover_p.add_argument("--query", dest="recover_query", default=None,
                           help="query spec override (default: the spec "
                                "named in the snapshot)")
    recover_p.add_argument("--hubs", type=int, default=16,
                           help="hubs for any replayed rebuild installs")
    recover_p.set_defaults(func=_cmd_evolve_recover)

    # Regression thresholds shared by `obs diff` and `obs check`.
    thresh = argparse.ArgumentParser(add_help=False)
    thresh.add_argument(
        "--threshold-time-pct", type=float, default=None, metavar="PCT",
        help="phase wall-time growth counted as a regression (default 15)")
    thresh.add_argument(
        "--threshold-counter-pct", type=float, default=None, metavar="PCT",
        help="work-counter growth counted as a regression (default 10)")
    thresh.add_argument(
        "--threshold-quality-drop", type=float, default=None, metavar="ABS",
        help="absolute drop of a quality fraction counted as a regression "
             "(default 0.01)")

    obs_p = sub.add_parser(
        "obs", help="analyze run journals: report, diff, check, baseline")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    rep_p = obs_sub.add_parser(
        "report", help="render a journal as a terminal/HTML run report")
    rep_p.add_argument("journal", help="JSONL journal from --trace")
    rep_p.add_argument("--html", metavar="PATH",
                       help="also write a self-contained HTML report")
    rep_p.add_argument("--json", metavar="PATH",
                       help="also write the machine-readable report "
                            "(same summary structures as the HTML)")
    rep_p.set_defaults(func=_cmd_obs_report)

    trace_p = obs_sub.add_parser(
        "trace", help="render a request's causal tree + waterfall "
                      "(no id: list traced requests)")
    trace_p.add_argument("journal", help="JSONL journal from --trace")
    trace_p.add_argument("trace_id", nargs="?", default=None,
                         help="trace id (from the listing, an exemplar, "
                              "or /statz)")
    trace_p.add_argument("--html", metavar="PATH",
                         help="also write a self-contained HTML trace view")
    trace_p.add_argument("--pick", metavar="STATUS", default=None,
                         help="print the first trace id with this terminal "
                              "status (ok/degraded/failed/rejected) and "
                              "exit; what CI scripting uses")
    trace_p.set_defaults(func=_cmd_obs_trace)

    explain_p = obs_sub.add_parser(
        "explain", help="render the per-request explain record "
                        "(EXPLAIN ANALYZE for one traced query)")
    explain_p.add_argument("journal")
    explain_p.add_argument("trace_id")
    explain_p.set_defaults(func=_cmd_obs_explain)

    diff_p = obs_sub.add_parser(
        "diff", help="per-phase and per-counter deltas of two journals",
        parents=[thresh])
    diff_p.add_argument("journal_a", help="baseline journal")
    diff_p.add_argument("journal_b", help="newer journal")
    diff_p.set_defaults(func=_cmd_obs_diff)

    base_p = obs_sub.add_parser(
        "baseline", help="distill a journal into a committable baseline")
    base_p.add_argument("journal")
    base_p.add_argument("--out", required=True,
                        help="baseline JSON path (e.g. benchmarks/baselines/)")
    base_p.set_defaults(func=_cmd_obs_baseline)

    check_p = obs_sub.add_parser(
        "check", help="gate a journal against a committed baseline",
        parents=[thresh])
    check_p.add_argument("journal")
    check_p.add_argument("--baseline", required=True,
                         help="baseline file, or a directory of baselines "
                              "matched by run key")
    check_p.add_argument("--fail-on-regress", action="store_true",
                         help="exit non-zero when a threshold is exceeded")
    check_p.add_argument("--html", metavar="PATH",
                         help="also write the HTML report with the delta "
                              "table embedded")
    check_p.set_defaults(func=_cmd_obs_check)

    top_p = obs_sub.add_parser(
        "top", help="live dashboard over a /metrics exporter endpoint")
    top_p.add_argument("endpoint", nargs="?", default="127.0.0.1:9179",
                       help="host:port (or URL) of a --export-port process")
    top_p.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS", help="refresh period")
    top_p.add_argument("--once", action="store_true",
                       help="print a single frame and exit (no screen "
                            "clearing; what tests and scripts use)")
    top_p.add_argument("--timeout", type=float, default=2.0,
                       metavar="SECONDS", help="per-request scrape timeout")
    top_p.set_defaults(func=_cmd_obs_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    profile_path = getattr(args, "profile", None)
    if trace_path is None and not want_metrics and profile_path is None:
        return args.func(args)

    from repro import obs

    profiler = None
    if profile_path is not None:
        from repro.obs.live import profile as obs_profile

        profiler = obs_profile.Profiler(
            interval_s=getattr(args, "profile_interval", 0.005)
        ).start()
    snap = None
    with obs.telemetry(
        trace_path=trace_path,
        config=default_config(),
        seed=default_config().source_seed,
        argv=list(argv) if argv is not None else sys.argv[1:],
    ):
        rc = args.func(args)
        if profiler is not None:
            # Stop inside the telemetry context so the profile snapshot
            # lands in the journal and `obs report` can render it.
            snap = profiler.stop()
            obs.journal.emit({
                "type": "event", "name": "obs.profile", **snap.to_dict(),
            })
    if snap is not None:
        snap.write_collapsed(profile_path)
        print("\n== profile (self time per span) ==")
        print(snap.render_table())
        print(f"collapsed stacks -> {profile_path}")
    if want_metrics:
        print("\n== span summary ==")
        print(obs.spans.render_summary())
        print("\n== metrics ==")
        print(obs.REGISTRY.render_table())
        quality_line = obs.quality.summary_line()
        if quality_line:
            print(quality_line)
    if trace_path is not None:
        print(f"telemetry journal -> {trace_path}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
