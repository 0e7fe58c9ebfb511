"""Supplementary benchmarks: prose claims of the paper, measured.

``suppl_reduced`` quantifies the §4 Reduced-Graph criticism;
``suppl_convergence`` shows the iteration-level mechanics behind the
speedups; ``suppl_engines`` characterizes the evaluation substrate.
"""


def test_suppl_reduced(record_experiment):
    result = record_experiment("suppl_reduced")
    for row in result.rows:
        # Reduced graphs lose queryable vertices; core graphs never do.
        assert row[4] == 100.0
        assert row[2] <= 100.0


def test_suppl_convergence(record_experiment):
    result = record_experiment("suppl_convergence", floatfmt=".0f")
    core = sum(r[3] for r in result.rows if r[0] == "core")
    direct = sum(r[3] for r in result.rows if r[0] == "direct")
    assert core < direct


def test_suppl_engines(record_experiment):
    result = record_experiment("suppl_engines")
    sync_iters = {r[0]: r[2] for r in result.rows if r[1] == "sync push"}
    async_iters = {r[0]: r[2] for r in result.rows if r[1] == "async"}
    for query in sync_iters:
        assert async_iters[query] <= sync_iters[query]


def test_suppl_shape_agreement(record_experiment):
    result = record_experiment("suppl_shape_agreement")
    rho = {row[0]: row[2] for row in result.rows}
    # The three large tables must correlate clearly with the paper.
    for key in ("fig02 speedups", "table09 I/O reductions",
                "table11 EDGES-RED"):
        assert rho[key] > 0.3, (key, rho[key])
    # Table 12 has only 12 cells whose paper ordering is dominated by
    # graph size (its FR/TT >> TTW/PK split does not re-emerge at uniform
    # stand-in scale); require only that it not anti-correlate.
    assert rho["table12 triangle speedups"] > -0.3


def test_suppl_evolving(record_experiment):
    result = record_experiment("suppl_evolving")
    assert result.rows[-1][3] >= result.rows[-2][3]  # rebuild restores
