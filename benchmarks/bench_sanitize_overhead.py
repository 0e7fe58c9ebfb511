"""Sanitizer overhead: the disabled path must be free.

With ``REPRO_SANITIZE`` unset, every probe site costs exactly one
module-attribute read per round; the
disabled benchmark here must sit within noise of the pre-sanitizer
engine. The enabled benchmarks bound what a sanitized run costs — the
per-round monotonicity sweep dominates, the structural checks amortize
to one-time work.
"""

import pytest

from repro.checks import sanitize
from repro.engines.frontier import evaluate_query
from repro.harness.cache import get_graph, get_sources
from repro.queries.registry import get_spec


@pytest.fixture
def tt_sssp():
    g = get_graph("TT")
    source = int(get_sources("TT", 1)[0])
    return g, get_spec("SSSP"), source


def test_engine_sanitize_disabled(benchmark, tt_sssp):
    """Baseline: the default (disabled) path — one flag read per site."""
    g, spec, source = tt_sssp
    sanitize.disable()
    vals = benchmark(evaluate_query, g, spec, source)
    assert vals.shape == (g.num_vertices,)


def test_engine_sanitize_enabled(benchmark, tt_sssp):
    """Full sanitizer: structural checks up front, watchdog per round."""
    g, spec, source = tt_sssp

    def run():
        with sanitize.enabled():
            return evaluate_query(g, spec, source)

    vals = benchmark(run)
    assert vals.shape == (g.num_vertices,)


def test_watchdog_probe_alone(benchmark, tt_sssp):
    """Cost of one monotonicity sweep over a full value array."""
    g, spec, source = tt_sssp
    vals = evaluate_query(g, spec, source)
    benchmark(
        sanitize.probes.monotone_watchdog, spec, vals, vals, "bench"
    )


def test_csr_probe_alone(benchmark, tt_sssp):
    """Cost of the one-time CSR structural validation."""
    g, _, _ = tt_sssp
    benchmark(sanitize.probes.check_csr, g, "bench")
