"""Budgets fire at iteration boundaries in every engine."""

import time

import numpy as np
import pytest

from repro.core.dispatch import build_cg
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query, run_push
from repro.engines.scalar import scalar_evaluate
from repro.queries import SSSP
from repro.resilience import Budget, BudgetExceeded, BudgetReuseError


class TestBudgetObject:
    def test_tick_counts_cumulatively(self):
        b = Budget(max_iterations=3)
        b.tick("a")
        b.tick("b")
        b.tick("a")
        with pytest.raises(BudgetExceeded):
            b.tick("a")

    def test_structured_exception_fields(self):
        b = Budget(max_iterations=1)
        b.tick("site.one")
        with pytest.raises(BudgetExceeded) as exc_info:
            b.tick("site.two")
        exc = exc_info.value
        assert exc.limit == "max_iterations"
        assert exc.site == "site.two"
        assert exc.observed == 2
        assert exc.threshold == 1
        assert exc.iteration == 2
        assert exc.elapsed_s >= 0.0
        d = exc.as_dict()
        assert set(d) == {
            "limit", "site", "observed", "threshold", "iteration",
            "elapsed_s",
        }

    def test_deadline(self):
        b = Budget(deadline_s=0.0)
        b.start()
        time.sleep(0.005)
        with pytest.raises(BudgetExceeded) as exc_info:
            b.tick("x")
        assert exc_info.value.limit == "deadline_s"

    def test_unlimited_budget_never_fires(self, medium_graph):
        b = Budget()
        vals = evaluate_query(medium_graph, SSSP, 0, budget=b)
        assert vals is not None
        assert b.iterations > 0


class TestEnginesEnforceBudget:
    """Each engine aborts with the structured exception at its boundary."""

    def test_frontier(self, medium_graph):
        spec = SSSP
        vals = spec.initial_values(medium_graph.num_vertices, 0)
        frontier = spec.initial_frontier(medium_graph.num_vertices, 0)
        with pytest.raises(BudgetExceeded) as exc_info:
            run_push(medium_graph, spec, vals, frontier,
                     budget=Budget(max_iterations=2))
        assert exc_info.value.site == "engine.frontier"

    def test_scalar(self, medium_graph):
        with pytest.raises(BudgetExceeded) as exc_info:
            scalar_evaluate(medium_graph, SSSP, 0,
                            budget=Budget(max_iterations=5))
        assert exc_info.value.site == "engine.scalar"

    def test_values_remain_valid_bounds_after_abort(self, medium_graph):
        """An aborted run's values are still sound upper bounds for SSSP."""
        spec = SSSP
        truth = evaluate_query(medium_graph, spec, 0)
        vals = spec.initial_values(medium_graph.num_vertices, 0)
        frontier = spec.initial_frontier(medium_graph.num_vertices, 0)
        with pytest.raises(BudgetExceeded):
            run_push(medium_graph, spec, vals, frontier,
                     budget=Budget(max_iterations=3))
        assert np.all(vals >= truth)  # MIN query: partial values over-estimate

    def test_budget_shared_across_engine_runs(self, tiny_graph):
        """One budget object spans runs — the 2Phase cross-phase semantics."""
        b = Budget(max_iterations=10_000)
        evaluate_query(tiny_graph, SSSP, 0, budget=b)
        after_first = b.iterations
        evaluate_query(tiny_graph, SSSP, 0, budget=b)
        assert b.iterations == 2 * after_first


class TestBudgetReuse:
    """A started budget cannot silently back a second top-level run."""

    def test_begin_run_claims_once(self):
        b = Budget(max_iterations=10)
        b.begin_run("first")
        with pytest.raises(BudgetReuseError, match="fresh Budget"):
            b.begin_run("second")

    def test_started_budget_cannot_be_claimed(self):
        # Even without a prior claim: a running clock means the new run
        # would inherit elapsed time.
        b = Budget(deadline_s=60.0).start()
        with pytest.raises(BudgetReuseError):
            b.begin_run()

    def test_reuse_error_is_not_a_budget_exceeded(self):
        # Handlers catching BudgetExceeded (a RuntimeError) must never
        # absorb the caller bug.
        assert not issubclass(BudgetReuseError, RuntimeError)
        assert issubclass(BudgetReuseError, ValueError)

    def test_two_phase_rejects_shared_budget(self, tiny_graph):
        cg = build_cg(tiny_graph, SSSP, num_hubs=2)
        b = Budget(max_iterations=10_000)
        two_phase(tiny_graph, cg, SSSP, 0, budget=b)
        with pytest.raises(BudgetReuseError):
            two_phase(tiny_graph, cg, SSSP, 0, budget=b)
