"""two_phase budgets and anytime certificates."""

import numpy as np
import pytest

from repro.core.identify import build_core_graph
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.queries import SSSP
from repro.resilience import Budget, BudgetExceeded
from repro.resilience.anytime import (
    CERT_APPROX,
    CERT_EXACT,
    CERT_UNREACHED,
    certificate_counts,
)


@pytest.fixture
def sssp_setup(medium_graph):
    cg = build_core_graph(medium_graph, SSSP, num_hubs=24)
    truth = evaluate_query(medium_graph, SSSP, 0)
    return medium_graph, cg, truth


class TestBudgetedTwoPhase:
    def test_non_anytime_raises(self, sssp_setup):
        g, cg, _ = sssp_setup
        with pytest.raises(BudgetExceeded):
            two_phase(g, cg, SSSP, 0, budget=Budget(max_iterations=1))

    def test_complete_run_certifies_everything_reached(self, sssp_setup):
        g, cg, truth = sssp_setup
        res = two_phase(g, cg, SSSP, 0, triangle=True)
        assert not res.degraded and res.budget_error is None
        assert res.certificate is not None
        reached = SSSP.reached(truth)
        assert np.all(res.certificate[reached] == CERT_EXACT)
        assert np.all(res.certificate[~reached] == CERT_UNREACHED)

    def test_anytime_certificate_sound_vs_ground_truth(self, sssp_setup):
        """The acceptance criterion: certified-exact vertices match truth."""
        g, cg, truth = sssp_setup
        res = two_phase(
            g, cg, SSSP, 0, triangle=True,
            budget=Budget(max_iterations=2), anytime=True,
        )
        assert res.degraded
        assert res.budget_error is not None
        assert res.budget_error.limit == "max_iterations"
        exact = res.certificate == CERT_EXACT
        assert np.array_equal(res.values[exact], truth[exact])
        # the partial run must classify every vertex
        counts = certificate_counts(res.certificate)
        assert sum(counts.values()) == g.num_vertices

    @pytest.mark.parametrize("max_iters", [1, 3, 6, 12])
    def test_anytime_sound_at_every_cutoff(self, sssp_setup, max_iters):
        """Certificates stay sound no matter where the budget lands —
        including cutoffs inside the core phase (1) and completion phase."""
        g, cg, truth = sssp_setup
        res = two_phase(
            g, cg, SSSP, 0, triangle=True,
            budget=Budget(max_iterations=max_iters), anytime=True,
        )
        if not res.degraded:
            assert np.array_equal(res.values, truth)
            return
        exact = res.certificate == CERT_EXACT
        assert np.array_equal(res.values[exact], truth[exact])

    def test_anytime_approx_values_are_valid_bounds(self, sssp_setup):
        g, cg, truth = sssp_setup
        res = two_phase(
            g, cg, SSSP, 0,
            budget=Budget(max_iterations=4), anytime=True,
        )
        assert res.degraded
        approx = res.certificate == CERT_APPROX
        # MIN query: partial values can only over-estimate the truth
        assert np.all(res.values[approx] >= truth[approx])

    def test_deadline_abort_returns_partial(self, sssp_setup):
        g, cg, truth = sssp_setup
        res = two_phase(
            g, cg, SSSP, 0, triangle=True,
            budget=Budget(deadline_s=0.0), anytime=True,
        )
        assert res.degraded
        assert res.budget_error.limit == "deadline_s"
        exact = res.certificate == CERT_EXACT
        assert np.array_equal(res.values[exact], truth[exact])

