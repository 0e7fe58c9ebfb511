"""Tests for the QuerySpec abstraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.base import Selection
from repro.queries.specs import REACH, SSNP, SSSP, SSWP, VITERBI, WCC


class TestLattice:
    def test_better_min(self):
        assert SSSP.better(np.array([1.0]), np.array([2.0]))[0]
        assert not SSSP.better(np.array([2.0]), np.array([2.0]))[0]

    def test_better_max(self):
        assert SSWP.better(np.array([3.0]), np.array([2.0]))[0]
        assert not SSWP.better(np.array([2.0]), np.array([2.0]))[0]

    def test_improve(self):
        assert SSSP.improve(np.array([5.0]), np.array([3.0]))[0] == 3.0
        assert SSWP.improve(np.array([5.0]), np.array([3.0]))[0] == 5.0

    def test_reduce_at_with_duplicates(self):
        vals = np.array([10.0, 10.0])
        SSSP.reduce_at(vals, np.array([0, 0, 1]), np.array([3.0, 7.0, 4.0]))
        assert list(vals) == [3.0, 4.0]

    def test_reached(self):
        vals = np.array([np.inf, 3.0, 0.0])
        assert list(SSSP.reached(vals)) == [False, True, True]
        vals = np.array([-np.inf, 3.0])
        assert list(SSWP.reached(vals)) == [False, True]

    def test_values_equal_handles_inf(self):
        a = np.array([np.inf, -np.inf, 1.0])
        b = np.array([np.inf, -np.inf, 1.0 + 1e-12])
        assert SSSP.values_equal(a, b).all()
        assert not SSSP.values_equal(
            np.array([np.inf]), np.array([-np.inf])
        )[0]

    @pytest.mark.parametrize("spec", (SSSP, VITERBI), ids=lambda s: s.name)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_values_equal_matches_isclose_form(self, spec, data):
        """Against the ``isclose`` + same-signed-``isinf`` expression, on
        the shapes its callers pass: two arrays, or an array and a scalar."""
        special = st.sampled_from([
            np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 2.2e-308,
            1e308, -1e308, 1.0, 1.0 + 1e-12, 1.0 + 1e-6,
        ])
        value = st.one_of(special, st.floats(allow_nan=True))
        n = data.draw(st.integers(1, 12))
        a = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        shape = data.draw(st.sampled_from(["arrays", "scalar_b", "scalar_a"]))
        if shape == "scalar_b":
            b = b[0]
        elif shape == "scalar_a":
            a = a[0]
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.isclose(
                a, b, rtol=spec.rtol, atol=spec.atol, equal_nan=False
            ) | (np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b)))
        got = spec.values_equal(a, b)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected)

    def test_saturated_only_for_reach(self):
        assert SSSP.saturated(np.zeros(3)) is None
        mask = REACH.saturated(np.array([0.0, 1.0]))
        assert list(mask) == [False, True]


class TestInitialization:
    def test_single_source(self):
        vals = SSSP.initial_values(4, 2)
        assert vals[2] == 0.0
        assert np.isinf(vals[0])
        assert list(SSSP.initial_frontier(4, 2)) == [2]

    def test_source_required(self):
        with pytest.raises(ValueError):
            SSSP.initial_values(4, None)

    def test_source_range_checked(self):
        with pytest.raises(ValueError):
            SSSP.initial_values(4, 9)

    def test_multi_source_wcc(self):
        vals = WCC.initial_values(5, None)
        assert np.array_equal(vals, np.arange(5, dtype=float))
        assert WCC.initial_frontier(5, None).size == 5

    def test_sswp_source_is_top(self):
        vals = SSWP.initial_values(3, 0)
        assert np.isposinf(vals[0])
        assert np.isneginf(vals[1])


class TestSolutionPathTest:
    def test_sssp_witness(self):
        # edge u->v with val_u + w == val_v is on a shortest path
        val_u = np.array([2.0, 2.0, np.inf])
        w = np.array([3.0, 4.0, 1.0])
        val_v = np.array([5.0, 5.0, 5.0])
        mask = SSSP.on_solution_path(val_u, w, val_v)
        assert list(mask) == [True, False, False]

    def test_unreached_source_excluded(self):
        # val_u == init (inf): inf + w == inf == val_v must NOT qualify
        mask = SSSP.on_solution_path(
            np.array([np.inf]), np.array([1.0]), np.array([np.inf])
        )
        assert not mask[0]

    def test_sswp_witness(self):
        mask = SSWP.on_solution_path(
            np.array([4.0, 4.0]), np.array([2.0, 5.0]), np.array([2.0, 2.0])
        )
        assert list(mask) == [True, False]


class TestViterbiWeights:
    def test_transform_maps_to_probabilities(self):
        w = np.array([0.5, 1.0, 4.0])
        p = VITERBI.weight_transform(w)
        assert np.allclose(p, [0.5, 1.0, 0.25])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VITERBI.weight_transform(np.array([0.0]))

    def test_propagation_decays(self):
        p = VITERBI.weight_transform(np.array([2.0]))
        out = VITERBI.propagate(np.array([1.0]), p)
        assert out[0] == 0.5


class TestSpecTable:
    """The Table 6 contract for each query kind."""

    @pytest.mark.parametrize(
        "spec,selection", [
            (SSSP, Selection.MIN), (SSNP, Selection.MIN),
            (SSWP, Selection.MAX), (VITERBI, Selection.MAX),
            (REACH, Selection.MAX), (WCC, Selection.MIN),
        ],
    )
    def test_selection(self, spec, selection):
        assert spec.selection is selection

    def test_weight_use(self):
        assert SSSP.uses_weights and SSWP.uses_weights
        assert not REACH.uses_weights and not WCC.uses_weights

    def test_connectivity_picks(self):
        assert SSSP.connectivity_pick == "min"
        assert SSNP.connectivity_pick == "min"
        assert VITERBI.connectivity_pick == "min"
        assert SSWP.connectivity_pick == "max"

    def test_wcc_is_symmetric_multi_source(self):
        assert WCC.symmetric and WCC.multi_source
        assert not REACH.symmetric and not REACH.multi_source
