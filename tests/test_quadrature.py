"""Tests for the cumulative Simpson tables and their Hermite evaluation."""

import numpy as np
import pytest

from airywell.quadrature import CumulativeTable, SimpsonGrid


def test_cumulative_is_exact_for_cubics():
    # composite Simpson integrates cubics exactly; so does the odd-prefix rule
    grid = SimpsonGrid.build(2.0, knots=None, panels_per_segment=8)
    tab = grid.cumulative(3.0 * grid.nodes**2)
    np.testing.assert_allclose(tab.values, grid.nodes**3, rtol=0, atol=1e-14)


def test_cumulative_matches_antiderivative_trig():
    # the odd-node prefix rule accumulates ~4e-11 at this density, in line
    # with the 1e-10 refinement target the profile tables aim for
    grid = SimpsonGrid.build(3.0, knots=None, panels_per_segment=512)
    tab = grid.cumulative(np.cos(grid.nodes))
    np.testing.assert_allclose(tab.values, np.sin(grid.nodes), rtol=0, atol=1e-10)


def test_cumulative_starts_at_zero():
    grid = SimpsonGrid.build(1.0, knots=None, panels_per_segment=4)
    tab = grid.cumulative(np.exp(grid.nodes))
    assert tab.values[0] == 0.0


def test_hermite_off_node_evaluation():
    grid = SimpsonGrid.build(3.0, knots=None, panels_per_segment=512)
    tab = grid.cumulative(np.cos(grid.nodes))
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 3.0, size=64)
    np.testing.assert_allclose(tab.value(ts), np.sin(ts), rtol=0, atol=1e-10)
    # scalar in, scalar out
    assert tab.value(1.234) == pytest.approx(np.sin(1.234), abs=1e-10)


def test_value_at_nodes_is_exact():
    grid = SimpsonGrid.build(2.5, knots=None, panels_per_segment=32)
    tab = grid.cumulative(np.sin(grid.nodes) + grid.nodes)
    np.testing.assert_allclose(tab.value(grid.nodes), tab.values, rtol=0, atol=0)


def test_knots_become_nodes():
    knots = np.array([0.7, 1.3])
    grid = SimpsonGrid.build(2.0, knots=knots, panels_per_segment=4)
    for kn in knots:
        assert np.min(np.abs(grid.nodes - kn)) < 1e-15


def test_knot_aligned_grid_is_exact_for_piecewise_linear():
    # a kink at a segment boundary costs Simpson nothing
    knots = np.array([1.0])
    grid = SimpsonGrid.build(2.0, knots=knots, panels_per_segment=8)
    y = np.where(grid.nodes <= 1.0, grid.nodes, 2.0 - grid.nodes)
    tab = grid.cumulative(y)
    want = np.where(grid.nodes <= 1.0, grid.nodes**2 / 2,
                    0.5 + (2.0 * grid.nodes - grid.nodes**2 / 1.0) / 1.0 - 1.5)
    # antiderivative: t^2/2 up to 1, then 0.5 + [2t - t^2/2] - [2 - 1/2]
    want = np.where(grid.nodes <= 1.0, grid.nodes**2 / 2,
                    0.5 + 2.0 * (grid.nodes - 1.0) - (grid.nodes**2 - 1.0) / 2)
    np.testing.assert_allclose(tab.values, want, rtol=0, atol=1e-14)


def test_many_segments_keep_full_precision():
    # Simpson integrates 1 + t/2 exactly; what is left is rounding, which
    # must not grow with the position of the segment in the window
    knots = np.linspace(0.0, 10.0, 2001)[1:-1]
    grid = SimpsonGrid.build(10.0, knots=knots, panels_per_segment=16)
    t = grid.nodes
    tab = grid.cumulative(1.0 + t / 2.0)
    np.testing.assert_allclose(tab.values, t + t * t / 4.0, rtol=0, atol=1e-12)


def test_refined_doubles_panels():
    grid = SimpsonGrid.build(2.0, knots=np.array([0.5]), panels_per_segment=4)
    fine = grid.refined()
    assert fine.nodes.size - 1 == 2 * (grid.nodes.size - 1)
    # coarse nodes survive refinement
    for t in grid.nodes:
        assert np.min(np.abs(fine.nodes - t)) < 1e-15


def test_max_node_difference_detects_coarse_error():
    y = lambda t: np.sin(5.0 * t)
    coarse = SimpsonGrid.build(3.0, knots=None, panels_per_segment=2)
    tc = coarse.cumulative(y(coarse.nodes))
    fine = coarse.refined()
    tf = fine.cumulative(y(fine.nodes))
    assert tf.max_node_difference(tc) > 1e-1       # 2 panels cannot see sin(5t)
    ok = SimpsonGrid.build(3.0, knots=None, panels_per_segment=128)
    tok = ok.cumulative(y(ok.nodes))
    ref = SimpsonGrid.build(3.0, knots=None, panels_per_segment=1024)
    tref = ref.cumulative(y(ref.nodes))
    assert tref.max_node_difference(tok) < 2e-5    # resolved grid agrees


def test_build_validation():
    with pytest.raises(ValueError):
        SimpsonGrid.build(2.0, knots=None, panels_per_segment=3)   # odd
    with pytest.raises(ValueError):
        SimpsonGrid.build(2.0, knots=None, panels_per_segment=0)
    with pytest.raises(ValueError):
        SimpsonGrid.build(-1.0, knots=None, panels_per_segment=4)


def test_out_of_window_evaluation_rejected():
    grid = SimpsonGrid.build(1.0, knots=None, panels_per_segment=8)
    tab = grid.cumulative(np.ones_like(grid.nodes))
    with pytest.raises(ValueError):
        tab.value(1.5)
    with pytest.raises(ValueError):
        tab.value(-0.5)
    # tiny slack at the ends is tolerated
    assert tab.value(1.0 + 1e-13) == pytest.approx(1.0, abs=1e-12)


def test_cumulative_length_mismatch_rejected():
    grid = SimpsonGrid.build(1.0, knots=None, panels_per_segment=8)
    with pytest.raises(ValueError):
        grid.cumulative(np.ones(grid.nodes.size - 1))
