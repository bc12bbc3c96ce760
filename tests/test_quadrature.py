"""Tests for the cumulative Simpson tables and their Hermite evaluation."""

import numpy as np
import pytest

from airywell.profiles import TimeProfile
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
    # the Richardson test of the profile tables: the fine table read at the
    # coarse nodes, which are every (fine/coarse)-th fine node
    y = lambda t: np.sin(5.0 * t)

    def node_difference(coarse_panels, fine_panels):
        coarse, fine = (SimpsonGrid.build(3.0, knots=None, panels_per_segment=p)
                        for p in (coarse_panels, fine_panels))
        step = fine_panels // coarse_panels
        assert np.array_equal(fine.nodes[::step], coarse.nodes)
        tc, tf = coarse.cumulative(y(coarse.nodes)), fine.cumulative(y(fine.nodes))
        return np.max(np.abs(tf.values[::step] - tc.values))

    assert node_difference(2, 4) > 1e-1          # 2 panels cannot see sin(5t)
    assert node_difference(128, 1024) < 2e-5     # resolved grid agrees


@pytest.mark.parametrize("knots, span", [
    (None, 3.0),                                              # the unit profile's grid
    (np.linspace(0.0, 2.0, 2001), 2.0),                       # a 2001-row sampled pair
    (np.random.default_rng(19).uniform(0.0, 2.5, 37), 2.5),   # random knots
], ids=["unit", "sampled-2001", "random-knots"])
def test_refined_grid_holds_the_coarse_nodes_bitwise(knots, span):
    # the profile tables compare fine[..., ::2] with the coarse table, so
    # each refinement must keep every coarse node as every other fine node
    for panels in (2, 4, 8, 16):
        grid = SimpsonGrid.build(span, knots=knots, panels_per_segment=panels)
        fine = grid.refined()
        assert fine.nodes[::2].tobytes() == grid.nodes.tobytes(), panels


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


def test_nan_query_rejected():
    grid = SimpsonGrid.build(1.0, knots=None, panels_per_segment=8)
    tab = grid.cumulative(np.ones_like(grid.nodes))
    with pytest.raises(ValueError, match="window"):
        tab.value(float("nan"))
    with pytest.raises(ValueError, match="window"):
        tab.value(np.array([0.25, np.nan, 0.75]))


def test_scalar_and_array_reads_agree():
    # a float query gives the float the array query holds
    grid = SimpsonGrid.build(2.0, knots=[0.7], panels_per_segment=8)
    tab = grid.cumulative(np.cos(grid.nodes))
    ts = np.array([0.0, 0.33, 0.7, 1.9, 2.0])
    many = tab.value(ts)
    for t, want in zip(ts, many):
        one = tab.value(t)
        assert type(one) is float and one == want
    assert tab.value(np.array([])).shape == (0,)


def test_float_read_is_bitwise_the_array_read_on_a_profile_table():
    # the float path redoes the array path's arithmetic in Python floats;
    # on the stacked table of a sampled profile every row must match to
    # the bit at nodes, knots, mid-panel points, both ends and the slack
    profile = TimeProfile.from_config({
        "mass": {"family": "sampled", "table": [[0, 1], [0.7, 1.3], [1.3, 0.9], [2, 1.1]]},
        "coupling": {"family": "sinusoidal", "f0": 1.0, "omega": 1.0},
        "window": 2.0,
    })
    tab = profile.tables.table
    nodes = tab.grid.nodes
    ts = np.concatenate((nodes[::5], [0.7, 1.3], 0.5 * (nodes[:-1] + nodes[1:])[::5],
                         [0.0, -0.0, 2.0, -1e-12, 2.0 + 1e-12, 1e-12, 2.0 - 1e-12]))
    many = tab.value(ts)
    for j, t in enumerate(ts.tolist()):
        one = tab.value(t)
        assert one.shape == (4,) and one.tobytes() == many[:, j].tobytes(), t
    for t in (-2e-12, 2.0 + 2e-12, float("nan")):
        with pytest.raises(ValueError, match="query time outside the configured window"):
            tab.value(t)
        with pytest.raises(ValueError, match="query time outside the configured window"):
            tab.value(np.array([t]))


def test_cumulative_length_mismatch_rejected():
    grid = SimpsonGrid.build(1.0, knots=None, panels_per_segment=8)
    with pytest.raises(ValueError):
        grid.cumulative(np.ones(grid.nodes.size - 1))
