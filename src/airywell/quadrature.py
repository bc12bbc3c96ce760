"""Cumulative integrals F(t) = int_0^t y dtau on knot-aligned Simpson grids.

The derived time functions of the model are nested integrals of the mass
and coupling histories (one integrand is itself a prior integral), so
everything is computed on one shared grid per profile:

  * the grid is fixed by its edges (0, the supplied knots inside the
    window, T) and one even panel count per segment; the knots are the
    sample points of tabulated inputs, so integrands are smooth inside
    every panel, and a smooth profile has the single segment [0, T];
  * segment j carries uniform panels of width (edge[j+1] - edge[j]) / p,
    so the nodes read as a (segments x p+1) array whose rows share their
    end nodes;
  * the composite Simpson prefix table is computed for all rows at once,
    fourth order in the panel width, using the half-panel closure
        F[2i+1] = F[2i] + h/12 (5 y[2i] + 8 y[2i+1] - y[2i+2]),
    and the running segment totals are added afterwards;
  * off-node queries interpolate the prefix table with a cubic Hermite
    whose end slopes are the exactly known integrand values, which keeps
    the interpolation error at the same fourth order as the table itself.

Convergence is controlled by the caller: `SimpsonGrid.refined` halves
every panel, so the old nodes are bitwise every other new node, and the
tables are compared there (Richardson style) until they agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["SimpsonGrid", "CumulativeTable"]


@dataclass(frozen=True)
class SimpsonGrid:
    """Knot-aligned node set on [0, T] with per-segment uniform panels."""

    edges: np.ndarray           # 0, the knots inside the window, T
    panels_per_segment: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.panels_per_segment
        if p < 2 or p % 2:
            raise ValueError("panel count per segment must be even and >= 2")
        # the same arithmetic as np.linspace(a, b, p + 1), row by row
        nodes = self.edges[:-1, None] + np.arange(p + 1) * self._widths()
        nodes[:, -1] = self.edges[1:]
        object.__setattr__(self, "nodes", np.concatenate((self.edges[:1], nodes[:, 1:].ravel())))

    @staticmethod
    def build(span: float, knots=None, *, panels_per_segment: int) -> "SimpsonGrid":
        if span <= 0:
            raise ValueError("integration window must have positive length")
        k = np.asarray([] if knots is None else knots, dtype=float)
        k = k[(k > 0.0) & (k < span)]
        # the distinct values by a sort: on numpy 2.4 np.unique imports
        # numpy.ma, which costs about 8 ms of a fresh process
        edges = np.sort(np.concatenate(([0.0, span], k)))
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        return SimpsonGrid(edges=edges, panels_per_segment=panels_per_segment)

    @property
    def segments(self) -> int:
        return self.edges.size - 1

    def refined(self) -> "SimpsonGrid":
        return SimpsonGrid(edges=self.edges, panels_per_segment=2 * self.panels_per_segment)

    def _widths(self) -> np.ndarray:
        """Panel width of each segment, as a column."""
        return (np.diff(self.edges) / self.panels_per_segment)[:, None]

    def cumulative(self, y: np.ndarray) -> "CumulativeTable":
        """Prefix integrals of nodewise samples y, fourth order.

        y may stack several integrands as rows (shape (..., nodes)); each
        row gets its own table, with the arithmetic of a single row.
        """
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != self.nodes.shape:
            raise ValueError("integrand samples must align with the grid nodes")
        p = self.panels_per_segment
        h = self._widths()
        rows = sliding_window_view(y, p + 1, axis=-1)[..., ::p, :]
        left, mid, right = rows[..., 0:-2:2], rows[..., 1:-1:2], rows[..., 2::2]
        local = np.zeros(rows.shape)
        local[..., 2::2] = np.cumsum((h / 3.0) * (left + 4.0 * mid + right), axis=-1)
        local[..., 1::2] = local[..., 0:-2:2] + (h / 12.0) * (5.0 * left + 8.0 * mid - right)
        starts = np.zeros(rows.shape[:-1])
        np.cumsum(local[..., :-1, -1], axis=-1, out=starts[..., 1:])
        values = np.zeros(y.shape)
        values[..., 1:] = (starts[..., None] + local[..., 1:]).reshape(y.shape[:-1] + (-1,))
        return CumulativeTable(grid=self, integrand=y, values=values)


@dataclass(frozen=True)
class CumulativeTable:
    """F on grid nodes plus its exact slopes (the integrand samples).

    values and integrand have shape (..., nodes): a stacked table holds
    one integral per row and answers for all of them in one read.
    """

    grid: SimpsonGrid
    integrand: np.ndarray
    values: np.ndarray

    def value(self, t):
        """Cubic Hermite read of F at scalar or array t inside the window.

        A stacked table returns its rows along the leading axes.  A float
        t (the Crank-Nicolson feed reads the coefficients once per step) is
        located, and the formula taken, in Python floats read from the two
        bracketing nodes, in the array path's order of operations: on one
        query the 0-d numpy operations and small temporaries of the array
        path cost more than the formula itself, and the result is bitwise
        the same.
        """
        nodes = self.grid.nodes
        if isinstance(t, float):
            lo, hi = float(nodes[0]), float(nodes[-1])
            # written so that a NaN query fails the test
            if not (lo - 1e-12 <= t <= hi + 1e-12):
                raise ValueError("query time outside the configured window")
            # an np.float64 t is a float too; float(t) keeps every value below
            # a Python float, not an np.float64
            t = min(max(float(t), lo), hi)
            i = min(int(nodes.searchsorted(t, side="right")) - 1, nodes.size - 2)
            x0, x1 = nodes[i:i + 2].tolist()
            h = x1 - x0
            h00, h10, h01, h11 = _hermite_basis((t - x0) / h)
            values = self.values[..., i:i + 2].reshape(-1, 2).tolist()
            slopes = self.integrand[..., i:i + 2].reshape(-1, 2).tolist()
            rows = [h00 * v0 + h01 * v1 + h * (h10 * y0 + h11 * y1)
                    for (v0, v1), (y0, y1) in zip(values, slopes)]
            if self.values.ndim == 1:
                return rows[0]
            return np.array(rows).reshape(self.values.shape[:-1])
        tq = np.asarray(t, dtype=float)
        # written so that a NaN query fails the test
        if tq.size and not (tq.min() >= nodes[0] - 1e-12 and tq.max() <= nodes[-1] + 1e-12):
            raise ValueError("query time outside the configured window")
        # minimum/maximum rather than np.clip, which costs more than the
        # whole Hermite formula on a small query
        tq = np.minimum(np.maximum(tq, nodes[0]), nodes[-1])
        i = np.minimum(nodes.searchsorted(tq, side="right") - 1, nodes.size - 2)
        h = nodes[i + 1] - nodes[i]
        h00, h10, h01, h11 = _hermite_basis((tq - nodes[i]) / h)
        out = (
            h00 * self.values[..., i]
            + h01 * self.values[..., i + 1]
            + h * (h10 * self.integrand[..., i] + h11 * self.integrand[..., i + 1])
        )
        return float(out) if out.ndim == 0 else out


def _hermite_basis(u):
    """The cubic Hermite basis (h00, h10, h01, h11) at offset u, in panel
    widths, for float or array u."""
    u2 = u * u
    u3 = u2 * u
    return 2 * u3 - 3 * u2 + 1, u3 - 2 * u2 + u, -2 * u3 + 3 * u2, u3 - u2
