"""Test-side reference for the curvature stencil: the hyperbolic disc
factor, whose curvature is exactly -1, and the error of a curvature field
against a constant.  Criterion 7 and the conformal tests read them; the
pipeline never does.
"""

import math

import numpy as np

from nonembed import bvp

HYPERBOLIC_RADIUS = 0.95  # the hyperbolic reference factor is on r < this


def hyperbolic_disc_factor(h: float) -> bvp.ScalarField:
    """phi = ln(2 / (1 - r^2)) sampled at lattice spacing h on
    r < HYPERBOLIC_RADIUS; the curvature of this factor is exactly -1."""
    m = int(math.ceil(HYPERBOLIC_RADIUS / h))
    n = 2 * m
    G = bvp.MaskedGrid(origin=(-m * h, -m * h), h=h,
                       mask=np.full((n + 1, n + 1), bvp.INTERIOR, dtype=np.int8),
                       subgrid_boundary=True)
    X, Y = G.nodes_xy()
    R2 = X * X + Y * Y
    inside = R2 < HYPERBOLIC_RADIUS * HYPERBOLIC_RADIUS
    G.mask[~inside] = bvp.EXTERIOR
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(inside, np.log(2.0 / (1.0 - np.minimum(R2, 1 - 1e-12))), 0.0)
    return bvp.ScalarField(grid=G, values=vals)


def curvature_error_vs_constant(K: bvp.ScalarField, target: float) -> float:
    """Max |K - target| over the curvature field's interior nodes."""
    inner = K.grid.mask == bvp.INTERIOR
    assert np.any(inner), "no interior nodes"
    return float(np.max(np.abs(K.values[inner] - target)))
