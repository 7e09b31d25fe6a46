"""Conformal metrics e^{2 phi} dx^2: curvature, lengths, and the
tail-metric family checks (curvature sign, length change in the bump
amplitude, amplitude threshold scan).

Gaussian curvature of a conformal factor phi is -e^{-2 phi} (Laplacian of
phi); lengths are line integrals of e^{phi}.  Lengths are accumulated in
log scale (the integrand's log is phi itself), so factors far beyond
double range integrate safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from nonembed.bvp import (EXTERIOR, INTERIOR, MaskedGrid, ScalarField,
                          laplacian_grid, stencil_reduce)
from nonembed.mollify import TailFunction
from nonembed.trees import Segment, SteinerTree, line_integral, tree_integral


CURVATURE_TOL_FACTOR = 1e-8  # largest K > 0 allowed, relative to max |K|
LENGTH_TOL = 1e-12           # quadrature tolerance of metric lengths
HYPERBOLIC_RADIUS = 0.95     # the hyperbolic reference factor is on r < this


class ConformalError(ValueError):
    pass


@dataclass
class ConformalMetric:
    """Metric e^{2 phi} dx^2 described by its factor phi.

    factor(x, y) must accept numpy arrays.  A grid representation, when
    present, is what curvature stencils act on.
    """

    factor: Callable
    grid_factor: Optional[ScalarField] = None

    @staticmethod
    def flat() -> "ConformalMetric":
        return ConformalMetric(factor=lambda x, y: np.zeros(np.shape(x)))

    @staticmethod
    def from_grid(f: ScalarField) -> "ConformalMetric":
        return ConformalMetric(factor=lambda x, y: f.interp(x, y),
                               grid_factor=f)

    @staticmethod
    def tail_metric(tail: TailFunction, delta: float) -> "ConformalMetric":
        return ConformalMetric(
            factor=lambda x, y: delta * np.asarray(tail.value(x, y)))


@dataclass
class CurvatureField:
    values: np.ndarray          # on inner nodes of the factor grid
    grid: MaskedGrid

    def interior_mask(self) -> np.ndarray:
        """Interior inner nodes whose neighbours are live (interior, on
        grids with a subgrid boundary)."""
        m = self.grid.mask
        if self.grid.subgrid_boundary:
            return stencil_reduce(m == INTERIOR, np.logical_and)
        return (m[1:-1, 1:-1] == INTERIOR) & stencil_reduce(m != EXTERIOR,
                                                            np.logical_and)


def gaussian_curvature(g: ConformalMetric) -> CurvatureField:
    """K = -e^{-2 phi} * (5-point Laplacian of phi) at interior nodes."""
    if g.grid_factor is None:
        raise ConformalError("curvature needs a grid-resolved factor")
    f = g.grid_factor
    lap = laplacian_grid(f)
    with np.errstate(over="ignore", under="ignore"):
        K = np.multiply(f.values[1:-1, 1:-1], -2.0)  # -2 phi, then K in place
        np.exp(K, out=K)
        np.negative(K, out=K)
        K *= lap
    return CurvatureField(values=K, grid=f.grid)


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def curve_length(g: ConformalMetric,
                 curve: Union[Segment, SteinerTree]) -> float:
    """Length of a segment or three-leg tree under the metric: the
    integral of e^{phi} along the curve."""
    def log_density(xs, ys):
        phi = np.asarray(g.factor(xs, ys), dtype=float)
        return np.ones(phi.shape, dtype=int), phi

    if isinstance(curve, SteinerTree):
        return tree_integral(log_density, curve, tol=LENGTH_TOL).float_value
    return line_integral(log_density, curve, tol=LENGTH_TOL).float_value


# ---------------------------------------------------------------------------
# the tail-metric family
# ---------------------------------------------------------------------------

def length_derivative_check(tail: TailFunction, tree: SteinerTree,
                            step: float = 1e-4) -> Tuple[float, float]:
    """Centered difference quotient (L(step) - L(-step)) / (2 step) of
    delta -> L(tree, e^{2 delta v} dx^2) at delta = 0 (left), against the
    tree integral of v (right).

    The quotient is evaluated as the single integral of sinh(step v) / step
    over the tree, which equals it exactly.  Subtracting the two lengths
    instead would cancel two O(1) values, each accurate only to
    LENGTH_TOL * L, and floor the relative error near 1e-4 on the tail.

    Both values are returned; agreement holds only while step * max|v|
    stays in the linear regime of the exponential, the relative gap being
    about step^2 (int v^3) / (6 int v).  On the tail field max|v| over the
    tree is ~1.1e5 and the third moment is ~1.6e13 times the first, so at
    the default step (step * max|v| ~ 11) the two values disagree; the
    caller must judge the regime from the recorded values.
    """
    log_step = math.log(step)

    def log_sinh_quotient(xs, ys):
        v = np.asarray(tail.value(xs, ys), dtype=float)
        x = step * np.abs(v)
        with np.errstate(over="ignore", divide="ignore"):
            log_sinh = np.where(
                x > 20.0, x - math.log(2.0) + np.log1p(-np.exp(-2.0 * x)),
                np.log(np.sinh(x)))
        return np.sign(v).astype(int), log_sinh - log_step

    lhs = tree_integral(log_sinh_quotient, tree, tol=LENGTH_TOL).float_value
    rhs = tree_integral(tail.log_value, tree, tol=1e-10).float_value
    return lhs, rhs


@dataclass
class Delta0Scan:
    delta0: float
    history: list  # (delta, L_metric, L_flat, shortens)

    @property
    def succeeded(self) -> bool:
        return self.delta0 > 0.0


def find_delta0(tail: TailFunction, tree: SteinerTree,
                delta_max: float = 0.05, n_scan: int = 16) -> Delta0Scan:
    """Scan delta = delta_max * 2^{-k} upward; the threshold is the
    largest scanned amplitude below the first failure of strict length
    shortening.  If the smallest scanned amplitude already fails, the
    threshold is reported as 0 (failure)."""
    L0 = curve_length(ConformalMetric.flat(), tree)
    history = []
    best = 0.0
    for k in range(n_scan, -1, -1):
        d = delta_max * 2.0 ** (-k)
        Ld = curve_length(ConformalMetric.tail_metric(tail, d), tree)
        shortens = Ld < L0
        history.append((d, Ld, L0, bool(shortens)))
        if shortens:
            best = d
        else:
            break
    return Delta0Scan(delta0=best, history=history)


def tail_curvature_report(tail: TailFunction, delta: float) -> dict:
    """Sign verification of K = -e^{-2 delta v} * delta * (Laplacian of v)
    on the grid-visible set of the unit disc, to CURVATURE_TOL_FACTOR
    times the largest |K| there.

    The reweighting e^{-2 delta v} is positive, so K <= 0 is equivalent to
    discrete subharmonicity of v.  The report gives the largest positive
    curvature over the grid-visible set in log scale, which keeps the
    reweighting factor out of double-overflow territory.  The curvature
    sign over the whole disc needs the composed certificate of
    :func:`~nonembed.mollify.tail_subharmonic_report` as well, for the
    jumps that the grid cannot see.
    """
    lap = laplacian_grid(tail.field)
    vis = tail.sign_checked
    phi_c = delta * tail.field.values[1:-1, 1:-1]
    # log |K| = -2 phi + log(delta |lap|); sign(K) = -sign(lap)
    with np.errstate(divide="ignore"):
        logK = -2.0 * phi_c + np.log(np.abs(delta * lap))
    pos = vis & (lap < 0.0)
    max_pos_logK = float(np.max(logK[pos])) if np.any(pos) else -math.inf
    scale_logK = float(np.max(logK[vis & (lap != 0.0)]))
    ok = max_pos_logK <= scale_logK + math.log(CURVATURE_TOL_FACTOR) \
        if max_pos_logK > -math.inf else True
    return dict(max_positive_logK=max_pos_logK, scale_logK=scale_logK,
                curvature_sign_pass=bool(ok))


# ---------------------------------------------------------------------------
# reference factors
# ---------------------------------------------------------------------------

def hyperbolic_disc_factor(h: float = 1.0 / 256) -> ConformalMetric:
    """phi = ln(2 / (1 - r^2)) sampled at lattice spacing h on
    r < HYPERBOLIC_RADIUS; the curvature of this factor is exactly -1."""
    m = int(math.ceil(HYPERBOLIC_RADIUS / h))
    n = 2 * m
    G = MaskedGrid(origin=(-m * h, -m * h), h=h,
                   mask=np.full((n + 1, n + 1), INTERIOR, dtype=np.int8),
                   subgrid_boundary=True)
    X, Y = G.nodes_xy()
    R2 = X * X + Y * Y
    inside = R2 < HYPERBOLIC_RADIUS * HYPERBOLIC_RADIUS
    G.mask[~inside] = EXTERIOR
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(inside, np.log(2.0 / (1.0 - np.minimum(R2, 1 - 1e-12))), 0.0)
    f = ScalarField(grid=G, values=vals)
    return ConformalMetric.from_grid(f)


def curvature_error_vs_constant(K: CurvatureField, target: float) -> float:
    """Max |K - target| over interior nodes."""
    inner = K.interior_mask()
    if not np.any(inner):
        raise ConformalError("no interior nodes")
    return float(np.max(np.abs(K.values[inner] - target)))
