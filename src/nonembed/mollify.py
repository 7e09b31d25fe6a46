"""Radially symmetric mollification and the rescaled tail field.

The tail field is the glued disc/pentagon solution, mollified at radius
delta and pulled back by x -> 10(x - C0) with C0 = (-0.8, 0) (`pull_back`).
Mollification is evaluated pointwise: away from the glue interfaces a
radial unit-mass kernel leaves a harmonic function unchanged (mean value
property), so only points within delta of an interface need the local
kernel quadrature.  Its weights are divided by their sum, which gives the
discrete kernel its unit mass, so no normalizing constant is formed.
This is what makes delta << grid spacing feasible; a grid-resolved
convolution would need ~1e9 nodes at the mandated pentagon resolution.

The claims read the tail in two ways, both through the one glued field
of the pentagon selection (`SelectedN.glue`).  The radius scan
(`select_tail_delta`) integrates v over the tail tree pointwise and samples
no grid.  The sign certificates read one grid covering the 1.1-disc
(`build_tail_v`), which also carries the node masks they share, all
derived from one evaluation of the glue regions.  The grid is sampled
a block of node rows at a time (`bvp.row_blocks`), so no coordinate
array of the whole grid is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from nonembed.bvp import (GluedField, ScalarField, SelectedN, box_grid,
                          laplacian_grid, row_blocks, stencil_reduce)
from nonembed.fields import laplacian_residual, u_float
from nonembed.quadrature import float_to_log
from nonembed.trees import (SteinerTree, build_steiner_tree,
                            certified_negative, tree_integral)

RESCALE = 10.0
RECENTER = (-0.8, 0.0)
# polar kernel quadrature: Gauss-Legendre nodes in s, trapezoid in angle
KERNEL_RADIAL = 24
KERNEL_ANGULAR = 48
# points per block of the kernel quadrature: 8 points are 9,216 kernel
# nodes, whose glue evaluation takes about 1 MiB
KERNEL_POINTS = 8
# the subharmonicity certificate: grid tolerance relative to the largest
# |grid Laplacian|, slit-field spots, seed
SUBHARMONIC_TOL_FACTOR = 1e-8
N_SPOTS = 40
SPOT_SEED = 7

def pull_back(x, y):
    """The tail's change of variables x -> RESCALE (x - RECENTER)."""
    return (RESCALE * (np.asarray(x, dtype=float) - RECENTER[0]),
            RESCALE * (np.asarray(y, dtype=float) - RECENTER[1]))


class MollifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# pointwise mollification of the glued field
# ---------------------------------------------------------------------------

class MollifiedGlue:
    """w * rho_delta evaluated pointwise.

    Fast path (distance to every glue interface > delta): the regionwise
    value itself -- exact for the harmonic slit-field region by the mean
    value property, and at interpolation accuracy in the pentagon.  Near
    interfaces: polar Gauss/trapezoid kernel quadrature of the bump
    exp(-1/(1 - (s/delta)^2)), whose weights are divided by their sum:
    that division gives the discrete kernel its unit mass.
    """

    def __init__(self, glue: GluedField, delta: float):
        self.glue = glue
        self.delta = delta
        gl_nodes, gl_w = np.polynomial.legendre.leggauss(KERNEL_RADIAL)
        s = 0.5 * delta * (gl_nodes + 1.0)
        ws = 0.5 * delta * gl_w
        beta = 2.0 * math.pi * np.arange(KERNEL_ANGULAR) / KERNEL_ANGULAR
        S, B = np.meshgrid(s, beta, indexing="ij")
        self._dx = (S * np.cos(B)).ravel()
        self._dy = (S * np.sin(B)).ravel()
        wgt = (np.exp(-1.0 / (1.0 - (S / delta) ** 2))
               * S * ws[:, None]).ravel()
        self._wgt = wgt / wgt.sum()

    def kernel_average(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel quadrature at the points (x, y), 1-d arrays, KERNEL_POINTS
        points at a time (`row_blocks`): one glue evaluation on a block's
        kernel nodes, then per row the BLAS dot of np.dot."""
        out = np.empty(len(x))
        for rows in row_blocks(len(x), KERNEL_POINTS):
            vals = self.glue.value(x[rows, None] + self._dx,
                                   y[rows, None] + self._dy)
            out[rows] = np.matmul(vals[:, None, :], self._wgt[:, None])[:, 0, 0]
        return out

    def value(self, x, y) -> np.ndarray:
        X = np.asarray(x, dtype=float).ravel()
        Y = np.asarray(y, dtype=float).ravel()
        out = np.empty(X.shape)
        fast = self.glue.interface_distance(X, Y) > 1.02 * self.delta
        out[fast] = self.glue.value(X[fast], Y[fast])
        if not np.all(fast):
            out[~fast] = self.kernel_average(X[~fast], Y[~fast])
        return out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# the tail field on the 1.1-disc
# ---------------------------------------------------------------------------

@dataclass
class TailFunction:
    """Sampled tail field v(x) = (w * rho_delta)(pull_back(x)), its exact
    pointwise evaluator, and the node masks of its grid that the sign
    certificates read."""

    field: ScalarField
    mollified: MollifiedGlue
    region: np.ndarray                  # int8 glue region of each node
    u_core_excluded: np.ndarray         # oscillation-unresolved nodes
    pentagon_band_excluded: np.ndarray  # stencil touches the pentagon
    stencil_in_disc: np.ndarray         # stencil lies in the unit disc
    sign_checked: np.ndarray            # inner nodes: the grid sign-check set

    def value(self, x, y):
        return self.mollified.value(*pull_back(x, y))

    @cached_property
    def laplacian(self) -> np.ndarray:
        """5-point Laplacian of the sampled field at its inner nodes,
        which both sign certificates read."""
        return laplacian_grid(self.field)

    def log_value(self, xs, ys):
        """v in log scale, (signs, logmags), for the line quadrature."""
        return float_to_log(self.value(xs, ys))


def tail_tree(K: int) -> SteinerTree:
    """Tree with vertex (-(1/10) e^{-K} - 0.8, 0), axis leg to (-1, 0)."""
    return build_steiner_tree(0.8 + math.exp(-float(K)) / RESCALE)


def _oscillation_unresolved(X, Y, h_upstream: float) -> np.ndarray:
    """Nodes whose upstream image cannot represent the slit-field
    oscillation: local wavelength pi*r/sqrt(log^2 r + (2 pi)^2) < 4h."""
    r = np.hypot(X, Y)
    r = np.maximum(r, 1e-300)
    lam = math.pi * r / np.sqrt(np.log(r) ** 2 + 4.0 * math.pi**2)
    return lam < 4.0 * h_upstream


def build_tail_v(selected: SelectedN, delta: float,
                 grid_n: int) -> TailFunction:
    """Sample the rescaled mollified glue on a grid covering the 1.1-disc,
    with the node masks of the sign certificates, a block of node rows at
    a time (`row_blocks`): no coordinate array of the whole grid is made.

    delta must respect the geometric bound e^{-2K} so the kernel never
    spans the reflex vertex sector.
    """
    K = selected.geom.K
    if not (0.0 < delta < math.exp(-2.0 * K)):
        raise MollifyError(
            f"delta must lie in (0, e^(-2K)) = (0, {math.exp(-2.0 * K):.3e})")
    glue = selected.glue
    moll = MollifiedGlue(glue, delta)

    grid = box_grid((0.0, 0.0), 1.1, grid_n)
    xs, ys = grid.axes()
    values = np.empty(grid.shape)
    reg = np.empty(grid.shape, dtype=np.int8)
    core = np.empty(grid.shape, dtype=bool)
    disc = np.empty(grid.shape, dtype=bool)
    for rows in row_blocks(len(xs)):
        YX, YY = np.broadcast_arrays(*pull_back(xs[rows, None], ys))
        values[rows] = moll.value(YX, YY)
        reg[rows] = glue.region_of(YX, YY)
        core[rows] = _oscillation_unresolved(YX, YY, RESCALE * grid.h)
        disc[rows] = (xs[rows] * xs[rows])[:, None] + ys * ys < 1.0
    fld = ScalarField(grid=grid, values=values)

    # nodes whose stencil touches the pentagon region: the grid Laplacian
    # there reads interpolation error, not the field; those interfaces are
    # certified by the edge-margin and solver-residual checks instead
    pent = reg == 2
    band = pent.copy()
    band[1:-1, 1:-1] = stencil_reduce(pent, np.logical_or)
    in_disc = np.zeros_like(pent)
    in_disc[1:-1, 1:-1] = stencil_reduce(disc, np.logical_and)
    # the grid sign check: the stencil lies in the disc, touches the glue
    # exterior and misses both excluded bands
    checked = ((in_disc & ~band & ~core)[1:-1, 1:-1]
               & stencil_reduce(reg == 0, np.logical_or))
    return TailFunction(field=fld, mollified=moll, region=reg,
                        u_core_excluded=core, pentagon_band_excluded=band,
                        stencil_in_disc=in_disc, sign_checked=checked)


# ---------------------------------------------------------------------------
# subharmonicity
# ---------------------------------------------------------------------------

def tail_resolves(tail: TailFunction) -> bool:
    """Whether some grid-visible node of the tail has a nonzero grid
    Laplacian, without which the grid sign checks have nothing to check."""
    return bool(np.any(tail.sign_checked & (tail.laplacian != 0.0)))


def tail_subharmonic_report(tail: TailFunction, selected: SelectedN) -> dict:
    """Discrete subharmonicity of the tail field over the unit disc.

    The distributional Laplacian of the glued field is a sum of (i) zero
    in the slit-field region and the pentagon interior (harmonic pieces),
    (ii) positive jump measures on the circle glue, and (iii) jump
    measures on the pentagon edges whose sign is the normal-derivative
    margin.  Each piece gets the estimator that can actually see it:

    * grid sign check where jumps are grid-visible and both sides are
      exact (circle glue and exterior zeros), against the tolerance
      -SUBHARMONIC_TOL_FACTOR * (max |grid Laplacian| over the whole disc);
    * slit-field region: spot certificates that the sampled field equals
      the mollified field (kernel quadrature at each spot) and that it is
      harmonic (5-point residual ratio ~4 under step halving);
    * pentagon interior: solver residual certificate;
    * pentagon edges: the inward-margin minima that the selection of the
      tail's pentagon solution sampled (`SelectedN.margins`).

    Raw worst node over everything is reported, not asserted.
    """
    if not tail_resolves(tail):
        raise MollifyError("no grid-visible tail node has a nonzero Laplacian")
    xs, ys = tail.field.grid.axes()
    glue = tail.mollified.glue
    lap = tail.laplacian
    stencil_ok, grid_set = tail.stencil_in_disc, tail.sign_checked
    sten = stencil_ok[1:-1, 1:-1]
    scale = float(np.max(np.abs(lap[sten])))
    grid_min = float(np.min(lap[grid_set]))
    raw_min = float(np.min(lap[sten]))
    wi = np.unravel_index(np.argmin(np.where(sten, lap, np.inf)), lap.shape)

    # slit-field region spot certificates
    moon_ok = (stencil_ok & (tail.region == 1) & ~tail.pentagon_band_excluded
               & ~tail.u_core_excluded)
    rng = np.random.default_rng(SPOT_SEED)
    ii, jj = np.where(moon_ok)
    pick = rng.choice(len(ii), size=min(N_SPOTS, len(ii)), replace=False)
    sx, sy = pull_back(xs[ii[pick]], ys[jj[pick]])
    exact = glue.value(sx, sy)
    quadv = tail.mollified.kernel_average(sx, sy)
    eq_err = float(np.max(np.abs(quadv - exact)
                          / np.maximum(np.abs(exact), 1e-300), initial=0.0))
    # math.hypot, not np.hypot: the steps keep the bits of the report
    hloc = 1e-3 * np.fromiter(map(math.hypot, sx, sy), float)
    far = glue.interface_distance(sx, sy) > 4 * hloc
    sx, sy, hloc = sx[far], sy[far], hloc[far]
    r1 = laplacian_residual(u_float, sx, sy, hloc)
    r2 = laplacian_residual(u_float, sx, sy, hloc / 2.0)
    q = np.abs(r1 / r2)[np.abs(r2) > 1e-30]
    ratio_lo, ratio_hi = np.min(q, initial=np.inf), np.max(q, initial=0.0)
    moon_certified = eq_err < 1e-8 and 3.0 <= ratio_lo and ratio_hi <= 5.0

    pent_resid = selected.residual
    worst_margin = min(float(np.min(m)) for m in selected.margins.values())

    grid_pass = grid_min >= -SUBHARMONIC_TOL_FACTOR * scale
    return dict(
        min_defect=grid_min,
        raw_min_defect=raw_min,
        scale=scale,
        tolerance=-SUBHARMONIC_TOL_FACTOR * scale,
        worst_node_xy=(float(xs[wi[0] + 1]), float(ys[wi[1] + 1])),
        n_grid_checked=int(grid_set.sum()),
        n_excluded_oscillation=int((stencil_ok & tail.u_core_excluded).sum()),
        n_excluded_pentagon=int((stencil_ok & tail.pentagon_band_excluded
                                 & ~tail.u_core_excluded).sum()),
        moon_equality_error=eq_err,
        moon_ratio_range=(float(ratio_lo), float(ratio_hi)),
        moon_certified=bool(moon_certified),
        pentagon_residual=pent_resid,
        pentagon_certified=pent_resid < 1e-10,
        min_edge_margin=worst_margin,
        edges_certified=worst_margin > 0.0,
        grid_pass=grid_pass,
        passes=bool(grid_pass and moon_certified and pent_resid < 1e-10
                    and worst_margin > 0.0),
    )


# ---------------------------------------------------------------------------
# delta selection
# ---------------------------------------------------------------------------

@dataclass
class DeltaSelection:
    delta: Optional[float]
    history: list  # (delta, tree integral, est_error)

    @property
    def succeeded(self) -> bool:
        return self.delta is not None


def select_tail_delta(selected: SelectedN, schedule: Sequence[float],
                      tol: float) -> DeltaSelection:
    """First delta in a decreasing schedule for which the tree integral of
    the tail field is strictly negative (beyond the quadrature error).

    Each delta mollifies the selection's one glued field and the tree
    quadrature evaluates v = (w * rho_delta) o pull_back at its own nodes,
    so no grid is sampled.  The values equal those of the sampled tail's
    `TailFunction.log_value` at every point.

    The schedule must stay inside (0, e^{-2K}).  If no delta qualifies the
    selection reports failure with the full scan history.
    """
    K = selected.geom.K
    bound = math.exp(-2.0 * K)
    if any(not (0.0 < d < bound) for d in schedule):
        raise MollifyError(f"delta schedule must lie in (0, {bound:.3e})")
    tree = tail_tree(K)
    history = []
    chosen = None
    for d in schedule:
        moll = MollifiedGlue(selected.glue, d)
        res = tree_integral(
            lambda xs, ys: float_to_log(moll.value(*pull_back(xs, ys))),
            tree, tol=tol)
        history.append((d, res.value, res.est_error))
        if certified_negative(res.value, res.est_error):
            chosen = d
            break
    return DeltaSelection(delta=chosen, history=history)
