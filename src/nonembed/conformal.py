"""Conformal metrics e^{2 phi} dx^2: curvature, lengths, and the
tail-metric family checks (curvature sign, length change in the bump
amplitude, amplitude threshold scan).

Gaussian curvature of a conformal factor phi is -e^{-2 phi} (Laplacian of
phi); lengths are line integrals of e^{phi}.  The quadrature takes the
integrand's log, phi itself, and sums under one exponent per integral, so
factors far beyond double range integrate safely; a length past double
range is +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from nonembed.bvp import (EXTERIOR, INTERIOR, MaskedGrid, ScalarField,
                          laplacian_grid, stencil_reduce)
from nonembed.mollify import MollifyError, TailFunction, tail_resolves
from nonembed.trees import Segment, SteinerTree, line_integral, tree_integral


CURVATURE_TOL_FACTOR = 1e-8  # largest K > 0 allowed, relative to max |K|
LENGTH_TOL = 1e-12           # quadrature tolerance of metric lengths


def gaussian_curvature(f: ScalarField) -> ScalarField:
    """K = -e^{-2 phi} * (5-point Laplacian of phi) for the factor phi = f,
    on the inner nodes of its grid (the grid less its outer ring).  They
    are INTERIOR where the stencil reads live nodes only (interior nodes
    alone, on grids with a subgrid boundary) and EXTERIOR elsewhere."""
    g = f.grid
    lap = laplacian_grid(f)
    with np.errstate(over="ignore", under="ignore"):
        K = np.multiply(f.values[1:-1, 1:-1], -2.0)  # -2 phi, then K in place
        np.exp(K, out=K)
        np.negative(K, out=K)
        K *= lap
    del lap  # before the field's finiteness check allocates its masks
    m = g.mask
    if g.subgrid_boundary:
        valid = stencil_reduce(m == INTERIOR, np.logical_and)
    else:
        valid = (m[1:-1, 1:-1] == INTERIOR) & stencil_reduce(m != EXTERIOR,
                                                             np.logical_and)
    mask = np.full(valid.shape, EXTERIOR, dtype=np.int8)
    mask[valid] = INTERIOR
    inner = MaskedGrid(origin=(g.origin[0] + g.h, g.origin[1] + g.h), h=g.h,
                       mask=mask, subgrid_boundary=True)
    return ScalarField(grid=inner, values=K)


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def curve_length(phi: Callable, curve: Union[Segment, SteinerTree]) -> float:
    """Length of a segment or three-leg tree under e^{2 phi} dx^2, for a
    factor phi(x, y) on arrays: the integral of e^{phi} along the curve."""
    def log_density(xs, ys):
        p = np.asarray(phi(xs, ys), dtype=float)
        return np.ones(p.shape, dtype=int), p

    if isinstance(curve, SteinerTree):
        return tree_integral(log_density, curve, tol=LENGTH_TOL).value
    return line_integral(log_density, curve, tol=LENGTH_TOL).value


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

    lhs = tree_integral(log_sinh_quotient, tree, tol=LENGTH_TOL).value
    rhs = tree_integral(tail.log_value, tree, tol=1e-10).value
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
    L0 = curve_length(lambda x, y: np.zeros(np.shape(x)), tree)
    history = []
    best = 0.0
    for k in range(n_scan, -1, -1):
        d = delta_max * 2.0 ** (-k)
        Ld = curve_length(lambda x, y: d * np.asarray(tail.value(x, y)), tree)
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
    if not tail_resolves(tail):
        raise MollifyError("no grid-visible tail node has a nonzero Laplacian")
    lap = tail.laplacian
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

