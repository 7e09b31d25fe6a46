"""Composite metric constructions.

Four assemblies build on the tail field and the Poisson machinery:

* a 360-fold rotation sum of the tail field, whose support is 360
  disjoint small discs on the circle of radius 0.36;
* a bump-sequence metric: scaled copies of the rotation sum planted in
  disjoint balls accumulating at the origin, with amplitudes driven to
  zero fast enough for a measured-derivative smoothness proxy;
* the negative-curvature-pockets metric: a Poisson solve against a sum
  of negative bumps on balls B_{4^{-n}}((2^{-n}, 0));
* an annulus stack: radial wall cutoffs e^{-1/(r - 1/n)} with measured
  C^4 weights, plus per-annulus plantings of the bump construction,
  giving a factor that vanishes identically near the origin and has
  strictly negative curvature on every sampled annulus.

Every evaluator takes and returns numpy arrays.  A point lies in at most
one ball of a bump schedule or annulus planting, and in at most one of a
rotation sum's 360 images, so each factor is one loop over the balls and
one tail evaluation on the points inside a support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nonembed.bvp import ScalarField, box_grid, solve_poisson
from nonembed.conformal import curvature_blocks, curvature_support
from nonembed.mollify import TailFunction

DEG = math.pi / 180.0


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rotation sum
# ---------------------------------------------------------------------------

# Rotation-sum geometry.  Image i is v(R(i deg)(SCALE * x) - OFFSET): a disc
# of radius BASE_RADIUS / SCALE on the circle of radius |OFFSET| / SCALE,
# so the whole sum lies within PLANTING_REACH (0.3611) of the origin.
ROTATIONS = 360
SCALE = 1000.0
OFFSET = (360.0, 0.0)
BASE_RADIUS = 1.1  # support radius of the tail field v
PLANTING_REACH = math.hypot(*OFFSET) / SCALE + BASE_RADIUS / SCALE
# R(i deg) for i = 0..360, each entry the double math.cos/math.sin give
_COS = np.array([math.cos(i * DEG) for i in range(ROTATIONS + 1)])
_SIN = np.array([math.sin(i * DEG) for i in range(ROTATIONS + 1)])


@dataclass
class RotationSum:
    """Sum over i = 1..360 of v(R(i deg)(SCALE * x) - OFFSET).

    Consecutive images are 1 degree apart and each spans 0.35 degrees, so
    the supports are pairwise disjoint and at most one summand is active
    at any point.
    """

    base: TailFunction

    def value(self, x, y) -> np.ndarray:
        """Pointwise rotation sum on arrays.

        The image that can hold p is the one whose rotation takes p to the
        positive axis, index -atan2(p)/deg; the three nearest indices are
        tried, and the tail is evaluated once, on the points that land in a
        support, and not at all when none does.
        """
        px, py = np.broadcast_arrays(SCALE * np.asarray(x, dtype=float),
                                     SCALE * np.asarray(y, dtype=float))
        nearest = np.rint(-np.arctan2(py, px) / DEG).astype(np.int64)
        idx, qxs, qys = [], [], []
        for k in (-1, 0, 1):
            i = (nearest + k - 1) % ROTATIONS + 1
            c, s = _COS[i], _SIN[i]
            qx = c * px - s * py - OFFSET[0]
            qy = s * px + c * py - OFFSET[1]
            hit = qx * qx + qy * qy < BASE_RADIUS ** 2
            idx.append(np.flatnonzero(hit))
            qxs.append(qx[hit])
            qys.append(qy[hit])
        out = np.zeros(px.shape)
        idx = np.concatenate(idx)
        if len(idx):  # the tail is read only when a point is in a support
            np.add.at(out.reshape(-1), idx, self.base.value(
                np.concatenate(qxs), np.concatenate(qys)))
        return out


def _first_ball_value(w: RotationSum, x, y, balls) -> np.ndarray:
    """amp * w((p - c) / sigma) at each point p of the first ball
    (c, sigma, r2, amp) with |p - c|^2 < r2 that holds it, zero outside
    every ball."""
    X, Y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    out = np.zeros(X.shape)
    free = np.ones(X.shape, dtype=bool)
    for (cx, cy), sigma, r2, amp in balls:
        dx, dy = X - cx, Y - cy
        hit = free & (dx * dx + dy * dy < r2)
        out[hit] = amp * w.value(dx[hit] / sigma, dy[hit] / sigma)
        free &= ~hit
    return out


# ---------------------------------------------------------------------------
# bump schedule and the bump metric factor
# ---------------------------------------------------------------------------

def measured_derivative_maxima(values: np.ndarray, h: float,
                               max_order: int) -> list:
    """max |mixed partial| of each total order 0..max_order, by repeated
    one-sided differencing along every axis of values sampled at spacing h
    (a proxy norm: the grid is the resolution at which the artifact knows
    the field).  Partials are keyed by their count per axis; one reached
    along several paths keeps its last."""
    out = []
    frontier = {(0,) * values.ndim: values}
    out.append(float(np.max(np.abs(values))))
    for order in range(1, max_order + 1):
        new = {}
        for key, arr in frontier.items():
            for ax in range(values.ndim):
                up = key[:ax] + (key[ax] + 1,) + key[ax + 1:]
                new[up] = np.diff(arr, axis=ax) / h
        frontier = new
        out.append(max(float(np.max(np.abs(a))) for a in frontier.values()))
    return out


@dataclass
class BumpSchedule:
    centers: list
    radii: list
    amplitudes: list
    derivative_bounds: list  # D_n for the scaled bump at each n

    def __len__(self):
        return len(self.centers)


def build_bump_schedule(n_max: int, w: RotationSum) -> BumpSchedule:
    """Centers (2^{-n}, 2^{-n-2}), radii 2^{-n-3}, and amplitudes
    delta_n = 2^{-n} / (1 + D_n), where D_n bounds the measured derivative
    maxima of the scaled bump up to order n (forcing the smoothness
    proxy's geometric decay)."""
    if n_max < 1:
        raise AssemblyError("n_max must be >= 1")
    V = measured_derivative_maxima(w.base.field.values, w.base.field.grid.h,
                                   n_max)
    centers, radii, amps, bounds = [], [], [], []
    for n in range(1, n_max + 1):
        rho = 2.0 ** (-n - 3)
        chain = SCALE / rho  # d/dx of the composed argument
        D = max(chain ** k * V[k] for k in range(0, n + 1))
        centers.append((2.0 ** (-n), 2.0 ** (-n - 2)))
        radii.append(rho)
        amps.append(2.0 ** (-n) / (1.0 + D))
        bounds.append(D)
    sched = BumpSchedule(centers, radii, amps, bounds)
    _check_disjoint(sched)
    return sched


def _check_disjoint(s: BumpSchedule) -> None:
    for n in range(len(s)):
        for k in range(n + 1, len(s)):
            dist = math.hypot(s.centers[n][0] - s.centers[k][0],
                              s.centers[n][1] - s.centers[k][1])
            if dist <= s.radii[n] + s.radii[k]:
                raise AssemblyError(f"bump balls {n + 1} and {k + 1} intersect")


def eval_gII_factor(schedule: BumpSchedule, w: RotationSum,
                    x, y) -> np.ndarray:
    """Conformal factor exponent of the bump metric on arrays:
    delta_n * w((x - z_n)/rho_n) inside ball n, zero elsewhere."""
    return _first_ball_value(w, x, y, [
        (c, rho, rho * rho, amp) for c, rho, amp in
        zip(schedule.centers, schedule.radii, schedule.amplitudes)])


# ---------------------------------------------------------------------------
# negative-curvature pockets (Poisson construction)
# ---------------------------------------------------------------------------

def pocket_centers_radii(n_max: int) -> list:
    return [((2.0 ** (-n), 0.0), 4.0 ** (-n)) for n in range(1, n_max + 1)]


def _node_box(xs: np.ndarray, ys: np.ndarray, c, reach: float):
    """Slices of the nodes xs x ys within reach of c along each axis, as
    |x - c_x| <= reach and |y - c_y| <= reach decide in floating point."""
    out = []
    for t, tc in ((xs, c[0]), (ys, c[1])):
        i = np.flatnonzero(np.abs(t - tc) <= reach)
        out.append(slice(i[0], i[-1] + 1) if len(i) else slice(0, 0))
    return tuple(out)


def curvature_pockets_rhs(xs: np.ndarray, ys: np.ndarray, n_max: int) -> np.ndarray:
    """The smooth source on the nodes xs x ys: -1 * sum of unit bumps on
    B_{4^{-n}}((2^{-n},0)); negative inside every pocket, identically zero
    elsewhere.  Each bump is evaluated on its box of nodes: outside it,
    |x - c_x| > r or |y - c_y| > r, so the bump's d2 is at least 1."""
    out = np.zeros((len(xs), len(ys)))
    for (cx, cy), r in pocket_centers_radii(n_max):
        bx, by = _node_box(xs, ys, (cx, cy), r)
        d2 = ((xs[bx, None] - cx) ** 2 + (ys[None, by] - cy) ** 2) / (r * r)
        inside = d2 < 1.0
        vals = np.zeros(d2.shape)
        vals[inside] = np.exp(-1.0 / (1.0 - d2[inside]))
        out[bx, by] -= vals
    return out


def _max_abs(a: np.ndarray, where=True) -> float:
    """max |a| over the entries where `where` holds, 0 if none, taken as
    max(max a, -min a) so that no |a| array is made."""
    return max(float(np.max(a, where=where, initial=0.0)),
               -float(np.min(a, where=where, initial=0.0)))


# Pocket samples are interior nodes where the source magnitude exceeds this
# fraction of its maximum, and flat means max |K| outside the pockets is
# at most this fraction of max |K|
POCKET_TOL_FACTOR = 1e-8


@dataclass
class PocketMetric:
    """The pocket metric e^{2 u1} dx^2 of `build_g1`: the factor u1 on its
    box grid and the source it solves for.  The report takes the
    curvature a block of rows at a time."""
    factor: ScalarField  # u1 of the metric e^{2 u1} dx^2
    source: np.ndarray
    n_max: int

    def curvature_report(self) -> dict:
        """Curvature signs: negative at every sampled pocket node, flat
        (to tolerance) two cells away from every pocket.

        Pocket samples are interior nodes where the source magnitude
        exceeds POCKET_TOL_FACTOR times its maximum: the bump vanishes to
        all orders at the pocket rim, so rim nodes carry sub-roundoff
        source values whose curvature sign is not certifiable in doubles.
        Each pocket is examined on its box of nodes within r + 3h, which
        holds every node within r + 2h of its center.  K comes a block of
        rows at a time from `curvature_blocks`, and each maximum is taken
        block by block, so no K grid is made.
        """
        src = self.source[1:-1, 1:-1]
        floor = POCKET_TOL_FACTOR * _max_abs(src)
        xs, ys = (t[1:-1] for t in self.factor.grid.axes())
        inner = curvature_support(self.factor.grid)
        h = self.factor.grid.h
        pockets = []  # (box, sampled, far: d > r + 2h) of each pocket
        per_pocket = []
        for (cx, cy), r in pocket_centers_radii(self.n_max):
            box = _node_box(xs, ys, (cx, cy), r + 3.0 * h)
            d = np.hypot(xs[box[0], None] - cx, ys[None, box[1]] - cy)
            ins = inner[box] & (d < r - 1e-12)
            sampled = ins & (np.abs(src[box]) > floor)
            pockets.append((box, sampled, d > r + 2.0 * h))
            per_pocket.append(dict(n_nodes=int(ins.sum()),
                                   n_sampled=int(sampled.sum()), max_K=[]))
        scales, outsides = [], []  # the blocks' maxima
        for rows, K in curvature_blocks(self.factor):
            scales.append(_max_abs(K, where=inner[rows]))
            out = inner[rows].copy()
            for (box, sampled, far), p in zip(pockets, per_pocket):
                lo = max(rows.start, box[0].start)
                hi = min(rows.stop, box[0].stop)
                if lo >= hi:
                    continue
                here = slice(lo - rows.start, hi - rows.start), box[1]
                there = slice(lo - box[0].start, hi - box[0].start)
                if np.any(sampled[there]):
                    p["max_K"].append(np.max(K[here][sampled[there]]))
                out[here] &= far[there]
            outsides.append(_max_abs(K, where=out))
        for p in per_pocket:
            p["max_K"] = float(np.max(p["max_K"])) if p["max_K"] else None
        scale, max_outside = float(np.max(scales)), float(np.max(outsides))
        return dict(
            pockets=per_pocket,
            all_pockets_negative=all(p["n_sampled"] > 0 and p["max_K"] < 0.0
                                     for p in per_pocket),
            max_abs_K_outside=max_outside,
            scale=scale,
            flat_outside=max_outside <= POCKET_TOL_FACTOR * scale,
        )


def _g1_half_width(n_max: int) -> float:
    """Half the side of the g1 box: four times the source support radius."""
    return 4.0 * max(abs(c[0]) + r for c, r in pocket_centers_radii(n_max))


def g1_resolves(n_max: int, grid_n: int) -> bool:
    """Whether the g1 box of grid_n cells resolves the smallest pocket:
    its radius 4^{-n_max} spans at least four grid steps."""
    return 4.0 ** (-n_max) >= 4.0 * (2.0 * _g1_half_width(n_max) / grid_n)


def build_g1(n_max: int, grid_n: int) -> PocketMetric:
    """Solve (Laplacian) u1 = -source on a zero-Dirichlet box four times
    the source support radius; u1 is the factor of e^{2 u1} dx^2.  Inside
    each pocket the curvature is negative, outside it vanishes to solver
    tolerance."""
    if not g1_resolves(n_max, grid_n):
        raise AssemblyError(f"a grid of {grid_n} cells cannot resolve "
                            f"pocket radius {4.0 ** -n_max:.2e}")
    grid = box_grid((0.0, 0.0), _g1_half_width(n_max), grid_n)
    k_src = curvature_pockets_rhs(*grid.axes(), n_max)
    u1 = solve_poisson(grid, k_src)  # Laplacian u1 = -k_src >= 0
    return PocketMetric(factor=u1, source=k_src, n_max=n_max)


# ---------------------------------------------------------------------------
# annulus stack
# ---------------------------------------------------------------------------

PLANTINGS_PER_ANNULUS = 2
SAMPLE_ANGLES = 8  # curvature sample points per annulus
CUTOFF_R_MAX = 1.5  # the cutoffs' C^4 proxy: on a radial grid below 1.5,
CUTOFF_STEP = 1e-4  # differences at step 1e-4
CUTOFF_ORDER = 4    # up to order 4


def wall_cutoff(n: int, r):
    """e^{-1/(r - 1/n)} for r > 1/n, zero otherwise."""
    r = np.asarray(r, dtype=float)
    s = r - 1.0 / n
    out = np.zeros(np.shape(r))
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def wall_cutoff_laplacian(n: int, r):
    """Closed-form Laplacian of the radial cutoff:
    e^{-1/s} (1/s^4 - 2/s^3 + 1/(r s^2)), s = r - 1/n; positive for r < 1
    wherever the cutoff is positive (1 - 2s + s^2/r has no real roots in
    s for r < 1)."""
    r = np.asarray(r, dtype=float)
    s = r - 1.0 / n
    out = np.zeros(np.shape(r))
    pos = s > 0
    sp = s[pos]
    out[pos] = np.exp(-1.0 / sp) * (1.0 / sp**4 - 2.0 / sp**3
                                    + 1.0 / (r[pos] * sp**2))
    return out


def _weighted_cutoffs(cutoff, eta: Sequence[float], mu: Sequence[float],
                      ms: range, r) -> np.ndarray:
    """eta_m mu_m cutoff(m, r) summed over m in ms, in order, from zeros."""
    out = np.zeros(np.shape(np.asarray(r, dtype=float)))
    for m in ms:
        out = out + eta[m - 1] * mu[m - 1] * cutoff(m, r)
    return out


def measure_mu_schedule(n_max: int) -> list:
    """mu_n = 2^{-n} / (1 + max measured derivative magnitude of the n-th
    wall cutoff up to order CUTOFF_ORDER), measured by repeated
    differencing on a fine radial grid."""
    if n_max < 1:
        raise AssemblyError("n_max must be >= 1")
    return [2.0 ** (-n) / (1.0 + cutoff_c4_norm(n, 1.0))
            for n in range(1, n_max + 1)]


def cutoff_c4_norm(n: int, mu: float) -> float:
    """Largest measured magnitude of mu times the n-th wall cutoff and of
    its differences up to order CUTOFF_ORDER."""
    r = np.arange(1.0 / n - 10 * CUTOFF_STEP, CUTOFF_R_MAX, CUTOFF_STEP)
    return max(measured_derivative_maxima(mu * wall_cutoff(n, r),
                                          CUTOFF_STEP, CUTOFF_ORDER))


@dataclass
class AnnulusStack:
    """Factor u0 + sum_m eta_m mu_m (wall cutoff m), with u0 per-annulus
    plantings of the bump construction."""

    eta: Sequence[float]
    mu: Sequence[float]
    n_max: int
    plantings: list          # (center, sigma, amplitude) per annulus
    rotation: RotationSum

    def cutoff_sum(self, r):
        return _weighted_cutoffs(wall_cutoff, self.eta, self.mu,
                                 range(1, self.n_max + 1), r)

    def cutoff_sum_laplacian(self, r):
        return _weighted_cutoffs(wall_cutoff_laplacian, self.eta, self.mu,
                                 range(1, self.n_max + 1), r)

    def planting_value(self, x, y) -> np.ndarray:
        return _first_ball_value(self.rotation, x, y, [
            (c, sigma, (sigma * PLANTING_REACH) ** 2, amp)
            for c, sigma, amp in self.plantings])

    def factor(self, x, y) -> np.ndarray:
        return self.cutoff_sum(np.hypot(x, y)) + self.planting_value(x, y)

    def planting_clearance(self, x, y) -> np.ndarray:
        """Distance from (x, y) to the nearest planting support."""
        best = np.inf
        for (cx, cy), sigma, _ in self.plantings:
            best = np.minimum(best, np.hypot(x - cx, y - cy)
                              - sigma * PLANTING_REACH)
        return best


def annulus_mid_radius(n: int) -> float:
    return 0.5 * (1.0 / n + 1.0 / (n + 1))


def build_annulus_stack(eta: Sequence[float], n_max: int,
                        mu: Sequence[float],
                        tail: TailFunction) -> AnnulusStack:
    """Assemble the annulus factor for a given bounded positive weight
    sequence eta, truncated at n_max, with the measured mu schedule of
    `measure_mu_schedule`.

    The per-annulus plantings are scaled rotation-sum bumps centered on the
    mid circle of each annulus, supports strictly inside the annulus.
    """
    if len(eta) < n_max:
        raise AssemblyError(f"need {n_max} weights, got {len(eta)}")
    if any(e <= 0 for e in eta[:n_max]):
        raise AssemblyError("weights must be positive")
    plantings = []
    for n in range(1, n_max + 1):
        r_c = annulus_mid_radius(n)
        width = 1.0 / n - 1.0 / (n + 1)
        sigma = 0.40 * width / PLANTING_REACH
        amp = 2.0 ** (-n) * sigma ** 2
        for j in range(PLANTINGS_PER_ANNULUS):
            ang = 2.0 * math.pi * j / PLANTINGS_PER_ANNULUS
            plantings.append(((r_c * math.cos(ang), r_c * math.sin(ang)),
                              sigma, amp))
    return AnnulusStack(eta=list(eta[:n_max]), mu=list(mu[:n_max]),
                        n_max=n_max, plantings=plantings,
                        rotation=RotationSum(base=tail))


def annulus_curvature_samples(stack: AnnulusStack, n: int) -> list:
    """Discrete curvature of the stack factor at mid-annulus sample
    points chosen between plantings, with a per-sample stencil step small
    enough for the wall cutoffs' scale.

    Returns (K, laplacian, analytic laplacian) records; K < 0 there
    comes from the strictly positive Laplacian of every active cutoff.
    """
    r_c = annulus_mid_radius(n)
    s_active = r_c - 1.0 / (n + 1)
    h_fd = 0.02 * s_active ** 2
    # between the plantings, which sit at multiples of
    # 2pi / PLANTINGS_PER_ANNULUS
    angs = [2.0 * math.pi * (j + 0.5) / SAMPLE_ANGLES
            for j in range(SAMPLE_ANGLES)]
    px = np.array([r_c * math.cos(a) for a in angs])
    py = np.array([r_c * math.sin(a) for a in angs])
    clear = stack.planting_clearance(px, py) >= 3 * h_fd
    if not np.any(clear):
        raise AssemblyError(f"no clear sample points found on annulus {n}")
    px, py = px[clear], py[clear]
    # five-point stencils, one row per node: center, +x, -x, +y, -y
    c, e, w, no, so = stack.factor(
        np.stack([px, px + h_fd, px - h_fd, px, px]),
        np.stack([py, py, py, py + h_fd, py - h_fd]))
    lap = (e + w + no + so - 4.0 * c) / h_fd**2
    lap_exact = stack.cutoff_sum_laplacian(np.hypot(px, py))
    return [dict(K=-math.exp(-2.0 * ci) * li, laplacian=li, laplacian_exact=le)
            for ci, li, le in zip(c.tolist(), lap.tolist(),
                                  lap_exact.tolist())]


# derivative orders 0..FLATNESS_ORDER of the factor at the origin, by
# differences at step FLATNESS_STEP
FLATNESS_ORDER = 4
FLATNESS_STEP = 0.01
# the distance from the origin of the square stencil's corners
FLATNESS_REACH = math.sqrt(2.0) * FLATNESS_STEP * FLATNESS_ORDER


def flatness_stencil_in_core(n_max: int) -> bool:
    """Whether the whole origin-flatness stencil, corners included, lies
    inside the core r < 1/(n_max + 1) where the factor truncated at n_max
    vanishes."""
    return FLATNESS_REACH < 1.0 / (n_max + 1)


def origin_flatness(stack: AnnulusStack) -> list:
    """Measured derivative magnitudes of the factor at the origin, by
    nested central differences on a square stencil about the origin."""
    if not flatness_stencil_in_core(stack.n_max):
        raise AssemblyError("stencil escapes the flat core")
    xs = FLATNESS_STEP * (np.arange(2 * FLATNESS_ORDER + 1) - FLATNESS_ORDER)
    return measured_derivative_maxima(
        stack.factor(*np.meshgrid(xs, xs, indexing="ij")), FLATNESS_STEP,
        FLATNESS_ORDER)


def cutoff_partial_sum_c4_distance(mu: Sequence[float], n_hi: int,
                                   n_lo: int) -> float:
    """C^4-proxy distance between the partial sums at n_hi and n_lo terms
    of the unit-weight cutoff series (measured on a fine radial grid)."""
    r = np.arange(1e-6, CUTOFF_R_MAX, CUTOFF_STEP)
    return max(measured_derivative_maxima(
        _weighted_cutoffs(wall_cutoff, [1.0] * n_hi, mu,
                          range(n_lo + 1, n_hi + 1), r),
        CUTOFF_STEP, CUTOFF_ORDER))
