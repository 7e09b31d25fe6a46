"""Three-leg minimal trees and high-dynamic-range line quadrature.

A tree here is three straight legs meeting at a vertex on the negative
x-axis with pairwise 120-degree angles: one leg runs along the axis to
(-1, 0), the other two are extended to the unit circle.  The module
integrates the slit-plane field (and related fields) along legs, arcs and
chords, evaluates the substituted 1D form of the axis-leg integral, and
scans for the smallest vertex exponent K satisfying the sign conditions
of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from nonembed.fields import TWO_PI, eval_angle_field, u_gradient_xy, u_log_xy
from nonembed.quadrature import (QuadratureResult, adaptive_log_quadrature,
                                  float_to_log)

Point = Tuple[float, float]
SIGN_MARGIN = 10.0  # a sign counts beyond this many error estimates
SECTOR_PAD = 1e-9  # containment slack of a chord in the sectors and disc


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self):
        if self.p == self.q:
            raise GeometryError("degenerate segment")

    @property
    def length(self) -> float:
        return math.hypot(self.q[0] - self.p[0], self.q[1] - self.p[1])

    def at(self, t):
        t = np.asarray(t, dtype=float)
        return (self.p[0] + t * (self.q[0] - self.p[0]),
                self.p[1] + t * (self.q[1] - self.p[1]))


@dataclass(frozen=True)
class SteinerTree:
    """Three legs at exact 120-degree angles, vertex on the x-axis."""

    vertex: Point
    a1: Point
    a2: Point
    a3: Point

    @property
    def legs(self) -> Tuple[Segment, Segment, Segment]:
        return (Segment(self.vertex, self.a1),
                Segment(self.vertex, self.a2),
                Segment(self.vertex, self.a3))

    @property
    def upper_endpoint_angle(self) -> float:
        """Polar angle (about the origin) of the upper circle endpoint."""
        return math.atan2(self.a1[1], self.a1[0]) % TWO_PI


def build_steiner_tree(a: float) -> SteinerTree:
    """Tree with vertex (-a, 0): axis leg to (-1, 0), slanted legs leaving
    the vertex at standard angles +-pi/3, extended to the unit circle.

    The slanted directions are the axis direction rotated by -+2pi/3, so
    the pairwise angles are 120 degrees by construction.
    """
    if not (0.0 <= a < 1.0):
        raise GeometryError(f"vertex offset must lie in [0, 1), got {a}")
    A = (-a, 0.0)
    # |A + t (cos pi/3, sin pi/3)| = 1  =>  t^2 - a t + a^2 - 1 = 0
    t1 = 0.5 * a + math.sqrt(1.0 - 0.75 * a * a)
    c, s = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
    a1 = (A[0] + t1 * c, A[1] + t1 * s)
    a3 = (A[0] + t1 * c, A[1] - t1 * s)
    return SteinerTree(vertex=A, a1=a1, a2=(-1.0, 0.0), a3=a3)


def moon_tree(K: int) -> SteinerTree:
    """Tree for vertex offset e^{-K}."""
    return build_steiner_tree(math.exp(-float(K)))


# ---------------------------------------------------------------------------
# quadrature over segments and trees
# ---------------------------------------------------------------------------

def line_integral(f_log_xy: Callable, seg: Segment,
                  tol: float = 1e-10) -> QuadratureResult:
    """Adaptive Gauss-Legendre integral along seg of the field given in
    log scale by f_log_xy(xs, ys) -> (signs, logmags), with one exponent
    for the integral and the panels summed as doubles.  est_error <= tol *
    |value| on convergence; non-convergence raises QuadratureError with
    diagnostics."""
    log_L = math.log(seg.length)

    def f_log(ts):
        signs, logmags = f_log_xy(*seg.at(ts))
        return signs, logmags + log_L

    return adaptive_log_quadrature(f_log, 0.0, 1.0, rtol=tol,
                                   initial_panels=64)


def tree_integral(f_log_xy: Callable, tree: SteinerTree,
                  tol: float = 1e-10) -> QuadratureResult:
    """Sum of the three leg integrals of :func:`line_integral`."""
    total = 0.0
    err = 0.0
    evals = 0
    for leg in tree.legs:
        r = line_integral(f_log_xy, leg, tol=tol)
        total = total + r.value
        err += r.est_error
        evals += r.n_evals
    return QuadratureResult(total, err, evals)


def aa2_integral_scaled(K: int, tol: float = 1e-12) -> QuadratureResult:
    """Axis-leg integral of the slit-plane field via the substitution
    t = 2 pi log r:

        (1 / (2 pi e^{pi^2})) * int_{-2 pi K}^{0}
              -e^{(t^2 + 2 pi t) / (4 pi^2)} sin t dt

    evaluated in log scale.  Exactly zero for K=1 (the weight is even about
    t = -pi over one period while sin is odd there)."""
    if K < 1 or K != int(K):
        raise GeometryError(f"K must be a positive integer, got {K}")
    four_pi2 = 4.0 * math.pi**2

    def f_log(ts):
        s = np.sin(ts)
        signs = (-np.sign(s)).astype(int)
        with np.errstate(divide="ignore"):
            logmags = np.where(
                s != 0.0,
                (ts * ts + 2.0 * math.pi * ts) / four_pi2 + np.log(np.abs(s)),
                -np.inf)
        return signs, logmags

    res = adaptive_log_quadrature(f_log, -TWO_PI * K, 0.0, rtol=tol,
                                  initial_panels=8 * K)
    scale = math.exp(-math.log(TWO_PI) - math.pi**2)
    return QuadratureResult(res.value * scale, res.est_error * scale,
                            res.n_evals)


# ---------------------------------------------------------------------------
# boundary-arc integrals and the identity check
# ---------------------------------------------------------------------------

def _arc_integral(tree: SteinerTree, weight, th_lo: float, th_hi: float,
                  tol: float) -> QuadratureResult:
    """Integral over the unit-circle arc th_lo..th_hi of
    weight(phi) * 2 theta e^{-theta^2} dtheta, where phi is the angle at
    the vertex measured from the upper leg and theta the polar angle about
    the origin (ds = dtheta on the unit circle)."""
    def f_log(ths):
        phi = eval_angle_field(tree.vertex, tree.a1, np.cos(ths), np.sin(ths))
        return float_to_log(weight(phi) * 2.0 * ths * np.exp(-ths * ths))

    return adaptive_log_quadrature(f_log, th_lo, th_hi, rtol=tol,
                                   initial_panels=32)


def _arc_integrals(tree: SteinerTree, tol: float) -> Tuple[QuadratureResult,
                                                           QuadratureResult]:
    """The two circle-arc integrals with weights:

        upper arc:  phi(x) * 2 theta e^{-theta^2}
        lower arc:  (4 pi / 3 - phi(x)) * 2 theta e^{-theta^2}
    """
    th1 = tree.upper_endpoint_angle
    up = _arc_integral(tree, lambda phi: phi, th1, math.pi, tol)
    lo = _arc_integral(tree, lambda phi: 4.0 * math.pi / 3.0 - phi,
                       math.pi, TWO_PI - th1, tol)
    return up, lo


def _identity_rhs(K: int, aa2: QuadratureResult, tol: float):
    """2 * aa2 + both arc integrals, and the sum of their error estimates."""
    up, lo = _arc_integrals(moon_tree(K), tol)
    return (2.0 * aa2.value + up.value + lo.value,
            2.0 * aa2.est_error + up.est_error + lo.est_error)


def identity_right_side(K: int, tol: float = 1e-10) -> float:
    """2 * (axis-leg integral) + both arc integrals."""
    return _identity_rhs(K, aa2_integral_scaled(K, tol=tol), tol)[0]


def _relative_discrepancy(left: float, right: float) -> float:
    """|left - right| / max(|left|, |right|)."""
    diff = left - right
    if diff == 0.0:
        return 0.0
    return abs(diff) / max(abs(left), abs(right))


def green_identity_residual(K: int, tol: float = 1e-10) -> float:
    """Relative discrepancy between the slanted-leg integrals and the
    axis-plus-arcs expression, each side by an independent quadrature:

        left  = integral of u over the two slanted legs
        right = 2 * (axis integral, substituted 1D form) + arc terms

    Returns |left - right| / max(|left|, |right|).  This plain-ds relation
    is not an identity: the residuals are O(1) (0.084 at K=2, 1.65 at K=4;
    tools/oracle_tree_integrals.json).  The relation Green's second
    identity does give is :func:`weighted_green_identity_residual`.
    """
    tree = moon_tree(K)
    legs = line_integral(u_log_xy, tree.legs[0], tol=tol).value + \
        line_integral(u_log_xy, tree.legs[2], tol=tol).value
    rhs = identity_right_side(K, tol=tol)
    return _relative_discrepancy(legs, rhs)


def _leg_integral_over_rho(leg: Segment, tol: float) -> QuadratureResult:
    """Integral of u / rho along a leg that starts at the vertex, rho the
    distance to the vertex.  u vanishes at the vertex for integer K, so the
    integrand stays bounded there."""
    def f_log(ts):
        xs, ys = leg.at(ts)
        signs, logmags = u_log_xy(xs, ys)
        return signs, logmags - np.log(ts)   # (u / (t L)) * L dt

    return adaptive_log_quadrature(f_log, 0.0, 1.0, rtol=tol,
                                   initial_panels=64)


def weighted_identity_sides(K: int, tol: float = 1e-10
                            ) -> Tuple[float, float]:
    """Both sides of Green's second identity for u and the vertex angle
    phi (measured from the upper leg) on the upper sector, bounded by the
    upper leg AA1, the arc from A1 to (-1, 0) and the axis leg AA2:

        left  = -int_{AA1} u / rho ds + int_{AA2} u / rho ds
        right = int_arc phi u_r ds + (2 pi / 3) int_{AA2} grad u . e_phi ds

    Both u and phi are harmonic there.  With outward normals, dphi/dn is
    -1/rho on AA1 and +1/rho on AA2; phi = 0 on AA1 and 2 pi / 3 on AA2;
    u = 0 on the unit circle, where u_r = -2 theta e^{-theta^2}; and
    e_phi = (0, -1) on the axis leg.  Every integral is an independent
    adaptive quadrature (tools/oracle_green_forms.py, Form A, evaluates
    the same sides at 30 digits).  The gradient term is evaluated in
    doubles, so e^{K^2} must stay in double range (K <= 26).
    """
    tree = moon_tree(K)
    upper, axis = tree.legs[0], tree.legs[1]
    left = _leg_integral_over_rho(axis, tol).value \
        - _leg_integral_over_rho(upper, tol).value

    arc = _arc_integral(tree, lambda phi: -phi, tree.upper_endpoint_angle,
                        math.pi, tol)
    L = axis.length

    def axis_dtheta_log(ts):
        uy = u_gradient_xy(*axis.at(ts))[1]
        return float_to_log(-(2.0 * math.pi / 3.0) * L * uy)

    dtheta = adaptive_log_quadrature(axis_dtheta_log, 0.0, 1.0, rtol=tol,
                                     initial_panels=64)
    return left, arc.value + dtheta.value


def weighted_green_identity_residual(K: int, tol: float = 1e-10) -> float:
    """|left - right| / max(|left|, |right|) for the sides of
    :func:`weighted_identity_sides`."""
    return _relative_discrepancy(*weighted_identity_sides(K, tol=tol))


def find_min_k(k_max: int, tol: float = 1e-10) -> Optional[int]:
    """Smallest integer K <= k_max with (i) the axis-leg integral strictly
    negative and (ii) the axis-plus-arcs expression strictly negative, both
    beyond SIGN_MARGIN times the quadrature error estimate.  None if no K
    qualifies.

    Condition (ii) is the plain-ds "2 * axis + arcs" expression of
    :func:`identity_right_side`.  It does not equal the slanted-leg
    integral (see :func:`green_identity_residual`), so the K returned here
    does not certify the sign of the tree integral: that integral is
    positive for every K from 1 to 10, +0.1076 at K = 4
    (tools/oracle_tree_integrals.json)."""
    if k_max < 1:
        raise GeometryError("k_max must be >= 1")
    for K in range(1, k_max + 1):
        aa2 = aa2_integral_scaled(K, tol=tol)
        if not certified_negative(aa2.value, aa2.est_error):
            continue
        if certified_negative(*_identity_rhs(K, aa2, tol)):
            return K
    return None


def certified_negative(v: float, est_error: float) -> bool:
    """Whether v is negative beyond SIGN_MARGIN times its error estimate:
    the one rule by which a computed sign counts as certified."""
    return v < 0.0 and (est_error <= 0.0 or -v > SIGN_MARGIN * est_error)


# ---------------------------------------------------------------------------
# chord positivity
# ---------------------------------------------------------------------------

def segment_in_sectors(seg: Segment, tree: SteinerTree) -> bool:
    """Sampled containment of seg in the union of the two 120-degree
    sectors (vertex angle in [0, 4pi/3]) intersected with the closed disc."""
    ts = np.linspace(0.0, 1.0, 257)
    xs, ys = seg.at(ts)
    if np.any(xs * xs + ys * ys > (1.0 + SECTOR_PAD) ** 2):
        return False
    off = (xs != tree.vertex[0]) | (ys != tree.vertex[1])
    phi = eval_angle_field(tree.vertex, tree.a1, xs[off], ys[off])
    return not np.any(phi > 4.0 * math.pi / 3.0 + SECTOR_PAD)


def check_segment_positivity(seg: Segment, tree: SteinerTree) -> int:
    """Sign of the integral of the slit-plane field along a chord whose
    endpoints lie on the unit circle, the chord staying inside the two
    sectors: -1 only where the integral is `certified_negative`.
    Near-zero integrals (below the quadrature error) report +1, matching
    the vanishing-chord limit."""
    for p in (seg.p, seg.q):
        if abs(math.hypot(*p) - 1.0) > 1e-9:
            raise GeometryError(f"endpoint {p} is not on the unit circle")
    if not segment_in_sectors(seg, tree):
        raise GeometryError("segment exits the sectors")
    res = line_integral(u_log_xy, seg, tol=1e-9)
    return -1 if certified_negative(res.value, res.est_error) else 1


def random_boundary_chords(tree: SteinerTree, count: int, seed: int):
    """Seeded chords of the unit circle with both endpoints on the sector
    arcs, rejected (and redrawn) unless fully contained in the sectors."""
    rng = np.random.default_rng(seed)
    th_lo = tree.upper_endpoint_angle
    th_hi = TWO_PI - th_lo
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise GeometryError("chord rejection rate unexpectedly high")
        ta, tb = rng.uniform(th_lo, th_hi, size=2)
        if abs(ta - tb) < 0.05:
            continue
        seg = Segment((math.cos(ta), math.sin(ta)),
                      (math.cos(tb), math.sin(tb)))
        if segment_in_sectors(seg, tree):
            out.append(seg)
    return out
