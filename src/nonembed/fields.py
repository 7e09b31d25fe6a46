"""Closed-form scalar fields on the slit plane and their derivatives.

The central object is the harmonic field

    u(r, theta) = -e^{log^2 r - theta^2} * sin(2 theta log r),

defined for r > 0 and theta in the open interval (0, 2pi) (branch cut on
the closed positive x-axis).  Its magnitude exceeds double range already
for moderate log r, so pointwise evaluation goes through
:class:`~nonembed.logscale.LogScaledReal`; plain-float paths exist for the
regions where they are verified safe.  The module also provides the angle
field about a tree vertex and a finite-difference Laplacian used as a
harmonicity diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from nonembed.logscale import LogScaledReal, float_to_log

TWO_PI = 2.0 * math.pi


class FieldDomainError(ValueError):
    """Point outside a field's domain (slit, origin, stencil overrun)."""


@dataclass(frozen=True)
class PolarPoint:
    """Point in the slit-plane polar chart: r > 0, 0 < theta < 2pi."""

    r: float
    theta: float

    def __post_init__(self):
        if not (self.r > 0.0):
            raise FieldDomainError(f"r must be positive, got {self.r}")
        if not (0.0 < self.theta < TWO_PI):
            raise FieldDomainError(
                f"theta must lie in (0, 2pi), got {self.theta}")


def polar_from_xy(x: float, y: float) -> PolarPoint:
    """Map a Cartesian point into the slit chart; the closed positive
    x-axis (including the origin) is rejected, not clamped."""
    r = math.hypot(x, y)
    if r == 0.0:
        raise FieldDomainError("origin is not in the slit plane")
    theta = math.atan2(y, x)
    if theta < 0.0:
        theta += TWO_PI
    if theta == 0.0:
        raise FieldDomainError(f"point ({x}, {y}) lies on the slit")
    return PolarPoint(r, theta)


@dataclass
class AnalyticField:
    """Evaluable closed-form scalar field with gradient.

    value/gradient take Cartesian coordinates.  ``log_value``, when
    present, evaluates vectorized (sign, logmag) pairs and is what the
    high-dynamic-range quadrature consumes.
    """

    value: Callable[[float, float], float]
    gradient: Callable[[float, float], Tuple[float, float]]
    contains: Callable[[float, float], bool] = field(default=lambda x, y: True)
    log_value: Optional[Callable[[np.ndarray, np.ndarray],
                                 Tuple[np.ndarray, np.ndarray]]] = None

    def log_value_at(self, xs: np.ndarray, ys: np.ndarray):
        if self.log_value is not None:
            return self.log_value(xs, ys)
        vals = np.array([self.value(x, y) for x, y in zip(np.ravel(xs), np.ravel(ys))])
        return float_to_log(vals.reshape(np.shape(xs)))


def vectorized_field(value) -> AnalyticField:
    """AnalyticField of a vectorized double-valued function value(xs, ys),
    for the log-scale quadrature; it carries no gradient."""
    return AnalyticField(value=lambda x, y: float(value(x, y)),
                         gradient=_no_gradient,
                         log_value=lambda xs, ys: float_to_log(value(xs, ys)))


def _no_gradient(x, y):
    raise NotImplementedError("this field carries no gradient")


# ---------------------------------------------------------------------------
# the slit-plane field u
# ---------------------------------------------------------------------------

def u_log_polar(r, theta):
    """Vectorized u in log scale from polar arrays: (sign, logmag)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r <= 0.0):
        raise FieldDomainError("r must be positive")
    if np.any((theta <= 0.0) | (theta >= TWO_PI)):
        raise FieldDomainError("theta must lie in (0, 2pi)")
    L = np.log(r)
    s = np.sin(2.0 * theta * L)
    signs = (-np.sign(s)).astype(int)
    with np.errstate(divide="ignore"):
        logmags = np.where(s != 0.0, L * L - theta**2 + np.log(np.abs(s)), -np.inf)
    return signs, logmags


def u_log_xy(xs, ys):
    """Vectorized u in log scale from Cartesian arrays."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    r = np.hypot(xs, ys)
    theta = np.arctan2(ys, xs)
    theta = np.where(theta < 0.0, theta + TWO_PI, theta)
    bad = (r == 0.0) | (theta == 0.0) | (theta == TWO_PI)
    if np.any(bad):
        raise FieldDomainError("point on the slit or at the origin")
    return u_log_polar(r, theta)


def eval_u(p: PolarPoint) -> LogScaledReal:
    """Exact evaluation of u at a slit-plane point, in log-scaled form."""
    signs, logmags = u_log_polar(np.array([p.r]), np.array([p.theta]))
    return LogScaledReal(int(signs[0]), float(logmags[0]))


def u_float(x: float, y: float) -> float:
    """u as a plain double; only valid where the magnitude fits."""
    return eval_u(polar_from_xy(x, y)).to_float()


def u_gradient_xy(x: float, y: float) -> Tuple[float, float]:
    """Cartesian gradient of u, hand-derived:

        u_r     = -e^g ( 2L sin ph + 2 theta cos ph ) / r
        u_theta = -e^g ( -2 theta sin ph + 2L cos ph )

    with g = L^2 - theta^2, ph = 2 theta L, L = log r.
    """
    p = polar_from_xy(x, y)
    L = math.log(p.r)
    g = L * L - p.theta**2
    ph = 2.0 * p.theta * L
    eg = math.exp(g)
    u_r = -eg * (2.0 * L * math.sin(ph) + 2.0 * p.theta * math.cos(ph)) / p.r
    u_t = -eg * (-2.0 * p.theta * math.sin(ph) + 2.0 * L * math.cos(ph))
    c, s = math.cos(p.theta), math.sin(p.theta)
    return (c * u_r - s * u_t / p.r, s * u_r + c * u_t / p.r)


def u_field() -> AnalyticField:
    """The slit-plane field packaged as an AnalyticField.

    value/gradient are plain doubles (safe wherever |log^2 r| stays well
    inside double exponent range; all library call sites are); log_value is
    the vectorized log-scale path used by quadrature.
    """
    def contains(x: float, y: float) -> bool:
        return not (y == 0.0 and x >= 0.0)

    return AnalyticField(
        value=u_float,
        gradient=u_gradient_xy,
        contains=contains,
        log_value=u_log_xy,
    )


def radial_derivative_u(theta: float) -> float:
    """u_r on the unit circle: -2 theta e^{-theta^2}, theta in (0, 2pi)."""
    if not (0.0 < theta < TWO_PI):
        raise FieldDomainError(f"theta must lie in (0, 2pi), got {theta}")
    return -2.0 * theta * math.exp(-theta * theta)


# ---------------------------------------------------------------------------
# angle field about a tree vertex
# ---------------------------------------------------------------------------

def eval_angle_field(A: Tuple[float, float], A1: Tuple[float, float],
                     x: Tuple[float, float]) -> float:
    """Counterclockwise angle at A from ray A->A1 to ray A->x, in [0, 2pi).

    On the two 120-degree sectors swept from the A1 leg through the axis
    leg to the A3 leg the result lies in [0, 4pi/3].
    """
    if x == A:
        raise FieldDomainError("angle field is undefined at the vertex")
    base = math.atan2(A1[1] - A[1], A1[0] - A[0])
    ang = math.atan2(x[1] - A[1], x[0] - A[0]) - base
    ang %= TWO_PI
    # collapse rounding just below 2pi for points on the reference ray
    if ang > TWO_PI - 1e-12:
        ang = 0.0
    return ang


# ---------------------------------------------------------------------------
# harmonicity diagnostic
# ---------------------------------------------------------------------------

def laplacian_residual(f: AnalyticField, p: Tuple[float, float], h: float) -> float:
    """Five-point finite-difference Laplacian of f at p with step h.

    Second-order consistent: O(h^2) on smooth fields, ~0 on harmonic ones.
    The stencil (a disc of radius ~2h around p) must stay in f's domain.
    """
    x, y = p
    pts = [(x, y), (x + h, y), (x - h, y), (x, y + h), (x, y - h)]
    for q in pts:
        if not f.contains(*q):
            raise FieldDomainError(f"stencil point {q} leaves the domain")
    c = f.value(x, y)
    return (f.value(x + h, y) + f.value(x - h, y)
            + f.value(x, y + h) + f.value(x, y - h) - 4.0 * c) / (h * h)
