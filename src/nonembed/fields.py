"""Closed-form scalar fields on the slit plane and their derivatives.

The central object is the harmonic field

    u(r, theta) = -e^{log^2 r - theta^2} * sin(2 theta log r),

defined for r > 0 and theta in the open interval (0, 2pi) (branch cut on
the closed positive x-axis).  Every evaluator takes numpy arrays of
Cartesian (or polar) coordinates and returns arrays of the same shape;
each element's bits are those of that point evaluated alone, whatever the
batch size.  The magnitude of u exceeds double range already for
moderate log r, so :func:`u_log_xy` returns (sign, log|u|) pairs, which
the quadrature accumulates in log scale before it returns one double per
integral; :func:`u_float` converts them to doubles and gives +-inf past
double range.  The module also provides the
angle field about a tree vertex and a finite-difference Laplacian used as
a harmonicity diagnostic.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi


class FieldDomainError(ValueError):
    """Point outside a field's domain (slit, origin, vertex)."""


# ---------------------------------------------------------------------------
# the slit-plane field u
# ---------------------------------------------------------------------------

def _polar(xs, ys):
    """(r, theta) arrays of Cartesian points in the slit chart; a point on
    the closed positive x-axis (the origin included) is rejected, not
    clamped."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    r = np.hypot(xs, ys)
    theta = np.arctan2(ys, xs)
    theta = np.where(theta < 0.0, theta + TWO_PI, theta)
    if np.any((r == 0.0) | (theta == 0.0) | (theta == TWO_PI)):
        raise FieldDomainError("point on the slit or at the origin")
    return r, theta


def u_log_polar(r, theta):
    """u in log scale from polar arrays: (sign, logmag)."""
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
    """u in log scale from Cartesian arrays: (sign, logmag)."""
    return u_log_polar(*_polar(xs, ys))


def u_float(xs, ys):
    """u as doubles; +-inf where |u| exceeds double range."""
    signs, logmags = u_log_xy(xs, ys)
    with np.errstate(over="ignore"):
        return signs * np.exp(logmags)


def u_gradient_xy(xs, ys):
    """Cartesian gradient (u_x, u_y) of u, hand-derived:

        u_r     = -e^g ( 2L sin ph + 2 theta cos ph ) / r
        u_theta = -e^g ( -2 theta sin ph + 2L cos ph )

    with g = L^2 - theta^2, ph = 2 theta L, L = log r.  Evaluated in
    doubles, so e^g must stay in double range.
    """
    r, theta = _polar(xs, ys)
    L = np.log(r)
    g = L * L - theta**2
    ph = 2.0 * theta * L
    eg = np.exp(g)
    u_r = -eg * (2.0 * L * np.sin(ph) + 2.0 * theta * np.cos(ph)) / r
    u_t = -eg * (-2.0 * theta * np.sin(ph) + 2.0 * L * np.cos(ph))
    c, s = np.cos(theta), np.sin(theta)
    return c * u_r - s * u_t / r, s * u_r + c * u_t / r


def radial_derivative_u(theta):
    """u_r on the unit circle: -2 theta e^{-theta^2}, theta in (0, 2pi)."""
    theta = np.asarray(theta, dtype=float)
    if np.any((theta <= 0.0) | (theta >= TWO_PI)):
        raise FieldDomainError("theta must lie in (0, 2pi)")
    return -2.0 * theta * np.exp(-theta * theta)


# ---------------------------------------------------------------------------
# angle field about a tree vertex
# ---------------------------------------------------------------------------

def eval_angle_field(A: Tuple[float, float], A1: Tuple[float, float],
                     xs, ys):
    """Counterclockwise angle at A from ray A->A1 to ray A->(x, y), in
    [0, 2pi).

    On the two 120-degree sectors swept from the A1 leg through the axis
    leg to the A3 leg the result lies in [0, 4pi/3].
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any((xs == A[0]) & (ys == A[1])):
        raise FieldDomainError("angle field is undefined at the vertex")
    base = math.atan2(A1[1] - A[1], A1[0] - A[0])
    ang = np.mod(np.arctan2(ys - A[1], xs - A[0]) - base, TWO_PI)
    # collapse rounding just below 2pi for points on the reference ray
    return np.where(ang > TWO_PI - 1e-12, 0.0, ang)


# ---------------------------------------------------------------------------
# harmonicity diagnostic
# ---------------------------------------------------------------------------

def laplacian_residual(value: Callable, x, y, h):
    """Five-point finite-difference Laplacian at the points (x, y) with
    step h, a scalar or one step per point, of the array function
    value(xs, ys), which evaluates every stencil point in one call (and
    raises if one leaves its domain).

    Second-order consistent: O(h^2) on smooth fields, ~0 on harmonic ones.
    """
    c, e, w, n, s = value(np.stack([x, x + h, x - h, x, x]),
                          np.stack([y, y, y, y + h, y - h]))
    return (e + w + n + s - 4.0 * c) / (h * h)
