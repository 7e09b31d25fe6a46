"""Adaptive Gauss-Legendre quadrature under one exponent per integral.

Integrands are supplied in vectorized log-scaled form (sign and log
magnitude at each node, see :func:`float_to_log`), so integrals whose
integrand spans hundreds of e-foldings are accumulated without overflow.
Each integral carries one exponent m, the largest weighted log magnitude
seen so far; every node value is a double in units of e^m and the panels
are summed as doubles.  When m rises, the values already carried are
rescaled.  The last step converts the total to one double: +-inf when
the integral passes double range.  Panels are bisected until the G15
value of a panel agrees with the sum over its halves, with an absolute
floor tied to the running global magnitude so that panels straddling
zero crossings do not trigger runaway refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_LOG_WEIGHTS = np.log(_WEIGHTS)
MAX_PANELS = 400_000  # live panels past which refinement has exploded


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries diagnostics."""


@dataclass
class QuadratureResult:
    value: float  # +-inf past double range
    est_error: float
    n_evals: int


def float_to_log(vals):
    """(sign, log|value|) arrays of plain double values; a zero gets sign 0
    and logmag -inf."""
    vals = np.asarray(vals, dtype=float)
    signs = np.sign(vals).astype(int)
    with np.errstate(divide="ignore"):
        logmags = np.where(vals != 0.0, np.log(np.abs(vals)), -np.inf)
    return signs, logmags


def _times_exp(x: float, m: float) -> float:
    """x * e^m as one double, +-inf past double range.  The two half
    factors keep e^m itself from overflowing while x * e^m fits."""
    if x == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * m)
        return float(x * half * half)


def adaptive_log_quadrature(f_log, a: float, b: float, rtol: float,
                            initial_panels: int) -> QuadratureResult:
    """Integrate a vectorized log-scaled integrand over [a, b].

    f_log(ts) must return (signs, logmags) arrays.  Refinement stops when
    each panel's bisection discrepancy is below rtol times the larger of
    the panel magnitude and the width-prorated global magnitude.  Each
    round evaluates the two halves of every live panel; a panel's own G15
    value is the half its parent computed.
    """
    if b == a:
        return QuadratureResult(0.0, 0.0, 0)
    span = abs(b - a)
    # the exponent of the integral; the sums and errors below are in units
    # of e^m
    m = -math.inf
    total = err_total = global_mag = 0.0
    n_evals = 0
    depth = np.zeros(initial_panels, dtype=int)
    prev_err = np.zeros(initial_panels)  # read from depth 6 on
    coarse = None  # each live panel's own G15 value
    # the first round evaluates the initial panels, each later round the
    # two halves of every live panel [pa, pb]
    edges = np.linspace(a, b, initial_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    while True:
        half = 0.5 * (hi - lo)
        ts = 0.5 * (lo + hi)[:, None] + half[:, None] * _NODES
        signs, logmags = f_log(ts.ravel())
        signs = np.asarray(signs).reshape(ts.shape)
        lw = (np.asarray(logmags).reshape(ts.shape) + _LOG_WEIGHTS
              + np.log(half)[:, None])
        n_evals += ts.size
        m_new = max(m, float(np.max(lw, initial=-math.inf)))
        if m_new > m > -math.inf:
            scale = math.exp(m - m_new)
            coarse = coarse * scale
            prev_err = prev_err * scale
            total *= scale
            err_total *= scale
            global_mag *= scale
        m = m_new
        # m stays -inf only while every node is zero
        sums = np.sum(signs * np.exp(lw - (m if m > -math.inf else 0.0)),
                      axis=1)
        if coarse is None:
            pa, pb, coarse = lo, hi, sums
        else:
            left, right = np.split(sums, 2)
            refined = left + right
            err = np.abs(coarse - refined)
            global_mag = max(global_mag, float(np.max(np.abs(refined))))
            floor = np.maximum(np.abs(refined),
                               global_mag * ((pb - pa) / span))
            ok = err <= rtol * floor
            # integrand-noise plateau: bisection stopped improving the
            # estimate by 0.18 e-folds, accept and carry the remaining
            # discrepancy into est_error
            stalled = (depth >= 6) & (err > prev_err * math.exp(-0.18))
            done = ok | stalled | (depth >= 40)
            total += float(np.sum(refined[done]))
            err_total += float(np.sum(err[done]))
            keep = ~done
            pa, pb = (np.concatenate([pa[keep], mid[keep]]),
                      np.concatenate([mid[keep], pb[keep]]))
            coarse = np.concatenate([left[keep], right[keep]])
            depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
            prev_err = np.concatenate([err[keep], err[keep]])
        if not len(pa):
            break
        if len(pa) > MAX_PANELS:
            raise QuadratureError(
                f"panel count exploded past {MAX_PANELS} "
                f"(depth range {depth.min()}..{depth.max()})")
        mid = 0.5 * (pa + pb)
        lo, hi = np.concatenate([pa, mid]), np.concatenate([mid, pb])

    value, est_error = _times_exp(total, m), _times_exp(err_total, m)
    # explicit failure if the depth cap left the error above tolerance;
    # compared in units of e^m, where neither side overflows
    if total != 0.0 and err_total > rtol * 100 * abs(total) \
            and err_total > 1e-6 * global_mag:
        raise QuadratureError(
            f"quadrature did not converge: value={value}, "
            f"est_error={est_error}, n_evals={n_evals}")
    return QuadratureResult(value, est_error, n_evals)
