"""Adaptive Gauss-Legendre quadrature with log-sum-exp accumulation.

Integrands are supplied in vectorized log-scaled form (sign and log
magnitude at each node, see :func:`float_to_log`), so integrals whose
integrand spans hundreds of e-foldings are accumulated without overflow.
Panel sums stay in that form until the last step, which converts the
total to one double: +-inf when the integral passes double range.
Panels are bisected until the G15 value of a panel agrees with the sum
over its halves, with an absolute floor tied to the running global
magnitude so that panels straddling zero crossings do not trigger
runaway refinement.
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


def _signed_logsumexp(signs: np.ndarray, logmags: np.ndarray):
    """(sign, log|sum|) of an array of (sign, logmag) values: each sign's
    terms by log-sum-exp, then their difference, zero on exact
    cancellation."""
    def _lse(a):
        if a.size == 0:
            return -math.inf
        m = float(np.max(a))
        if m == -math.inf:
            return -math.inf
        return m + math.log(float(np.sum(np.exp(a - m))))

    lp, ln = _lse(logmags[signs > 0]), _lse(logmags[signs < 0])
    if ln == -math.inf:
        return (1, lp) if lp > -math.inf else (0, -math.inf)
    if lp == -math.inf:
        return -1, ln
    if lp == ln:
        return 0, -math.inf
    hi, d = max(lp, ln), abs(lp - ln)
    return (1 if lp > ln else -1), hi + math.log(-math.expm1(-d))


def _to_float(sign: int, logmag: float) -> float:
    if sign == 0:
        return 0.0
    try:
        return sign * math.exp(logmag)
    except OverflowError:
        return sign * math.inf


def _panel_sums(f_log, a: np.ndarray, b: np.ndarray):
    """G15 on each panel [a_i, b_i]: returns (signs, logmags, n_evals)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ts = mid[:, None] + half[:, None] * _NODES[None, :]
    signs, logmags = f_log(ts.ravel())
    signs = np.asarray(signs).reshape(ts.shape)
    logmags = np.asarray(logmags).reshape(ts.shape)
    with np.errstate(divide="ignore"):
        lw = logmags + _LOG_WEIGHTS[None, :] + np.log(half)[:, None]

    def _masked_lse(mask):
        m = np.where(mask, lw, -np.inf)
        mx = np.max(m, axis=1)
        safe = mx > -np.inf
        out = np.full(len(a), -np.inf)
        if np.any(safe):
            out[safe] = mx[safe] + np.log(
                np.sum(np.exp(m[safe] - mx[safe][:, None]), axis=1))
        return out

    lpos = _masked_lse(signs > 0)
    lneg = _masked_lse(signs < 0)
    out_sign, out_log = _pair_add(np.where(lpos > -np.inf, 1, 0), lpos,
                                  np.where(lneg > -np.inf, -1, 0), lneg)
    return out_sign, out_log, ts.size


def _pair_add(s1, l1, s2, l2):
    """Signed-log addition x1 + x2, vectorized: returns (signs, logmags)."""
    hi = np.maximum(l1, l2)
    lo = np.minimum(l1, l2)
    with np.errstate(invalid="ignore"):
        d = np.where(hi > -np.inf, hi - lo, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        lsum = hi + np.log1p(np.exp(-d))
        ldiff = np.where(d > 0, hi + np.log1p(-np.exp(-d)), -np.inf)
    same = s1 == s2
    out_log = np.where(same, lsum, ldiff)
    out_sign = np.where(l1 >= l2, s1, s2)
    out_sign = np.where(same, s1, out_sign)
    # exact cancellation of opposite signs
    out_sign = np.where(~same & (d == 0), 0, out_sign)
    # zeros pass the other operand through
    out_log = np.where(s1 == 0, l2, out_log)
    out_sign = np.where(s1 == 0, s2, out_sign)
    out_log = np.where(s2 == 0, np.where(s1 == 0, -np.inf, l1), out_log)
    out_sign = np.where(s2 == 0, s1, out_sign)
    out_log = np.where(out_sign == 0, -np.inf, out_log)
    return out_sign.astype(int), out_log


def adaptive_log_quadrature(f_log, a: float, b: float, rtol: float = 1e-10,
                            initial_panels: int = 16) -> QuadratureResult:
    """Integrate a vectorized log-scaled integrand over [a, b].

    f_log(ts) must return (signs, logmags) arrays.  Refinement stops when
    each panel's bisection discrepancy is below rtol times the larger of
    the panel magnitude and the width-prorated global magnitude.  Each
    round evaluates the two halves of every live panel; a panel's own G15
    value is the half its parent computed.
    """
    if b == a:
        return QuadratureResult(0.0, 0.0, 0)
    edges = np.linspace(a, b, initial_panels + 1)
    pa, pb = edges[:-1].copy(), edges[1:].copy()
    depth = np.zeros(initial_panels, dtype=int)
    prev_err = np.full(initial_panels, np.inf)
    s1, l1, n_evals = _panel_sums(f_log, pa, pb)

    acc_signs: list[np.ndarray] = []
    acc_logs: list[np.ndarray] = []
    acc_err: list[np.ndarray] = []
    global_mag = -math.inf
    log_rtol = math.log(rtol)
    span = abs(b - a)

    while len(pa):
        if len(pa) > MAX_PANELS:
            raise QuadratureError(
                f"panel count exploded past {MAX_PANELS} "
                f"(depth range {depth.min()}..{depth.max()})")
        mid = 0.5 * (pa + pb)
        sl, ll, ne2 = _panel_sums(f_log, pa, mid)
        sr, lr, ne3 = _panel_sums(f_log, mid, pb)
        n_evals += ne2 + ne3
        # refined estimate per panel = left + right
        s2, l2 = _pair_add(sl, ll, sr, lr)
        err_log = _pair_add(s1, l1, -s2, l2)[1]  # log |coarse - refined|
        global_mag = max(global_mag, float(np.max(l2, initial=-math.inf)))
        width_share = np.log((pb - pa) / span)
        floor = np.maximum(l2, global_mag + width_share)
        ok = (err_log <= log_rtol + floor) | (err_log == -np.inf)
        # integrand-noise plateau: bisection stopped improving the estimate,
        # accept and carry the remaining discrepancy into est_error
        stalled = (depth >= 6) & (err_log > prev_err - 0.18)
        done = ok | stalled | (depth >= 40)
        if np.any(done):
            acc_signs.append(s2[done])
            acc_logs.append(l2[done])
            acc_err.append(err_log[done])
        keep = ~done
        pa = np.concatenate([pa[keep], mid[keep]])
        pb = np.concatenate([mid[keep], pb[keep]])
        s1 = np.concatenate([sl[keep], sr[keep]])
        l1 = np.concatenate([ll[keep], lr[keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
        prev_err = np.concatenate([err_log[keep], err_log[keep]])

    signs = np.concatenate(acc_signs)
    sign, logmag = _signed_logsumexp(signs, np.concatenate(acc_logs))
    err_sign, err_log = _signed_logsumexp(np.ones_like(signs),
                                          np.concatenate(acc_err))
    value, est_error = _to_float(sign, logmag), _to_float(err_sign, err_log)
    # explicit failure if the depth cap left the error above tolerance;
    # compared in log scale, where neither side overflows
    if sign != 0 and err_sign != 0 \
            and err_log > math.log(rtol * 100) + logmag \
            and err_log > global_mag + math.log(1e-6):
        raise QuadratureError(
            f"quadrature did not converge: value={value}, "
            f"est_error={est_error}, n_evals={n_evals}")
    return QuadratureResult(value, est_error, n_evals)
