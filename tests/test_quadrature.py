import math

import numpy as np
import pytest

from nonembed.quadrature import adaptive_log_quadrature, float_to_log


@pytest.mark.parametrize("sign", [1, -1])
def test_integral_past_double_range_is_inf(sign):
    # e^{705 + t} over [0, 10] is about e^715: the panels sum as doubles
    # under one exponent for the integral, and only the total overflows
    def f_log(ts):
        return np.full(ts.shape, sign), 705.0 + ts

    r = adaptive_log_quadrature(f_log, 0.0, 10.0, rtol=1e-12)
    assert r.value == sign * math.inf
    assert math.isfinite(r.est_error)


def test_mixed_sign_total_matches_direct_sum():
    # a constant of either sign on each of the 16 initial panels, which
    # G15 integrates exactly: the total is the float sum of the constants
    rng = np.random.default_rng(3)
    c = rng.normal(size=16) * rng.uniform(0.1, 5.0, size=16)
    r = adaptive_log_quadrature(lambda ts: float_to_log(c[ts.astype(int)]),
                                0.0, 16.0)
    assert isinstance(r.value, float)
    assert r.value == pytest.approx(c.sum(), rel=1e-12)


def test_refinement_evaluates_no_node_twice():
    # the kink at 0.3 forces several rounds of bisection; each panel's own
    # G15 value is the half its parent computed, so no node is evaluated
    # again
    seen = []

    def f_log(ts):
        seen.append(ts)
        return float_to_log(np.abs(ts - 0.3))

    r = adaptive_log_quadrature(f_log, 0.0, 1.0)
    ts = np.concatenate(seen)
    assert len(seen) > 3
    assert np.unique(ts).size == ts.size == r.n_evals
    assert r.value == pytest.approx(0.29, rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_zero_integrand_is_zero_without_warnings():
    # every node is sign 0, logmag -inf: the exponent of the integral
    # stays -inf and nothing is rescaled
    def f_log(ts):
        return np.zeros(ts.shape, dtype=int), np.full(ts.shape, -np.inf)

    r = adaptive_log_quadrature(f_log, 0.0, 1.0)
    assert r.value == 0.0 and r.est_error == 0.0


@pytest.mark.parametrize("background", [0.0, 1e-3])
def test_narrow_peak_found_after_bisection_matches_closed_form(background):
    # e^{700} (e^{-((t - c)/1e-3)^2} + background) with c midway between
    # two Gauss nodes of the first round (16 panels on [0, 1]): the first
    # round sees the peak only about e^10 below its top, and later rounds
    # raise the exponent of the integral.  The background's panels away
    # from the peak are accepted before the last raise, so their share of
    # the total must be rescaled with it.
    half = 1.0 / 32.0
    nodes = np.sort(7.0 / 16.0 + half + half
                    * np.polynomial.legendre.leggauss(15)[0])
    c = 0.5 * (nodes[7] + nodes[8])
    log_bg = math.log(background) if background else -math.inf

    def f_log(ts):
        return (np.ones(ts.shape, dtype=int),
                700.0 + np.logaddexp(-((ts - c) / 1e-3) ** 2, log_bg))

    r = adaptive_log_quadrature(f_log, 0.0, 1.0)
    exact = (1e-3 * math.sqrt(math.pi) + background) * math.exp(700.0)
    assert abs(r.value - exact) <= 1e-12 * exact
