import math

import numpy as np
import pytest

from nonembed.quadrature import adaptive_log_quadrature, float_to_log


@pytest.mark.parametrize("sign", [1, -1])
def test_integral_past_double_range_is_inf(sign):
    # e^{705 + t} over [0, 10] is about e^715: the panels sum in log scale
    # and only the total overflows
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
