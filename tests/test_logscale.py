import math

import numpy as np
import pytest

from nonembed.logscale import LogScaledReal, signed_logsumexp


def test_round_trip_ordinary_range():
    # relative round-trip error is eps * |log x|, so ~1e-13 at 1e300
    for x in (3.7, -1e-12, 2.5e300, -4.4e-250, 1.0):
        ls = LogScaledReal.from_float(x)
        assert ls.to_float() == pytest.approx(x, rel=1e-12)


def test_zero_and_signs():
    z = LogScaledReal.zero()
    assert z.is_zero and z.to_float() == 0.0
    assert LogScaledReal.from_float(0.0).is_zero
    with pytest.raises(ValueError):
        LogScaledReal(2, 0.0)
    with pytest.raises(ValueError):
        LogScaledReal.from_float(math.inf)


def test_multiplication_adds_logmags():
    a = LogScaledReal(1, 350.0)
    b = LogScaledReal(-1, 400.0)
    c = a * b
    assert c.sign == -1
    assert c.logmag == pytest.approx(750.0)
    assert (a * 0.0).is_zero


def test_addition_same_and_opposite_signs():
    a = LogScaledReal.from_float(3.0)
    b = LogScaledReal.from_float(4.0)
    assert (a + b).to_float() == pytest.approx(7.0, rel=1e-14)
    assert (a - b).to_float() == pytest.approx(-1.0, rel=1e-13)
    assert (a - a).is_zero
    # scalar mixing
    assert (a + 1.0).to_float() == pytest.approx(4.0, rel=1e-14)


def test_add_sub_round_trip_extreme_range():
    # (a + b) - b == a to 1e-12 relative for comparable-magnitude pairs
    # anywhere in logmag [-500, 500].  (Disparate magnitudes are absorbed,
    # exactly as in ordinary floating point; recovering a swamped addend is
    # not representable.)
    rng = np.random.default_rng(7)
    n_checked = 0
    for _ in range(2000):
        la = rng.uniform(-500, 500)
        lb = la + rng.uniform(-2.0, 2.0)
        sa, sb = rng.choice([-1, 1], size=2)
        a = LogScaledReal(int(sa), float(la))
        b = LogScaledReal(int(sb), float(lb))
        mid = a + b
        if not mid.is_zero and mid.logmag < max(la, lb) - 25:
            continue  # intermediate cancels catastrophically
        back = mid - b
        d = back - a
        assert d.is_zero or d.logmag - max(back.logmag, a.logmag) \
            <= math.log(1e-12), (a, b, back)
        n_checked += 1
    assert n_checked > 1500


def test_signed_logsumexp_matches_direct():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=50) * rng.uniform(0.1, 5.0, size=50)
    signs = np.sign(vals).astype(int)
    logmags = np.log(np.abs(vals))
    got = signed_logsumexp(signs, logmags).to_float()
    assert got == pytest.approx(vals.sum(), rel=1e-12)


def test_overflowing_to_float_saturates():
    big = LogScaledReal(-1, 1e4)
    assert big.to_float() == -math.inf
