import math

import numpy as np
import pytest

from nonembed.fields import u_float, u_log_xy
from nonembed.quadrature import float_to_log
from nonembed.trees import (GeometryError, Segment, aa2_integral_scaled,
                            build_steiner_tree, certified_negative,
                            check_segment_positivity,
                            find_min_k, green_identity_residual,
                            identity_right_side, line_integral,
                            moon_tree, segment_in_sectors, tree_integral,
                            weighted_green_identity_residual,
                            weighted_identity_sides)

# 50-digit oracle values (tools/oracle_tree_integrals.py)
ORACLE_AA2 = {
    1: 0.0,
    2: -4.1177134173e-5,
    3: -0.00205330587309,
    4: -0.613414282203,
    5: -1345.44132855,
}
ORACLE_TREE_K4 = 0.10761347907
ORACLE_RESIDUALS = {2: 0.0841, 3: 0.026, 4: 1.65, 5: 1.50, 6: 1.50}
ORACLE_CHORD_HALF = 0.00199442147808  # vertical chord x1 = -1/2, K = 4
# 30-digit left-hand sides of the 1/rho-weighted Green identity
# (tools/oracle_green_forms.py, Form A; its residuals there are <= 2e-29)
ORACLE_WEIGHTED_LHS = {
    2: -0.0796742001872718,
    3: 0.769871812906409,
    4: 962.504402941419,
    5: 7800203.34485957,
    6: 467030487706.094,
}
K_STAR = 4


def log_field(value):
    """(xs, ys) -> (signs, logmags) of a double-valued array function."""
    return lambda xs, ys: float_to_log(value(xs, ys))


def const_field(c):
    return log_field(lambda xs, ys: np.full(np.shape(xs), float(c)))


def neg_u_log_xy(xs, ys):
    s, lm = u_log_xy(xs, ys)
    return -s, lm


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_tree_at_origin_is_fermat_configuration():
    t = build_steiner_tree(0.0)
    assert t.vertex == (0.0, 0.0)
    assert t.a1 == pytest.approx((0.5, math.sqrt(3) / 2), abs=1e-15)
    assert t.a3 == pytest.approx((0.5, -math.sqrt(3) / 2), abs=1e-15)
    for leg in t.legs:
        assert leg.length == pytest.approx(1.0, rel=1e-15)
    assert sum(leg.length for leg in t.legs) == pytest.approx(3.0, rel=1e-15)


def brute_force_ray_circle(A, direction, lo=0.0, hi=3.0, iters=200):
    f = lambda t: math.hypot(A[0] + t * direction[0], A[1] + t * direction[1]) - 1.0
    a, b = lo + 1e-9, hi
    for _ in range(iters):
        m = 0.5 * (a + b)
        if f(a) * f(m) <= 0:
            b = m
        else:
            a = m
    return 0.5 * (a + b)


def test_tree_length_closed_form_vs_root_finder():
    a = 0.5
    t = build_steiner_tree(a)
    expected = (1 - a) + 2 * (a / 2 + math.sqrt(1 - 3 * a * a / 4))
    assert sum(leg.length for leg in t.legs) == pytest.approx(expected,
                                                             rel=1e-12)
    direction = (math.cos(math.pi / 3), math.sin(math.pi / 3))
    t_oracle = brute_force_ray_circle((-a, 0.0), direction)
    assert t.legs[0].length == pytest.approx(t_oracle, abs=1e-10)


@pytest.mark.parametrize("a", [0.0, 0.1, 0.5, 0.9, math.exp(-4)])
def test_pairwise_leg_angles_are_120_degrees(a):
    t = build_steiner_tree(a)
    dirs = []
    for leg in t.legs:
        d = (leg.q[0] - leg.p[0], leg.q[1] - leg.p[1])
        n = math.hypot(*d)
        dirs.append((d[0] / n, d[1] / n))
    for i in range(3):
        j = (i + 1) % 3
        dot = dirs[i][0] * dirs[j][0] + dirs[i][1] * dirs[j][1]
        assert math.acos(max(-1.0, min(1.0, dot))) == pytest.approx(
            2 * math.pi / 3, abs=1e-12)


def test_vertex_outside_disc_rejected():
    with pytest.raises(GeometryError):
        build_steiner_tree(1.0)
    with pytest.raises(GeometryError):
        Segment((0.0, 0.0), (0.0, 0.0))


# ---------------------------------------------------------------------------
# line and tree quadrature
# ---------------------------------------------------------------------------

def test_line_integral_constant():
    seg = Segment((0.2, -0.1), (0.9, 0.4))
    r = line_integral(const_field(1.0), seg, tol=1e-10)
    assert r.value == pytest.approx(seg.length, rel=1e-12)


def test_line_integral_linear_moment():
    seg = Segment((0.0, 0.0), (1.0, 0.0))
    r = line_integral(log_field(lambda x, y: x), seg, tol=1e-10)
    assert r.value == pytest.approx(0.5, rel=1e-12)


def test_line_integral_reversal_invariance():
    leg = moon_tree(3).legs[0]
    a = line_integral(u_log_xy, leg, tol=1e-10).value
    b = line_integral(u_log_xy, Segment(leg.q, leg.p), tol=1e-10).value
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_line_integral_linearity():
    alpha, beta = 2.5, -1.25
    seg = Segment((-0.9, 0.05), (-0.2, 0.6))
    combo = log_field(lambda xs, ys: alpha * u_float(xs, ys) + beta)
    lhs = line_integral(combo, seg, tol=1e-10).value
    rhs = alpha * line_integral(u_log_xy, seg, tol=1e-10).value \
        + beta * line_integral(const_field(1.0), seg, tol=1e-10).value
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_axis_integral_substitution_identity():
    # the 1D substituted form must match direct quadrature along the leg
    for K in (2, 3, 4):
        tree = moon_tree(K)
        direct = line_integral(u_log_xy, tree.legs[1], tol=1e-12)
        subst = aa2_integral_scaled(K, tol=1e-12)
        d, s = direct.value, subst.value
        assert abs(d - s) <= 1e-8 * max(abs(d), abs(s)), K


def test_axis_integral_K1_cancels():
    r = aa2_integral_scaled(1, tol=1e-12)
    assert abs(r.value) <= 1e-10


def test_axis_integral_oracle_values():
    for K in (2, 3, 4, 5):
        r = aa2_integral_scaled(K, tol=1e-12)
        assert r.value == pytest.approx(ORACLE_AA2[K], rel=1e-9), K
        assert r.value < 0.0


def test_axis_integral_rejects_bad_K():
    with pytest.raises(GeometryError):
        aa2_integral_scaled(0, tol=1e-12)


def test_tree_integral_constant_gives_length():
    tree = moon_tree(2)
    r = tree_integral(const_field(1.0), tree, tol=1e-10)
    length = sum(leg.length for leg in tree.legs)
    assert r.value == pytest.approx(length, rel=1e-12)


def test_tree_integral_oracle_value_at_K_star():
    # 50-digit oracle: +0.10761347907 (positive; the sign expectation
    # stated for the construction does not hold, see the acceptance suite)
    r = tree_integral(u_log_xy, moon_tree(K_STAR), tol=1e-10)
    assert r.value == pytest.approx(ORACLE_TREE_K4, rel=1e-8)


def test_tree_integral_antisymmetry_under_field_flip():
    tree = moon_tree(K_STAR)
    a = tree_integral(u_log_xy, tree, tol=1e-10).value
    b = tree_integral(neg_u_log_xy, tree, tol=1e-10).value
    assert b == pytest.approx(-a, rel=1e-9)


# ---------------------------------------------------------------------------
# identity residual and the K scan
# ---------------------------------------------------------------------------

def test_identity_residuals_match_oracle():
    for K, expected in ORACLE_RESIDUALS.items():
        got = green_identity_residual(K, tol=1e-10)
        assert got == pytest.approx(expected, rel=5e-2), K


def test_weighted_identity_matches_oracle():
    for K, expected in ORACLE_WEIGHTED_LHS.items():
        lhs, rhs = weighted_identity_sides(K, tol=1e-10)
        assert lhs == pytest.approx(expected, rel=1e-12), K
        assert rhs == pytest.approx(expected, rel=1e-12), K
        # the bound README cites for the library's weighted residuals
        assert weighted_green_identity_residual(K, tol=1e-10) <= 1e-13, K


def test_identity_fails_for_non_harmonic_field():
    # replacing u by |x|^2 on the left must leave an O(1) discrepancy
    f = log_field(lambda x, y: x * x + y * y)
    tree = moon_tree(2)
    legs = line_integral(f, tree.legs[0], tol=1e-10).value + \
        line_integral(f, tree.legs[2], tol=1e-10).value
    rhs = identity_right_side(2, tol=1e-10)
    assert abs(legs - rhs) / abs(legs) > 0.1


def test_find_min_k():
    assert find_min_k(1, tol=1e-10) is None
    assert find_min_k(10, tol=1e-10) == K_STAR


def test_find_min_k_stable_under_tolerance_halving():
    assert find_min_k(6, tol=1e-10) == find_min_k(6, tol=5e-11)


def test_conditions_monotone_above_K_star():
    # both sign conditions continue to hold up to k_max (oracle-confirmed)
    from nonembed.trees import _identity_rhs
    for K in range(K_STAR, 9):
        aa2 = aa2_integral_scaled(K, tol=1e-12)
        assert certified_negative(aa2.value, aa2.est_error)
        assert certified_negative(*_identity_rhs(K, aa2, 1e-10)), K


@pytest.mark.parametrize("value, est_error, negative", [
    (-1e-300, 0.0, True),
    (-10.0 * 1e-6 * (1.0 - 1e-9), 1e-6, False),
    (-10.0 * 1e-6 * (1.0 + 1e-9), 1e-6, True),
    (1.0, 1e-6, False),
    (0.0, 1e-6, False),
    (-math.inf, 1e300, True),
    (-math.inf, math.inf, False),
    (math.inf, 0.0, False),
])
def test_certified_negative(value, est_error, negative):
    assert certified_negative(value, est_error) == negative


# ---------------------------------------------------------------------------
# chord positivity
# ---------------------------------------------------------------------------

def test_vertical_chord_positive_with_oracle_magnitude():
    tree = moon_tree(K_STAR)
    y = math.sqrt(1 - 0.25)
    seg = Segment((-0.5, y), (-0.5, -y))
    assert check_segment_positivity(seg, tree) == 1
    r = line_integral(u_log_xy, seg, tol=1e-10)
    assert r.value == pytest.approx(ORACLE_CHORD_HALF, rel=1e-8)


def test_near_tangent_chord_reports_positive_near_zero():
    tree = moon_tree(K_STAR)
    th = 2.0
    eps = 5e-4
    seg = Segment((math.cos(th - eps), math.sin(th - eps)),
                  (math.cos(th + eps), math.sin(th + eps)))
    assert check_segment_positivity(seg, tree) == 1
    r = line_integral(u_log_xy, seg, tol=1e-9)
    assert abs(r.value) < 1e-8


def test_segment_exiting_sectors_rejected():
    tree = moon_tree(K_STAR)
    th1 = tree.upper_endpoint_angle
    # chord between points just inside the two slanted legs passes through
    # the excluded wedge around the positive x-axis
    seg = Segment((math.cos(th1 + 0.01), math.sin(th1 + 0.01)),
                  (math.cos(-th1 - 0.01), math.sin(-th1 - 0.01)))
    assert not segment_in_sectors(seg, tree)
    with pytest.raises(GeometryError):
        check_segment_positivity(seg, tree)
    # endpoint off the circle
    with pytest.raises(GeometryError):
        check_segment_positivity(Segment((-0.5, 0.5), (-0.5, -0.5)), tree)
