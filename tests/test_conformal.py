import math

import numpy as np
import pytest

from nonembed import bvp, conformal, mollify
from nonembed.quadrature import float_to_log
from nonembed.trees import Segment, build_steiner_tree

from curvature_ref import curvature_error_vs_constant, hyperbolic_disc_factor
from gridsolve import solve_laplace_dirichlet

K_STAR = 4
# float64 oracle values for the hyperbolic-disc factor (max |K+1| over
# interior nodes of r < 0.95); clean O(h^2), ratios ~0.29
HYPERBOLIC_ERR = {128: 8.5759236e-3, 256: 2.4801491e-3, 512: 6.6871613e-4}


def test_constant_factor_flat():
    n = 48
    g = bvp.box_grid((0.0, 0.0), 1.0, n)
    f = bvp.ScalarField(grid=g, values=np.full(g.shape, 1.7))
    K = conformal.gaussian_curvature(f)
    assert np.max(np.abs(K.values[K.grid.mask == bvp.INTERIOR])) == 0.0


def test_discrete_harmonic_factor_gives_zero_curvature():
    g = bvp.box_grid((0.0, 0.0), 1.0, 48)
    X, Y = g.nodes_xy()
    f = solve_laplace_dirichlet(
        g, np.where(g.mask == bvp.BOUNDARY, X * Y + 0.3 * X, 0.0), tol=1e-13)
    K = conformal.gaussian_curvature(f)
    inner = K.grid.mask == bvp.INTERIOR
    # 5-point Laplacian of the solved field is the solver residual
    assert np.max(np.abs(K.values[inner])) < 1e-9


def test_hyperbolic_disc_curvature_frozen_values():
    for n, expected in ((128, HYPERBOLIC_ERR[128]), (256, HYPERBOLIC_ERR[256])):
        K = conformal.gaussian_curvature(hyperbolic_disc_factor(h=1.0 / n))
        err = curvature_error_vs_constant(K, -1.0)
        assert err == pytest.approx(expected, rel=1e-3), n


def test_hyperbolic_disc_curvature_second_order():
    errs = []
    for n in (128, 256, 512):
        K = conformal.gaussian_curvature(hyperbolic_disc_factor(h=1.0 / n))
        errs.append(curvature_error_vs_constant(K, -1.0))
    assert errs[1] <= 0.35 * errs[0]
    assert errs[2] <= 0.35 * errs[1]


def test_curve_length_flat_and_constant():
    tree = build_steiner_tree(0.3)
    L0 = conformal.curve_length(lambda x, y: np.zeros(np.shape(x)), tree)
    assert L0 == pytest.approx(sum(leg.length for leg in tree.legs),
                               rel=1e-12)
    c = -0.85
    Lc = conformal.curve_length(lambda x, y: np.full(np.shape(x), c), tree)
    assert Lc / L0 == pytest.approx(math.exp(c), rel=1e-12)


def test_conformal_scaling_laws():
    # phi -> phi + c multiplies lengths by e^c and curvatures by e^{-2c}
    n = 64
    g = bvp.box_grid((0.0, 0.0), 1.0, n)
    X, Y = g.nodes_xy()
    phi = np.sin(X) * np.cos(Y)
    c = 0.4
    f1 = bvp.ScalarField(grid=g, values=phi)
    f2 = bvp.ScalarField(grid=g, values=phi + c)
    seg = Segment((-0.5, -0.2), (0.6, 0.4))
    L1 = conformal.curve_length(f1.interp, seg)
    L2 = conformal.curve_length(f2.interp, seg)
    assert L2 / L1 == pytest.approx(math.exp(c), rel=1e-13)
    K1 = conformal.gaussian_curvature(f1)
    K2 = conformal.gaussian_curvature(f2)
    inner = K1.grid.mask == bvp.INTERIOR
    target = K1.values[inner] * math.exp(-2 * c)
    scale = np.max(np.abs(K1.values[inner]))
    assert np.allclose(K2.values[inner], target, rtol=1e-10,
                       atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# the tail-metric family
# ---------------------------------------------------------------------------

class FieldOf:
    """Stand-in for the tail field with value fn(x, y), for the functions
    that read only a tail's value and log_value."""

    def __init__(self, fn):
        self.value = fn

    def log_value(self, xs, ys):
        return float_to_log(self.value(xs, ys))


def test_length_derivative_check_values(tail4):
    """Both values are returned; their agreement fails at the stated step
    because step * max|v| ~ 11 on the tree exits the linear regime of
    e^{delta v} (the tree's third moment of v is ~1.6e13 times its first).
    The matching identity itself is validated on a scaled tail where the
    step is inside the linear regime."""
    tree = mollify.tail_tree(K_STAR)
    lhs, rhs = conformal.length_derivative_check(tail4, tree, step=1e-4)
    assert rhs == pytest.approx(0.010761347907, rel=1e-6)
    assert abs(lhs - rhs) > abs(rhs)  # nonlinearity dominates at 1e-4

    # scaled-down field: the same check passes in the linear regime
    small = FieldOf(lambda x, y: 1e-5 * np.asarray(tail4.value(x, y)))
    lhs_s, rhs_s = conformal.length_derivative_check(small, tree,
                                                     step=1e-4)
    # at this scaling step * max|v| ~ 1.1e-4, inside the linear regime
    assert lhs_s == pytest.approx(rhs_s, rel=2e-4)


def test_length_derivative_identity_on_bounded_field():
    # the first-order identity at the stated step and tolerance, on a
    # smooth bounded synthetic field (third moment comparable to first)
    tree = mollify.tail_tree(K_STAR)

    def bump(x, y):
        X = np.asarray(x, dtype=float)
        Y = np.asarray(y, dtype=float)
        return np.sin(3 * X) * np.exp(-((X + 0.8) ** 2 + Y**2))

    lhs, rhs = conformal.length_derivative_check(FieldOf(bump), tree,
                                                 step=1e-4)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_length_derivative_sign_flip(tail4):
    tree = mollify.tail_tree(K_STAR)

    neg = FieldOf(lambda x, y: -np.asarray(tail4.value(x, y)) * 1e-5)
    lhs, rhs = conformal.length_derivative_check(neg, tree, step=1e-4)
    assert rhs < 0.0 and lhs < 0.0  # both flip with the field


def test_find_delta0_reports_failure_for_this_tail(tail4):
    # the tree integral of the tail is positive, so no amplitude shortens
    # the tree; the scan reports the documented failure value 0
    tree = mollify.tail_tree(K_STAR)
    scan = conformal.find_delta0(tail4, tree, n_scan=10)
    assert not scan.succeeded
    assert scan.delta0 == 0.0
    d0, L0, Lf, shortens = scan.history[0]
    assert L0 > Lf and not shortens


def test_find_delta0_succeeds_for_negative_field(tail4, monkeypatch):
    # flipping the field sign makes the derivative negative: a positive
    # threshold must be found, and half of it strictly shortens
    tree = mollify.tail_tree(K_STAR)

    neg = FieldOf(lambda x, y: -np.asarray(tail4.value(x, y)))
    # amplitudes must sit below the second-order crossover
    # 2|int v| / int v^2 ~ 3e-9 for this field
    monkeypatch.setattr(conformal, "DELTA_MAX", 1e-9)
    scan = conformal.find_delta0(neg, tree, n_scan=5)
    assert scan.succeeded and scan.delta0 > 0.0
    d = scan.delta0 / 2
    L_half = conformal.curve_length(
        lambda x, y: d * np.asarray(neg.value(x, y)), tree)
    L0 = conformal.curve_length(lambda x, y: np.zeros(np.shape(x)), tree)
    assert L_half < L0


def test_find_delta0_fails_for_nonnegative_field(tail4):
    # a nonnegative factor can never shorten anything
    tree = mollify.tail_tree(K_STAR)

    nonneg = FieldOf(lambda x, y: np.abs(np.asarray(tail4.value(x, y))))
    scan = conformal.find_delta0(nonneg, tree, n_scan=6)
    assert not scan.succeeded


def test_tail_curvature_sign_certificate(ctx, tail4):
    rep = conformal.tail_curvature_report(tail4, delta=1e-6)
    assert rep["curvature_sign_pass"]
    assert ctx.subharmonic["passes"]
    # no positive curvature on the grid-visible set at all
    assert rep["max_positive_logK"] == -math.inf
