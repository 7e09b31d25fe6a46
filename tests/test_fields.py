import math

import numpy as np
import pytest

from nonembed.fields import (FieldDomainError, eval_angle_field,
                             laplacian_residual, radial_derivative_u,
                             u_float, u_gradient_xy, u_log_polar)

# oracle (50-digit): u(e^{-1/4}, pi/2) = e^{1/16 - pi^2/4} / sqrt(2)
U_AT_QUARTER = 0.063833656871950011293

# the tree of vertex offset 0.1: vertex A, upper endpoint A1, lower A3
_T1 = 0.05 + math.sqrt(1 - 0.75 * 0.01)
A = (-0.1, 0.0)
A1 = (A[0] + _T1 * 0.5, A[1] + _T1 * math.sqrt(3) / 2)
A3 = (A[0] + _T1 * 0.5, A[1] - _T1 * math.sqrt(3) / 2)


def test_u_vanishes_on_unit_circle():
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 37)
    signs, logmags = u_log_polar(np.ones_like(thetas), thetas)
    assert np.all(signs == 0)
    assert np.all(logmags == -np.inf)


def test_u_vanishes_at_integer_vertex():
    # u(e^{-K}, pi) = 0 exactly; in floats the phase residue K*eps is
    # amplified by the local envelope e^{K^2 - pi^2}
    Ks = np.array([1.0, 2.0, 4.0, 7.0])
    v = u_float(-np.exp(-Ks), np.zeros_like(Ks))
    envelope = np.exp(Ks * Ks - math.pi**2)
    assert np.all(np.abs(v) < envelope * 1e-12)


def test_u_frozen_value():
    assert u_float(0.0, math.exp(-0.25)) == pytest.approx(U_AT_QUARTER,
                                                          rel=1e-14)


def test_u_rejects_out_of_domain():
    for r, theta in ((-1.0, 1.0), (1.0, 0.0), (1.0, 2 * math.pi)):
        with pytest.raises(FieldDomainError):
            u_log_polar(np.array([1.0, r]), np.array([1.0, theta]))
    # one slit point or the origin in an array of good points
    good_x, good_y = [-0.5, 0.2, -0.3], [0.4, -0.7, 0.0]
    for bad in ((0.3, 0.0), (0.0, 0.0), (1e-300, 0.0)):
        xs, ys = np.array(good_x + [bad[0]]), np.array(good_y + [bad[1]])
        with pytest.raises(FieldDomainError):
            u_float(xs, ys)
        with pytest.raises(FieldDomainError):
            u_gradient_xy(xs, ys)
    # the negative axis is fine
    assert np.all(np.isfinite(u_float(np.array(good_x), np.array(good_y))))
    # the vertex in an array of points of the angle field
    with pytest.raises(FieldDomainError):
        eval_angle_field(A, A1, np.array([-1.0, A[0], 0.5]),
                         np.array([0.0, A[1], 0.5]))
    with pytest.raises(FieldDomainError):
        radial_derivative_u(np.array([1.0, 0.0]))


def test_array_evaluators_batch_independent():
    # an array gives the bits of each element evaluated alone, as a
    # one-element array or as 0-d input
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 1.5, 400)
    th = rng.uniform(0.01, 2 * math.pi - 0.01, 400)
    xs, ys = r * np.cos(th), r * np.sin(th)
    batch = {
        "u": (u_float(xs, ys),),
        "grad": u_gradient_xy(xs, ys),
        "angle": (eval_angle_field(A, A1, xs, ys),),
    }
    for i in range(len(xs)):
        for x, y in ((xs[i:i + 1], ys[i:i + 1]), (xs[i], ys[i])):
            alone = {
                "u": (u_float(x, y),),
                "grad": u_gradient_xy(x, y),
                "angle": (eval_angle_field(A, A1, x, y),),
            }
            for name, parts in alone.items():
                for got, ref in zip(parts, batch[name]):
                    assert np.shape(got) == np.shape(x), name
                    assert np.ravel(got)[0].tobytes() == ref[i].tobytes(), \
                        (name, i)


def test_u_log_polar_handles_extreme_magnitudes():
    # r = e^{-30}: magnitude e^{900 - theta^2}, far beyond double range
    signs, logmags = u_log_polar(np.array([math.exp(-30.0)]), np.array([1.0]))
    assert signs[0] in (-1, 1)
    assert logmags[0] > 800.0
    # as doubles the same point saturates to +-inf
    v = u_float(math.exp(-30.0) * math.cos(1.0), math.exp(-30.0) * math.sin(1.0))
    assert v == signs[0] * math.inf


def test_radial_derivative_closed_form_and_sign():
    assert radial_derivative_u(math.pi) == pytest.approx(
        -2 * math.pi * math.exp(-math.pi**2), rel=1e-15)
    thetas = np.linspace(1e-3, 2 * math.pi - 1e-3, 101)
    assert np.all(radial_derivative_u(thetas) < 0.0)
    # theta -> 0+: vanishes from below
    assert -1e-8 < radial_derivative_u(1e-9) < 0.0
    with pytest.raises(FieldDomainError):
        radial_derivative_u(0.0)


def test_radial_derivative_matches_finite_difference():
    h = 1e-4  # relative step at r=1
    th = np.linspace(0.3, 5.9, 29)
    x0, y0 = np.cos(th), np.sin(th)
    # second-order one-sided estimate at r=1 (u(1,theta) = 0 exactly)
    f1 = u_float((1 - h) * x0, (1 - h) * y0)
    f2 = u_float((1 - 2 * h) * x0, (1 - 2 * h) * y0)
    d = (3 * 0.0 - 4 * f1 + f2) / (2 * h)
    np.testing.assert_allclose(d, radial_derivative_u(th), rtol=1e-6)


def test_gradient_matches_centered_differences():
    rng = np.random.default_rng(11)
    r, th = rng.uniform([0.25, 0.2], [0.95, 2 * math.pi - 0.2], (25, 2)).T
    x, y = r * np.cos(th), r * np.sin(th)
    h = 1e-5 * r
    gx = (u_float(x + h, y) - u_float(x - h, y)) / (2 * h)
    gy = (u_float(x, y + h) - u_float(x, y - h)) / (2 * h)
    ax, ay = u_gradient_xy(x, y)
    scale = np.maximum(np.maximum(np.abs(ax), np.abs(ay)), 1e-12)
    assert np.all(np.abs(gx - ax) / scale < 1e-6)
    assert np.all(np.abs(gy - ay) / scale < 1e-6)


def test_laplacian_residual_linear_exact():
    def f(x, y):
        return 2.0 * x - 3.0 * y + 1.0
    assert abs(laplacian_residual(f, 0.4, -0.2, 1e-3)) < 1e-9


def test_laplacian_residual_quadratic():
    def f(x, y):
        return x * x + y * y
    assert laplacian_residual(f, 0.3, 0.7, 1e-3) == pytest.approx(4.0, abs=1e-8)


def test_laplacian_residual_second_order_on_u():
    p = (0.5 * math.cos(math.pi), 0.5 * math.sin(math.pi))
    r1 = laplacian_residual(u_float, *p, 1e-2)
    r2 = laplacian_residual(u_float, *p, 5e-3)
    assert 3.5 <= abs(r1 / r2) <= 4.5


def test_laplacian_residual_stencil_domain_check():
    # the lower stencil point (0.5, 0) lies on the slit
    with pytest.raises(FieldDomainError):
        laplacian_residual(u_float, 0.5, 1e-3, 1e-3)


def test_laplacian_residual_on_arrays_equals_the_per_point_stencil():
    rng = np.random.default_rng(3)
    r, th = rng.uniform([0.2, 1.2], [0.9, 5.0], (30, 2)).T
    x, y, h = r * np.cos(th), r * np.sin(th), 1e-3 * r
    per_point = []
    for xi, yi, hi in zip(x.tolist(), y.tolist(), h.tolist()):
        c, e, w, n, s = u_float(np.array([xi, xi + hi, xi - hi, xi, xi]),
                                np.array([yi, yi, yi, yi + hi, yi - hi]))
        per_point.append(float((e + w + n + s - 4.0 * c) / (hi * hi)))
    assert laplacian_residual(u_float, x, y, h).tolist() == per_point


def test_angle_field_reference_values():
    on_ray = (A[0] + 0.3 * 0.5, A[1] + 0.3 * math.sqrt(3) / 2)
    xs, ys = np.array([on_ray, (-1.0, 0.0), A3]).T
    phi = eval_angle_field(A, A1, xs, ys)
    assert phi[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(phi[1:], [2 * math.pi / 3, 4 * math.pi / 3],
                               rtol=1e-12)
    with pytest.raises(FieldDomainError):
        eval_angle_field(A, A1, *A)
