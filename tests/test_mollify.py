import math
import tracemalloc
import types

import numpy as np
import pytest

from nonembed import bvp, mollify
from nonembed.fields import u_float
from nonembed.trees import tree_integral

K_STAR = 4
DELTA = math.exp(-2.0 * K_STAR) / 2.0
# frozen pipeline value: one tenth of the 50-digit tree-integral oracle
TREE_V_EXPECTED = 0.010761347907


def test_discrete_kernel_has_unit_mass_and_the_mean_value_property():
    """The kernel quadrature's weights are positive and sum to 1 to a few
    ulp, its nodes lie in the delta-disc, and on a harmonic polynomial its
    average is the value at the centre (README: mean-value exactness)."""
    def harmonic(x, y):
        return x * x - y * y + 3.0 * x * y + x

    stub = types.SimpleNamespace(value=harmonic)
    for delta in (1e-3, 0.05, 0.5):
        mg = mollify.MollifiedGlue(stub, delta)
        assert np.all(mg._wgt > 0.0)
        assert abs(np.sum(mg._wgt) - 1.0) <= 4 * np.finfo(float).eps
        assert np.all(np.hypot(mg._dx, mg._dy) < delta)
        x, y = np.array([0.3, -1.2, 0.0]), np.array([-0.2, 0.7, 0.0])
        got = mg.kernel_average(x, y)
        assert np.max(np.abs(got - harmonic(x, y))) <= 1e-14


# ---------------------------------------------------------------------------
# the tail field
# ---------------------------------------------------------------------------

def test_build_tail_rejects_bad_delta(selected4):
    with pytest.raises(mollify.MollifyError):
        mollify.build_tail_v(selected4, math.exp(-2.0 * K_STAR) * 1.5,
                             grid_n=768)
    with pytest.raises(mollify.MollifyError):
        mollify.build_tail_v(selected4, 0.0, grid_n=768)


def _tail_arrays(tail):
    return [tail.field.values, tail.region, tail.u_core_excluded,
            tail.pentagon_band_excluded, tail.stencil_in_disc,
            tail.sign_checked]


def test_tail_rows_in_blocks_equal_one_block(selected4, monkeypatch):
    """The tail grid sampled 7 node rows at a time (513 is no multiple of
    7) has the field, region and masks of one block of all rows, to the
    bit."""
    monkeypatch.setattr(bvp, "ROWS", 513)
    whole = _tail_arrays(mollify.build_tail_v(selected4, DELTA, grid_n=512))
    monkeypatch.setattr(bvp, "ROWS", 7)
    blocked = _tail_arrays(mollify.build_tail_v(selected4, DELTA, grid_n=512))
    for a, b in zip(whole, blocked):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_kernel_average_in_blocks_equals_one_block(selected4, monkeypatch):
    """The kernel quadrature, taken KERNEL_POINTS points at a time, has
    the bits of one block of all points."""
    moll = mollify.MollifiedGlue(selected4.glue, DELTA)
    t = np.linspace(0.1, 6.2, 40)
    x, y = 1.0005 * np.cos(t), 1.0005 * np.sin(t)
    monkeypatch.setattr(mollify, "KERNEL_POINTS", 1 << 20)
    whole = moll.kernel_average(x, y)
    for points in (mollify.KERNEL_POINTS, 8, 3):
        monkeypatch.setattr(mollify, "KERNEL_POINTS", points)
        assert moll.kernel_average(x, y).tobytes() == whole.tobytes()


def test_traced_peak_of_the_tail_sampling(selected4):
    """tracemalloc peak of sampling the default tail, in MiB, with the
    glued field built: measured 5.4 with bvp.ROWS node rows at a time,
    against 22.4 when the whole grid's coordinates, pulled-back points
    and interface distances were made at once."""
    selected4.glue
    tracemalloc.start()
    try:
        mollify.build_tail_v(selected4, DELTA, grid_n=512)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert 4.5 < peak <= 6.5


def test_tail_support(tail4):
    f = tail4.field
    X, Y = f.grid.nodes_xy()
    outside = (X**2 + Y**2 > 1.0) & (X < 0.9)
    assert np.max(np.abs(f.values[outside])) == 0.0


def test_tail_equals_slit_field_in_moon_image(tail4):
    # v(x) = u(10(x - C0)) away from the glue interfaces
    for (yx, yy) in ((-0.5, 0.2), (-0.3, -0.6), (0.2, 0.8)):
        x = (-0.8 + yx / 10.0, yy / 10.0)
        assert tail4.value(*x) == pytest.approx(u_float(yx, yy), rel=1e-12)


def test_mean_value_property_of_kernel_quadrature(tail4):
    # the kernel quadrature at clear points must reproduce the harmonic
    # field value (radial unit-mass average)
    mg = tail4.mollified
    for (yx, yy) in ((-0.5, 0.2), (-0.2, -0.55)):
        exact = u_float(yx, yy)
        quadv = mg.kernel_average(np.array([yx]), np.array([yy]))[0]
        assert quadv == pytest.approx(exact, rel=1e-10)


def test_batched_kernel_average_equals_the_per_point_dot(tail4, selected4):
    # one glue evaluation on every kernel node, then one dot per row: each
    # row has the bits of np.dot over that point's kernel nodes alone
    mg = tail4.mollified
    poly, geom = mg.glue.poly, selected4.geom
    d = 0.5 * mg.delta
    pts = []
    for k in (geom.LEG_UP, geom.TOP):
        (nx, ny), edge = poly.inward_normal(k), poly.edge(k)
        for t in (0.3, 0.6):
            px, py = (float(c) for c in edge.at(t))
            pts += [(px + d * nx, py + d * ny), (px - d * nx, py - d * ny)]
    pts += [((1.0 + s) * math.cos(a), (1.0 + s) * math.sin(a))
            for a in (2.0, 3.5) for s in (d, -d)]
    x, y = np.array(pts).T
    assert np.all(mg.glue.interface_distance(x, y) < mg.delta)
    per_point = [float(np.dot(mg._wgt, mg.glue.value(a + mg._dx, b + mg._dy)))
                 for a, b in pts]
    assert mg.kernel_average(x, y).tolist() == per_point


def test_tail_not_identically_zero_on_tree(tail4):
    tree = mollify.tail_tree(K_STAR)
    # near the vertex the axis leg's image is inside the unit disc (the
    # far half maps beyond it, where the tail vanishes)
    near = tree.legs[1].at(0.1)
    assert tail4.value(float(near[0]), float(near[1])) != 0.0
    far = tree.legs[1].at(0.9)
    assert tail4.value(float(far[0]), float(far[1])) == 0.0


def test_tail_tree_geometry():
    tree = mollify.tail_tree(K_STAR)
    assert tree.vertex == pytest.approx(
        (-math.exp(-K_STAR) / 10.0 - 0.8, 0.0))
    assert tree.a2 == (-1.0, 0.0)
    for p in (tree.a1, tree.a3):
        assert math.hypot(*p) == pytest.approx(1.0, abs=1e-12)
    # the tree stays left of x1 = -0.1
    for leg in tree.legs:
        xs, _ = leg.at(np.linspace(0, 1, 50))
        assert np.max(xs) < -0.1


def test_tail_tree_integral_frozen_value(tail4):
    tree = mollify.tail_tree(K_STAR)
    res = tree_integral(tail4.log_value, tree, tol=1e-9)
    assert res.value == pytest.approx(TREE_V_EXPECTED, rel=1e-6)


def test_tail_subharmonic_certificates(ctx):
    rep = ctx.subharmonic
    assert rep["passes"], rep
    assert rep["grid_pass"]
    assert rep["moon_certified"]
    assert rep["pentagon_certified"]
    assert rep["edges_certified"]
    assert rep["min_defect"] >= rep["tolerance"]
    assert rep["n_excluded_oscillation"] < 500


def test_subharmonic_defect_stabilizes_under_refinement(selected4):
    vals = []
    for n in (256, 512):
        tail = mollify.build_tail_v(selected4, DELTA, grid_n=n)
        rep = mollify.tail_subharmonic_report(tail, selected4)
        assert rep["grid_pass"], (n, rep["min_defect"], rep["tolerance"])
        vals.append(rep["min_defect"])
    # residual consistency noise shrinks under refinement
    assert abs(vals[1]) <= abs(vals[0]) + 1e-15


def test_select_tail_delta_reports_failure(selected4):
    # the tree integral of the tail field is positive (its sign follows
    # the slit-field tree integral, which the 50-digit oracle pins
    # positive), so no delta in any admissible schedule qualifies
    sel = mollify.select_tail_delta(selected4, schedule=[DELTA, DELTA / 2],
                                    tol=1e-10)
    assert not sel.succeeded
    assert sel.delta is None
    assert len(sel.history) == 2
    for (_, val, err) in sel.history:
        assert val > 0.0


def test_select_tail_delta_scan_convergence(selected4):
    # the delta-dependence enters only through the mollified zones at the
    # circle crossings: successive tree integrals differ by o(delta)
    sel = mollify.select_tail_delta(
        selected4, schedule=[DELTA, DELTA / 2, DELTA / 4], tol=1e-10)
    vals = [v for (_, v, _) in sel.history]
    assert abs(vals[1] - vals[0]) < 1e-5
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12


def test_select_tail_delta_history_equals_sampled_tail_integrals(selected4):
    # the scan integrates v without sampling a grid; a tail built per
    # radius, at any grid size, gives the same tree integrals bit for bit
    schedule = [DELTA, DELTA / 2]
    sel = mollify.select_tail_delta(selected4, schedule=schedule, tol=1e-10)
    tree = mollify.tail_tree(K_STAR)
    ref = []
    for d in schedule:
        tail = mollify.build_tail_v(selected4, d, grid_n=128)
        res = tree_integral(tail.log_value, tree, tol=1e-10)
        ref.append((d, res.value, res.est_error))
    assert sel.history == ref


def test_select_tail_delta_validates_schedule(selected4):
    with pytest.raises(mollify.MollifyError):
        mollify.select_tail_delta(selected4, schedule=[1.0], tol=1e-10)
