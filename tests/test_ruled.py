import json
import math
from pathlib import Path

import numpy as np
import pytest

from nonembed import cli, ruled

TAU = 0.5
ORACLE_RULED_HESSIAN = (Path(__file__).resolve().parents[1] / "tools"
                        / "oracle_ruled_hessian.json")


@pytest.fixture(scope="module")
def cyl():
    return ruled.cylinder(TAU)


def plane(n=41):
    """The plane z = 0 over n levels s in [-1, 1], ruled along the x-axis."""
    return ruled.RuledSurface(
        s=np.linspace(-1, 1, n),
        c=np.stack([np.full(n, 2.0), np.linspace(-1, 1, n), np.zeros(n)],
                   axis=-1),
        d=np.tile(np.array([1.0, 0.0, 0.0]), (n, 1)), t_range=(-1.0, 2.0))


# ---------------------------------------------------------------------------
# trig polynomials
# ---------------------------------------------------------------------------

def test_trig_poly_equals_per_mode_sum():
    tp = ruled.TrigPoly.random(np.random.default_rng(3), 4, 0.7, 0.5)
    s = np.linspace(-2.5, 2.5, 101).reshape(1, 101)
    for order in range(5):
        ref = np.zeros(s.shape)
        for k in range(1, 5):
            a = k * tp.omega
            ck, sk = tp.cos_coef[k - 1], tp.sin_coef[k - 1]
            term = [ck * np.cos(a * s) + sk * np.sin(a * s),
                    -ck * np.sin(a * s) + sk * np.cos(a * s),
                    -ck * np.cos(a * s) - sk * np.sin(a * s),
                    ck * np.sin(a * s) - sk * np.cos(a * s)][order % 4]
            ref = ref + a**order * term
        assert np.array_equal(tp(s, order), ref), order
    assert np.shape(tp(0.3)) == ()


def test_trig_poly_multi_order_equals_single_orders():
    tp = ruled.TrigPoly.random(np.random.default_rng(5), 3, 1.3, 0.8)
    s = np.linspace(-3.0, 3.0, 77).reshape(7, 11)
    orders = (1, 2, 0, 3, 4, 5, 6)
    multi = tp(s, *orders)
    assert len(multi) == len(orders)
    for order, value in zip(orders, multi):
        assert np.array_equal(value, tp(s, order)), order


# ---------------------------------------------------------------------------
# the generated surface
# ---------------------------------------------------------------------------

def test_s_of_batch_equals_single_points():
    # each point's Newton stops on its own step, so a point's value does
    # not depend on the points batched with it
    g = ruled.generate_surface(TAU, 0.05, seed=cli.RunConfig().seed)
    rng = np.random.default_rng(8)
    x1 = rng.uniform(0.0, 2.0, 200)
    x2 = rng.uniform(-2.0, 2.0, 200)
    batch = g.s_of(x1, x2)
    assert batch.shape == (200,)
    for k in range(200):
        assert np.array_equal(batch[k], g.s_of(x1[k], x2[k])), k


def test_hessian_matches_the_40_digit_oracle():
    # the default surface, rebuilt from its recorded parameters, against
    # mpmath's Newton and mp.diff (tools/oracle_ruled_hessian.py)
    data = json.loads(ORACLE_RULED_HESSIAN.read_text())
    sf = data["surface"]

    def poly(p):
        return ruled.TrigPoly(omega=p["omega"], cos_coef=np.array(p["cos"]),
                              sin_coef=np.array(p["sin"]))

    g = ruled.GeneratedSurface(tau=sf["tau"], eps=sf["eps"], nu=poly(sf["nu"]),
                               bq=poly(sf["bq"]), s_max=sf["s_max"])
    pts = data["points"]
    H = np.array(g.hessian_f(np.array([p["x1"] for p in pts]),
                             np.array([p["x2"] for p in pts])))
    ref = np.array([[float(p[k]) for p in pts] for k in ("f11", "f12", "f22")])
    assert len(pts) >= 12
    assert np.all(np.abs(H - ref) <= 1e-14 * np.abs(ref[2]))


def test_folded_surface_rejected():
    # at this amplitude the rulings of the first pass fold over the strip
    with pytest.raises(ruled.RuledError, match="fold"):
        ruled.generate_surface(TAU, 1.0, seed=42)


@pytest.mark.parametrize("eps", [0.331, 0.335, 0.336, 0.345])
def test_bracketed_newton_inverts_rulings_that_do_not_fold(eps):
    """At seed 42 these amplitudes give graphs (no pass folds), but plain
    Newton from s = -tau x2 left the rulings' s-range and did not
    converge; with a bracket each point converges."""
    g = ruled.generate_surface(TAU, eps, seed=42)
    g.check_graph()
    assert math.isfinite(g.measured_eps())


def test_fold_that_newton_survives_rejected():
    """At amplitude 0.28 the default seed's rulings fold over the strip
    (dx2/ds > 0 near x1 = 2), yet Newton for s(x1, x2) converges at every
    point `measured_eps` reads, which measures 9.4 there; the scan of
    dx2/ds catches the fold in the first secant pass.  Just below 0.25041
    no pass folds."""
    g = ruled.generate_surface(TAU, 0.25, seed=20260809)
    folded = ruled.GeneratedSurface(tau=TAU, eps=0.28, nu=g.nu, bq=g.bq,
                                    s_max=g.s_max)
    assert folded.measured_eps() > 9.0
    with pytest.raises(ruled.RuledError, match="fold"):
        folded.check_graph()
    with pytest.raises(ruled.RuledError, match="fold"):
        ruled.generate_surface(TAU, 0.28, seed=20260809)
    ruled.generate_surface(TAU, 0.2504, seed=20260809).check_graph()


# ---------------------------------------------------------------------------
# chart and recovery
# ---------------------------------------------------------------------------

def test_cylinder_chart_levels_vertical(cyl):
    chart = ruled.legendre_coords(ruled.graph_of(cyl))
    pts = chart["points"]
    # level sets are vertical lines x2 = const = -s/tau
    for i, s in enumerate(chart["levels"]):
        assert np.allclose(pts[i, :, 1], -s / TAU, atol=1e-9)
    assert np.max(chart["straightness"]) < 1e-10


def test_cylinder_round_trip_exact(cyl):
    surf, diag = ruled.extract_rulings(ruled.graph_of(cyl))
    assert np.max(np.abs(surf.d - np.array([1.0, 0.0, 0.0]))) < 1e-10
    s = surf.s
    c_exact = np.stack([np.full_like(s, 2.0), -s / TAU, -s * s / (2 * TAU)],
                       axis=-1)
    assert np.max(np.abs(surf.c - c_exact)) < 1e-10
    assert np.max(diag["df1_spread"]) < 1e-10


def test_generated_round_trip(gen_surface):
    surf, diag = ruled.extract_rulings(ruled.graph_of(gen_surface))
    assert np.max(chartmax := diag["straightness"]) <= 1e-8
    c, d = gen_surface.rulings(surf.s)
    c_err = np.max(np.abs(surf.c - c))
    d_err = np.max(np.abs(surf.d - d))
    assert c_err < 1e-6 and d_err < 1e-6
    assert np.max(diag["df1_spread"]) <= 1e-8


def test_non_flat_graph_rejected():
    f = ruled.FlatGraph(value=lambda x, y: np.asarray(x) * np.asarray(y),
                        tau=1.0)
    with pytest.raises(ruled.RuledError):
        ruled.legendre_coords(f)


def test_degenerate_chart_rejected():
    # f22 ~ 0: the Legendre chart cannot be built
    f = ruled.FlatGraph(value=lambda x, y: np.asarray(x) * 0.0, tau=0.5)
    with pytest.raises(ruled.RuledError):
        ruled.legendre_coords(f)


# ---------------------------------------------------------------------------
# curvature form and concavity
# ---------------------------------------------------------------------------

def test_cylinder_curvature_form(cyl):
    forms = ruled.curvature_forms(cyl.sample(n=257), 1.5)
    assert np.all(np.isnan(forms["q"][[0, 1, -2, -1]]))
    assert np.allclose(forms["q"][2:-2], -1.0 / TAU**2, rtol=1e-9, atol=0.0)
    # d is constant along the cylinder, so the stencil's d' is exactly 0,
    # and the Gaussian curvature det II = -II_ts^2 of a ruled graph is 0
    assert np.all(forms["II_ts"][2:-2] == 0.0)
    assert np.all(forms["II_ss"][2:-2] < 0.0)


def test_ruling_tables_equal_per_ruling_reference(extended):
    # one ruling at a time: window sums of the five-point stencil, then
    # the normal d x h_s and the curvature form as 3-vector dot products
    ds = extended.s[1] - extended.s[0]

    def deriv(arr, i, order):
        w = ruled._FIVE_POINT if order == 1 else ruled._FIVE_POINT_2
        return (w[:, None] * arr[i - 2:i + 3]).sum(axis=0) / ds**order

    for t in (-1.0, 1.5, 2.0):
        for i in (2, 30, 128, 254):
            dp = deriv(extended.d, i, 1)
            hs = deriv(extended.c, i, 1) + (t - 2.0) * dp
            hss = deriv(extended.c, i, 2) + (t - 2.0) * deriv(extended.d, i, 2)
            n = np.cross(extended.d[i], hs)
            sign = -1.0 if n[2] < 0 else 1.0
            forms = ruled.curvature_forms(extended, t)
            norm = np.linalg.norm(n)
            assert forms["q"][i] == sign * np.dot(hss, n)
            assert forms["II_ts"][i] == sign * np.dot(dp, n) / norm
            assert forms["II_ss"][i] == sign * np.dot(hss, n) / norm
            # kappa raises det I to the power 1.5 on the array, which may
            # round differently from the scalar pow by an ulp or two
            ht = extended.d[i]
            det_I = np.dot(ht, ht) * np.dot(hs, hs) - np.dot(ht, hs) ** 2
            kappa = sign * np.dot(hss, n) * np.dot(ht, ht) / det_I**1.5
            assert forms["kappa"][i] == pytest.approx(
                kappa, rel=4 * np.finfo(float).eps)
            if t == 2.0:
                assert np.array_equal(extended.normals[i],
                                      sign * n / np.linalg.norm(n))


def test_cylinder_principal_curvature_exact(cyl):
    samp = cyl.sample(n=257)
    expected = -TAU / (1.0 + samp.s[2:-2] ** 2) ** 1.5
    for t in (0.0, 1.0, 2.0):
        kappa = ruled.curvature_forms(samp, t)["kappa"]
        assert np.allclose(kappa[2:-2], expected, rtol=1e-8, atol=0.0)


def test_plane_has_zero_form():
    forms = ruled.curvature_forms(plane(), 1.0)
    for name in ("q", "II_ts", "II_ss", "kappa"):
        assert np.max(np.abs(forms[name][2:-2])) < 1e-12, name


def test_cylinder_concavity_coefficients(cyl):
    samp = cyl.sample(n=257)
    cc = ruled.concavity_check(samp)
    assert cc["verdict"]
    assert np.allclose(cc["a0"], -1.0 / TAU**2, rtol=1e-6)
    assert np.max(np.abs(cc["a1"])) < 1e-6
    assert np.max(np.abs(cc["a2"])) < 1e-6


def test_quadratic_fit_exact_on_polynomial_data():
    # build a surface whose curvature form is a known quadratic in t by
    # fitting the fit itself on synthetic values
    samp = ruled.cylinder(TAU).sample(n=257)
    i = 100
    q = [ruled.curvature_forms(samp, t)["q"][i] for t in (1.0, 1.5, 2.0)]
    # three-point reconstruction reproduces the sampled values exactly
    a2 = (q[0] - 2 * q[1] + q[2]) / (2 * 0.25)
    a1 = (q[2] - q[0]) / 1.0 - a2 * 3.0
    a0 = q[1] - a1 * 1.5 - a2 * 2.25
    for t, qq in zip((1.0, 1.5, 2.0), q):
        assert a0 + a1 * t + a2 * t * t == pytest.approx(qq, abs=1e-12)


def test_concavity_eps_family_trend():
    devs = []
    for eps in (0.1, 0.05, 0.025):
        g = ruled.generate_surface(TAU, eps, seed=42)
        samp = ruled.extend_ruled(g.sample(n=257))
        cc = ruled.concavity_check(samp)
        assert cc["verdict"], eps
        dev = max(
            float(np.max(np.abs(cc["a0"] + 1.0 / TAU**2))),
            float(np.max(np.abs(cc["a1"]))),
            float(np.max(np.abs(cc["a2"]))),
        )
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]


def test_convex_case_fails_verdict(cyl):
    samp = cyl.sample(n=257)
    flipped = ruled.RuledSurface(s=samp.s,
                                 c=samp.c * np.array([1.0, 1.0, -1.0]),
                                 d=samp.d * np.array([1.0, 1.0, -1.0]))
    cc = ruled.concavity_check(flipped)
    assert not cc["verdict"]


def test_near_cylinder_kappa_within_20_percent():
    g = ruled.generate_surface(TAU, 0.025, seed=11)
    samp = ruled.extend_ruled(g.sample(n=257))
    rows = [60, 128, 190]
    target = -TAU / (1.0 + samp.s[rows] ** 2) ** 1.5
    for t in (0.0, 1.0, 2.0):
        k = ruled.curvature_forms(samp, t)["kappa"][rows]
        assert np.all(np.abs(k - target) <= 0.2 * np.abs(target)), t


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_cylinder_extension_is_same_cylinder(cyl):
    samp = cyl.sample(n=129)
    ext = ruled.extend_ruled(samp)
    assert ext.t_range == (-1.0, 2.0)
    assert np.array_equal(ext.c, samp.c) and np.array_equal(ext.d, samp.d)


def test_extension_flatness_preserved(extended):
    # det II = 0 identically for a ruled parameterization; check the
    # normalized off-diagonal stays at rounding level over the extension
    rows = [30, 128, 220]
    for t in (-1.0, 0.5, 2.0):
        forms = ruled.curvature_forms(extended, t)
        ts, ss = forms["II_ts"][rows], forms["II_ss"][rows]
        assert np.all(np.abs(ts) <= 1e-8 * (1 + np.abs(ss))), t


def test_hyperbolic_paraboloid_fails_flatness():
    # h(t, s) = (t, s, t s): ruled but not developable, II_ts = 1 / |n|
    s = np.linspace(-1, 1, 257)
    hp = ruled.RuledSurface(
        s=s, c=np.stack([np.full_like(s, 2.0), s, 2 * s], axis=-1),
        d=np.stack([np.ones_like(s), np.zeros_like(s), s], axis=-1),
        t_range=(-1.0, 2.0))
    rec = cli.claim_extension_flatness(None, hp)
    assert not rec["pass"]
    assert rec["values"]["worst_offdiag"] > 0.1
    ts = ruled.curvature_forms(hp, 0.5)["II_ts"][128]
    assert ts == pytest.approx(1.0 / math.sqrt(1.25), rel=1e-12)


def test_extension_covers_strip_samples(gen_surface, extended):
    # every strip sample point lies on exactly one projected ruling
    xs = np.linspace(0.05, 1.95, 7)
    ys = np.linspace(-1.9, 1.9, 9)
    for x1 in xs:
        x2r = extended.c[:, 1] + (x1 - 2.0) * extended.d[:, 1]
        for x2 in ys:
            assert x2r.min() <= x2 <= x2r.max()


def test_crossing_rulings_rejected():
    n = 21
    s = np.linspace(-1, 1, n)
    c = np.stack([np.full(n, 2.0), s, np.zeros(n)], axis=-1)
    d = np.stack([np.ones(n), s, np.zeros(n)], axis=-1)
    # dx2/ds = 1 + (t-2): flips sign inside [-1, 2]
    bad = ruled.RuledSurface(s=s, c=c, d=d)
    with pytest.raises(ruled.RuledError):
        ruled.extend_ruled(bad)


def test_normal_stays_near_cylinder_normal():
    g = ruled.generate_surface(TAU, 0.05, seed=3)
    samp = ruled.extend_ruled(g.sample(n=257))
    cyln = ruled.cylinder(TAU).sample(n=257)
    for i in (64, 128, 192):
        a = samp.normals[i]
        b = cyln.normals[i]
        ang = math.degrees(math.acos(max(-1.0, min(1.0, float(a @ b)))))
        assert ang < 10.0


# ---------------------------------------------------------------------------
# comparison principle harness
# ---------------------------------------------------------------------------

def test_comparison_identity_margin_zero(gen_surface):
    rep = ruled.comparison_check(gen_surface, lambda X, Y: 0.0)
    assert rep["hypothesis_det"] and rep["hypothesis_boundary"]
    assert rep["margin"] == 0.0


def test_comparison_flags_violations(gen_surface, monkeypatch):
    monkeypatch.setattr(ruled, "BUMP_SCALE", 5000.0)
    w, _ = ruled.saddle_candidate(gen_surface, 3)
    rep = ruled.comparison_check(gen_surface, w)
    assert not rep["hypothesis_det"]


def test_comparison_cache_gives_identical_reports():
    g = ruled.generate_surface(TAU, 0.05, seed=5)
    offset, _ = ruled.saddle_candidate(g, 2)
    assert "extension_stencil" not in vars(g)
    cold = ruled.comparison_check(g, offset)
    assert "extension_stencil" in vars(g)
    assert ruled.comparison_check(g, offset) == cold


def test_comparison_flags_boundary_mismatch(gen_surface):
    rep = ruled.comparison_check(gen_surface, lambda X, Y: 1e-6)
    assert not rep["hypothesis_boundary"]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projection_of_on_surface_curve_preserves_length(extended):
    ts = np.linspace(-0.5, 1.5, 40)
    ss = np.linspace(extended.s[3], extended.s[-4], 40)
    curve = np.array([ruled._surface_point_interp(extended, t, s)
                      for t, s in zip(ts, ss)])
    (lc,), (lp,) = ruled.project_and_compare(curve[None], extended)
    assert lc == pytest.approx(lp, abs=1e-10)


def test_projection_plane_lift_preserves_length():
    ts = np.linspace(-0.5, 1.5, 30)
    curve = np.stack([ts, 0.3 * np.sin(3 * ts), np.full_like(ts, 0.25)],
                     axis=-1)
    (lc,), (lp,) = ruled.project_and_compare(curve[None], plane())
    assert lc == pytest.approx(lp, abs=1e-9)


def test_project_point_batch_equals_single_rows(extended, monkeypatch):
    curves = np.stack([ruled.random_curve_above(extended, seed=s)
                       for s in range(50)])
    p = curves[:, 7]
    # row 0 starts on the surface at its own seed: it stops after one step
    t0, s0 = 0.5, float(extended.s[100])
    p[0] = ruled._surface_point_interp(extended, t0, s0)
    seeds = np.stack([np.linspace(0.1, 1.9, 50),
                      np.linspace(extended.s[40], extended.s[200], 50)],
                     axis=-1)
    seeds[0] = (t0, s0)
    for seed_ts in (None, seeds):
        q, ts = ruled.project_point(extended, p, seed_ts=seed_ts)
        for k in range(50):
            qk, tsk = ruled.project_point(
                extended, p[k:k + 1],
                seed_ts=None if seed_ts is None else seed_ts[k:k + 1])
            assert np.array_equal(q[k:k + 1], qk), k
            assert np.array_equal(ts[k:k + 1], tsk), k
    monkeypatch.setattr(ruled, "PROJECT_ITERS", 1)
    q, ts = ruled.project_point(extended, p[:1], seed_ts=seeds[:1])
    assert np.array_equal(q[0], p[0]) and tuple(ts[0]) == (t0, s0)


def test_project_point_singular_row_stops():
    # c is constant for s < 0, so h_s = 0 there and the normal system of a
    # row seeded in that half is singular; that row keeps its seed
    s = np.linspace(-1, 1, 41)
    surf = ruled.RuledSurface(
        s=s, c=np.stack([np.full_like(s, 2.0), np.maximum(s, 0.0),
                         np.zeros_like(s)], axis=-1),
        d=np.tile([1.0, 0.0, 0.0], (41, 1)), t_range=(-1.0, 2.0))
    p = np.array([[0.5, 0.3, 0.2], [0.7, 0.0, 0.1], [1.0, 0.6, -0.1]])
    seeds = np.array([[1.0, 0.25], [1.2, -0.5], [0.8, 0.4]])
    q, ts = ruled.project_point(surf, p, seed_ts=seeds)
    assert tuple(ts[1]) == (1.2, -0.5)
    assert np.allclose(ts[[0, 2]], [[0.5, 0.3], [1.0, 0.6]], atol=1e-12)
    for k in range(3):
        qk, tsk = ruled.project_point(surf, p[k:k + 1], seed_ts=seeds[k:k + 1])
        assert np.array_equal(q[k:k + 1], qk) and np.array_equal(ts[k:k + 1], tsk)


def test_project_and_compare_batch_equals_single_curves(extended):
    curves = np.stack([ruled.random_curve_above(extended, seed=s)
                       for s in range(5)])
    lc, lp = ruled.project_and_compare(curves, extended)
    for k in range(5):
        lck, lpk = ruled.project_and_compare(curves[k:k + 1], extended)
        assert (lc[k], lp[k]) == (lck[0], lpk[0])


def test_projection_rejects_points_below(extended):
    i = 128
    base = ruled._surface_point_interp(extended, 1.0, float(extended.s[i]))
    n = extended.normals[i]
    below = (base - 0.2 * n)[None, :].repeat(3, axis=0)
    below[1] += 0.01
    with pytest.raises(ruled.RuledError):
        ruled.project_and_compare(below[None], extended)
