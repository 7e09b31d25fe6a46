import math

import numpy as np
import pytest

from nonembed import assembly, bvp, conformal


@pytest.fixture(scope="module")
def rot(tail4):
    return assembly.RotationSum(base=tail4)


def test_rotation_sum_vanishes_off_ring(rot):
    for p in ((0.1, 0.1), (0.0, 0.0), (0.5, 0.5), (0.36, 0.36)):
        assert rot.value(*p) == 0.0


def rotation_sum_reference(rot, x, y):
    """Per-point rotation sum: every image index within the support's
    angular half-width (plus slack) of -atan2(p)/deg, each term evaluated
    alone, summed from 0.0 in index order.  Returns (sum, nonzero terms)."""
    deg = assembly.DEG
    px, py = assembly.SCALE * x, assembly.SCALE * y
    rho = math.hypot(px, py)
    if abs(rho - math.hypot(*assembly.OFFSET)) > 1.1:
        return 0.0, 0
    half = math.asin(min(1.0, 1.1 / max(rho, 1e-300))) + 2e-3
    base_i = -math.atan2(py, px) / deg
    lo = math.floor(base_i - half / deg)
    hi = math.ceil(base_i + half / deg)
    total, n_nonzero = 0.0, 0
    for i in sorted({(i - 1) % 360 + 1 for i in range(lo, hi + 1)}):
        c, s = math.cos(i * deg), math.sin(i * deg)
        qx = c * px - s * py - assembly.OFFSET[0]
        qy = s * px + c * py - assembly.OFFSET[1]
        if qx * qx + qy * qy < 1.1 ** 2:
            v = float(rot.base.value(qx, qy))
            n_nonzero += v != 0.0
            total += v
    return total, n_nonzero


def test_rotation_sum_single_active_summand(rot):
    # points on the support ring at integer- and half-degree angles, and
    # points straddling the edges of the images' supports radially and
    # in angle: the array sum equals the per-point reference bit for bit,
    # and at most one of the 360 disjoint images is nonzero at any point
    deg = assembly.DEG
    k = np.arange(-180, 180, 5) * deg
    edge = 2.0 * math.asin(1.1 / 720.0)  # angular half-width of an image
    radii = [np.full(k.size, 0.36), np.full(k.size, 0.36)]
    angles = [k, k + 0.5 * deg]
    for t in (-1.001, -0.999, 0.999, 1.001):
        radii += [np.full(k.size, 0.36 + t * 0.0011), np.full(k.size, 0.36)]
        angles += [k, k + t * edge]
    r, a = np.concatenate(radii), np.concatenate(angles)
    x, y = r * np.cos(a), r * np.sin(a)
    got = rot.value(x, y)
    ref = [rotation_sum_reference(rot, float(p), float(q))
           for p, q in zip(x, y)]
    assert got.tolist() == [v for v, _ in ref]
    assert max(n for _, n in ref) == 1
    # integer-degree ring points sit at an image's center, half-degree
    # ones midway between two images
    assert np.all(got[:k.size] != 0.0)
    assert np.all(got[k.size:2 * k.size] == 0.0)


def test_bump_schedule_disjoint_and_decaying(rot):
    sched = assembly.build_bump_schedule(6, rot)
    for n in range(6):
        for k in range(n + 1, 6):
            d = math.hypot(sched.centers[n][0] - sched.centers[k][0],
                           sched.centers[n][1] - sched.centers[k][1])
            assert d > sched.radii[n] + sched.radii[k]
    for n in range(6):
        # centers approach the origin like 2^{-n}
        assert math.hypot(*sched.centers[n]) <= 2.0 ** (-n - 1) * 2.5
        # smoothness-forcing amplitude rule
        assert sched.amplitudes[n] * sched.derivative_bounds[n] <= 2.0 ** -(n + 1)
    assert all(a > 0 for a in sched.amplitudes)
    assert sched.amplitudes[3] < sched.amplitudes[0]


def test_bump_factor_support_and_continuity(rot):
    sched = assembly.build_bump_schedule(4, rot)
    # outside every ball: identically zero
    assert assembly.eval_gII_factor(sched, rot, -0.5, 0.5) == 0.0
    assert assembly.eval_gII_factor(sched, rot, 0.9, 0.9) == 0.0
    # center evaluation equals amplitude * (rotation sum at the origin)
    z1 = sched.centers[0]
    assert assembly.eval_gII_factor(sched, rot, *z1) == \
        sched.amplitudes[0] * rot.value(0.0, 0.0)
    # points inside ball 1 on the scaled support ring hit summand discs
    rho = sched.radii[0]
    ang = np.linspace(0, 2 * math.pi, 721)
    v = assembly.eval_gII_factor(sched, rot, z1[0] + rho * 0.36 * np.cos(ang),
                                 z1[1] + rho * 0.36 * np.sin(ang))
    assert np.any(v != 0.0)
    # ring just inside the ball boundary: the factor already vanished
    ang = np.linspace(0, 2 * math.pi, 73)
    v = assembly.eval_gII_factor(sched, rot, z1[0] + rho * 0.98 * np.cos(ang),
                                 z1[1] + rho * 0.98 * np.sin(ang))
    assert np.all(v == 0.0)


def test_bump_schedule_rejects_bad_nmax(rot):
    with pytest.raises(assembly.AssemblyError):
        assembly.build_bump_schedule(0, rot)


# ---------------------------------------------------------------------------
# negative-curvature pockets
# ---------------------------------------------------------------------------

def test_pocket_metric_curvature_signs(ctx):
    rep = ctx.g1_report
    assert rep["all_pockets_negative"]
    assert rep["flat_outside"]
    assert all(p["n_sampled"] > 0 for p in rep["pockets"])


def test_pocket_zero_source_gives_flat_metric():
    grid = bvp.box_grid((0.0, 0.0), 1.0, 64)
    u = bvp.solve_poisson(grid, np.zeros(grid.shape))
    K = conformal.gaussian_curvature(u)
    assert np.max(np.abs(K.values[K.grid.mask == bvp.INTERIOR])) == 0.0


def test_pocket_resolution_guard():
    with pytest.raises(assembly.AssemblyError):
        assembly.build_g1(5, grid_n=256)


# ---------------------------------------------------------------------------
# annulus stack
# ---------------------------------------------------------------------------

def test_wall_cutoff_support():
    r = np.array([0.1, 1.0 / 3.0, 0.34, 0.5, 1.0])
    v = assembly.wall_cutoff(3, r)
    assert v[0] == 0.0 and v[1] == 0.0
    assert np.all(v[2:] > 0.0)


def test_wall_cutoff_laplacian_positive_inside_disc():
    # closed form validated by finite differences, and strictly positive
    # on the open unit disc wherever the cutoff is representable (the
    # first cutoff is identically zero inside the disc: r > 1 never holds)
    rr = np.linspace(1e-3, 0.999, 300)
    assert np.all(assembly.wall_cutoff(1, rr) == 0.0)
    for n in (2, 3, 5):
        r = np.linspace(1.0 / n + 2e-3, 0.999, 200)
        lap = assembly.wall_cutoff_laplacian(n, r)
        active = assembly.wall_cutoff(n, r) > 0.0
        assert np.all(lap[active] > 0.0)
        assert np.all(lap >= 0.0)
        h = 1e-5
        fd = (assembly.wall_cutoff(n, r + h) - 2 * assembly.wall_cutoff(n, r)
              + assembly.wall_cutoff(n, r - h)) / h**2 \
            + (assembly.wall_cutoff(n, r + h) - assembly.wall_cutoff(n, r - h)) \
            / (2 * h * r)
        sel = assembly.wall_cutoff(n, r) > 1e-12
        assert np.allclose(lap[sel], fd[sel], rtol=1e-4)


def test_mu_schedule_bound():
    # criterion 10 checks the bound on the context's schedule for n <= 8;
    # this checks the next four annuli on a schedule of its own
    mu = assembly.measure_mu_schedule(12)
    for n in range(9, 13):
        norm = assembly.cutoff_c4_norm(n, mu[n - 1])
        assert norm <= 2.0 ** (-n)


def test_mu_schedule_cauchy_tail(mu8):
    d = assembly.cutoff_partial_sum_c4_distance(mu8, 8, 4)
    assert d <= 2.0 ** (-4 + 1)


def test_annulus_stack_requires_mu_and_tail(tail4):
    with pytest.raises(assembly.AssemblyError):
        assembly.build_annulus_stack([1.0, -1.0, 1.0, 1.0], 4,
                                     mu=[1e-3] * 4, tail=tail4)


@pytest.fixture(scope="module")
def stack5(tail4, mu8):
    """A stack of its own, five annuli with mixed weights: criterion 10
    checks the context's stack (eight annuli, unit weights)."""
    return assembly.build_annulus_stack([2.0, 0.5, 3.0, 1.0, 0.25], 5,
                                        mu=mu8, tail=tail4)


def test_annulus_curvature_negative_on_sampled_annuli(stack5):
    for n in range(1, 5):
        recs = assembly.annulus_curvature_samples(stack5, n)
        assert len(recs) >= 4, n
        for r in recs:
            assert r["K"] < 0.0, (n, r)
            assert r["laplacian"] == pytest.approx(r["laplacian_exact"],
                                                   rel=1e-4), n


def test_annulus_origin_flatness(stack5):
    mags = assembly.origin_flatness(stack5)
    assert len(mags) == 5
    assert all(m <= 1e-8 for m in mags)


def test_annulus_cutoffs_vanish_inside_inner_radius():
    # the m-th wall cutoff vanishes identically for r <= 1/m
    for m in (1, 3, 8):
        rr = np.linspace(1e-6, 1.0 / m, 50)
        assert np.all(assembly.wall_cutoff(m, rr) == 0.0)


def test_truncation_stability_of_plantings(tail4, mu8):
    # adding the (n+1)-th annulus planting changes nothing at radii
    # outside 1/n_max: supports are nested inward
    eta = [1.0] * 9
    mu9 = assembly.measure_mu_schedule(9)
    s8 = assembly.build_annulus_stack(eta, 8, mu=mu9, tail=tail4)
    s9 = assembly.build_annulus_stack(eta, 9, mu=mu9, tail=tail4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = rng.uniform(1.0 / 8.0 + 0.01, 0.95)
        ang = rng.uniform(0, 2 * math.pi)
        p = (r * math.cos(ang), r * math.sin(ang))
        assert s8.planting_value(*p) == s9.planting_value(*p)
    # the cutoff tail term is bounded by the Cauchy estimate
    d = assembly.cutoff_partial_sum_c4_distance(mu9, 9, 8)
    assert d <= 2.0 ** (-8 + 1)
