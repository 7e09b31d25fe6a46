import gc
import importlib.util
import json
import math
import tracemalloc
import types
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nonembed import assembly, bvp, conformal, mollify
from nonembed.fields import u_float
from nonembed.trees import Segment

from gridsolve import (disc_grid, interior_system, max_principle_violation,
                       solve_laplace_dirichlet)


ORACLE_PENTAGON = (Path(__file__).resolve().parents[1] / "tools"
                   / "oracle_pentagon_solve.json")


def harmonic_poly(X, Y):
    return X * X - Y * Y


def test_constant_boundary_data_gives_constant_field():
    g = bvp.box_grid((0.0, 0.0), 1.0, 32)
    f = solve_laplace_dirichlet(g, np.where(g.mask == bvp.BOUNDARY, 3.25, 0.0))
    assert np.allclose(f.values[g.mask != bvp.EXTERIOR], 3.25, atol=1e-10)


def test_harmonic_polynomial_reproduced():
    errs = []
    for n in (32, 64):
        g = bvp.box_grid((0.0, 0.0), 1.0, n)
        X, Y = g.nodes_xy()
        f = solve_laplace_dirichlet(
            g, np.where(g.mask == bvp.BOUNDARY, harmonic_poly(X, Y), 0.0))
        err = np.max(np.abs((f.values - harmonic_poly(X, Y))[g.mask == bvp.INTERIOR]))
        errs.append(err)
    # x^2 - y^2 is in the kernel of the 5-point stencil: exact to solver tol
    assert errs[1] < 1e-9


def test_scalar_field_rejects_non_finite_values_on_live_nodes_only():
    g = bvp.MaskedGrid(origin=(0.0, 0.0), h=1.0,
                       mask=np.array([[bvp.EXTERIOR, bvp.BOUNDARY],
                                      [bvp.INTERIOR, bvp.INTERIOR]],
                                     dtype=np.int8),
                       subgrid_boundary=True)
    bvp.ScalarField(grid=g, values=np.array([[np.nan, 0.0], [1.0, 2.0]]))
    for node in ((0, 1), (1, 0)):
        values = np.zeros((2, 2))
        values[node] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            bvp.ScalarField(grid=g, values=values)


def test_max_principle_on_disc_grid():
    g = disc_grid(1.0, 64)
    X, Y = g.nodes_xy()
    f = solve_laplace_dirichlet(
        g, np.where(g.mask == bvp.BOUNDARY, np.sin(3 * X) + Y, 0.0))
    assert max_principle_violation(f) <= 1e-10


def test_grid_refinement_second_order():
    # smooth non-polynomial data: observed order >= 1.7
    def data(X, Y):
        return np.exp(X) * np.sin(Y)

    errs = []
    for n in (32, 64):
        g = bvp.box_grid((0.0, 0.0), 1.0, n)
        X, Y = g.nodes_xy()
        f = solve_laplace_dirichlet(
            g, np.where(g.mask == bvp.BOUNDARY, data(X, Y), 0.0))
        errs.append(np.max(np.abs((f.values - data(X, Y))[g.mask == bvp.INTERIOR])))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.7


def test_poisson_zero_rhs_gives_zero():
    g = bvp.box_grid((0.0, 0.0), 1.0, 32)
    f = bvp.solve_poisson(g, np.zeros(g.shape))
    assert np.max(np.abs(f.values)) == 0.0


def test_poisson_rejects_grids_other_than_a_zero_data_box():
    g = disc_grid(1.0, 32)
    with pytest.raises(bvp.SolverError, match="box grid"):
        bvp.solve_poisson(g, np.ones(g.shape))


def test_poisson_dst_matches_cg_on_masked_variant():
    # same rhs solved by the sine transform and by CG on the assembled
    # masked 5-point system of the same box
    n = 48
    g1 = bvp.box_grid((0.0, 0.0), 1.0, n)
    X, Y = g1.nodes_xy()
    rhs = np.exp(-5 * (X**2 + Y**2))
    f1 = bvp.solve_poisson(g1, rhs)
    g2 = bvp.box_grid((0.0, 0.0), 1.0, n)
    A, b, (ii, jj) = interior_system(g2, rhs, np.zeros(g2.shape))
    x, info = spla.cg(A, b, rtol=1e-13, atol=0.0, maxiter=100000)
    assert info == 0
    v2 = np.zeros(g2.shape)
    v2[ii, jj] = x
    assert np.max(np.abs(f1.values - v2)) < 1e-8


def test_poisson_matches_newtonian_potential_oracle():
    """Radial bump source: the solution must match the free-space log
    potential minus its harmonic box correction (series oracle), away
    from the support."""
    from scipy.integrate import quad, trapezoid

    R = 0.2

    def bump_profile(s):
        return math.exp(-1.0 / (1.0 - (s / R) ** 2)) if s < R else 0.0

    n = 128
    g = bvp.box_grid((0.0, 0.0), 1.0, n)
    X, Y = g.nodes_xy()
    Rg = np.hypot(X, Y)
    rhs = np.zeros(g.shape)
    ins = Rg < R
    rhs[ins] = np.exp(-1.0 / (1.0 - (Rg[ins] / R) ** 2))
    f = bvp.solve_poisson(g, rhs)

    # free-space potential of the radial source: Delta u = -rhs
    mass_inside = lambda t: 2 * math.pi * quad(
        lambda s: bump_profile(s) * s, 0.0, min(t, R), epsabs=1e-14)[0]
    M = mass_inside(R)

    def newton(x, y):
        t = math.hypot(x, y)
        if t >= R:
            return -M / (2 * math.pi) * math.log(t)
        inner = mass_inside(t)
        outer = quad(lambda s: bump_profile(s) * math.log(s) * s, t, R,
                     epsabs=1e-14)[0]
        return -(inner * math.log(t) / (2 * math.pi) + outer)

    # harmonic correction with boundary values newton|_edge via separable
    # sine series on the box [-1,1]^2
    nmodes = 40
    L = 2.0

    def edge_coeffs(vals):
        ys = np.linspace(-1.0, 1.0, 401)
        out = []
        for k in range(1, nmodes + 1):
            integrand = vals * np.sin(k * math.pi * (ys + 1.0) / L)
            out.append(2.0 / L * trapezoid(integrand, ys))
        return out

    ys = np.linspace(-1.0, 1.0, 401)
    edges = {
        "x+": np.array([newton(1.0, y) for y in ys]),
        "x-": np.array([newton(-1.0, y) for y in ys]),
        "y+": np.array([newton(x, 1.0) for x in ys]),
        "y-": np.array([newton(x, -1.0) for x in ys]),
    }
    coefs = {k: edge_coeffs(v) for k, v in edges.items()}

    def correction(x, y):
        tot = 0.0
        for k in range(1, nmodes + 1):
            lam = k * math.pi / L
            sy = math.sin(lam * (y + 1.0))
            sx = math.sin(lam * (x + 1.0))
            sh = math.sinh(lam * L)
            tot += coefs["x+"][k - 1] * sy * math.sinh(lam * (x + 1.0)) / sh
            tot += coefs["x-"][k - 1] * sy * math.sinh(lam * (1.0 - x)) / sh
            tot += coefs["y+"][k - 1] * sx * math.sinh(lam * (y + 1.0)) / sh
            tot += coefs["y-"][k - 1] * sx * math.sinh(lam * (1.0 - y)) / sh
        return tot

    for (px, py) in ((0.5, 0.0), (0.0, -0.6), (0.45, 0.45), (-0.3, 0.5)):
        oracle = newton(px, py) - correction(px, py)
        got = float(f.interp(px, py))
        assert got == pytest.approx(oracle, rel=1e-3), (px, py)


# the sine transform and the spline equal SciPy's to the bit: NumPy's FFT
# is the same pocketfft code as scipy.fft's
@pytest.mark.parametrize("shape", [(1535, 70), (67, 130), (5, 1)])
def test_dst1_equals_scipy_dstn_idstn_and_ortho(shape):
    from scipy.fft import dst, dstn, idstn
    f = np.random.default_rng(11).standard_normal(shape)
    m, n = shape
    for ref, got in (
            (dstn(f, type=1), bvp._dst1(bvp._dst1(f.copy(), 0), 1)),
            (idstn(f, type=1), bvp._dst1(bvp._dst1(
                f.copy(), 0, bvp._reciprocal(4 * (m + 1) * (n + 1))), 1)),
            (dst(f, type=1, norm="ortho"),
             bvp._dst1(f.copy(), 1, bvp._reciprocal(2 * (n + 1), root=True))),
            (dst(f, type=1, norm="ortho", axis=0),
             bvp._dst1(f.copy(), 0, bvp._reciprocal(2 * (m + 1), root=True)))):
        assert np.array_equal(got, ref)


def test_block_solver_transform_equals_scipy_on_stacked_data_sets():
    # the rectangle's data sets, (columns, sets, modes), along the modes
    from scipy.fft import dst
    f = np.random.default_rng(12).standard_normal((40, 2, 191))
    got = f.copy()
    bvp._dst1(got.reshape(-1, 191), 1, bvp._reciprocal(384, root=True))
    ref = dst(f, type=1, norm="ortho")
    assert np.array_equal(got, ref)


def test_glued_spline_equals_scipy_ndimage():
    """The spline's coefficients and values equal those of scipy.ndimage's
    spline_filter (mirror) and map_coordinates (order 3, nearest) to the
    bit, as measured: the same operations in the same order, with SciPy's
    pole literal.  Points lie all over a 2221 x 195 grid like the K = 4
    pentagon's and in its edge cells."""
    from scipy.ndimage import map_coordinates, spline_filter
    rng = np.random.default_rng(13)
    shape = (2221, 195)
    mask = np.full(shape, bvp.INTERIOR, dtype=np.int8)
    grid = bvp.MaskedGrid(origin=(-0.5, -1.0), h=0.01, mask=mask,
                          subgrid_boundary=True)
    field = bvp.ScalarField(grid=grid, values=rng.standard_normal(shape))
    gf = bvp.GluedField(field, bvp.ConvexPolygon([(0, 0), (1, 0), (0, 1)]))
    coeffs = spline_filter(field.values, order=3)
    assert np.array_equal(gf._coeffs, coeffs)
    fi = np.concatenate([rng.uniform(0, shape[0] - 1, 20_000),
                         rng.uniform(0, 1.5, 500), rng.uniform(-1, 0, 50),
                         rng.uniform(shape[0] - 2.5, shape[0] - 1, 500),
                         np.arange(shape[0]), [shape[0] - 0.5]])
    fj = np.concatenate([rng.uniform(0, shape[1] - 1, 20_000),
                         rng.uniform(shape[1] - 2.5, shape[1] - 1, 500),
                         rng.uniform(shape[1] - 1, shape[1], 50),
                         rng.uniform(0, 1.5, 500),
                         np.zeros(shape[0]), [shape[1] - 1]])
    X = grid.origin[0] + fi * grid.h
    Y = grid.origin[1] + fj * grid.h
    ref = map_coordinates(coeffs, np.vstack([(X - grid.origin[0]) / grid.h,
                                             (Y - grid.origin[1]) / grid.h]),
                          order=3, prefilter=False, mode="nearest")
    assert np.array_equal(gf._pentagon_interp(X, Y), ref)


def test_poisson_pocket_source_sign():
    # negative source bumps force positive Laplacian of the solution
    # (Delta u = -rhs) and hence negative curvature inside the pockets
    pm = assembly.build_g1(2, grid_n=512)
    rep = pm.curvature_report()
    assert rep["all_pockets_negative"]
    assert rep["flat_outside"]


# ---------------------------------------------------------------------------
# normal derivatives
# ---------------------------------------------------------------------------

def test_normal_derivative_linear_field():
    a = (2.0, -1.0)
    f = lambda x, y: a[0] * x + a[1] * y
    edge = Segment((0.0, 0.0), (0.0, 1.0))
    nd = bvp.normal_derivative(f, edge, normal=(1.0, 0.0), h=1e-3,
                               n_samples=40, boundary_value=f)
    assert np.allclose(nd["value"], a[0], atol=1e-9)


def test_normal_derivative_quadratic_zero_at_edge():
    f = lambda x, y: x * x
    edge = Segment((0.0, -1.0), (0.0, 1.0))
    nd = bvp.normal_derivative(f, edge, normal=(1.0, 0.0), h=1e-4,
                               n_samples=40, boundary_value=f)
    assert np.allclose(nd["value"], 0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# pentagon pipeline
# ---------------------------------------------------------------------------

def test_pentagon_geometry():
    geom = bvp.pentagon_geometry(4)
    a = math.exp(-8.0)
    assert geom.D == pytest.approx((-a, 0.0))
    assert math.hypot(*geom.D1) == pytest.approx(1.0, abs=1e-14)
    assert geom.D4[0] == 20.0 and geom.D5[0] == 20.0
    assert geom.D4[1] == pytest.approx(-geom.D5[1])
    # vertex data magnitude fits doubles only up to K=12
    with pytest.raises(bvp.SolverError):
        bvp.pentagon_geometry(14)


def test_pentagon_resolution_must_be_even_and_at_least_16():
    geom = bvp.pentagon_geometry(2)
    origin, h, shape = bvp._pentagon_grid_params(geom, 16)
    assert shape[1] == 19 and h == 2.0 * geom.half_height / 16
    for bad in (14, 15, 17, 193, 0):
        with pytest.raises(bvp.SolverError, match="resolution"):
            bvp._pentagon_grid_params(geom, bad)
        with pytest.raises(bvp.SolverError, match="even integer >= 16"):
            bvp.select_N(2, bad, 0.05)


def test_pentagon_solver_residual_and_superposition(selected4, pentagon4):
    geom = selected4.geom
    prob = pentagon4
    # residual of the combined solution against the combined data, which
    # select_N took before it freed the system
    data = bvp.pentagon_edge_data(geom, selected4.N)
    res = prob.residual(selected4.w, data)
    assert res < 1e-12
    assert selected4.residual == res
    # superposition: w0, w1 and w at N, solved in one call; w = w0 + N*w1
    N = 8.0
    unit_right = [bvp._zero] * 5
    unit_right[geom.RIGHT] = lambda x, y: 1.0
    w0, w1, direct = prob.solve([bvp.pentagon_edge_data(geom, 0.0), unit_right,
                                 bvp.pentagon_edge_data(geom, N)])
    combo = w0.values + N * w1.values
    inner = w0.grid.mask == bvp.INTERIOR
    scale = np.max(np.abs(direct.values[inner]))
    assert np.max(np.abs((direct.values - combo)[inner])) < 1e-8 * scale


def _load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_polygon_solve_pointwise_accuracy_against_discrete_oracle():
    """README's pointwise figure.  On a rectangle with the pentagon's
    aspect ratio and data 1 on the far edge, the solve matches the exact
    separated solution of the same discrete problem (mpmath, 60 digits)
    to 7e-14 relative at every sampled node, down to values near 3e-18
    (measured 6.0e-17; an unrefined COLAMD-ordered LU is off by 2.1e-13)."""
    probe = _load_tool("probe_scaled_solve")
    Lx, Ly, ny = 20.0, 1.732, 40
    h = Ly / ny
    nx = round(Lx / h)
    poly = bvp.ConvexPolygon([(0.0, 0.0), (nx * h, 0.0), (nx * h, Ly), (0.0, Ly)])
    prob = bvp.PolygonProblem(poly, h, (0.0, 0.0), (nx + 1, ny + 1))
    assert np.count_nonzero(prob.geom["interior"]) == 17_979
    far_edge = [bvp._zero, lambda x, y: 1.0, bvp._zero, bvp._zero]
    (f,) = prob.solve([far_edge])
    worst, smallest = 0.0, math.inf
    for i, j in ((1, 1), (1, 20), (5, 3), (46, 20), (231, 1), (231, 20),
                 (415, 10), (nx - 1, ny - 1)):
        exact = probe.discrete_exact(nx, ny, Lx, Ly, i, j)
        worst = max(worst, float(abs(f.values[i, j] - exact) / exact))
        smallest = min(smallest, float(exact))
    assert smallest < 5e-18
    assert worst <= 7e-14


def test_pentagon_solve_pointwise_accuracy_against_the_50_digit_oracle():
    """README's pointwise figure on the pentagon.  select_N's two basis
    solutions at K = 4 and resolution 32 match the exact solution of the
    same float64 system (tools/oracle_pentagon_solve.py, 50 digits) to
    2.3e-16 relative at nodes in the tip, on Γ, on cut arms and at the
    smallest values, down to 4.4e-18.  Measured at every unknown: 1.1e-16
    with the compensated refinement residual, 9.8e-15 with a plain
    five-term one, 1.3e-13 unrefined."""
    data = json.loads(ORACLE_PENTAGON.read_text())
    cfg = data["config"]
    geom = bvp.pentagon_geometry(cfg["K"])
    prob = bvp.pentagon_problem(geom, cfg["resolution"])
    assert np.count_nonzero(prob.geom["interior"]) == cfg["unknowns"]
    w0, w1 = prob.solve(_basis_edge_data(geom))
    worst, smallest = Decimal(0), math.inf
    for p in data["points"]:
        for f, key in ((w0, "w0"), (w1, "w1")):
            exact = Decimal(p[key])
            got = Decimal(float(f.values[p["i"], p["j"]]))
            worst = max(worst, abs(got - exact) / abs(exact))
            smallest = min(smallest, abs(float(exact)))
    assert {p["where"] for p in data["points"]} == {
        "tip", "gamma", "cut", "smallest"}
    assert smallest < 5e-18
    assert worst <= Decimal("2.3e-16")


def _basis_edge_data(geom):
    """The edge data of select_N's two basis solutions w0 and w1: its data
    with 0 on the right edge, and 1 there alone."""
    unit_right = [bvp._zero] * 5
    unit_right[geom.RIGHT] = lambda x, y: np.ones(np.shape(x))
    return [bvp.pentagon_edge_data(geom, 0.0), unit_right]


@pytest.fixture(scope="session")
def basis4(selected4, pentagon4):
    """The basis solutions w0 and w1 of `selected4`, w = w0 + N w1, which
    select_N does not keep."""
    return pentagon4.solve(_basis_edge_data(selected4.geom))


def _basis_data(prob, geom):
    """Stacked cut data of select_N's two basis data sets."""
    return np.stack([prob._cut_data(d) for d in _basis_edge_data(geom)])


def _basis_rhs(prob, geom):
    """Stacked right-hand sides of select_N's two basis data sets, at the
    unknowns."""
    return prob._rhs(_basis_data(prob, geom))


def test_unrefined_block_solve_is_close_to_the_refined_solve(selected4,
                                                            pentagon4, basis4):
    """Before its refinement step, the tip / interface / rectangle solve of
    the K = 4 pentagon is within 1e-10 relative of the refined solution at
    every node (measured 1.77e-11)."""
    prob = pentagon4
    inside = prob.geom["interior"]
    b = _basis_rhs(prob, selected4.geom)
    solve, fill = bvp._block_solver(prob.geom, prob._tip, prob._gamma,
                                    np.count_nonzero(inside))
    assert prob._tip == 5466 and prob._gamma == 191 and fill == 708_640
    for x, w in zip(solve(b), basis4):
        refined = w.values[inside]
        assert np.max(np.abs(x - refined) / np.abs(refined)) < 1e-10


def test_block_solve_equals_whole_matrix_lu_with_the_same_refinement():
    """On a small pentagon the refined block solve agrees with a sparse LU
    of the whole matrix followed by the same compensated refinement step
    to a few ulp at every node."""
    geom = bvp.pentagon_geometry(2)
    origin, h, shape = bvp._pentagon_grid_params(geom, 32)
    prob = bvp.PolygonProblem(geom.polygon, h, origin, shape)
    assert prob._tip > 0
    inside = prob.geom["interior"]
    b = _basis_rhs(prob, geom)
    A = _assemble_per_node(geom.polygon, h, origin, shape)[0]
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    ref = np.zeros((len(b),) + shape)
    ref[:, inside] = lu.solve(b.T).T
    ref[:, inside] += lu.solve(bvp._stencil_residual(prob.geom, ref, b).T).T
    x = prob._refined_solve(_basis_data(prob, geom))
    assert np.all(np.abs(x - ref) <= 4 * np.finfo(float).eps * np.abs(ref))


@pytest.mark.parametrize("block", [5, 16])
def test_refined_solve_does_not_depend_on_the_column_block(
        selected4, pentagon4, basis4, monkeypatch, block):
    """The refined solve of the K = 4 pentagon, whose right-hand side,
    residual and correction go a block of node columns at a time, has the
    same bits at blocks of 5 and 16 columns: those of the basis
    solutions at the unknowns."""
    prob = pentagon4
    inside = prob.geom["interior"]
    monkeypatch.setattr(bvp, "_BLOCK", block)
    x = prob._refined_solve(_basis_data(prob, selected4.geom))
    for xi, w in zip(x, basis4):
        assert xi[inside].tobytes() == w.values[inside].tobytes()
        assert not np.any(xi[~inside])


def test_polygon_without_a_trailing_plain_block_raises():
    """A right edge half a cell off the node columns cuts the last
    column's arms short, so no rectangle of plain 5-point rows is left."""
    h = 0.1
    poly = bvp.ConvexPolygon([(0.0, 0.0), (2.95, 0.0), (2.95, 1.0), (0.0, 1.0)])
    with pytest.raises(bvp.SolverError, match="plain"):
        bvp.PolygonProblem(poly, h, (0.0, 0.0), (31, 11))


def test_selected_N_keeps_no_schur_matrix(selected4):
    """No dense interface block (the Schur matrix, A_TT^-1 A_TΓ) stays
    reachable from the SelectedN once the basis solves return."""
    gamma = selected4.stats["gamma_unknowns"]
    seen, stack = set(), [selected4]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.ndim == 2:
            assert gamma not in obj.shape, obj.shape
        stack.extend(gc.get_referents(obj))


def test_stencil_residual_in_column_blocks_equals_one_block(monkeypatch):
    """The compensated residual, taken a few node columns at a time, has
    the bits of the same residual over all columns at once, and both are
    the per-node matrix's b - A x to rounding.  One block of all columns
    reads and writes b through the unknowns' mask, blocks of 7 right of
    the tip through views of b."""
    geom = bvp.pentagon_geometry(2)
    origin, h, shape = bvp._pentagon_grid_params(geom, 16)
    prob = bvp.PolygonProblem(geom.polygon, h, origin, shape)
    inside = prob.geom["interior"]
    x, b = np.random.default_rng(3).standard_normal((2, 2) + shape)
    x *= inside
    b = b[:, inside]
    monkeypatch.setattr(bvp, "_BLOCK", shape[0])
    whole = bvp._stencil_residual(prob.geom, x, b.copy())
    monkeypatch.setattr(bvp, "_BLOCK", 7)
    assert (shape[0] - 2) % 7 and shape[0] % 7
    blocked = bvp._stencil_residual(prob.geom, x, b.copy())
    assert whole.tobytes() == blocked.tobytes()
    A = _assemble_per_node(geom.polygon, h, origin, shape)[0]
    plain = b - (A @ x[:, inside].T).T
    for r in (whole, blocked):
        assert np.allclose(r, plain, rtol=0.0,
                           atol=1e-12 * np.abs(plain).max())


@pytest.mark.parametrize("rows", [7, bvp.ROWS])
def test_blocked_laplacian_equals_the_whole_array_expression(monkeypatch,
                                                             rows):
    """The grid Laplacian and the curvature, taken a block of rows at a
    time, have the bits of the whole-array expressions, on grids whose
    inner row count is no multiple of the block or less than one block."""
    monkeypatch.setattr(bvp, "ROWS", rows)
    rng = np.random.default_rng(21)
    for shape in ((2 * rows + 5, 37), (rows - 1, 11)):
        assert (shape[0] - 2) % rows
        mask = np.full(shape, bvp.INTERIOR, dtype=np.int8)
        grid = bvp.MaskedGrid(origin=(-0.3, 0.2), h=0.03, mask=mask,
                              subgrid_boundary=True)
        f = bvp.ScalarField(grid=grid, values=rng.standard_normal(shape))
        v, h = f.values, grid.h
        whole = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
                 - 4.0 * v[1:-1, 1:-1]) / h**2
        assert bvp.laplacian_grid(f).tobytes() == whole.tobytes()
        K = -np.exp(v[1:-1, 1:-1] * -2.0) * whole
        assert conformal.gaussian_curvature(f).values.tobytes() == K.tobytes()


@pytest.mark.parametrize("rows", [7, bvp.ROWS])
def test_blocked_sine_denominators_equal_the_whole_array_expression(
        monkeypatch, rows):
    """The Poisson solve's division by the sine denominators, a block of
    rows at a time, has the bits of the whole-array division."""
    monkeypatch.setattr(bvp, "ROWS", rows)
    rng = np.random.default_rng(22)
    for m, n in ((2 * rows + 5, 37), (rows - 1, 11)):
        assert m % rows
        f = rng.standard_normal((m, n))
        i = np.arange(1, m + 1)[:, None]
        j = np.arange(1, n + 1)[None, :]
        whole = f / (4.0 * np.sin(i * np.pi / (2 * (m + 1))) ** 2
                     + 4.0 * np.sin(j * np.pi / (2 * (n + 1))) ** 2)
        assert bvp._divide_by_eigenvalues(f).tobytes() == whole.tobytes()


def _blocked_stage_arrays():
    """The arrays of the three stages that `bvp.row_blocks` splits: the
    Poisson solve of a g1 box (389 inner rows), select_N at resolution
    32, whose rectangle solve transforms and updates its columns a block
    at a time, and the 129-row tail grid sampled from that selection."""
    g1 = assembly.build_g1(2, 390).factor.values
    selected = bvp.select_N(4, 32, 0.05)
    tail = mollify.build_tail_v(selected, math.exp(-8.0) / 2.0, grid_n=128)
    return [g1, selected.w.values, tail.field.values, tail.region,
            tail.u_core_excluded, tail.pentagon_band_excluded,
            tail.stencil_in_disc, tail.sign_checked]


@pytest.mark.parametrize("rows", [7, bvp.ROWS])
def test_row_blocks_leave_the_blocked_stages_bit_identical(monkeypatch, rows):
    """solve_poisson, select_N and build_tail_v give the bytes of one
    block of all rows with blocks of 7 rows and of the default 64."""
    monkeypatch.setattr(bvp, "ROWS", 1 << 20)
    whole = _blocked_stage_arrays()
    monkeypatch.setattr(bvp, "ROWS", rows)
    blocked = _blocked_stage_arrays()
    for a, b in zip(whole, blocked):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("build, low, high", [
    (lambda: assembly.build_g1(3, 1536).curvature_report(), 40.0, 48.5),
    (lambda: bvp.select_N(4, 192, 0.05), 25.0, 29.0)])
def test_traced_peaks_of_the_g1_report_and_select_N(build, low, high):
    """tracemalloc peaks in MiB, measured 45.2 for the g1 report, which
    holds the factor and the source (36.0 MiB) and takes K a block of rows
    at a time, and 26.8 for select_N, whose system keeps the stencils of
    its cut nodes only and whose refinement holds the solver, the node
    arrays x and one vector at the unknowns.  select_N's was 36.8 while
    the refinement gathered a node-array residual at the unknowns and the
    rectangle solve copied its part.  They were 66.1 and 52.2 while the
    report held a K grid and the system four coefficient planes and a
    diagonal one, and 81.5 and 68.2 while the grid Laplacians were
    whole-array expressions and the pentagon solve copied its right-hand
    sides."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert low < peak <= high


def test_polygon_residual_is_the_whole_matrix_residual():
    """`PolygonProblem.residual` is max |b - A x| / max |b| of the per-node
    matrix, to a few ulp of the terms that b - A x sums: for the solution,
    whose residual cancels them to roundoff, and for random values."""
    geom = bvp.pentagon_geometry(3)
    origin, h, shape = bvp._pentagon_grid_params(geom, 48)
    prob = bvp.PolygonProblem(geom.polygon, h, origin, shape)
    A = _assemble_per_node(geom.polygon, h, origin, shape)[0]
    inside = prob.geom["interior"]
    data = bvp.pentagon_edge_data(geom, 1e3)
    b = prob._rhs(prob._cut_data(data))
    (sol,) = prob.solve([data])
    rnd = bvp.ScalarField(grid=sol.grid, values=np.random.default_rng(5)
                          .standard_normal(sol.values.shape))
    eps = np.finfo(float).eps
    for f in (sol, rnd):
        x = f.values[inside]
        plain = np.max(np.abs(b - A @ x)) / np.max(np.abs(b))
        terms = np.max(np.abs(b) + abs(A) @ np.abs(x)) / np.max(np.abs(b))
        assert abs(prob.residual(f, data) - plain) <= 8 * eps * terms


def _edge_cut(poly, p, direction, h):
    """Scalar reference for the cut search: fraction alpha in (0, 1] along
    p + t*h*direction at which the boundary is crossed, and the edge
    index; p must be inside."""
    best, kbest = math.inf, -1
    for k, (nrm, off) in enumerate(zip(poly._normals, poly._offsets)):
        denom = (nrm[0] * direction[0] + nrm[1] * direction[1]) * h
        if denom >= 0.0:
            continue  # moving parallel or deeper inside
        num = off - (nrm[0] * p[0] + nrm[1] * p[1])
        t = num / denom
        if 0.0 < t < best:
            best, kbest = t, k
    if kbest < 0 or best > 1.0 + 1e-12:
        raise bvp.SolverError("arm cut not found; node classification inconsistent")
    return min(best, 1.0), kbest


def _assemble_per_node(poly, h, origin, shape, snap=1e-9):
    """The per-node Shortley-Weller assembly: one cut search per arm."""
    nx, ny = shape
    xs = origin[0] + h * np.arange(nx)
    ys = origin[1] + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    interior = poly.contains(X, Y, pad=snap)
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    idx = -np.ones((nx, ny), dtype=np.int64)
    ii, jj = np.where(interior)
    idx[ii, jj] = np.arange(len(ii))
    n = len(ii)
    dirs = ((1, 0), (-1, 0), (0, 1), (0, -1))
    alphas = np.ones((4, n))
    records = []  # (row, direction, alpha, edge index, cut point)
    for d, (di, dj) in enumerate(dirs):
        nb_in = interior[ii + di, jj + dj]
        for r in np.where(~nb_in)[0]:
            p = (xs[ii[r]], ys[jj[r]])
            a, k = _edge_cut(poly, p, (float(di), float(dj)), h)
            a = max(a, 1e-6)
            alphas[d, r] = a
            records.append((r, d, a, k, (p[0] + a * h * di, p[1] + a * h * dj)))
    aE, aW, aN, aS = alphas
    coefs = np.empty((4, n))
    coefs[0] = 2.0 / (aE * (aE + aW)) / h**2
    coefs[1] = 2.0 / (aW * (aE + aW)) / h**2
    coefs[2] = 2.0 / (aN * (aN + aS)) / h**2
    coefs[3] = 2.0 / (aS * (aN + aS)) / h**2
    rows, cols = [np.arange(n)], [np.arange(n)]
    vals = [(2.0 / (aE * aW) + 2.0 / (aN * aS)) / h**2]
    for d, (di, dj) in enumerate(dirs):
        sel = np.where(interior[ii + di, jj + dj])[0]
        rows.append(sel)
        cols.append(idx[ii[sel] + di, jj[sel] + dj])
        vals.append(-coefs[d][sel])
    A = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return A, coefs, records


def _holds_node_sized_floats(obj, nodes: int) -> bool:
    """Whether obj, or a dict, list or tuple within it, holds a float
    array of at least `nodes` entries."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_holds_node_sized_floats(o, nodes) for o in obj)
    return isinstance(obj, np.ndarray) and obj.dtype.kind == "f" \
        and obj.size >= nodes


def test_cut_arms_on_arrays_equal_the_per_node_loop(selected4, pentagon4,
                                                    basis4):
    """The pentagon's stencil, the tip and Γ blocks that the solver's
    elimination reads, both right-hand sides of select_N and the rim
    values equal those of the per-node loop bit for bit."""
    geom = selected4.geom
    prob = pentagon4
    origin, h, shape = bvp._pentagon_grid_params(geom, 192)
    A, coefs, records = _assemble_per_node(geom.polygon, h, origin, shape)
    inside = prob.geom["interior"]
    ii, jj = np.nonzero(inside)
    assert len(records) == len(prob.geom["cuts"]["node"])
    assert np.array_equal(prob.geom["cuts"]["node"], np.ravel_multi_index(
        (ii[[r[0] for r in records]], jj[[r[0] for r in records]]), shape))
    # the table holds each node with a cut arm, the plain scalars the rest
    st = prob.geom["stencil"]
    rank = np.searchsorted(np.flatnonzero(inside), st["node"])
    assert np.array_equal(rank, np.unique([r[0] for r in records]))
    assert np.array_equal(st["coefs"], coefs[:, rank])
    assert np.array_equal(st["diag"], A.diagonal()[rank])
    plain = np.ones(len(ii), dtype=bool)
    plain[rank] = False
    assert np.all(coefs[:, plain] == 1.0 / h**2)
    assert np.all(A.diagonal()[plain] == 4.0 / h**2)
    # and the planes laid out from them are those of the per-node loop
    diag, planes = bvp._stencil_planes(prob.geom, 0, shape[0])
    assert np.array_equal(planes[:, inside], coefs)
    assert np.array_equal(diag[inside], A.diagonal())
    assert not np.any(planes[:, ~inside])
    assert not np.any(diag[~inside])
    # no float array as large as the node array is kept
    assert not _holds_node_sized_floats(prob.geom, inside.size)
    assert _holds_node_sized_floats(dict(prob.geom, coefs=planes), inside.size)
    k = prob._tip + prob._gamma
    cols, blocks = bvp._columns(prob.geom, k)
    assert len(cols) == 57 and cols[-1].unknowns == slice(prob._tip, k)
    nnz = 0
    for prev, col, D in zip([None] + cols, cols, blocks):
        u = col.unknowns
        assert np.array_equal(A[u, u].toarray(), D)
        nnz += np.count_nonzero(D)
        if prev is None:
            assert u.start == 0 and len(col.west) == 0
            continue
        assert u.start == prev.unknowns.stop
        for block, coupling in ((A[u, prev.unknowns], col.west),
                                (A[prev.unknowns, u].T, col.east)):
            expect = np.zeros(block.shape)
            expect[col.here, col.there] = np.diag(coupling)
            assert np.array_equal(block.toarray(), expect)
            nnz += len(coupling)
    # and A[:k, :k] holds nothing else
    assert A[:k, :k].nnz == nnz
    unit_right = [bvp._zero] * 5
    unit_right[geom.RIGHT] = lambda x, y: 1.0
    dirs = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for w, data in ((basis4[0], bvp.pentagon_edge_data(geom, 0.0)),
                    (basis4[1], unit_right)):
        b = np.zeros(A.shape[0])
        for (r, d, a, k, cutpt) in records:
            b[r] += coefs[d][r] * data[k](*cutpt)
        rhs = prob._rhs(prob._cut_data(data))  # at the unknowns
        assert rhs.shape == b.shape and np.array_equal(rhs, b)
        # rim: extrapolate each arm to its exterior node, mean per node
        x = w.values[inside]
        acc = {}
        for (r, d, a, k, cutpt) in records:
            q = (ii[r] + dirs[d][0], jj[r] + dirs[d][1])
            v = data[k](*cutpt)
            acc.setdefault(q, []).append(x[r] + (v - x[r]) / a if a >= 0.2 else v)
        for q, vs in acc.items():
            assert w.values[q] == float(np.mean(vs)), q


def test_selected_N_keeps_no_factors(selected4):
    """The tip's block factors, the system and the basis solutions are
    released once select_N returns: no square matrix (each inverse
    D~_c^-1 is one), SuperLU object, PolygonProblem or sparse matrix is
    reachable from the SelectedN, and no node array of floats but w's
    values and the glued field's spline coefficients."""
    nodes, fields = selected4.w.values.size, set()
    seen, stack = set(), [selected4]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (spla.SuperLU, bvp.PolygonProblem))
        assert not sp.issparse(obj)
        if isinstance(obj, np.ndarray) and obj.ndim == 2:
            assert obj.shape[0] != obj.shape[1], obj.shape
            if obj.dtype.kind == "f" and obj.size >= nodes:
                fields.add(id(obj))
        stack.extend(gc.get_referents(obj))
    assert id(selected4.w.values) in seen
    glue = vars(selected4).get("glue")
    assert fields == {id(selected4.w.values)} | (
        {id(glue._coeffs)} if glue else set())


def test_pentagon_max_principle(basis4):
    # interior values of each basis solution stay within data range
    w1 = basis4[1]
    inner = w1.grid.mask == bvp.INTERIOR
    assert w1.values[inner].min() > 0.0
    assert w1.values[inner].max() < 1.0


def test_selected_margins_positive(selected4):
    for name, m in selected4.margins.items():
        assert np.all(m > 0.0), name


@pytest.mark.parametrize("K, resolution", [(4, 64), (4, 96), (4, 128),
                                           (2, 96)])
def test_select_N_equals_the_power_of_two_sweep(K, resolution):
    """The closed form picks the N of a brute-force sweep over 2^0, 2^1,
    ..., which builds w = w0 + N w1 node by node at each N and samples its
    margins afresh.  At K = 4 the sweep ends at 2^84, 1 and 2^86."""
    sel = bvp.select_N(K, resolution, 0.05)
    w0, w1 = bvp.pentagon_problem(sel.geom, resolution).solve(
        _basis_edge_data(sel.geom))
    for k in range(260):
        w = bvp.ScalarField(grid=w0.grid,
                            values=w0.values + 2.0 ** k * w1.values)
        _, margin, scale = bvp.edge_margins(sel.geom, w, sel.h,
                                            bvp.EDGE_SAMPLES, u_float)
        if np.all(margin > 0.05 * scale):
            break
    else:
        pytest.fail("no N up to 2^259 passes")
    assert sel.N == 2.0 ** k


def test_select_N_below_threshold_fails():
    # at K=2 the selected N is far above 1; small N must fail margins
    sel = bvp.select_N(2, resolution=96, margin_frac=0.05)
    assert sel.N > 1e6
    w0, w1 = bvp.pentagon_problem(sel.geom, 96).solve(
        _basis_edge_data(sel.geom))
    _, m0, _ = bvp.edge_margins(sel.geom, w0, sel.h, bvp.EDGE_SAMPLES, u_float)
    d1 = bvp.edge_margins(sel.geom, w1, sel.h, bvp.EDGE_SAMPLES, bvp._zero)[0]
    assert np.min(m0 + 1.0 * d1) < 0.0
    assert np.all(m0 + sel.N * d1 > 0.0)


def test_sweep_exhaustion_raises():
    # no N in double range lifts the leg margins 1e300 times their scale
    with pytest.raises(bvp.SolverError, match="past double range"):
        bvp.select_N(2, resolution=96, margin_frac=1e300)


@pytest.mark.parametrize("m0, d1, N", [
    ((-3.0, 1.0), (1.0, 1.0), 4.0),      # N must exceed 3
    ((-4.0, 1.0), (1.0, 1.0), 8.0),      # and 4 strictly
    ((2.0, 1.0), (-1.0, 1.0), 1.0),      # falls with N but holds at N = 1
    ((-1.0, 1.0), (0.0, 1.0), None),     # short and flat
    ((-1.0, 1.0), (-1.0, 1.0), None),    # short and falling
    ((3.0, -3.0), (-1.0, 1.0), None),    # falls below 0 at the top's N = 4
])
def test_select_N_closed_form_on_stated_margins(monkeypatch, m0, d1, N):
    """select_N on stated basis margins m0 and derivatives d1 at the first
    samples of the bottom and top edges; every other sample holds."""
    def stated(geom, w, h, n_samples, leg_value):
        dw, margin, scale = np.ones((3, 4, n_samples))
        scale[2:] = 0.0
        if leg_value is bvp._zero:  # w1
            dw[2:, 0] = d1
        else:  # w0
            margin[2:, 0] = m0
        return dw, margin, scale
    monkeypatch.setattr(bvp, "edge_margins", stated)
    if N is None:
        with pytest.raises(bvp.SolverError, match="no power of two N"):
            bvp.select_N(4, 16, 0.05)
    else:
        assert bvp.select_N(4, 16, 0.05).N == N


def test_select_N_refuses_a_K_whose_slit_field_data_overflow():
    with pytest.raises(bvp.SolverError, match="overflows doubles"):
        bvp.select_N(13, 64, 0.05)


def test_glued_field_regions(selected4, basis4):
    gf = selected4.glue
    # moon region value = slit field
    assert gf.value(-0.5, 0.2) == pytest.approx(u_float(-0.5, 0.2), rel=1e-12)
    # far outside: zero
    assert gf.value(-1.5, 0.0) == 0.0
    # inside the sector wedge: pentagon solution, boundary data continuous
    assert gf.region_of(0.9, 0.0) == 2
    # glue continuity across a leg away from the vertex: the moon side
    # approaches the slit-field data pointwise; the pentagon side carries
    # a large inward gradient (the margin mechanism), so the edge value is
    # recovered by extrapolating along the normal at the gradient scale
    geom = selected4.geom
    t = 0.6
    px = geom.D[0] + t * (geom.D1[0] - geom.D[0])
    py = geom.D[1] + t * (geom.D1[1] - geom.D[1])
    nrm = geom.polygon.inward_normal(geom.LEG_UP)
    data = u_float(px, py)
    eps = 5e-4
    outside = gf.value(px - eps * nrm[0], py - eps * nrm[1])
    assert outside == pytest.approx(data, rel=0.05)
    h = basis4[0].grid.h
    w1h = gf.value(px + h * nrm[0], py + h * nrm[1])
    w2h = gf.value(px + 2 * h * nrm[0], py + 2 * h * nrm[1])
    extrap = 2.0 * w1h - w2h
    assert abs(extrap - data) <= 0.1 * max(abs(w1h), abs(data))
