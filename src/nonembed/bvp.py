"""Laplace/Poisson solvers on masked grids and the pentagon pipeline.

Two solver paths:

* node-aligned masked grids (Dirichlet data stored on boundary nodes):
  conjugate gradients on the symmetric positive-definite 5-point system;
* convex polygon domains with non-grid-aligned edges: Shortley-Weller
  shortened arms with boundary data evaluated at the exact cut points.
  The resulting system is mildly nonsymmetric, so it is solved by sparse
  LU (pointwise relative accuracy of the factorization was validated
  against the exact separated solution of the discrete problem, which
  matters because the far-edge harmonic measure decays below 1e-15 here).

The pentagon pipeline solves the mixed problem (slit-field data on the two
slanted legs, zero on top/bottom, a constant N on the far right edge),
selects N so that sampled inward normal derivatives dominate those of the
slit field, and glues the solution to the slit field on the rest of the
unit disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nonembed.fields import u_float, u_gradient_xy
from nonembed.trees import Segment, build_steiner_tree

Point = Tuple[float, float]

EXTERIOR, INTERIOR, BOUNDARY = 0, 1, 2


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# masked grids
# ---------------------------------------------------------------------------

@dataclass
class MaskedGrid:
    """Rectangular node grid with a per-node role mask.

    Nodes are at origin + (i, j) * h, i in [0, nx], j in [0, ny].
    mask[i, j] is EXTERIOR, INTERIOR or BOUNDARY; boundary_values holds
    Dirichlet data on BOUNDARY nodes.
    """

    origin: Point
    h: float
    mask: np.ndarray
    boundary_values: np.ndarray = field(default=None)
    # True when the true boundary runs between nodes (Shortley-Weller
    # grids); the neighbor invariant then applies to the cut arms instead
    subgrid_boundary: bool = False

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if self.boundary_values is None:
            self.boundary_values = np.zeros(self.mask.shape)
        if not self.subgrid_boundary:
            self._check_neighbors()

    @property
    def shape(self):
        return self.mask.shape

    def nodes_xy(self):
        nx, ny = self.mask.shape
        xs = self.origin[0] + self.h * np.arange(nx)
        ys = self.origin[1] + self.h * np.arange(ny)
        return np.meshgrid(xs, ys, indexing="ij")

    def _check_neighbors(self):
        inner = self.mask[1:-1, 1:-1] == INTERIOR
        if np.any(self.mask[0, :] == INTERIOR) or np.any(self.mask[-1, :] == INTERIOR) \
                or np.any(self.mask[:, 0] == INTERIOR) or np.any(self.mask[:, -1] == INTERIOR):
            raise ValueError("interior node on the grid edge has missing neighbors")
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = self.mask[1 + di:self.mask.shape[0] - 1 + di,
                           1 + dj:self.mask.shape[1] - 1 + dj]
            if np.any(inner & (nb == EXTERIOR)):
                raise ValueError("interior node with an exterior neighbor; "
                                 "mark the rim as boundary")


@dataclass
class ScalarField:
    grid: MaskedGrid
    values: np.ndarray

    def __post_init__(self):
        live = self.grid.mask != EXTERIOR
        if not np.all(np.isfinite(self.values[live])):
            raise ValueError("non-finite values on live nodes")

    def interp(self, x, y):
        """Bilinear interpolation; caller keeps the query cell on live nodes."""
        g = self.grid
        fx = (np.asarray(x) - g.origin[0]) / g.h
        fy = (np.asarray(y) - g.origin[1]) / g.h
        i = np.clip(np.floor(fx).astype(int), 0, g.shape[0] - 2)
        j = np.clip(np.floor(fy).astype(int), 0, g.shape[1] - 2)
        tx, ty = fx - i, fy - j
        v = self.values
        return ((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
                + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])


def box_grid(center: Point, half_width: float, n: int) -> MaskedGrid:
    """Regular box: boundary ring marked BOUNDARY (zero data), rest interior."""
    mask = np.full((n + 1, n + 1), INTERIOR, dtype=np.int8)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = BOUNDARY
    h = 2.0 * half_width / n
    origin = (center[0] - half_width, center[1] - half_width)
    return MaskedGrid(origin=origin, h=h, mask=mask)


def disc_grid(radius: float, n: int, center: Point = (0.0, 0.0)) -> MaskedGrid:
    """Disc carved out of a box: nodes outside the radius are exterior,
    the rim of interior nodes is marked boundary."""
    g = box_grid(center, radius, n)
    X, Y = g.nodes_xy()
    r = np.hypot(X - center[0], Y - center[1])
    mask = np.where(r < radius, INTERIOR, EXTERIOR).astype(np.int8)
    inner = mask == INTERIOR
    rim = inner.copy()
    rim[1:-1, 1:-1] = inner[1:-1, 1:-1] & (
        inner[2:, 1:-1] & inner[:-2, 1:-1] & inner[1:-1, 2:] & inner[1:-1, :-2])
    mask[inner & ~rim] = BOUNDARY
    mask[0, :] = np.where(mask[0, :] == INTERIOR, BOUNDARY, mask[0, :])
    mask[-1, :] = np.where(mask[-1, :] == INTERIOR, BOUNDARY, mask[-1, :])
    mask[:, 0] = np.where(mask[:, 0] == INTERIOR, BOUNDARY, mask[:, 0])
    mask[:, -1] = np.where(mask[:, -1] == INTERIOR, BOUNDARY, mask[:, -1])
    return MaskedGrid(origin=g.origin, h=g.h, mask=mask)


# ---------------------------------------------------------------------------
# node-aligned Dirichlet solve (SPD, conjugate gradients)
# ---------------------------------------------------------------------------

def _interior_system(grid: MaskedGrid, rhs_interior: np.ndarray):
    nx, ny = grid.shape
    idx = -np.ones(grid.shape, dtype=np.int64)
    ii, jj = np.where(grid.mask == INTERIOR)
    idx[ii, jj] = np.arange(len(ii))
    n = len(ii)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0)]
    b = rhs_interior[ii, jj] * grid.h**2
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        role = grid.mask[ni, nj]
        isint = role == INTERIOR
        rows.append(idx[ii[isint], jj[isint]])
        cols.append(idx[ni[isint], nj[isint]])
        vals.append(np.full(int(isint.sum()), -1.0))
        isb = role == BOUNDARY
        np.add.at(b, idx[ii[isb], jj[isb]], grid.boundary_values[ni[isb], nj[isb]])
    A = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return A, b, (ii, jj)


def solve_laplace_dirichlet(grid: MaskedGrid, tol: float = 1e-12,
                            maxiter: int = 1_000_000) -> ScalarField:
    """Discrete harmonic extension of the boundary node data (CG on the
    SPD 5-point system)."""
    A, b, (ii, jj) = _interior_system(grid, np.zeros(grid.shape))
    x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=maxiter)
    if info != 0:
        res = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300)
        raise SolverError(f"CG did not converge (info={info}, rel residual {res:.2e})")
    values = np.array(grid.boundary_values, dtype=float)
    values[grid.mask == EXTERIOR] = 0.0
    values[ii, jj] = x
    return ScalarField(grid=grid, values=values)


def solve_poisson(grid: MaskedGrid, rhs: np.ndarray, tol: float = 1e-10) -> ScalarField:
    """Solution of (5-point Laplacian) u = -rhs with the grid's Dirichlet
    data (zero on the standard box).  Regular boxes use the exact
    sine-transform solve of the same discrete system (residual verified);
    general masked grids fall back to CG.
    """
    full_box = np.all(grid.mask[1:-1, 1:-1] == INTERIOR) and \
        np.all(grid.mask[0, :] == BOUNDARY) and np.all(grid.mask[-1, :] == BOUNDARY) and \
        np.all(grid.mask[:, 0] == BOUNDARY) and np.all(grid.mask[:, -1] == BOUNDARY) and \
        not np.any(grid.boundary_values)
    if full_box:
        values = _poisson_dst(grid, rhs)
    else:
        A, b, (ii, jj) = _interior_system(grid, np.asarray(rhs, dtype=float))
        x, info = spla.cg(A, b, rtol=1e-12, atol=0.0, maxiter=1_000_000)
        if info != 0:
            raise SolverError(f"CG did not converge (info={info})")
        values = np.array(grid.boundary_values, dtype=float)
        values[grid.mask == EXTERIOR] = 0.0
        values[ii, jj] = x
    out = ScalarField(grid=grid, values=values)
    res = laplacian_grid(out) + np.asarray(rhs)[1:-1, 1:-1]
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    worst = float(np.max(np.abs(res[grid.mask[1:-1, 1:-1] == INTERIOR])))
    if worst > max(tol * scale, 1e-9 * scale):
        raise SolverError(f"poisson residual {worst:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return out


def _poisson_dst(grid: MaskedGrid, rhs: np.ndarray) -> np.ndarray:
    from scipy.fft import dstn, idstn
    f = np.asarray(rhs, dtype=float)[1:-1, 1:-1] * grid.h**2
    m, n = f.shape
    F = dstn(f, type=1)
    i = np.arange(1, m + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    eig = (4.0 * np.sin(i * np.pi / (2 * (m + 1))) ** 2
           + 4.0 * np.sin(j * np.pi / (2 * (n + 1))) ** 2)
    U = idstn(F / eig, type=1)
    values = np.zeros(grid.shape)
    values[1:-1, 1:-1] = U
    return values


def laplacian_grid(f: ScalarField) -> np.ndarray:
    """5-point Laplacian at inner nodes (shape (nx-2, ny-2))."""
    v = f.values
    return (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
            - 4.0 * v[1:-1, 1:-1]) / f.grid.h**2


def max_principle_violation(f: ScalarField) -> float:
    """How far interior values exceed the boundary range (<= 0 means the
    discrete maximum principle holds)."""
    b = f.values[f.grid.mask == BOUNDARY]
    i = f.values[f.grid.mask == INTERIOR]
    if len(b) == 0 or len(i) == 0:
        return 0.0
    return max(float(i.max() - b.max()), float(b.min() - i.min()))


# ---------------------------------------------------------------------------
# convex polygons with Shortley-Weller cut arms
# ---------------------------------------------------------------------------

@dataclass
class ConvexPolygon:
    """Counterclockwise vertex list; edges are (v[k], v[k+1])."""

    vertices: Sequence[Point]

    def __post_init__(self):
        v = self.vertices
        n = len(v)
        area2 = sum(v[k][0] * v[(k + 1) % n][1] - v[(k + 1) % n][0] * v[k][1]
                    for k in range(n))
        if area2 <= 0:
            raise ValueError("vertices must be counterclockwise")
        self._normals = []  # inward
        self._offsets = []
        for k in range(n):
            p, q = v[k], v[(k + 1) % n]
            e = (q[0] - p[0], q[1] - p[1])
            L = math.hypot(*e)
            nrm = (-e[1] / L, e[0] / L)  # left of the edge = inside (ccw)
            self._normals.append(nrm)
            self._offsets.append(nrm[0] * p[0] + nrm[1] * p[1])

    @property
    def n_edges(self):
        return len(self.vertices)

    def edge(self, k) -> Segment:
        v = self.vertices
        return Segment(v[k], v[(k + 1) % len(v)])

    def inward_normal(self, k) -> Point:
        return self._normals[k]

    def signed_distances(self, X, Y):
        """Distance to each edge line, positive inside; stacked on axis 0."""
        out = np.empty((self.n_edges,) + np.shape(X))
        for k, (nrm, off) in enumerate(zip(self._normals, self._offsets)):
            out[k] = nrm[0] * X + nrm[1] * Y - off
        return out

    def contains(self, X, Y, pad: float = 0.0):
        return np.all(self.signed_distances(X, Y) > pad, axis=0)

    def edge_cut(self, p: Point, direction: Point, h: float) -> Tuple[float, int]:
        """Fraction alpha in (0, 1] along p + t*h*direction at which the
        boundary is crossed, and the edge index; p must be inside."""
        best, kbest = math.inf, -1
        for k, (nrm, off) in enumerate(zip(self._normals, self._offsets)):
            denom = (nrm[0] * direction[0] + nrm[1] * direction[1]) * h
            if denom >= 0.0:
                continue  # moving parallel or deeper inside
            num = off - (nrm[0] * p[0] + nrm[1] * p[1])
            t = num / denom
            if 0.0 < t < best:
                best, kbest = t, k
        if kbest < 0 or best > 1.0 + 1e-12:
            raise SolverError("arm cut not found; node classification inconsistent")
        return min(best, 1.0), kbest


def _assemble_polygon(poly: ConvexPolygon, h: float, origin: Point,
                      shape: Tuple[int, int], snap: float = 1e-9):
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
    cut_records = []  # (row, direction, alpha, edge index, cut point)
    for d, (di, dj) in enumerate(dirs):
        nb_in = interior[ii + di, jj + dj]
        for r in np.where(~nb_in)[0]:
            p = (xs[ii[r]], ys[jj[r]])
            a, k = poly.edge_cut(p, (float(di), float(dj)), h)
            a = max(a, 1e-6)
            alphas[d, r] = a
            cut_records.append((r, d, a, k, (p[0] + a * h * di, p[1] + a * h * dj)))

    aE, aW, aN, aS = alphas
    diag = (2.0 / (aE * aW) + 2.0 / (aN * aS)) / h**2
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [diag]
    coefs = np.empty((4, n))
    coefs[0] = 2.0 / (aE * (aE + aW)) / h**2
    coefs[1] = 2.0 / (aW * (aE + aW)) / h**2
    coefs[2] = 2.0 / (aN * (aN + aS)) / h**2
    coefs[3] = 2.0 / (aS * (aN + aS)) / h**2
    for d, (di, dj) in enumerate(dirs):
        nb_in = interior[ii + di, jj + dj]
        sel = np.where(nb_in)[0]
        rows.append(sel)
        cols.append(idx[ii[sel] + di, jj[sel] + dj])
        vals.append(-coefs[d][sel])
    A = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    geom = dict(xs=xs, ys=ys, interior=interior, idx=idx, ii=ii, jj=jj,
                coefs=coefs, cut_records=cut_records, origin=origin,
                h=h, shape=shape)
    return A, geom


class PolygonProblem:
    """Factorized Shortley-Weller discretization of a convex polygon,
    reusable across Dirichlet data sets."""

    def __init__(self, poly: ConvexPolygon, h: float, origin: Point,
                 shape: Tuple[int, int]):
        self.poly = poly
        A, geom = _assemble_polygon(poly, h, origin, shape)
        self.geom = geom
        self.lu = spla.splu(A)
        self._A = A

    def solve(self, edge_data: Sequence[Callable]) -> ScalarField:
        g = self.geom
        n = len(g["ii"])
        b = np.zeros(n)
        for (r, d, a, k, cutpt) in g["cut_records"]:
            b[r] += g["coefs"][d][r] * edge_data[k](*cutpt)
        x = self.lu.solve(b)
        values = np.zeros(g["shape"])
        values[g["ii"], g["jj"]] = x
        self._fill_rim(values, x, edge_data)
        mask = np.where(g["interior"], INTERIOR, EXTERIOR).astype(np.int8)
        grid = MaskedGrid(origin=g["origin"], h=g["h"], mask=mask,
                          subgrid_boundary=True)
        return ScalarField(grid=grid, values=values)

    def _fill_rim(self, values: np.ndarray, x: np.ndarray,
                  edge_data: Sequence[Callable]) -> None:
        """First-order extrapolation of the solution onto exterior nodes
        adjacent to the boundary, so bilinear interpolation of cells that
        straddle an edge honors the Dirichlet data instead of blending
        with zeros."""
        g = self.geom
        dirs = ((1, 0), (-1, 0), (0, 1), (0, -1))
        acc = {}
        for (r, d, a, k, cutpt) in g["cut_records"]:
            di, dj = dirs[d]
            qi, qj = g["ii"][r] + di, g["jj"][r] + dj
            data = edge_data[k](*cutpt)
            if a >= 0.2:
                v = x[r] + (data - x[r]) / a
            else:
                v = data
            acc.setdefault((qi, qj), []).append(v)
        for (qi, qj), vs in acc.items():
            values[qi, qj] = float(np.mean(vs))

    def residual(self, f: ScalarField, edge_data: Sequence[Callable]) -> float:
        g = self.geom
        b = np.zeros(len(g["ii"]))
        for (r, d, a, k, cutpt) in g["cut_records"]:
            b[r] += g["coefs"][d][r] * edge_data[k](*cutpt)
        x = f.values[g["ii"], g["jj"]]
        r = self._A @ x - b
        return float(np.max(np.abs(r)) / max(np.max(np.abs(b)), 1e-300))


# ---------------------------------------------------------------------------
# normal derivatives along edges
# ---------------------------------------------------------------------------

def normal_derivative(f_interp: Callable, edge: Segment, normal: Point,
                      h: float, n_samples: int = 40,
                      corner_margin: Optional[float] = None,
                      boundary_value: Optional[Callable] = None) -> dict:
    """One-sided second-order normal derivative at sampled edge points.

    f_interp(x, y) evaluates the field strictly inside the domain;
    boundary_value(x, y), when given, supplies the exact edge value
    (otherwise f_interp is trusted on the edge).  Offsets are 2h and 4h so
    every interpolation cell stays interior for convex domains.

        f_n ~ (-3 f(p) + 4 f(p + 2h n) - f(p + 4h n)) / (4h)

    Returns dict with sample points, parameters and derivative values.
    """
    if corner_margin is None:
        corner_margin = 3.0 * h
    L = edge.length
    t_lo = corner_margin / L
    t_hi = 1.0 - corner_margin / L
    if not (0 < t_lo < t_hi < 1):
        raise SolverError("edge shorter than twice the corner margin")
    ts = np.linspace(t_lo, t_hi, n_samples)
    px, py = edge.at(ts)
    f0 = np.array([boundary_value(x, y) if boundary_value else f_interp(x, y)
                   for x, y in zip(px, py)], dtype=float)
    f1 = np.array([f_interp(px[i] + 2 * h * normal[0], py[i] + 2 * h * normal[1])
                   for i in range(len(ts))], dtype=float)
    f2 = np.array([f_interp(px[i] + 4 * h * normal[0], py[i] + 4 * h * normal[1])
                   for i in range(len(ts))], dtype=float)
    deriv = (-3.0 * f0 + 4.0 * f1 - f2) / (4.0 * h)
    return dict(t=ts, x=px, y=py, value=deriv)


# ---------------------------------------------------------------------------
# the pentagon pipeline
# ---------------------------------------------------------------------------

@dataclass
class PentagonGeometry:
    K: int
    D: Point
    D1: Point
    D3: Point
    D4: Point
    D5: Point
    polygon: ConvexPolygon

    # edge order in the polygon: 0 = D1->D (upper leg), 1 = D->D3 (lower
    # leg), 2 = D3->D4 (bottom), 3 = D4->D5 (right), 4 = D5->D1 (top)
    LEG_UP, LEG_LO, BOTTOM, RIGHT, TOP = range(5)

    @property
    def half_height(self) -> float:
        return self.D1[1]


def pentagon_geometry(K: int, far_x: float = 20.0) -> PentagonGeometry:
    if 4 * K * K > 660:
        raise SolverError(f"slit-field data overflows doubles for K={K}")
    a = math.exp(-2.0 * K)
    t = build_steiner_tree(a)
    D1, D3 = t.a1, t.a3
    D4 = (far_x, D3[1])
    D5 = (far_x, D1[1])
    poly = ConvexPolygon([D1, (-a, 0.0), D3, D4, D5])
    return PentagonGeometry(K=K, D=(-a, 0.0), D1=D1, D3=D3, D4=D4, D5=D5,
                            polygon=poly)


def _pentagon_grid_params(geom: PentagonGeometry, resolution: int):
    """Grid aligned with the top/bottom rows and the right column."""
    y1 = geom.half_height
    ny = 2 * max(8, resolution // 2)  # even: y = 0 and +-y1 are node rows
    h = 2.0 * y1 / ny
    left = geom.D[0] - 3.0 * h
    n_left = math.ceil((geom.D4[0] - left) / h)
    origin = (geom.D4[0] - n_left * h, -y1 - h)
    return origin, h, (n_left + 1, ny + 3)


def pentagon_problem(geom: PentagonGeometry, resolution: int = 192) -> PolygonProblem:
    origin, h, shape = _pentagon_grid_params(geom, resolution)
    return PolygonProblem(geom.polygon, h, origin, shape)


def _zero(x, y):
    return 0.0


def pentagon_edge_data(geom: PentagonGeometry, N: float) -> list:
    data = [_zero] * 5
    data[geom.LEG_UP] = u_float
    data[geom.LEG_LO] = u_float
    data[geom.RIGHT] = lambda x, y: float(N)
    return data


@dataclass
class SelectedN:
    N: float
    margins: dict
    w0: ScalarField
    w1: ScalarField
    problem: PolygonProblem
    geom: PentagonGeometry

    def w_values(self) -> np.ndarray:
        return self.w0.values + self.N * self.w1.values

    def w_field(self) -> ScalarField:
        return ScalarField(grid=self.w0.grid, values=self.w_values())


def _edge_margins(geom: PentagonGeometry, sel_w0: ScalarField, w1: ScalarField,
                  N: float, h: float, n_samples: int) -> dict:
    """Inward normal-derivative margins on the legs and side edges for the
    combined solution w0 + N*w1."""
    poly = geom.polygon
    combined = ScalarField(grid=sel_w0.grid,
                           values=sel_w0.values + N * w1.values)

    def interp(x, y):
        return float(combined.interp(x, y))

    out = {}
    for k, name in ((geom.LEG_UP, "leg_up"), (geom.LEG_LO, "leg_lo")):
        nd = normal_derivative(interp, poly.edge(k), poly.inward_normal(k), h,
                               n_samples=n_samples, boundary_value=u_float)
        gvals = []
        nrm = poly.inward_normal(k)
        for x, y in zip(nd["x"], nd["y"]):
            gx, gy = u_gradient_xy(x, y)
            gvals.append(gx * nrm[0] + gy * nrm[1])
        gvals = np.array(gvals)
        out[name] = dict(w_gamma=nd["value"], u_gamma=gvals,
                         margin=nd["value"] - gvals,
                         scale=np.abs(gvals))
    for k, name in ((geom.BOTTOM, "bottom"), (geom.TOP, "top")):
        nd = normal_derivative(interp, poly.edge(k), poly.inward_normal(k), h,
                               n_samples=n_samples, boundary_value=_zero)
        out[name] = dict(w_gamma=nd["value"], margin=nd["value"],
                         scale=np.abs(nd["value"]))
    return out


def select_N(K: int, schedule: Optional[Sequence[float]] = None,
             resolution: int = 192, margin_frac: float = 0.05,
             n_samples: int = 40) -> SelectedN:
    """Smallest N in a geometric sweep for which, at the sampled edge
    points, the inward normal derivative of the pentagon solution exceeds
    that of the slit field on the legs (by margin_frac of the local slit
    gradient scale) and is positive on the top/bottom edges.

    The solution at N is w0 + N*w1 by linearity, so the sweep costs two
    factorizer solves total.
    """
    geom = pentagon_geometry(K)
    prob = pentagon_problem(geom, resolution)
    w0 = prob.solve(pentagon_edge_data(geom, 0.0))
    unit_right = [_zero] * 5
    unit_right[geom.RIGHT] = lambda x, y: 1.0
    w1 = prob.solve(unit_right)
    h = prob.geom["h"]

    if schedule is None:
        schedule = [float(2 ** k) for k in range(0, 260)]
    best = None
    for N in schedule:
        m = _edge_margins(geom, w0, w1, N, h, n_samples)
        ok_legs = all(
            np.all(m[e]["margin"] > margin_frac * np.maximum(m[e]["scale"], 1e-300))
            for e in ("leg_up", "leg_lo"))
        ok_sides = all(np.all(m[e]["w_gamma"] > 0.0) for e in ("bottom", "top"))
        if ok_legs and ok_sides:
            best = SelectedN(N=N, margins=m, w0=w0, w1=w1, problem=prob,
                             geom=geom)
            break
    if best is None:
        last = _edge_margins(geom, w0, w1, schedule[-1], h, n_samples)
        worst = {e: float(np.min(v["margin"])) for e, v in last.items()}
        raise SolverError(f"N sweep exhausted; best margins {worst}")
    return best


# ---------------------------------------------------------------------------
# the glued field on disc + pentagon
# ---------------------------------------------------------------------------

class GluedField:
    """w = slit field on the disc minus the vertex sector, pentagon
    solution inside the polygon, zero outside both.

    Pentagon values are interpolated with a C^2 cubic spline (kinks of a
    bilinear interpolant would dominate second differences taken on
    coarser downstream grids).
    """

    def __init__(self, selected: SelectedN):
        from scipy.ndimage import spline_filter
        self.geom = selected.geom
        self.poly = selected.geom.polygon
        self.w = selected.w_field()
        self.selected = selected
        self._coeffs = spline_filter(self.w.values, order=3)

    def _pentagon_interp(self, X, Y):
        from scipy.ndimage import map_coordinates
        g = self.w.grid
        fi = (X - g.origin[0]) / g.h
        fj = (Y - g.origin[1]) / g.h
        return map_coordinates(self._coeffs, np.vstack([fi, fj]), order=3,
                               prefilter=False, mode="nearest")

    def region_of(self, x, y):
        """0 exterior, 1 disc (slit field), 2 pentagon."""
        X = np.asarray(x, dtype=float)
        Y = np.asarray(y, dtype=float)
        inside_poly = self.poly.contains(X, Y)
        in_disc = (X * X + Y * Y) < 1.0
        return np.where(inside_poly, 2, np.where(in_disc, 1, 0))

    def value(self, x, y):
        """Vectorized region-wise evaluation (slit field / pentagon / 0)."""
        X = np.asarray(x, dtype=float)
        Y = np.asarray(y, dtype=float)
        scalar = X.shape == ()
        X, Y = np.atleast_1d(X), np.atleast_1d(Y)
        reg = self.region_of(X, Y)
        out = np.zeros(X.shape)
        disc = reg == 1
        if np.any(disc):
            from nonembed.fields import u_log_xy
            signs, logmags = u_log_xy(X[disc], Y[disc])
            if np.any(logmags > 700.0):
                raise SolverError("slit-field value overflows a double; "
                                  "evaluation point too close to the origin")
            out[disc] = signs * np.exp(logmags)
        pent = reg == 2
        if np.any(pent):
            out[pent] = self._pentagon_interp(X[pent], Y[pent])
        if scalar:
            return float(out[0])
        return out

    def interface_distance(self, x, y):
        """Distance to the glue set: polygon edges and the unit circle."""
        X = np.asarray(x, dtype=float)
        Y = np.asarray(y, dtype=float)
        d = np.abs(np.hypot(X, Y) - 1.0)
        for k in range(self.poly.n_edges):
            e = self.poly.edge(k)
            px, py = e.p
            qx, qy = e.q
            ex, ey = qx - px, qy - py
            L2 = ex * ex + ey * ey
            t = np.clip(((X - px) * ex + (Y - py) * ey) / L2, 0.0, 1.0)
            d = np.minimum(d, np.hypot(X - (px + t * ex), Y - (py + t * ey)))
        return d
