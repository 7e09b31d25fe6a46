"""Laplace/Poisson solvers on masked grids and the pentagon pipeline.

Two solvers:

* Poisson solves on node-aligned zero-data boxes, by sine transform,
  with the residual checked a block of rows at a time
  (`laplacian_blocks`), so that no full-grid temporary is made.  The
  sine transform, the eigenvalue division, the Laplacian, the rectangle
  update of the polygon solve and `mollify`'s tail grid all take their
  blocks of ROWS rows from one iterator, `row_blocks`;
* convex polygon domains with non-grid-aligned edges: Shortley-Weller
  shortened arms with boundary data evaluated at the exact cut points.
  The polygon must end on the right in a rectangle whose rows are the
  plain 5-point stencil: top and bottom edges on node rows, the right
  edge on a node column, as the pentagon's are right of its legs.  The
  system is split at the rectangle's first column, the interface column
  Γ:
  - the tip left of Γ (5,466 unknowns in 56 node columns for the
    pentagon) is eliminated column by column: its blocks are dense
    tridiagonal columns, coupled diagonally to their neighbours;
  - the rectangle right of Γ is solved by Hockney's method (J. ACM 12,
    1965): an orthonormal DST-I in y and one tridiagonal sweep in x per
    mode, vectorized over the modes and the data sets;
  - Γ is solved through its dense Schur complement, the capacitance
    matrix of Buzbee, Dorr, George and Golub (SIAM J. Numer. Anal. 8,
    1971).
  The data sets are solved one after the other on one setup, each
  through one right-hand side at the unknowns, which the solve consumes:
  it is overwritten with the solution, the rectangle's part transformed
  and swept where it lies.  The rectangle
  is taken as the exact 5-point stencil, so one step of iterative
  refinement against the true A follows, whose residual b - A x is
  summed in compensated float64 (TwoProduct and TwoSum over the 5-point
  stencil) a block of node columns at a time and written into the same
  vector, which the correction solve overwrites in turn;
  `PolygonProblem.residual` reads the same residual.
  Pointwise relative accuracy matters because the far-edge
  harmonic measure decays below 1e-15 here: against the exact solution
  of the pentagon system itself (50 digits, at resolution 32) the
  refined solve is within 1.1e-16 relative at every unknown, down to
  values of 4e-18
  (test_pentagon_solve_pointwise_accuracy_against_the_50_digit_oracle),
  and against the exact separated solution of a discrete rectangle
  problem (60 digits) within 6e-17 at sampled nodes, where an unrefined
  COLAMD-ordered LU was off by 2.1e-13
  (test_polygon_solve_pointwise_accuracy_against_discrete_oracle).

The system is kept on the grid's node array: the unknowns' mask, and the
5-point coefficients of the few nodes that have a cut arm (4,700 of the
pentagon's 418,026 unknowns at resolution 192); every other unknown has
the plain stencil.  The tip's and Γ's blocks and the residual's
coefficients are laid out from it a few node columns at a time, and no
sparse matrix is built.  Every kernel is NumPy: the sine transforms, the
dense block algebra and the glued field's cubic spline.

The pentagon pipeline solves the mixed problem (slit-field data on the two
slanted legs, zero on top/bottom, a constant N on the far right edge),
selects N so that sampled inward normal derivatives dominate those of the
slit field, and glues the solution to the slit field on the rest of the
unit disc.  The margins are affine in N, so `select_N` finds N in closed
form.  It keeps the solution at N, the sum of the two basis solutions,
with its margins and pentagon residual, and frees the system and the
basis solutions; the glued field of that sum is built once, on
`SelectedN.glue`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, Tuple

import numpy as np

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
    mask[i, j] is EXTERIOR, INTERIOR or BOUNDARY.
    """

    origin: Point
    h: float
    mask: np.ndarray
    # True when the true boundary runs between nodes (Shortley-Weller
    # grids); the neighbor invariant then applies to the cut arms instead
    subgrid_boundary: bool = False

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if not self.subgrid_boundary:
            self._check_neighbors()

    @property
    def shape(self):
        return self.mask.shape

    def axes(self):
        """Node coordinates along x and along y."""
        nx, ny = self.mask.shape
        return (self.origin[0] + self.h * np.arange(nx),
                self.origin[1] + self.h * np.arange(ny))

    def nodes_xy(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def _check_neighbors(self):
        m = self.mask
        if np.any(m[0, :] == INTERIOR) or np.any(m[-1, :] == INTERIOR) \
                or np.any(m[:, 0] == INTERIOR) or np.any(m[:, -1] == INTERIOR):
            raise ValueError("interior node on the grid edge has missing neighbors")
        if np.any((m[1:-1, 1:-1] == INTERIOR)
                  & stencil_reduce(m == EXTERIOR, np.logical_or)):
            raise ValueError("interior node with an exterior neighbor; "
                             "mark the rim as boundary")


def stencil_reduce(a: np.ndarray, op) -> np.ndarray:
    """op (np.logical_or for any, np.logical_and for all) of the bool node
    array a over each inner node's 5-point stencil, shape (nx-2, ny-2)."""
    out = a[1:-1, 1:-1].copy()
    for nb in (a[2:, 1:-1], a[:-2, 1:-1], a[1:-1, 2:], a[1:-1, :-2]):
        op(out, nb, out=out)
    return out


@dataclass
class ScalarField:
    grid: MaskedGrid
    values: np.ndarray

    def __post_init__(self):
        v, m = self.values, self.grid.mask
        for rows in row_blocks(len(v)):  # no full-grid temporary
            if not np.all(np.isfinite(v[rows]) | (m[rows] == EXTERIOR)):
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


# ---------------------------------------------------------------------------
# node-aligned Poisson solve (sine transform)
# ---------------------------------------------------------------------------

# largest residual of a sine-transform solve, relative to max |rhs|
_POISSON_TOL = 1e-9


def solve_poisson(grid: MaskedGrid, rhs: np.ndarray) -> ScalarField:
    """Solution of (5-point Laplacian) u = -rhs with zero Dirichlet data
    on a regular box (`box_grid`), by the exact sine-transform solve of
    the discrete system (residual verified).  Any other grid raises
    SolverError.
    """
    full_box = np.all(grid.mask[1:-1, 1:-1] == INTERIOR) and \
        np.all(grid.mask[0, :] == BOUNDARY) and np.all(grid.mask[-1, :] == BOUNDARY) and \
        np.all(grid.mask[:, 0] == BOUNDARY) and np.all(grid.mask[:, -1] == BOUNDARY)
    if not full_box:
        raise SolverError("solve_poisson needs a box grid")
    out = ScalarField(grid=grid, values=_poisson_dst(grid, rhs))
    rhs = np.asarray(rhs)
    peaks = []  # block by block: no more full grids
    for rows, res in laplacian_blocks(out):
        res += rhs[rows.start + 1:rows.stop + 1, 1:-1]
        peaks.append(np.max(np.abs(res, out=res)))
    scale = max(float(np.max(rhs)), -float(np.min(rhs)), 1e-300)
    worst = float(np.max(peaks))
    if worst > _POISSON_TOL * scale:
        raise SolverError(f"poisson residual {worst:.3e} exceeds "
                          f"{_POISSON_TOL:.1e} * {scale:.3e}")
    return out


def _poisson_dst(grid: MaskedGrid, rhs: np.ndarray) -> np.ndarray:
    values = np.zeros(grid.shape)
    f = values[1:-1, 1:-1]  # transformed in place
    np.multiply(np.asarray(rhs, dtype=float)[1:-1, 1:-1], grid.h**2, out=f)
    m, n = f.shape
    _divide_by_eigenvalues(_dst1(_dst1(f, 0), 1))
    # the inverse is the same transform over 2(m+1) 2(n+1)
    _dst1(_dst1(f, 0, _reciprocal(4 * (m + 1) * (n + 1))), 1)
    return values


# rows (or transform lines) per block of the blocked grid kernels: a
# block and its temporaries then take a few MiB at most
ROWS = 64


def row_blocks(n: int, size: int = 0):
    """range(n) as consecutive slices of size rows, ROWS unless given, the
    last one possibly shorter."""
    size = size or ROWS
    for lo in range(0, n, size):
        yield slice(lo, min(lo + size, n))


def _dst1_spectrum(m: int) -> np.ndarray:
    """4 sin^2(k pi / 2(m+1)), k = 1..m: h^2 times the eigenvalues of minus
    the 3-point second difference on m nodes, which the DST-I diagonalizes."""
    return 4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2


def _divide_by_eigenvalues(f: np.ndarray) -> np.ndarray:
    """f / (lam_i + lam_j), `_dst1_spectrum` per axis: the (m, n) box's
    eigenvalues, written over f, which is returned.  The sums are formed a
    block of rows at a time (`row_blocks`), so no grid of them is made."""
    m, n = f.shape
    di, dj = _dst1_spectrum(m)[:, None], _dst1_spectrum(n)
    for rows in row_blocks(m):
        block = f[rows]
        np.divide(block, di[rows] + dj, out=block)
    return f


def _dst1(a: np.ndarray, axis: int, scale: float = 1.0) -> np.ndarray:
    """The DST-I of the 2-D array a along axis 0 or 1, times scale,
    written over a, which is returned.  The transform of a line of n
    values is minus the imaginary part of terms 1..n of the real FFT of
    its odd extension (0, line, 0, -line reversed), of length 2(n+1).
    pocketfft computes it so, so the bits equal scipy.fft.dst(type=1)
    and, a pass per axis with the scale on the first, dstn and idstn.
    Lines go a block at a time (`row_blocks`), as many as make about
    256 ROWS values of extension, so that a block's extensions and
    spectra take 0.25 MiB at ROWS = 64 whatever the line length; along
    axis 0 a block of columns is gathered transposed, so no copy of a is
    made."""
    n = a.shape[axis]
    lines = a.shape[1 - axis]
    size = max(1, 256 * ROWS // (2 * (n + 1)))
    buf = np.zeros((min(size, lines), 2 * (n + 1)))
    for rows in row_blocks(lines, size):
        ext = buf[:rows.stop - rows.start]
        line = a[rows] if axis == 1 else a[:, rows].T
        ext[:, 1:n + 1] = line
        np.negative(line[:, ::-1], out=ext[:, n + 2:])
        im = np.fft.rfft(ext, axis=1).imag[:, 1:n + 1]
        np.multiply(im, -scale, out=line)
    return a


def _reciprocal(N: int, root: bool = False) -> float:
    """1/N, or 1/sqrt(N), in long double and then rounded, as pocketfft
    forms its normalization factors."""
    x = np.longdouble(N)
    return float(1 / (np.sqrt(x) if root else x))


def laplacian_blocks(f: ScalarField):
    """The 5-point Laplacian at inner nodes, a block of rows at a time
    (`row_blocks`; a block and its one temporary take 0.8 MiB each on the
    1537-squared g1 grid): yields (rows, block), rows a slice of the
    inner rows and block their Laplacian, which the next block
    overwrites.  Each value is
    ((v_E + v_W) + v_N) + v_S - 4 v, then / h^2, in the order of the
    whole-array expression, and no full-grid temporary is made."""
    v, h2 = f.values, f.grid.h**2
    n = v.shape[0] - 2
    buf = np.empty((min(ROWS, n), v.shape[1] - 2))
    for rows in row_blocks(n):
        lo, hi = rows.start, rows.stop
        out, c = buf[:hi - lo], v[lo + 1:hi + 1]
        np.add(v[lo + 2:hi + 2, 1:-1], v[lo:hi, 1:-1], out=out)
        out += c[:, 2:]
        out += c[:, :-2]
        out -= 4.0 * c[:, 1:-1]
        out /= h2
        yield rows, out


def laplacian_grid(f: ScalarField) -> np.ndarray:
    """5-point Laplacian at inner nodes (shape (nx-2, ny-2))."""
    v = f.values
    out = np.empty((v.shape[0] - 2, v.shape[1] - 2))
    for rows, block in laplacian_blocks(f):
        out[rows] = block
    return out


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

    def contains(self, X, Y, pad: float = 0.0):
        """Whether each point's distance to every edge line, positive
        inside, exceeds pad."""
        out = np.ones(np.shape(X), dtype=bool)
        for nrm, off in zip(self._normals, self._offsets):
            out &= nrm[0] * X + nrm[1] * Y - off > pad
        return out


_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # E, W, N, S


def _cut_arms(poly: ConvexPolygon, px: np.ndarray, py: np.ndarray,
              di: int, dj: int, h: float):
    """Fractions alpha in (0, 1] along the arms p + t*h*(di, dj) at which
    the boundary is crossed, and the crossed edges' indices; every p must
    be inside.  The nearest crossing wins, the lowest edge index on ties."""
    best = np.full(len(px), np.inf)
    kbest = np.full(len(px), -1)
    for k, (nrm, off) in enumerate(zip(poly._normals, poly._offsets)):
        denom = (nrm[0] * float(di) + nrm[1] * float(dj)) * h
        if denom >= 0.0:
            continue  # moving parallel or deeper inside
        t = (off - (nrm[0] * px + nrm[1] * py)) / denom
        nearer = (0.0 < t) & (t < best)
        best[nearer] = t[nearer]
        kbest[nearer] = k
    if np.any(kbest < 0) or np.any(best > 1.0 + 1e-12):
        raise SolverError("arm cut not found; node classification inconsistent")
    return np.minimum(best, 1.0), kbest


def _assemble_polygon(poly: ConvexPolygon, h: float, origin: Point,
                      shape: Tuple[int, int]) -> dict:
    """The Shortley-Weller system on the (nx, ny) node array: the unknowns
    `interior`, the cut-arm records `cuts` and the stencils of the nodes
    that have a cut arm, `stencil`: their flat indices `node`, ascending,
    `diag` and the four neighbour coefficients `coefs` (E, W, N, S; A holds
    their negatives).  Every other unknown has the plain 5-point stencil,
    diag 4/h^2 and neighbours 1/h^2, so no coefficient array of the node
    array's shape is kept; `_stencil_planes` lays them out on a block of
    node columns.  Unknowns are numbered column by column, the order of
    the nodes; each record also holds its node's unknown, `unknown`."""
    nx, ny = shape
    xs = origin[0] + h * np.arange(nx)
    ys = origin[1] + h * np.arange(ny)
    interior = poly.contains(*np.broadcast_arrays(xs[:, None], ys), pad=1e-9)
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False

    per_dir = []
    for d, (di, dj) in enumerate(_DIRS):
        # no unknown lies on the grid's edge, so the roll never wraps one
        node = np.flatnonzero(interior & ~np.roll(interior, (-di, -dj), (0, 1)))
        px, py = xs[node // ny], ys[node % ny]
        a, k = _cut_arms(poly, px, py, di, dj, h)
        a = np.maximum(a, 1e-6)
        per_dir.append(dict(node=node, dir=np.full(len(node), d), alpha=a,
                            edge=k, x=px + a * h * di, y=py + a * h * dj))
    # cut-arm records (flat node index, direction, alpha, edge index, cut
    # point) in (direction, node) order
    cuts = {key: np.concatenate([c[key] for c in per_dir]) for key in per_dir[0]}
    # and each record's unknown: its column's first unknown plus its row's
    # offset from the column's first unknown row
    i, j = np.divmod(cuts["node"], ny)
    count = np.count_nonzero(interior, axis=1)
    first = (np.cumsum(count) - count)[i]
    cuts["unknown"] = first + j - np.argmax(interior, axis=1)[i]

    node = np.unique(cuts["node"])
    alphas = np.ones((4, len(node)))  # an uncut arm has alpha 1
    alphas[cuts["dir"], np.searchsorted(node, cuts["node"])] = cuts["alpha"]
    aE, aW, aN, aS = alphas
    stencil = dict(node=node, diag=(2.0 / (aE * aW) + 2.0 / (aN * aS)) / h**2,
                   coefs=np.stack([2.0 / (a * (a + b)) / h**2 for a, b in (
                       (aE, aW), (aW, aE), (aN, aS), (aS, aN))]))
    return dict(interior=interior, cuts=cuts, stencil=stencil,
                origin=origin, h=h, shape=shape)


def _stencil_planes(geom: dict, lo: int, hi: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The diagonal and the four neighbour coefficients (E, W, N, S) of
    node columns lo:hi, arrays of shape (hi - lo, ny) and (4, hi - lo, ny),
    zero off the unknowns: the plain stencil's, then the cut nodes' from
    `geom["stencil"]`.  An uncut unknown's values are those its alphas of
    1 give, 2/(1 (1 + 1))/h^2 = 1/h^2 and (2/1 + 2/1)/h^2 = 4/h^2."""
    inside, st, h = geom["interior"][lo:hi], geom["stencil"], geom["h"]
    ny = inside.shape[1]
    diag = np.where(inside, 4.0 / h**2, 0.0)
    coefs = np.empty((4,) + inside.shape)
    coefs[:] = np.where(inside, 1.0 / h**2, 0.0)
    a, b = np.searchsorted(st["node"], (lo * ny, hi * ny))
    at = st["node"][a:b] - lo * ny
    diag.flat[at] = st["diag"][a:b]
    coefs.reshape(4, -1)[:, at] = st["coefs"][:, a:b]
    return diag, coefs


class _Column(NamedTuple):
    """A node column of the system: its unknowns' slice of the solver's
    vector and its couplings to the previous column, which are diagonal
    on the rows the two share: `west` holds A_{c,c-1} and `east`
    A_{c-1,c} there, at positions `here` of this column and `there` of
    the previous one."""
    unknowns: slice
    west: np.ndarray
    east: np.ndarray
    here: slice
    there: slice


def _columns(geom: dict, k: int) -> Tuple[list, list]:
    """The node columns that hold the system's first k unknowns, which
    fill whole columns, in order, and their diagonal blocks A_cc as dense
    matrices (tridiagonal in y).  A convex polygon's unknowns in a column
    are one run of rows."""
    inside = geom["interior"]
    cols, blocks, start, prev = [], [], 0, None
    for i in np.flatnonzero(np.any(inside, axis=1)):
        if start == k:
            break
        diag, coefs = _stencil_planes(geom, i - 1, i + 1)  # columns i - 1, i
        rows = np.flatnonzero(inside[i])
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        d = hi - lo
        D = np.zeros((d, d))
        D.flat[::d + 1] = diag[1, lo:hi]
        D.flat[1::d + 1] = -coefs[2, 1, lo:hi - 1]  # N
        D.flat[d::d + 1] = -coefs[3, 1, lo + 1:hi]  # S
        blocks.append(D)
        plo, phi = prev or (lo, lo)  # the first column shares no row
        a = max(lo, plo)
        b = max(min(hi, phi), a)
        cols.append(_Column(slice(start, start + d),
                            -coefs[1, 1, a:b], -coefs[0, 0, a:b],
                            slice(a - lo, b - lo), slice(a - plo, b - plo)))
        start += d
        prev = (lo, hi)
    return cols, blocks


# Compensated float64 arithmetic: Knuth's TwoSum and Dekker's TwoProduct
# return the rounded result and its exact rounding error.

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


# node columns per block of the residual: its ~125 elementwise operations
# then run on cache-sized arrays
_BLOCK = 32


def _column_blocks(inside: np.ndarray):
    """The node columns that hold unknowns, _BLOCK at a time from column
    1: yields (cols, rows, run, mask), the block's columns, the rows that
    hold its unknowns, the slice of the solver's vector that holds them
    and their mask on those rows, None where they fill the rows.  The
    unknowns are numbered column by column, and a convex polygon's in a
    column are one run of rows, so a block's are one run of the vector;
    right of the tip they fill the rows, and the run is a view of the
    block's nodes in the solver's order."""
    nx = inside.shape[0]
    start = np.concatenate([[0], np.cumsum(np.count_nonzero(inside, axis=1))])
    for lo in range(1, nx - 1, _BLOCK):
        hi = min(lo + _BLOCK, nx - 1)
        live = np.flatnonzero(np.any(inside[lo:hi], axis=0))
        if live.size:
            rows = slice(int(live[0]), int(live[-1]) + 1)
            mask = inside[lo:hi, rows]
            yield (slice(lo, hi), rows, slice(int(start[lo]), int(start[hi])),
                   None if mask.all() else mask)


def _at_nodes(x: np.ndarray, v: np.ndarray, inside: np.ndarray,
              add: bool = False) -> None:
    """Writes the values v at the unknowns, shape (k, n) in the solver's
    order, into the node arrays x of shape (k, nx, ny), or adds them to
    x's with add, a block of node columns at a time (`_column_blocks`)."""
    for cols, rows, run, mask in _column_blocks(inside):
        xb = x[:, cols, rows]
        if mask is None:
            vb = v[:, run].reshape(xb.shape)
            if add:
                xb += vb
            else:
                xb[...] = vb
        elif add:
            xb[:, mask] += v[:, run]
        else:
            xb[:, mask] = v[:, run]


def _stencil_residual(geom: dict, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - A x for data sets stacked on axis 0, x node arrays of shape
    (k, nx, ny) zero off the unknowns and b of shape (k, n) at the
    unknowns in the solver's order, summed over each row of A's five
    stencil terms as if in twice the working precision and rounded once
    (Ogita, Rump and Oishi's Dot2), written over b, which is returned: a
    block of the sum reads b only where it writes.  Node columns are
    taken a block at a time (`_column_blocks`), on the rows that hold
    their unknowns, each neighbour through a shifted slice; a block's b
    is read and written through its run's view, or through its mask in
    the tip.

    Compensated, not plain: against the 50-digit solution of the K = 4
    pentagon system (tools/oracle_pentagon_solve.py), the refined solve's
    worst relative error at any unknown is 1.1e-16 at resolutions 16, 32
    and 64 with this residual, and 5.3e-15, 9.8e-15 and 2.2e-14 with a
    plain float64 sum of the five terms."""
    for cols, rows, run, mask in _column_blocks(geom["interior"]):
        lo, hi, r0, r1 = cols.start, cols.stop, rows.start, rows.stop
        diag, coefs = _stencil_planes(geom, lo, hi)
        xb = x[:, cols, rows]
        if mask is None:
            bb = b[:, run].reshape(xb.shape)
        else:
            bb = np.zeros(xb.shape)
            bb[:, mask] = b[:, run]
        s, err = _two_product(-diag[:, rows], xb)
        s, e = _two_sum(bb, s)
        err += e
        for d, (di, dj) in enumerate(_DIRS):
            # a cut arm's neighbour is off the unknowns and adds c x 0
            p, e = _two_product(coefs[d, :, rows],
                                x[:, lo + di:hi + di, r0 + dj:r1 + dj])
            err += e
            s, e = _two_sum(s, p)
            err += e
        s += err
        if mask is None:
            bb[...] = s
        else:
            b[:, run] = s[:, mask]
    return b


# a row is plain when its four neighbour coefficients are 1/h^2 to this
# relative tolerance: arms cut on a node row or column get alpha = 1 only
# to a few ulp
_PLAIN = 1e-12


def _plain_block(geom: dict) -> Tuple[int, int]:
    """(s, m): the trailing block of plain node columns, each with the
    live rows of the last unknown column, which ends next to a Dirichlet
    node column, starts at unknown s and holds m unknowns per column."""
    inside, st = geom["interior"], geom["stencil"]
    plain = np.ones(inside.shape, dtype=bool)  # 1/h^2 off the cut nodes
    plain.flat[st["node"]] = np.all(
        np.abs(st["coefs"] * geom["h"] ** 2 - 1.0) <= _PLAIN, axis=0)
    last = np.flatnonzero(np.any(inside, axis=1))[-1]
    ok = np.all(inside == inside[last], axis=1) & np.all(plain | ~inside, axis=1)
    p = int(last - np.flatnonzero(~ok[:last + 1])[-1])  # column 0 holds none
    if p < 2:
        raise SolverError("the polygon has no trailing block of plain 5-point "
                          "columns ending at a Dirichlet node column")
    m = int(np.count_nonzero(inside[last]))
    return int(np.count_nonzero(inside)) - p * m, m


def _block_solver(geom: dict, s: int, m: int, n: int):
    """Direct solve of M x = b for data sets stacked as rows, where M is
    the system of n unknowns with the rectangle right of the interface
    column Γ taken as the exact 5-point stencil; the tip holds the first
    s unknowns and Γ the next m.  The tip is eliminated column by column
    (block LU without pivoting, stable on these M-matrix blocks: Golub and
    Van Loan, Matrix Computations, 4.5): each step keeps the inverse of
    D~_c = D_c - A_{c,c-1} D~_{c-1}^-1 A_{c-1,c}, and the step onto Γ
    leaves A_ΓΓ - A_ΓT A_TT^-1 A_TΓ.  Γ is solved through the dense
    Schur complement S = A_ΓΓ - A_ΓT A_TT^-1 A_TΓ - h^-2 Q diag(rho) Q;
    the rectangle by an orthonormal DST-I Q in y and a tridiagonal sweep
    in x per mode.  Returns (solve, the entries the tip's inverses
    hold); solve(b) writes the solution over b, a C-ordered (k, n)
    array, rectangle included, and makes no copy of it."""
    # dense algebra runs in NumPy's BLAS, the process's one thread pool;
    # its threads still spin against the other `verify all` lane: with
    # OPENBLAS_NUM_THREADS=2 this setup took 0.17-0.53 s in 20 runs on 2
    # cores, against 0.06-0.10 s on the command line's one-thread default
    h = geom["h"]
    ortho = _reciprocal(2 * (m + 1), root=True)

    def Q(v):  # orthonormal DST-I along the last axis; Q = Q^T = Q^-1
        out = np.array(v, dtype=float, order="C")
        _dst1(out.reshape(-1, m), 1, ortho)
        return out

    p = (n - s) // m - 1  # rectangle columns right of Γ
    g = slice(s, s + m)
    # mode k of h^2 A_RR is T_k = tridiag(-1, 2 + lam_k, -1) in x;
    # inv_piv[c] holds the reciprocal LU pivots of column c for every mode
    lam = _dst1_spectrum(m)
    inv_piv = np.empty((p, m))
    inv_piv[0] = 1.0 / (2.0 + lam)
    for c in range(1, p):
        inv_piv[c] = 1.0 / (2.0 + lam - inv_piv[c - 1])

    pivots = list(inv_piv)

    def sweep(y):
        """T_k^-1 y for every mode (last axis), columns on axis 0, in
        place: y_c = (y_c + y_c-1) inv_piv_c forward, then
        y_c += y_c+1 inv_piv_c back, on views made once per sweep."""
        ys = list(y)
        np.multiply(ys[0], pivots[0], out=ys[0])
        for prev, cur, ip in zip(ys, ys[1:], pivots[1:]):
            np.add(cur, prev, out=cur)
            np.multiply(cur, ip, out=cur)
        tmp = np.empty_like(ys[0])
        for nxt, cur, ip in zip(ys[:0:-1], ys[-2::-1], pivots[-2::-1]):
            np.multiply(nxt, ip, out=tmp)
            np.add(cur, tmp, out=cur)
        return y

    first = np.zeros((p, m))
    first[0] = 1.0
    G = sweep(first)  # G[c, k] = [T_k^-1]_{c,0}; rho_k = G[0, k]
    cols, D = _columns(geom, s + m)  # the tip's node columns, then Γ
    inv = []  # D~_c^-1 of each tip column
    for c, col in enumerate(cols[1:]):
        inv.append(np.linalg.inv(D[c]))
        D[c + 1][col.here, col.here] -= (
            col.west[:, None] * inv[c][col.there, col.there] * col.east)
    S = D[-1] - Q(Q(np.diag(G[0])).T) / h**2

    def solve(x: np.ndarray) -> np.ndarray:
        # the rectangle with zero data on Γ, h^2 T^-1 Q b_R, over b_R's
        # own values, one data set at a time (a product on all of them,
        # strided, makes a temporary), and swept on its columns-first view
        rect = x[:, s + m:].reshape(len(x), p, m)
        for r in rect:
            _dst1(r, 1, ortho)
            r *= h**2
        z = sweep(rect.transpose(1, 0, 2))
        x[:, g] += Q(z[0]) / h**2  # then the tip and Γ, in place
        xc = [x[:, col.unknowns] for col in cols]
        # forward: x_c = D~_c^-1 (b_c - A_{c,c-1} x_{c-1}), down to Γ's
        # right-hand side
        for c, col in enumerate(cols):
            if c:
                xc[c][:, col.here] -= col.west * xc[c - 1][:, col.there]
            if c < len(inv):
                xc[c][:] = xc[c] @ inv[c].T
        xc[-1][:] = np.linalg.solve(S, xc[-1].T).T
        # back: x_c -= D~_c^-1 A_{c,c+1} x_{c+1}
        for c in range(len(inv) - 1, -1, -1):
            nxt = cols[c + 1]
            xc[c] -= ((nxt.east * xc[c + 1][:, nxt.here])
                      @ inv[c][:, nxt.there].T)
        for r, qj in zip(rect, Q(x[:, g])):
            for rows in row_blocks(p):  # no (p, m) temporary
                r[rows] += G[rows] * qj
            _dst1(r, 1, ortho)  # Q z, in place
        return x

    return solve, sum(Di.size for Di in inv)


class PolygonProblem:
    """Shortley-Weller discretization of a convex polygon, solved for any
    number of Dirichlet data sets at once.  The polygon must end on the
    right in a block of plain 5-point columns (see `_plain_block`).
    The system is kept in `geom` (see `_assemble_polygon`).  `stats` holds
    the sizes and stage times of the last solve."""

    def __init__(self, poly: ConvexPolygon, h: float, origin: Point,
                 shape: Tuple[int, int]):
        self.geom = _assemble_polygon(poly, h, origin, shape)
        self._tip, self._gamma = _plain_block(self.geom)
        self.stats: dict = {}

    def _cut_data(self, edge_data: Sequence[Callable]) -> np.ndarray:
        """The edge data at each cut point, in record order; edge_data[k]
        evaluates edge k's data on arrays of points."""
        c = self.geom["cuts"]
        data = np.empty(len(c["edge"]))
        for k, f in enumerate(edge_data):
            on = c["edge"] == k
            data[on] = f(c["x"][on], c["y"][on])
        return data

    def _rhs(self, data: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The right-hand side of each data set's cut data (the last axis
        of data) at the unknowns, in the solver's order, written over out
        if given."""
        c, st = self.geom["cuts"], self.geom["stencil"]
        if out is None:
            n = np.count_nonzero(self.geom["interior"])
            out = np.zeros(data.shape[:-1] + (n,))
        else:
            out[...] = 0.0
        coef = st["coefs"][c["dir"], np.searchsorted(st["node"], c["node"])]
        np.add.at(out, (..., c["unknown"]), coef * data)
        return out

    def solve(self, edge_data_sets: Sequence[Sequence[Callable]]
              ) -> list[ScalarField]:
        """One ScalarField per data set, solved one after the other on one
        tip elimination, interface and rectangle solve, each with one step
        of iterative refinement whose residual is compensated; the factors
        are freed on return."""
        g = self.geom
        data = np.stack([self._cut_data(ed) for ed in edge_data_sets])
        mask = np.where(g["interior"], INTERIOR, EXTERIOR).astype(np.int8)
        grid = MaskedGrid(origin=g["origin"], h=g["h"], mask=mask,
                          subgrid_boundary=True)
        out = []
        for values, v in zip(self._refined_solve(data), data):
            self._fill_rim(values, v)
            out.append(ScalarField(grid=grid, values=values))
        return out

    def _refined_solve(self, data: np.ndarray) -> list:
        """Solutions x of A x = b, one node array of shape (nx, ny) per
        data set, zero off the unknowns, for the right-hand sides b of the
        k cut data sets stacked in data: one block solver, then per data
        set its solve and one refinement step against A; the sizes and
        stage times, summed over the sets, go to `stats`.  A data set's
        one (1, n) vector at the unknowns serves every stage: b, solved
        over; once x holds that solution, b again and the residual,
        written over b; then the correction, solved over it and added into
        x.  So the refinement holds one node array and one vector at a
        time besides the sets it has finished."""
        t0 = time.perf_counter()
        inside = self.geom["interior"]
        n = int(np.count_nonzero(inside))
        solve, fill = _block_solver(self.geom, self._tip, self._gamma, n)
        self.stats = dict(
            tip_unknowns=self._tip, gamma_unknowns=self._gamma,
            rectangle_unknowns=n - self._tip - self._gamma, tip_lu_fill=fill,
            setup_s=time.perf_counter() - t0, solve_s=0.0, residual_s=0.0,
            correction_s=0.0)
        xs = []
        for d in data[:, None]:
            t1 = time.perf_counter()
            v = solve(self._rhs(d))
            x = np.zeros((1,) + inside.shape)
            _at_nodes(x, v, inside)
            t2 = time.perf_counter()
            _stencil_residual(self.geom, x, self._rhs(d, out=v))
            t3 = time.perf_counter()
            _at_nodes(x, solve(v), inside, add=True)
            self.stats["solve_s"] += t2 - t1
            self.stats["residual_s"] += t3 - t2
            self.stats["correction_s"] += time.perf_counter() - t3
            xs.append(x[0])
        return xs

    def _fill_rim(self, values: np.ndarray, data: np.ndarray) -> None:
        """First-order extrapolation of the solution in `values` onto
        exterior nodes adjacent to the boundary, so that the glued field's
        cubic spline, whose taps next to an edge reach these nodes, reads
        the Dirichlet data continued instead of zeros.  The bilinear
        samples of `normal_derivative` stay on interior cells and never
        read them.  A node reached by several arms gets their mean, summed
        over the rim nodes only."""
        c = self.geom["cuts"]
        ny = values.shape[1]
        q = c["node"] + np.array([di * ny + dj for di, dj in _DIRS])[c["dir"]]
        xr = values.flat[c["node"]]
        v = np.where(c["alpha"] >= 0.2, xr + (data - xr) / c["alpha"], data)
        hit, at = np.unique(q, return_inverse=True)
        total = np.full(len(hit), -0.0)  # -0.0 + v == v, signed zeros too
        np.add.at(total, at, v)
        values.flat[hit] = total / np.bincount(at)

    def residual(self, f: ScalarField, edge_data: Sequence[Callable]) -> float:
        """max |b - A x| / max |b| for the values of f at the unknowns, with
        b - A x the compensated residual of the refinement."""
        b = self._rhs(self._cut_data(edge_data)[None])
        scale = max(np.max(np.abs(b)), 1e-300)
        x = np.where(self.geom["interior"], f.values, 0.0)
        r = _stencil_residual(self.geom, x[None], b)
        return float(np.max(np.abs(r)) / scale)


# ---------------------------------------------------------------------------
# normal derivatives along edges
# ---------------------------------------------------------------------------

def normal_derivative(f_interp: Callable, edge: Segment, normal: Point,
                      h: float, n_samples: int,
                      boundary_value: Callable) -> dict:
    """One-sided second-order normal derivative at sampled edge points.

    f_interp(xs, ys) evaluates the field on arrays of points strictly
    inside the domain; boundary_value(xs, ys) supplies the exact edge
    values.  Offsets are 2h and 4h so every interpolation cell stays
    interior for convex domains.

        f_n ~ (-3 f(p) + 4 f(p + 2h n) - f(p + 4h n)) / (4h)

    Returns dict with the sample points and the derivative values.
    """
    t_lo = 3.0 * h / edge.length  # the corner margin 3h, as a fraction
    t_hi = 1.0 - t_lo
    if not (0 < t_lo < t_hi < 1):
        raise SolverError("edge shorter than twice the corner margin 3h")
    ts = np.linspace(t_lo, t_hi, n_samples)
    px, py = edge.at(ts)
    f0 = boundary_value(px, py)
    f1 = f_interp(px + 2 * h * normal[0], py + 2 * h * normal[1])
    f2 = f_interp(px + 4 * h * normal[0], py + 4 * h * normal[1])
    deriv = (-3.0 * f0 + 4.0 * f1 - f2) / (4.0 * h)
    return dict(x=px, y=py, value=deriv)


# ---------------------------------------------------------------------------
# the pentagon pipeline
# ---------------------------------------------------------------------------

RIGHT_X = 20.0     # the pentagon's right edge lies on x = RIGHT_X
EDGE_SAMPLES = 200  # normal-derivative samples per edge in the N selection


@dataclass
class PentagonGeometry:
    K: int
    D: Point
    D1: Point
    D4: Point
    D5: Point
    polygon: ConvexPolygon

    # edge order in the polygon: 0 = D1->D (upper leg), 1 = D->D3 (lower
    # leg), 2 = D3->D4 (bottom), 3 = D4->D5 (right), 4 = D5->D1 (top)
    LEG_UP, LEG_LO, BOTTOM, RIGHT, TOP = range(5)

    @property
    def half_height(self) -> float:
        return self.D1[1]


def pentagon_geometry(K: int) -> PentagonGeometry:
    if 4 * K * K > 660:
        raise SolverError(f"slit-field data overflows doubles for K={K}")
    a = math.exp(-2.0 * K)
    t = build_steiner_tree(a)
    D1, D3 = t.a1, t.a3
    D4 = (RIGHT_X, D3[1])
    D5 = (RIGHT_X, D1[1])
    poly = ConvexPolygon([D1, (-a, 0.0), D3, D4, D5])
    return PentagonGeometry(K=K, D=(-a, 0.0), D1=D1, D4=D4, D5=D5,
                            polygon=poly)


def _pentagon_grid_params(geom: PentagonGeometry, resolution: int):
    """Grid aligned with the top/bottom rows and the right column: the
    resolution is the number of cells across the pentagon's height, even so
    that y = 0 and +-y1 are node rows."""
    if resolution < 16 or resolution % 2:
        raise SolverError("pentagon resolution must be an even integer "
                          f">= 16, got {resolution}")
    y1 = geom.half_height
    h = 2.0 * y1 / resolution
    left = geom.D[0] - 3.0 * h
    n_left = math.ceil((geom.D4[0] - left) / h)
    origin = (geom.D4[0] - n_left * h, -y1 - h)
    return origin, h, (n_left + 1, resolution + 3)


def pentagon_problem(geom: PentagonGeometry, resolution: int) -> PolygonProblem:
    origin, h, shape = _pentagon_grid_params(geom, resolution)
    return PolygonProblem(geom.polygon, h, origin, shape)


def _zero(xs, ys):
    return np.zeros(np.shape(xs))


def pentagon_edge_data(geom: PentagonGeometry, N: float) -> list:
    data = [_zero] * 5
    data[geom.LEG_UP] = u_float
    data[geom.LEG_LO] = u_float
    data[geom.RIGHT] = lambda xs, ys: np.full(np.shape(xs), float(N))
    return data


@dataclass
class SelectedN:
    """The selected N with the edge margins at N, which the subharmonicity
    certificate reads, and the solution w = w0 + N w1 at N, where w0 and
    w1 are the basis solutions (data 0 on the right edge, and 1 there
    alone).  `h` is the grid spacing, `residual` the pentagon residual of
    w against the data at N
    (`PolygonProblem.residual`) and `stats` the solver's sizes and stage
    times.  Neither the system nor the basis solutions are kept."""
    N: float
    margins: dict
    w: ScalarField
    geom: PentagonGeometry
    h: float
    residual: float
    stats: dict

    @cached_property
    def glue(self) -> "GluedField":
        """The glued field of w, built once."""
        return GluedField(self.w, self.geom.polygon)


def edge_margins(geom: PentagonGeometry, w: ScalarField, h: float,
                 n_samples: int, leg_value: Callable) -> tuple:
    """Rows leg_up, leg_lo, bottom, top of w's inward normal derivative
    (data leg_value on the legs), its margin over the slit field's, and
    the slit field's |derivative| >= 1e-300 as the scale (0 off the legs)."""
    poly = geom.polygon
    dw, margin, scale = np.zeros((3, 4, n_samples))
    for row, k in enumerate((geom.LEG_UP, geom.LEG_LO, geom.BOTTOM, geom.TOP)):
        nrm = poly.inward_normal(k)
        nd = normal_derivative(w.interp, poly.edge(k), nrm, h,
                               n_samples=n_samples,
                               boundary_value=leg_value if row < 2 else _zero)
        dw[row] = margin[row] = nd["value"]
        if row < 2:
            gx, gy = u_gradient_xy(nd["x"], nd["y"])
            gvals = gx * nrm[0] + gy * nrm[1]
            margin[row] -= gvals
            scale[row] = np.maximum(np.abs(gvals), 1e-300)
    return dw, margin, scale


def select_N(K: int, resolution: int, margin_frac: float) -> SelectedN:
    """Smallest power of two N >= 1 for which, at the sampled edge points,
    the inward normal derivative of the pentagon solution exceeds that of
    the slit field on the legs (by margin_frac of the local slit gradient
    scale) and is positive on the top/bottom edges.

    The solution at N is w0 + N w1 by linearity, so each margin is
    m0 + N d1, with m0 the margin of w0 and d1 the derivative of w1: one
    solve of the two basis data sets, one after the other on one setup,
    and one sample set of each give N in closed form.  The system and the basis solutions are freed
    once the residual at N is taken.
    """
    geom = pentagon_geometry(K)
    prob = pentagon_problem(geom, resolution)
    unit_right = [_zero] * 5
    unit_right[geom.RIGHT] = lambda xs, ys: np.ones(np.shape(xs))
    w0, w1 = prob.solve([pentagon_edge_data(geom, 0.0), unit_right])
    h = prob.geom["h"]
    _, m0, scale = edge_margins(geom, w0, h, EDGE_SAMPLES, u_float)
    d1 = edge_margins(geom, w1, h, EDGE_SAMPLES, _zero)[0]
    # a bound or an N past double range is inf, which the checks refuse
    with np.errstate(over="ignore"):
        bound = margin_frac * scale
        # the smallest power of two above every (bound - m0) / d1 of a
        # short margin that grows with N; one that does not fails below
        lift = (m0 <= bound) & (d1 > 0.0)
        need = np.max((bound - m0)[lift] / d1[lift], initial=0.5)
        if not need < 2.0 ** 1023:
            raise SolverError(f"N > {need:.3g} is past double range")
        N = float(np.ldexp(1.0, np.frexp(need)[1]))
        margins = m0 + N * d1
    if not np.all(margins > bound):
        raise SolverError("no power of two N lifts every edge margin")
    w = ScalarField(grid=w0.grid, values=w0.values + N * w1.values)
    return SelectedN(N=N, w=w, geom=geom, h=h,
                     margins=dict(zip(("leg_up", "leg_lo", "bottom", "top"),
                                      margins)),
                     residual=prob.residual(w, pentagon_edge_data(geom, N)),
                     stats=prob.stats)


# ---------------------------------------------------------------------------
# the glued field on disc + pentagon
# ---------------------------------------------------------------------------

# the cubic B-spline's pole sqrt(3) - 2 rounded to the nearest double, as
# scipy.ndimage has it (sqrt(3.0) - 2.0 is one ulp off)
_POLE = -0.2679491924311227


def _spline_prefilter(c: np.ndarray) -> None:
    """The cubic B-spline coefficients of samples along axis 0, in place,
    every line at once: the gain, then a causal and an anticausal
    recursion with the pole _POLE and mirror boundaries (Unser, Aldroubi
    and Eden, IEEE Trans. Signal Process. 41, 1993), in the operation
    order of scipy.ndimage.spline_filter1d, whose bits they keep."""
    z, n = _POLE, len(c)
    c *= (1.0 - z) * (1.0 - 1.0 / z)
    zn = z ** (n - 1)
    c0 = c[0] + zn * c[n - 1]
    zi = z
    for i in range(1, n - 1):
        c0 += zi * (c[i] + zn * c[n - 1 - i])
        zi *= z
        if zi == 0.0:  # z^i underflowed: every later term adds a zero
            break
    c[0] = c0 / (1 - zn * zn)
    for i in range(1, n):
        c[i] += z * c[i - 1]
    c[n - 1] = (z * c[n - 2] + c[n - 1]) * z / (z * z - 1)
    for i in range(n - 2, -1, -1):
        np.subtract(c[i + 1], c[i], out=c[i])
        c[i] *= z


def _cubic_taps(f: np.ndarray, n: int):
    """The four cubic B-spline weights at fractional node positions f and
    their node indices, clamped to [0, n - 1] (the "nearest" boundary)."""
    f0 = np.floor(f)
    t = f - f0
    u = 1.0 - t
    w = [u * u * u / 6.0, (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0,
         (u * u * (u - 2.0) * 3.0 + 4.0) / 6.0]
    w.append(1.0 - w[0] - w[1] - w[2])
    start = f0.astype(np.intp) - 1
    return w, [np.clip(start + a, 0, n - 1) for a in range(4)]


class GluedField:
    """w = slit field on the disc minus the vertex sector, pentagon
    solution inside the polygon, zero outside both.

    Pentagon values are interpolated with a C^2 cubic spline (kinks of a
    bilinear interpolant would dominate second differences taken on
    coarser downstream grids).  Its coefficients and values have the bits
    of scipy.ndimage's spline_filter and map_coordinates(order=3,
    mode="nearest").
    """

    def __init__(self, w: ScalarField, poly: ConvexPolygon):
        self.poly = poly
        self.w = w
        self._coeffs = np.array(w.values, dtype=float)
        _spline_prefilter(self._coeffs)
        _spline_prefilter(self._coeffs.T)

    def _pentagon_interp(self, X, Y):
        g = self.w.grid
        c = self._coeffs
        wi, ii = _cubic_taps((X - g.origin[0]) / g.h, c.shape[0])
        wj, jj = _cubic_taps((Y - g.origin[1]) / g.h, c.shape[1])
        out = np.zeros(np.shape(X))
        for a in range(4):
            for b in range(4):
                out += c[ii[a], jj[b]] * wi[a] * wj[b]
        return out

    def region_of(self, x, y):
        """0 exterior, 1 disc (slit field), 2 pentagon."""
        X = np.asarray(x, dtype=float)
        Y = np.asarray(y, dtype=float)
        inside_poly = self.poly.contains(X, Y)
        in_disc = (X * X + Y * Y) < 1.0
        return np.where(inside_poly, 2, np.where(in_disc, 1, 0))

    def value(self, x, y) -> np.ndarray:
        """Region-wise evaluation on arrays (slit field / pentagon / 0)."""
        X = np.asarray(x, dtype=float)
        Y = np.asarray(y, dtype=float)
        reg = self.region_of(X, Y)
        out = np.zeros(X.shape)
        disc = reg == 1
        if np.any(disc):
            vals = u_float(X[disc], Y[disc])
            if np.any(np.isinf(vals)):
                raise SolverError("slit-field value overflows a double; "
                                  "evaluation point too close to the origin")
            out[disc] = vals
        pent = reg == 2
        if np.any(pent):
            out[pent] = self._pentagon_interp(X[pent], Y[pent])
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
