"""Test-side grids and solvers on node-aligned masked grids.

`solve_laplace_dirichlet` builds reference fields for the grid I/O,
conformal and solver tests, by CG on `interior_system`, on boxes and on
`disc_grid` discs; the pipeline itself only solves Poisson problems on
boxes (`bvp.solve_poisson`) and the pentagon (`bvp.PolygonProblem`).
"""

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse import csr_matrix

from nonembed import bvp


def disc_grid(radius: float, n: int, center=(0.0, 0.0)) -> bvp.MaskedGrid:
    """Disc carved out of a box: nodes outside the radius are exterior,
    the rim of interior nodes is marked boundary."""
    g = bvp.box_grid(center, radius, n)
    X, Y = g.nodes_xy()
    r = np.hypot(X - center[0], Y - center[1])
    mask = np.where(r < radius, bvp.INTERIOR, bvp.EXTERIOR).astype(np.int8)
    inner = mask == bvp.INTERIOR
    rim = inner.copy()
    rim[1:-1, 1:-1] = inner[1:-1, 1:-1] & (
        inner[2:, 1:-1] & inner[:-2, 1:-1] & inner[1:-1, 2:] & inner[1:-1, :-2])
    mask[inner & ~rim] = bvp.BOUNDARY
    mask[0, :] = np.where(mask[0, :] == bvp.INTERIOR, bvp.BOUNDARY, mask[0, :])
    mask[-1, :] = np.where(mask[-1, :] == bvp.INTERIOR, bvp.BOUNDARY, mask[-1, :])
    mask[:, 0] = np.where(mask[:, 0] == bvp.INTERIOR, bvp.BOUNDARY, mask[:, 0])
    mask[:, -1] = np.where(mask[:, -1] == bvp.INTERIOR, bvp.BOUNDARY, mask[:, -1])
    return bvp.MaskedGrid(origin=g.origin, h=g.h, mask=mask)


def interior_system(grid: bvp.MaskedGrid, rhs_interior: np.ndarray,
                    data: np.ndarray):
    """The SPD 5-point system A x = b of (Laplacian) u = -rhs on the
    interior nodes, the Dirichlet data on BOUNDARY nodes (a node array)
    moved to b; returns (A, b, (ii, jj)) with x[k] the value at node
    (ii[k], jj[k])."""
    ii, jj = np.where(grid.mask == bvp.INTERIOR)
    idx = -np.ones(grid.shape, dtype=np.int64)
    idx[ii, jj] = np.arange(len(ii))
    n = len(ii)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0)]
    b = rhs_interior[ii, jj] * grid.h**2
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        role = grid.mask[ni, nj]
        isint = role == bvp.INTERIOR
        rows.append(idx[ii[isint], jj[isint]])
        cols.append(idx[ni[isint], nj[isint]])
        vals.append(np.full(int(isint.sum()), -1.0))
        isb = role == bvp.BOUNDARY
        np.add.at(b, idx[ii[isb], jj[isb]],
                  data[ni[isb], nj[isb]])
    A = csr_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n, n))
    return A, b, (ii, jj)


def solve_laplace_dirichlet(grid: bvp.MaskedGrid, data: np.ndarray,
                            tol: float = 1e-12,
                            maxiter: int = 1_000_000) -> bvp.ScalarField:
    """Discrete harmonic extension of the Dirichlet data on the BOUNDARY
    nodes (a node array), by CG on the SPD 5-point system."""
    A, b, (ii, jj) = interior_system(grid, np.zeros(grid.shape), data)
    x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=maxiter)
    if info != 0:
        res = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300)
        raise bvp.SolverError(
            f"CG did not converge (info={info}, rel residual {res:.2e})")
    values = np.array(data, dtype=float)
    values[grid.mask == bvp.EXTERIOR] = 0.0
    values[ii, jj] = x
    return bvp.ScalarField(grid=grid, values=values)


def max_principle_violation(f: bvp.ScalarField) -> float:
    """How far interior values exceed the boundary range (<= 0 means the
    discrete maximum principle holds)."""
    b = f.values[f.grid.mask == bvp.BOUNDARY]
    i = f.values[f.grid.mask == bvp.INTERIOR]
    if len(b) == 0 or len(i) == 0:
        return 0.0
    return max(float(i.max() - b.max()), float(b.min() - i.min()))
