"""Test-side solvers on node-aligned masked grids.

`solve_laplace_dirichlet` builds reference fields for the grid I/O,
conformal and solver tests; the pipeline itself only solves Poisson
problems (`bvp.solve_poisson`) and the pentagon (`bvp.PolygonProblem`).
"""

import numpy as np
import scipy.sparse.linalg as spla

from nonembed import bvp


def solve_laplace_dirichlet(grid: bvp.MaskedGrid, tol: float = 1e-12,
                            maxiter: int = 1_000_000) -> bvp.ScalarField:
    """Discrete harmonic extension of the boundary node data (CG on the
    SPD 5-point system)."""
    A, b, (ii, jj) = bvp._interior_system(grid, np.zeros(grid.shape))
    x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=maxiter)
    if info != 0:
        res = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300)
        raise bvp.SolverError(
            f"CG did not converge (info={info}, rel residual {res:.2e})")
    values = np.array(grid.boundary_values, dtype=float)
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
