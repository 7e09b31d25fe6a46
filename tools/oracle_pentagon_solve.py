#!/usr/bin/env python3
"""50-digit oracle of the pentagon system that `bvp.select_N` solves.

The system is the library's own at K = 4 and pentagon resolution 32
(11,297 unknowns): the unknowns, the Shortley-Weller coefficients and the
right-hand sides of select_N's two basis data sets, w0 (slit-field data
on the legs, 0 elsewhere) and w1 (1 on the right edge alone), all as
`bvp` assembles them in float64.  Those doubles are taken as exact, so
the oracle judges the solve and not the assembly.  The exact solution
comes from mixed-precision iterative refinement: the residual b - A x of
the 5-point rows in mpmath at 50 digits, the correction by the library's
float64 block solver, repeated until max |b - A x| / max |b| is below
1e-45.  The fixed point does not depend on the correction solver.

The JSON holds the solution at sampled nodes, to 20 significant digits:
in the tip, on the interface column Γ, at cut-arm nodes on each edge and
at the smallest values of each data set.  It is the reference of
tests/test_bvp.py::test_pentagon_solve_pointwise_accuracy_against_the_50_digit_oracle.

Run from the repository root after a change to the pentagon assembly:

    PYTHONPATH=src python tools/oracle_pentagon_solve.py          # rewrite
    PYTHONPATH=src python tools/oracle_pentagon_solve.py --check  # compare

With --check it writes nothing and exits 1 if the regenerated JSON
differs from the checked-in file.
"""

import json
import sys
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

from nonembed import bvp

mp.dps = 50

K, RESOLUTION = 4, 32
TOL = mpf(10) ** -45
DIGITS = 20
N_SMALLEST = 3  # smallest-value nodes sampled per data set
OUT = Path(__file__).with_suffix(".json")


def basis_edge_data(geom):
    """select_N's basis data sets: its data at N = 0, and 1 on the right
    edge alone."""
    unit_right = [bvp._zero] * 5
    unit_right[geom.RIGHT] = lambda xs, ys: np.ones(np.shape(xs))
    return [bvp.pentagon_edge_data(geom, 0.0), unit_right]


def to_mp(a):
    return np.array([mpf(float(v)) for v in np.ravel(a)],
                    dtype=object).reshape(np.shape(a))


def exact_solution(prob, geom):
    """x with A x = b to 50 digits for the stacked basis data sets, at the
    unknowns in the solver's order, as an object array of mpf, shape (2, n),
    and the final relative residual."""
    g = prob.geom
    inside = g["interior"]
    nx, ny = inside.shape
    nodes = np.flatnonzero(inside)
    n = len(nodes)
    index = np.full(nx * ny, n)  # off the unknowns: the zero appended to x
    index[nodes] = np.arange(n)
    diag, coefs = bvp._stencil_planes(g, 0, nx)
    D = to_mp(diag.ravel()[nodes])
    # E, W, N, S as in bvp._DIRS; a cut arm's neighbour reads the zero
    shifts = [di * ny + dj for di, dj in bvp._DIRS]
    nbr = [index[nodes + sh] for sh in shifts]
    C = [to_mp(coefs[d].ravel()[nodes]) for d in range(4)]
    data = np.stack([prob._cut_data(d) for d in basis_edge_data(geom)])
    b64 = prob._rhs(data)
    B = to_mp(b64)
    scale = max(abs(v) for v in B.ravel())
    solve, _ = bvp._block_solver(g, prob._tip, prob._gamma, n)
    X = np.zeros((2, n + 1), dtype=object)
    X[:] = mpf(0)
    for _ in range(20):
        R = B - D * X[:, :n]
        for c, k in zip(C, nbr):
            R = R + c * X[:, k]
        worst = max(abs(v) for v in R.ravel()) / scale
        if worst < TOL:
            return X[:, :n], worst
        corr = solve(np.array(R, dtype=float))
        X[:, :n] = X[:, :n] + to_mp(corr)
    raise RuntimeError(f"refinement stalled at residual {float(worst):.3e}")


def samples(prob, X):
    """(label, unknown) of the sampled unknowns, in a fixed order."""
    g = prob.geom
    inside = g["interior"]
    count = np.count_nonzero(inside, axis=1)
    first_col = int(np.flatnonzero(count)[0])
    start = np.concatenate([[0], np.cumsum(count)])
    out = []
    for c in (first_col, first_col + 1, first_col + 8):  # the tip
        lo, hi = int(start[c]), int(start[c + 1])
        out.append(("tip", (lo + hi) // 2))
    s, m = prob._tip, prob._gamma
    out += [("gamma", s), ("gamma", s + m // 2), ("gamma", s + m - 1)]
    cuts = g["cuts"]
    for k in range(5):  # a cut-arm node midway along each edge
        on = np.unique(cuts["unknown"][cuts["edge"] == k])
        out.append(("cut", int(on[len(on) // 2])))
    for d in range(len(X)):
        mags = np.array([abs(v) for v in X[d]], dtype=float)
        out += [("smallest", int(u)) for u in np.argsort(mags)[:N_SMALLEST]]
    return out


def build():
    """The JSON document and the final relative residual, which depends
    on the correction path and so is printed, not written."""
    geom = bvp.pentagon_geometry(K)
    prob = bvp.pentagon_problem(geom, RESOLUTION)
    X, worst = exact_solution(prob, geom)
    inside = prob.geom["interior"]
    nodes = np.flatnonzero(inside)
    ny = inside.shape[1]
    points = []
    for label, u in samples(prob, X):
        i, j = divmod(int(nodes[u]), ny)
        points.append(dict(where=label, i=i, j=j,
                           w0=mp.nstr(X[0, u], DIGITS),
                           w1=mp.nstr(X[1, u], DIGITS)))
    return dict(
        config=dict(K=K, resolution=RESOLUTION, dps=mp.dps,
                    unknowns=int(len(nodes)), tip_unknowns=prob._tip,
                    gamma_unknowns=prob._gamma),
        points=points), worst


def main(argv):
    doc, worst = build()
    print(f"relative residual {mp.nstr(worst, 3)}")
    text = json.dumps(doc, indent=1) + "\n"
    if "--check" in argv:
        if not OUT.exists() or OUT.read_text() != text:
            print(f"{OUT.name} is stale: rerun without --check")
            return 1
        print(f"{OUT.name} is up to date")
        return 0
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
