#!/usr/bin/env python3
"""High-precision oracle for the Hessian of the default generated ruled
surface.

The surface is `nonembed.ruled.generate_surface` at the default config
(ruled.tau = 0.5, ruled.eps = 0.05, seed 20260809).  Its parameters (tau,
the normalized amplitude eps, and the coefficients of the trig
polynomials nu and bq) are written to the JSON as exact doubles, so a test
can rebuild the same surface without regenerating it.  At 12 seeded points
of the strip [0, 2] x [-2, 2], with mpmath at 40 decimal digits:

  * s(x1, x2) by Newton on x2(x1, s) = c2(s) + (x1 - 2) d2(s), iterated to
    the working precision;
  * f(x1, x2) = c3(s) + (x1 - 2) d3(s), and its second partials f11, f12,
    f22 by `mp.diff` (numerical differentiation at raised precision);
  * the closed form f11 = eps^2 nu'^2 / g_s, f12 = -eps nu' / g_s,
    f22 = 1 / g_s (g_s = dx2/ds) at the same points, and the largest
    difference from the `mp.diff` values (should be ~0).

Run from the repository root after a change to the surface generator:

    PYTHONPATH=src python tools/oracle_ruled_hessian.py
"""

import json

import numpy as np
from mpmath import mp, mpf, cos, sin

from nonembed import ruled

mp.dps = 40

TAU, EPS, SEED = 0.5, 0.05, 20260809
POINT_SEED = 31
N_POINTS = 12


class Poly:
    """sum_k a_k cos(k omega s) + b_k sin(k omega s) and its derivatives."""

    def __init__(self, tp):
        self.omega = mpf(tp.omega)
        self.a = [mpf(float(v)) for v in tp.cos_coef]
        self.b = [mpf(float(v)) for v in tp.sin_coef]

    def __call__(self, s, order=0):
        total = mpf(0)
        for k, (a, b) in enumerate(zip(self.a, self.b), start=1):
            w = k * self.omega
            c, sn = cos(w * s), sin(w * s)
            term = [a * c + b * sn, -a * sn + b * c,
                    -a * c - b * sn, a * sn - b * c][order % 4]
            total += w**order * term
        return total


def surface_functions(g):
    tau, eps = mpf(g.tau), mpf(g.eps)
    nu, bq = Poly(g.nu), Poly(g.bq)

    def c2(s):
        return 2 * eps * nu(s, 1) - (s / tau + eps * bq(s, 1))

    def x2_of(x1, s):
        return c2(s) + (x1 - 2) * eps * nu(s, 1)

    def g_s(x1, s):
        return 2 * eps * nu(s, 2) - (1 / tau + eps * bq(s, 2)) \
            + (x1 - 2) * eps * nu(s, 2)

    def s_of(x1, x2):
        s = -tau * x2
        for _ in range(200):
            step = (x2_of(x1, s) - x2) / g_s(x1, s)
            s -= step
            if abs(step) <= 4 * mp.eps * (1 + abs(s)):
                return s
        raise RuntimeError(f"Newton did not converge at ({x1}, {x2})")

    def f(x1, x2):
        s = s_of(x1, x2)
        c3 = s * s / (2 * tau) + eps * bq(s) + s * c2(s) - 2 * eps * nu(s)
        d3 = eps * (s * nu(s, 1) - nu(s))
        return c3 + (x1 - 2) * d3

    def closed_form(x1, x2):
        s = s_of(x1, x2)
        gs, d2 = g_s(x1, s), eps * nu(s, 1)
        return d2 * d2 / gs, -d2 / gs, 1 / gs

    return f, closed_form


def main():
    g = ruled.generate_surface(TAU, EPS, seed=SEED)
    f, closed_form = surface_functions(g)
    rng = np.random.default_rng(POINT_SEED)
    xs = rng.uniform(0.05, 1.95, N_POINTS)
    ys = rng.uniform(-1.95, 1.95, N_POINTS)
    rows = []
    worst = mpf(0)
    for x1, x2 in zip(xs.tolist(), ys.tolist()):
        X1, X2 = mpf(x1), mpf(x2)
        hess = [mp.diff(f, (X1, X2), orders)
                for orders in ((2, 0), (1, 1), (0, 2))]
        cf = closed_form(X1, X2)
        worst = max(worst, max(abs(a - b) for a, b in zip(hess, cf)))
        rows.append(dict(x1=x1, x2=x2,
                         **{k: mp.nstr(v, 30)
                            for k, v in zip(("f11", "f12", "f22"), hess)}))
        print(f"({x1:+.6f}, {x2:+.6f})  f11={mp.nstr(hess[0], 15):>22} "
              f"f12={mp.nstr(hess[1], 15):>22} f22={mp.nstr(hess[2], 15):>22}")
    print(f"\nmax |mp.diff - closed form|: {mp.nstr(worst, 3)}")

    out = {
        "config": dict(tau=TAU, eps=EPS, seed=SEED, point_seed=POINT_SEED),
        "surface": dict(
            tau=g.tau, eps=g.eps, s_max=g.s_max,
            nu=dict(omega=g.nu.omega, cos=g.nu.cos_coef.tolist(),
                    sin=g.nu.sin_coef.tolist()),
            bq=dict(omega=g.bq.omega, cos=g.bq.cos_coef.tolist(),
                    sin=g.bq.sin_coef.tolist())),
        "diff_vs_closed_form": mp.nstr(worst, 5),
        "points": rows,
    }
    with open("tools/oracle_ruled_hessian.json", "w") as fh:
        json.dump(out, fh, indent=2)
    print("wrote tools/oracle_ruled_hessian.json")


if __name__ == "__main__":
    main()
