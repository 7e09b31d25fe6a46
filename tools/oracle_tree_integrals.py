#!/usr/bin/env python3
"""High-precision oracle for the slit-plane field and tree integrals.

Computes, at 50 decimal digits with mpmath:

  * I_axis(K)  -- integral of the field u along the axis leg of the
    three-leg tree with vertex (-e^{-K}, 0), via the 1D substituted form
    (1/(2 pi e^{pi^2})) * int_{-2 pi K}^0 -e^{(t^2+2 pi t)/(4 pi^2)} sin t dt
  * the same integral by direct r-quadrature (consistency check)
  * the two circular-arc integrals with weights  phi * 2 theta e^{-theta^2}
    and (4 pi/3 - phi) * 2 theta e^{-theta^2}
  * the slanted-leg integrals (direct quadrature)
  * the identity residual  legs - (2*axis + arcs)   (should be ~0)
  * the full tree integral, by the arc form below, and the smallest
    integer K for which both I_axis(K) < 0 and 2*I_axis(K) + arcs < 0 hold
  * the third-moment integral int_T u^3 ds at the selected K (used to size
    finite-difference steps in downstream length-derivative checks)

The tree integral has two derivations.  The leg sum, legs + axis, adds
integrals of size up to 1e33 that cancel to about 0.11, so at 50 digits it
misses the 30 that the JSON prints at K = 9 and 10, by 1.7e-25 and 7.3e-17
relative.  The arc form has no cancellation: u = -Im F(z) with
F = e^{(log z)^2} holomorphic on the slit plane, and the directions
e^{i phi_k} of a 120-degree tree's legs sum to zero, so

    tree = -Im sum_k e^{-i phi_k} G(A_k),
    G(A_k) = i int_pi^{theta_k} e^{-theta^2} e^{i theta} dtheta,

an antiderivative of F along the unit circle from -1 to the leg's end A_k
at angle theta_k (G = 0 on the axis leg).  The JSON's `tree` is the arc
form; the run prints its gap to the leg sum, at most 2.7e-31 for K <= 8.

Run from the repository root:

    python tools/oracle_tree_integrals.py          # rewrite the JSON
    python tools/oracle_tree_integrals.py --check  # compare

With --check it writes nothing and exits 1 if the regenerated JSON
differs from the checked-in file.
"""

import json
import sys
from pathlib import Path

from mpmath import (mp, mpc, mpf, sin, cos, exp, log, sqrt, atan2, im, pi,
                    quad)

mp.dps = 50

OUT = Path(__file__).with_suffix(".json")


def tree_geometry(K):
    """Vertex, leg length and endpoint angle for vertex (-e^{-K}, 0)."""
    a = exp(-K)
    # slanted legs leave the vertex at standard angles +-pi/3 and are
    # extended to the unit circle: |A + t d| = 1
    t1 = a / 2 + sqrt(1 - 3 * a**2 / 4)
    A = (-a, mpf(0))
    d_up = (cos(pi / 3), sin(pi / 3))
    A1 = (A[0] + t1 * d_up[0], A[1] + t1 * d_up[1])
    theta_A1 = atan2(A1[1], A1[0]) % (2 * pi)
    return a, t1, A, A1, theta_A1


def u_val(r, theta):
    return -exp(log(r) ** 2 - theta**2) * sin(2 * theta * log(r))


def axis_integral_subst(K):
    """(1/(2 pi e^{pi^2})) int_{-2piK}^0 -e^{(t^2+2pi t)/4pi^2} sin t dt."""
    f = lambda t: -exp((t**2 + 2 * pi * t) / (4 * pi**2)) * sin(t)
    pieces = [-2 * pi * K + k * pi for k in range(2 * K + 1)]
    val = quad(f, pieces)
    return val / (2 * pi * exp(pi**2))


def axis_integral_direct(K):
    f = lambda r: u_val(r, pi)
    a = exp(-K)
    # log-spaced splits to track the oscillation in log r
    pieces = [exp(-K + mpf(j) * K / (8 * K)) for j in range(8 * K + 1)]
    return quad(f, pieces)


def slanted_leg_integral(K, lower, power=1):
    """Integral of u^power over the slanted leg (upper or lower)."""
    a, t1, A, _, _ = tree_geometry(K)
    sgn = -1 if lower else 1
    dx, dy = cos(pi / 3), sgn * sin(pi / 3)

    def f(t):
        x = A[0] + t * dx
        y = A[1] + t * dy
        r = sqrt(x * x + y * y)
        th = atan2(y, x) % (2 * pi)
        return u_val(r, th) ** power

    pieces = [t1 * (mpf(j) / 80) ** 2 for j in range(81)]
    return quad(f, pieces)


def arc_integrals(K):
    a, t1, A, A1, theta_A1 = tree_geometry(K)

    def phi(theta):
        x, y = cos(theta), sin(theta)
        ang = atan2(y - A[1], x - A[0]) % (2 * pi)
        return ang - pi / 3

    w = lambda th: 2 * th * exp(-th**2)
    f_up = lambda th: phi(th) * w(th)
    f_lo = lambda th: (4 * pi / 3 - phi(th)) * w(th)
    arc_up = quad(f_up, [theta_A1, pi])
    arc_lo = quad(f_lo, [pi, 2 * pi - theta_A1])
    return arc_up, arc_lo


def tree_arc_form(K):
    """-Im sum_k e^{-i phi_k} G(A_k) over the two slanted legs, phi = +-pi/3
    (the axis leg's G is 0)."""
    theta_A1 = tree_geometry(K)[4]

    def G(theta_k):
        return 1j * quad(lambda th: exp(-th**2) * mpc(cos(th), sin(th)),
                         [pi, theta_k])

    up, lo = mpc(cos(pi / 3), -sin(pi / 3)), mpc(cos(pi / 3), sin(pi / 3))
    return -im(up * G(theta_A1) + lo * G(2 * pi - theta_A1))


def main(argv):
    rows, gaps = [], {}
    for K in range(1, 11):
        ax_sub = axis_integral_subst(K)
        ax_dir = axis_integral_direct(K)
        arc_up, arc_lo = arc_integrals(K)
        leg_up = slanted_leg_integral(K, lower=False)
        leg_lo = slanted_leg_integral(K, lower=True)
        rhs = 2 * ax_sub + arc_up + arc_lo
        lhs = leg_up + leg_lo
        tree = tree_arc_form(K)
        gaps[K] = abs(tree - (lhs + ax_sub)) / abs(tree)
        rows.append(
            dict(
                K=K,
                axis_subst=ax_sub,
                axis_direct=ax_dir,
                subst_vs_direct=abs(ax_sub - ax_dir),
                arc_up=arc_up,
                arc_lo=arc_lo,
                legs=lhs,
                rhs=rhs,
                identity_residual=abs(lhs - rhs) / max(abs(lhs), abs(rhs)),
                tree=tree,
            )
        )

    kstar = None
    for row in rows:
        if row["axis_subst"] < 0 and row["rhs"] < 0:
            kstar = row["K"]
            break

    for row in rows:
        print(
            f"K={row['K']:>2}  axis={mp.nstr(row['axis_subst'], 12):>18} "
            f"(|subst-direct|={mp.nstr(row['subst_vs_direct'], 3)})  "
            f"arcs={mp.nstr(row['arc_up'] + row['arc_lo'], 12):>16}  "
            f"rhs={mp.nstr(row['rhs'], 12):>18}  "
            f"tree={mp.nstr(row['tree'], 12):>18}  "
            f"id_res={mp.nstr(row['identity_residual'], 3)}  "
            f"|arcs-legs|/tree={mp.nstr(gaps[row['K']], 3)}"
        )
    print(f"\nminimal K with axis<0 and rhs<0: {kstar}")

    if kstar is not None:
        cube = (
            slanted_leg_integral(kstar, lower=False, power=3)
            + slanted_leg_integral(kstar, lower=True, power=3)
            + quad(lambda r: u_val(r, pi) ** 3,
                   [exp(-kstar + mpf(j) / 8) for j in range(8 * kstar + 1)])
        )
        print(f"int_T u^3 ds at K*={kstar}: {mp.nstr(cube, 12)}")

    out = {
        "K_star": kstar,
        "rows": [
            {k: (v if isinstance(v, int) else mp.nstr(v, 30)) for k, v in r.items()}
            for r in rows
        ],
    }
    text = json.dumps(out, indent=2)
    if "--check" in argv:
        if not OUT.exists() or OUT.read_text() != text:
            print(f"\n{OUT.name} is stale: rerun without --check")
            return 1
        print(f"\n{OUT.name} is up to date")
        return 0
    OUT.write_text(text)
    print(f"\nwrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
