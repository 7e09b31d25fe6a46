"""60-digit oracle of the discrete Laplace problem on a long rectangle
with data 1 on the far edge and 0 on the other three.

The discrete 5-point problem on a rectangle separates exactly, so its
solution is computable in extended precision.  It is the reference of the
polygon solver's pointwise relative accuracy in tests/test_bvp.py
(test_polygon_solve_pointwise_accuracy_against_discrete_oracle).
"""

from mpmath import mp, mpf, pi, sinh

mp.dps = 60


def discrete_exact(nx, ny, Lx, Ly, xi, yj):
    """Exact solution of the discrete problem at node (xi, yj) (indices),
    data 1 on i = nx edge (x = Lx), 0 on the other three edges.

    Separated form: sum_k a_k S_k(xi) sin(k pi yj/ny), where S_k solves the
    three-term recurrence; S_k(i) = sinh(mu_k i h)/sinh(mu_k Lx) with
    cosh(mu_k h) = 2 - cos(k pi / ny).
    """
    total = mpf(0)
    for k in range(1, ny):
        # discrete eigenvalue in y: 2 - 2cos(k pi/ny) over  h^2
        lam = 2 - 2 * mp.cos(mpf(k) * pi / ny)
        # x-recurrence: u_{i+1} - (2 + lam) u_i + u_{i-1} = 0
        c = (2 + lam) / 2
        mu = mp.acosh(c)
        # Fourier coefficient of boundary data 1 in sin(k pi j / ny):
        # (2/ny) sum_j sin(k pi j / ny)
        s = sum(mp.sin(mpf(k) * pi * j / ny) for j in range(1, ny))
        a_k = 2 * s / ny
        if abs(a_k) < mpf(10) ** (-40):
            continue
        total += a_k * sinh(mu * xi) / sinh(mu * nx) * mp.sin(mpf(k) * pi * yj / ny)
    return total
