"""Numerical toolkit for 2D conformal-metric constructions.

Builds and checks the ingredients of a family of conformal metrics on the
unit disc: a harmonic field on the slit plane with extreme dynamic range,
integrals over 120-degree minimal trees, a mixed Dirichlet problem on a
long pentagon, mollified gluings and their subharmonicity, Gaussian
curvature signs and curve lengths of conformal factors, composite bump
metrics, and flat (developable) graph extensions with projection-length
comparisons.  Values beyond double range are carried in sign/log-magnitude
form only inside the integrands of `nonembed.quadrature`; every integral
comes back as one double.
"""

__version__ = "0.1.0"
