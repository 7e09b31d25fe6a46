"""Sign/log-magnitude arithmetic for quantities far beyond double range.

The slit-plane field reaches magnitudes e^{log^2 r} (e.g. e^{66} near the
pentagon vertex, and far larger for small r), and quadrature weights span
e^{K^2} for the K under study, so sums and products are carried as
(sign, log|x|) pairs.  Addition uses log-sum-exp with sign handling;
exact cancellation collapses to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG_HUGE = 700.0  # conversion to float overflows past this


@dataclass(frozen=True)
class LogScaledReal:
    """A real number stored as sign in {-1, 0, +1} and log of |value|.

    ``logmag`` is -inf when ``sign`` is 0.  Multiplication adds logmags,
    addition goes through log-sum-exp, so the representable range is set by
    the exponent being a finite double rather than by double overflow.
    """

    sign: int
    logmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.logmag != -math.inf:
            object.__setattr__(self, "logmag", -math.inf)

    @staticmethod
    def zero() -> "LogScaledReal":
        return LogScaledReal(0, -math.inf)

    @staticmethod
    def from_float(x: float) -> "LogScaledReal":
        if x == 0.0:
            return LogScaledReal.zero()
        if not math.isfinite(x):
            raise ValueError(f"cannot log-scale non-finite value {x}")
        return LogScaledReal(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.logmag > _LOG_HUGE:
            return math.inf * self.sign
        return self.sign * math.exp(self.logmag)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = LogScaledReal.from_float(float(other))
        if self.sign == 0 or other.sign == 0:
            return LogScaledReal.zero()
        return LogScaledReal(self.sign * other.sign, self.logmag + other.logmag)

    __rmul__ = __mul__

    def __neg__(self):
        return LogScaledReal(-self.sign, self.logmag)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = LogScaledReal.from_float(float(other))
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.logmag >= other.logmag else (other, self)
        d = hi.logmag - lo.logmag
        if hi.sign == lo.sign:
            return LogScaledReal(hi.sign, hi.logmag + math.log1p(math.exp(-d)))
        # opposite signs: |hi| - |lo|
        if d == 0.0:
            return LogScaledReal.zero()
        return LogScaledReal(hi.sign, hi.logmag + math.log(-math.expm1(-d)))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = LogScaledReal.from_float(float(other))
        return self + (-other)

    def __repr__(self):
        return f"LogScaledReal(sign={self.sign}, logmag={self.logmag!r})"


def float_to_log(vals):
    """(sign, log|value|) arrays of plain double values; a zero gets sign 0
    and logmag -inf."""
    vals = np.asarray(vals, dtype=float)
    signs = np.sign(vals).astype(int)
    with np.errstate(divide="ignore"):
        logmags = np.where(vals != 0.0, np.log(np.abs(vals)), -np.inf)
    return signs, logmags


def signed_logsumexp(signs: np.ndarray, logmags: np.ndarray) -> LogScaledReal:
    """Sum an array of (sign, logmag) values exactly in log scale."""
    signs = np.asarray(signs)
    logmags = np.asarray(logmags)
    pos = logmags[signs > 0]
    neg = logmags[signs < 0]

    def _lse(a):
        if a.size == 0:
            return -math.inf
        m = float(np.max(a))
        if m == -math.inf:
            return -math.inf
        return m + math.log(float(np.sum(np.exp(a - m))))

    lp, ln = _lse(pos), _lse(neg)
    p = LogScaledReal(1, lp) if lp > -math.inf else LogScaledReal.zero()
    n = LogScaledReal(-1, ln) if ln > -math.inf else LogScaledReal.zero()
    return p + n
