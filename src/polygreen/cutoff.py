"""Polynomial cutoff used to localise the parametrix.

chi is identically 1 on [0, tau0/2], identically 0 on [tau0, inf), and on the
transition annulus, in u = (r - tau0/2)/(tau0/2) and v = 1 - u, equals
v^{N+1} sum_{j=0}^{N} C(N+j, j) u^j, whose first N = ``smoothness``
derivatives vanish at both junctions.  chi has one polynomial: the integer
coefficients C(N+j, j) are built once per cutoff, and both the evaluation of
chi and its exact polynomial in u, which the radial operator pipeline
multiplies the kernel by, read them.  Being polynomial, all derivatives are
exact.  The sum has nonnegative terms, so chi keeps its relative accuracy up
to tau0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from .errors import DomainError


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff: 1 on [0, tau0/2], polynomial drop to 0 at tau0.

    ``smoothness`` = N derivatives vanish at both junctions; ``coefficients``
    holds C(N+j, j), j = 0..N, the nonnegative factor of chi on the annulus.
    Frozen, so the coefficients cannot go stale.
    """

    tau0: float
    smoothness: int
    coefficients: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.tau0) and self.tau0 > 0):
            raise DomainError(f"tau0 must be positive and finite, got tau0={self.tau0}")
        n = self.smoothness
        if not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"need an integer smoothness >= 1, got {n}")
        coefficients = tuple(float(math.comb(n + j, j)) for j in range(n + 1))
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def half(self) -> float:
        return 0.5 * self.tau0

    def scaled(self, r: np.ndarray) -> np.ndarray:
        return (np.asarray(r, dtype=float) - self.half) / self.half

    def chi(self, r):
        """chi(r) = v^{N+1} sum_j C(N+j, j) u^j elementwise, no cancellation.

        Exactly 1 for r <= tau0/2 and 0 from tau0 on.  u and v = (tau0 - r)/(tau0/2)
        take one rounding each on the annulus, where r - tau0/2 and tau0 - r
        are exact (Sterbenz).
        """
        r = np.asarray(r, dtype=float)
        u = np.clip(self.scaled(r), 0.0, 1.0)
        v = np.clip((self.tau0 - r) / self.half, 0.0, 1.0)
        out = v ** (self.smoothness + 1) * polyval(u, self.coefficients)
        return out if out.shape else float(out)

    def polynomial(self) -> Polynomial:
        """chi on the annulus as a polynomial in u: (1 - u)^{N+1} sum_j C(N+j, j) u^j.

        Exact up to N = 18: every coefficient and partial sum of the product
        is an integer below 2^53.
        """
        return Polynomial([1.0, -1.0]) ** (self.smoothness + 1) * Polynomial(self.coefficients)


def auto_tau0(n: int, L: float) -> float:
    """Default localisation radius 0.9 * (L/2) / (n + 2), inside i_g/(n+2)."""
    return 0.9 * (L / 2.0) / (n + 2)


def cutoff_for(params_n: int, k: int, L: float, tau0: float | None = None) -> CutoffSpec:
    """Standard cutoff for the parametrix: smoothness 2k + 2, tau0 auto by default."""
    t0 = auto_tau0(params_n, L) if tau0 is None else tau0
    return CutoffSpec(tau0=t0, smoothness=2 * k + 2)
