"""Polynomial smoothstep cutoff used to localise the parametrix.

chi is identically 1 on [0, tau0/2], identically 0 on [tau0, inf), and on the
transition annulus equals 1 - S((r - tau0/2)/(tau0/2)) where S is the
polynomial smoothstep whose first ``smoothness`` derivatives vanish at both
junctions.  Being polynomial, all derivatives are exact, which the radial
operator pipeline relies on.  chi itself is evaluated as S(1 - u), by the
symmetry 1 - S(u) = S(1 - u), in a form with no cancellation, so it keeps its
relative accuracy up to tau0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from .errors import DomainError


def smoothstep_polynomial(smoothness: int) -> Polynomial:
    """S_N on [0, 1] with S(0)=0, S(1)=1 and N vanishing derivatives at both ends.

    S_N(x) = x^{N+1} sum_{j=0}^{N} binom(N+j, j) binom(2N+1, N-j) (-x)^j.
    """
    if smoothness < 1:
        raise DomainError(f"need smoothness >= 1, got {smoothness}")
    n = smoothness
    coeffs = [0.0] * (n + 1)
    for j in range(n + 1):
        coeffs.append(
            float(math.comb(n + j, j) * math.comb(2 * n + 1, n - j) * (-1) ** j)
        )
    return Polynomial(coeffs)


@dataclass
class CutoffSpec:
    """Radial cutoff: 1 on [0, tau0/2], polynomial drop to 0 at tau0.

    ``smoothness`` derivatives vanish at both junctions; the transition
    polynomial (in the scaled variable u = (r - tau0/2)/(tau0/2)) is exposed
    for the symbolic radial pipeline.
    """

    tau0: float
    smoothness: int
    step: Polynomial = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.tau0) and self.tau0 > 0):
            raise DomainError(f"tau0 must be positive and finite, got tau0={self.tau0}")
        self.step = smoothstep_polynomial(self.smoothness)

    @property
    def half(self) -> float:
        return 0.5 * self.tau0

    def scaled(self, r: np.ndarray) -> np.ndarray:
        return (np.asarray(r, dtype=float) - self.half) / self.half

    def chi(self, r):
        """chi(r) = S(1 - u), elementwise: exactly 1 for r <= tau0/2 and 0 from tau0 on.

        S(x) = x^{N+1} sum_j C(N+j, j) (1 - x)^j sums nonnegative terms, so
        chi = v^{N+1} sum_j C(N+j, j) u^j with v = 1 - u has no cancellation;
        u and v = (tau0 - r)/(tau0/2) take one rounding each on the annulus,
        where r - tau0/2 and tau0 - r are exact (Sterbenz).
        """
        r = np.asarray(r, dtype=float)
        u = np.clip(self.scaled(r), 0.0, 1.0)
        v = np.clip((self.tau0 - r) / self.half, 0.0, 1.0)
        n = self.smoothness
        out = v ** (n + 1) * polyval(u, [float(math.comb(n + j, j)) for j in range(n + 1)])
        return out if out.shape else float(out)


def auto_tau0(n: int, L: float) -> float:
    """Default localisation radius 0.9 * (L/2) / (n + 2), inside i_g/(n+2)."""
    return 0.9 * (L / 2.0) / (n + 2)


def cutoff_for(params_n: int, k: int, L: float, tau0: float | None = None) -> CutoffSpec:
    """Standard cutoff for the parametrix: smoothness 2k + 2, tau0 auto by default."""
    t0 = auto_tau0(params_n, L) if tau0 is None else tau0
    return CutoffSpec(tau0=t0, smoothness=2 * k + 2)
