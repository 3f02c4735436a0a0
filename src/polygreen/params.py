"""Problem parameters for the operator (Delta + alpha)^k on R^n or a torus."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class ProblemParams:
    """The triple (n, k, alpha) defining the operator (Delta + alpha)^k.

    Standing constraints: n > 2k, k >= 1 and a finite alpha > 0.  The
    construction of the fundamental solution breaks down at n = 2k (the
    kernel's singularity degenerates to a logarithm), so that case is
    rejected outright.
    """

    n: int
    k: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.k, int):
            raise DomainError("n and k must be integers")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got k={self.k}")
        if self.n <= 2 * self.k:
            raise DomainError(f"need n > 2k, got n={self.n}, k={self.k}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive and finite, got alpha={self.alpha}")

    @property
    def sqrt_alpha(self) -> float:
        return math.sqrt(self.alpha)

    @property
    def twice_nu(self) -> int:
        """Bessel order 2*nu with nu = (n - 2k)/2, kept integral so
        half-integer orders stay exact."""
        return self.n - 2 * self.k

