"""Euclidean fundamental solutions of (Delta + alpha)^k in R^n, n > 2k.

The kernel for alpha = 1 has the closed radial form

    G^(k)(r) = D_{n,k} r^{-nu} K_nu(r),      nu = (n - 2k)/2,
    D_{n,k}  = 1 / (2^{(n+2k-2)/2} pi^{n/2} (k-1)!),

and general alpha follows from the scaling G_alpha(r) =
alpha^{(n-2k)/2} G^(k)(sqrt(alpha) r).  The closed form is validated in the
test suite against independent oracles: the elementary kernels of odd n
(the Yukawa kernel e^{-r}/(4 pi r) at n = 3), frozen reference values, the
small-r normalisation r^{n-2k} G -> c_{n,k}, numerical radial
self-convolution (the semigroup G^(1) * G^(1) = G^(2)), and, in odd
critical dimension n = 2k + 1, a Richardson extrapolation of the diagonal
remainder G - c_{n,k}/r to its exact limit -c_{n,k} sqrt(alpha).

Radial derivatives are exact: ``RadialTerms`` keeps finite sums of
q(u) r^p K_m(s r) terms, q polynomial, closed under d/dr, and evaluates
them by one path with one underflow rule.  The kernel itself
(``kernel_alpha_array``, the one term D_{n,k} alpha^{nu/2} r^{-nu}
K_nu(sqrt(alpha) r)), its derivatives (``kernel_terms``), the parametrix
H = chi G_alpha (``parametrix_kernel``, which the torus pipeline and the
representation check read) and its error field all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .besselk import UNDERFLOW_ARG, bessel_k_scaled_array, gamma_fn
from .cutoff import CutoffSpec
from .errors import DomainError, OutOfRegimeError, UnsupportedOrderError
from .params import ProblemParams


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def c_nk(n: int, k: int) -> float:
    """Normalisation constant of the pure poly-Laplacian kernel c_{n,k} r^{2k-n}."""
    if n <= 2 * k:
        raise DomainError(f"need n > 2k, got n={n}, k={k}")
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    return gamma_fn((n - 2 * k) / 2.0) / (4.0**k * math.pi ** (n / 2.0) * math.factorial(k - 1))


def closed_form_constant(n: int, k: int) -> float:
    """Prefactor D_{n,k} of the closed-form kernel D_{n,k} r^{-nu} K_nu(r)."""
    if n <= 2 * k:
        raise DomainError(f"need n > 2k, got n={n}, k={k}")
    return 1.0 / (2.0 ** ((n + 2 * k - 2) / 2.0) * math.pi ** (n / 2.0) * math.factorial(k - 1))


def eta(t: float, n: int, k: int) -> float:
    """Near-diagonal remainder scale: t, t^2 (1+|log t|), or t^2 by n - 2k.

    Defined only on 0 < t <= 1; arguments outside are rejected rather than
    extrapolated.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"eta is defined on (0, 1], got t={t}")
    if n <= 2 * k:
        raise DomainError(f"need n > 2k, got n={n}, k={k}")
    gap = n - 2 * k
    if gap == 1:
        return t
    if gap == 2:
        return t * t * (1.0 + abs(math.log(t)))
    return t * t


def kernel_closed_form_array(n: int, k: int, x: np.ndarray) -> np.ndarray:
    """Closed-form alpha = 1 kernel on an array of radii."""
    return kernel_alpha_array(ProblemParams(n, k, 1.0), x)


def kernel_closed_form(n: int, k: int, r: float) -> float:
    return float(kernel_closed_form_array(n, k, np.array([float(r)]))[0])


def kernel_alpha_array(params: ProblemParams, r: np.ndarray) -> np.ndarray:
    """G_alpha^(k) on an array of radii, the one-term sum of ``kernel_terms``.

    Radii with sqrt(alpha) r > 700 return exact 0.0 (underflow policy)."""
    return kernel_terms(params).evaluate(r)


def kernel_alpha(params: ProblemParams, r: float) -> float:
    return float(kernel_alpha_array(params, np.array([float(r)]))[0])


def euclid_remainder_at_zero(params: ProblemParams) -> float:
    """lim_{r->0} (G_alpha(r) - c_{n,k} / r) = -c_{n,k} sqrt(alpha) for n = 2k + 1.

    There nu = 1/2 and the kernel is c_{n,k} e^{-sqrt(alpha) r} / r, so the
    limit is exact: the diverging part of the torus mass.
    """
    if params.n != 2 * params.k + 1:
        raise DomainError(
            f"diagonal remainder defined for n = 2k + 1, got n={params.n}, k={params.k}"
        )
    return -c_nk(params.n, params.k) * params.sqrt_alpha


# ---------------------------------------------------------------------------
# Exact radial derivatives via the term algebra q(u) r^p K_m(s r)
# ---------------------------------------------------------------------------

class RadialTerms:
    """Sum of q(u) r^p K_m(s r) terms with u = (r - r0)/h, exact under d/dr.

    Keys are (2p, 2m) with integral values; each q is a numpy Polynomial in u.
    """

    def __init__(self, entries: dict, s: float, r0: float = 0.0, h: float = 1.0):
        self.entries = entries
        self.s = s
        self.r0 = r0
        self.h = h
        # the largest radius with s r <= UNDERFLOW_ARG in floating point: s r is
        # nondecreasing in r, so a radius is beyond the cut exactly when r > r_cut
        r_cut = UNDERFLOW_ARG / s
        while s * r_cut > UNDERFLOW_ARG:
            r_cut = math.nextafter(r_cut, 0.0)
        while s * math.nextafter(r_cut, math.inf) <= UNDERFLOW_ARG:
            r_cut = math.nextafter(r_cut, math.inf)
        self.r_cut = r_cut

    def _with(self, entries: dict) -> "RadialTerms":
        return RadialTerms(entries, self.s, self.r0, self.h)

    @staticmethod
    def _accumulate(acc: dict, key, poly: Polynomial):
        acc[key] = acc[key] + poly if key in acc else poly

    def derivative(self) -> "RadialTerms":
        """d/dr, by d/dr [r^p K_m(s r)] = (p + m) r^{p-1} K_m - s r^p K_{m+1}."""
        acc: dict = {}
        for (tp, tm), q in self.entries.items():
            dq = q.deriv()
            if dq.degree() > 0 or abs(dq.coef[0]) > 0:
                self._accumulate(acc, (tp, tm), dq / self.h)
            pm = 0.5 * (tp + tm)
            if pm != 0.0:
                self._accumulate(acc, (tp - 2, tm), q * pm)
            self._accumulate(acc, (tp, tm + 2), q * (-self.s))
        return self._with(acc)

    def divide_r(self) -> "RadialTerms":
        return self._with({(tp - 2, tm): q for (tp, tm), q in self.entries.items()})

    def scale(self, factor: float) -> "RadialTerms":
        return self._with({key: q * factor for key, q in self.entries.items()})

    def add(self, other: "RadialTerms") -> "RadialTerms":
        acc = dict(self.entries)
        for key, q in other.entries.items():
            self._accumulate(acc, key, q)
        return self._with(acc)

    def apply_operator(self, n: int, alpha: float) -> "RadialTerms":
        """(Delta + alpha) f = -f'' - (n-1)/r f' + alpha f."""
        d1 = self.derivative()
        d2 = d1.derivative()
        return d2.scale(-1.0).add(d1.divide_r().scale(-(n - 1))).add(self.scale(alpha))

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """The sum at radii r, sharing one exponential factor and one K_m per order.

        A constant q is a scalar.  Radii are clipped at r_cut (s r = UNDERFLOW_ARG
        = 700), and those beyond it return exact 0.0, inf included; a NaN or
        nonpositive radius raises DomainError from the Bessel front end."""
        r = np.asarray(r, dtype=float)
        rc = np.minimum(r, self.r_cut)  # NaN stays NaN, for the Bessel front end to reject
        x = self.s * rc
        bessel = {tm: bessel_k_scaled_array(tm, x) for tm in {tm for _, tm in self.entries}}
        u = (rc - self.r0) / self.h if any(q.degree() for q in self.entries.values()) else None
        acc = sum(
            (q.coef[0] if q.degree() == 0 else q(u)) * rc ** (0.5 * tp) * bessel[tm]
            for (tp, tm), q in self.entries.items()
        )
        acc *= np.exp(-x)
        return np.where(r <= self.r_cut, acc, 0.0)


def kernel_terms(params: ProblemParams, l: int = 0, gap: int = 0) -> RadialTerms:
    """d^l/dr^l (r^gap G_alpha) as a RadialTerms sum with constant coefficients."""
    nu2 = params.twice_nu
    coef = closed_form_constant(params.n, params.k) * params.alpha ** (0.25 * nu2)
    terms = RadialTerms({(2 * gap - nu2, nu2): Polynomial([coef])}, params.sqrt_alpha)
    for _ in range(l):
        terms = terms.derivative()
    return terms


def kernel_radial_derivative(params: ProblemParams, r: float, l: int) -> float:
    """l-th radial derivative of the kernel profile, exact up to rounding.

    ``l = 0`` is the kernel itself; orders above 2k are not supported (the
    Bessel order would leave the table driven by the operator order).
    """
    if l < 0:
        raise DomainError(f"derivative order must be >= 0, got {l}")
    if l > 2 * params.k:
        raise UnsupportedOrderError(
            f"derivative order {l} exceeds operator order 2k = {2 * params.k}"
        )
    if not r > 0:
        raise DomainError(f"need r > 0, got r={r}")
    return float(kernel_terms(params, l).evaluate(np.array([float(r)]))[0])


# ---------------------------------------------------------------------------
# Near-diagonal remainder diagnostics
# ---------------------------------------------------------------------------

def remainder_ratio(params: ProblemParams, r: float) -> float:
    """|G / (c_{n,k} r^{2k-n}) - 1| / eta(sqrt(alpha) r), near regime only."""
    t = params.sqrt_alpha * r
    if not 0.0 < t <= 1.0:
        raise OutOfRegimeError(
            f"remainder ratio defined for 0 < sqrt(alpha) r <= 1, got {t}"
        )
    n, k = params.n, params.k
    reduced = kernel_closed_form(n, k, t) * t ** (n - 2 * k) / c_nk(n, k)
    return abs(reduced - 1.0) / eta(t, n, k)


def differentiated_remainder_ratio(params: ProblemParams, r: float, l: int) -> float:
    """|d^l/dr^l ( r^{n-2k} G )| r^l / eta(sqrt(alpha) r), near regime only.

    Bounded uniformly in alpha for 1 <= l <= 2k - 1; the test suite fits the
    constant.
    """
    if not 1 <= l <= 2 * params.k - 1:
        raise DomainError(f"need 1 <= l <= 2k-1 = {2 * params.k - 1}, got {l}")
    t = params.sqrt_alpha * r
    if not 0.0 < t <= 1.0:
        raise OutOfRegimeError(
            f"differentiated remainder defined for 0 < sqrt(alpha) r <= 1, got {t}"
        )
    terms = kernel_terms(params, l, gap=params.n - 2 * params.k)
    val = float(terms.evaluate(np.array([float(r)]))[0])
    return abs(val) * r**l / eta(t, params.n, params.k)


# ---------------------------------------------------------------------------
# Radial kernel objects consumed by the convolution engine
# ---------------------------------------------------------------------------

@dataclass
class RadialKernel:
    """An evaluable radial profile with singularity and decay metadata.

    ``evaluator`` must accept a positive float array and is assumed finite on
    r > 0; ``sing_exp`` is the exponent s with kernel ~ C r^s as r -> 0+;
    ``support_radius`` is None for unbounded support; ``semigroup_order``
    marks Green-kernel factors so the convolution engine can enforce the
    well-definedness condition n > 2(k_f + k_g).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    sing_exp: float
    support_radius: Optional[float] = None
    decay_rate: float = 0.0          # kernel ~ r^rho e^{-decay_rate * r} far out
    semigroup_order: Optional[int] = None

    def __call__(self, r):
        scalar = np.isscalar(r)
        vals = self.evaluator(np.atleast_1d(np.asarray(r, dtype=float)))
        return float(vals[0]) if scalar else vals


def green_radial_kernel(params: ProblemParams) -> RadialKernel:
    """RadialKernel wrapper of G_alpha^(k), tagged with its semigroup order."""
    return RadialKernel(
        evaluator=kernel_terms(params).evaluate,  # one term set per kernel object
        sing_exp=float(2 * params.k - params.n),
        support_radius=None,
        decay_rate=params.sqrt_alpha,
        semigroup_order=params.k,
    )


def _masked(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
    """f on lo < r < hi and exact 0.0 elsewhere, as a ``RadialKernel`` evaluator."""

    def evaluator(r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r)
        inside = (r > lo) & (r < hi)
        if np.any(inside):
            out[inside] = f(r[inside])
        return out

    return evaluator


def parametrix_kernel(params: ProblemParams, cutoff: CutoffSpec) -> RadialKernel:
    """The parametrix H = chi G_alpha, ~ r^{2k-n} at 0 and exact 0.0 from tau0 on."""
    kernel = kernel_terms(params)
    return RadialKernel(
        _masked(lambda r: cutoff.chi(r) * kernel.evaluate(r), 0.0, cutoff.tau0),
        sing_exp=float(2 * params.k - params.n),
        support_radius=cutoff.tau0,
    )
