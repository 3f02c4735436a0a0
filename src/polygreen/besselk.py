"""Modified Bessel functions of the second kind, K_nu, for the kernel evaluations.

Only orders nu = 0, 1/2, 1, ..., 13/2 arise (nu = (n-2k)/2 plus derivative
shifts), so the implementation is specialised:

* half-integer orders use the terminating closed form
  K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_j (m+j)!/(j!(m-j)!) (2x)^{-j},
  exact up to rounding for every x > 0;
* integer orders use, for x <= 1, the ascending series for (K_0, K_1) and
  the upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu, which is
  forward stable for K; for 1 < x < 16, each order comes directly from one
  fixed 33-node trapezoid rule on
  e^x K_nu(x) = int_0^inf e^{-s^2} T_nu(1 + s^2/x) 2/sqrt(2x + s^2) ds,
  with T_nu the Chebyshev polynomial, evaluated as one matrix product per
  block of points: the node table (2x + s_j^2)^{-1/2} times a constant
  matrix of moments 2 W_j s_j^{2p}, then a Horner sum in 1/x with the
  nonnegative monomial coefficients of T_nu(1 + z), so no term cancels;
  from x = 16 on, by one 12-term Chebyshev series of that rule in 32/x - 1.

The one evaluator, ``bessel_k_scaled_array``, returns the exponentially
scaled function e^x K_nu(x), so that large arguments neither underflow nor
overflow.  Its callers in ``euclid`` multiply by e^{-x} and return exact 0.0
beyond x = UNDERFLOW_ARG = 700, where e^{-x} has no normal double
representation worth propagating.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedOrderError

EULER_GAMMA = 0.57721566490153286061

# Largest supported order, stored as 2*nu.  Covers nu = (n-2k)/2 + l for all
# dimensions and derivative depths exercised by the kernel module.
MAX_TWICE_NU = 13

# Beyond this argument e^{-x} is not representable; callers get exact zero.
UNDERFLOW_ARG = 700.0

_SERIES_CUT = 1.0


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0.

    Arguments on the half-integer grid (the only ones reached by the kernel
    constants) are evaluated by exact upward recursion from Gamma(1/2) and
    Gamma(1); other positive arguments fall back to the C library.
    """
    if not x > 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    twice = 2.0 * x
    if twice == int(twice):
        m = int(twice)
        if m % 2 == 0:
            val, arg = 1.0, 1.0
        else:
            val, arg = math.sqrt(math.pi), 0.5
        while arg < x - 0.25:
            val *= arg
            arg += 1.0
        return val
    return math.gamma(x)


def _half_integer_scaled(m: int, x: np.ndarray) -> np.ndarray:
    """e^x K_{m+1/2}(x) as sqrt(pi/(2x)) times a degree-m polynomial in 1/(2x)."""
    acc = np.zeros_like(x)
    inv = 1.0 / (2.0 * x)
    for j in range(m, -1, -1):
        c = math.factorial(m + j) // (math.factorial(j) * math.factorial(m - j))
        acc = acc * inv + float(c)
    return np.sqrt(math.pi * inv) * acc


def _k01_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled (K_0, K_1) by the ascending series, for x <= _SERIES_CUT."""
    z = x * x / 4.0
    lg = np.log(x / 2.0)
    i0 = np.ones_like(x)
    i1_half = np.ones_like(x)          # I_1(x)/(x/2)
    s0 = np.zeros_like(x)
    s1 = np.zeros_like(x)              # sum for K_1 against (H_j + H_{j+1} - 2 gamma)
    term0 = np.ones_like(x)
    term1 = np.ones_like(x)
    h = 0.0
    s1 = s1 + term1 * (2.0 * h + 1.0 - 2.0 * EULER_GAMMA)  # j = 0 term, H_0 + H_1 = 1
    for j in range(1, 64):
        term0 = term0 * z / (j * j)
        term1 = term1 * z / (j * (j + 1))
        h += 1.0 / j
        i0 = i0 + term0
        i1_half = i1_half + term1
        s0 = s0 + term0 * h
        s1 = s1 + term1 * (2.0 * h + 1.0 / (j + 1.0) - 2.0 * EULER_GAMMA)
        if np.all(term0 < 1e-18 * i0):
            break
    k0 = -(lg + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / x + lg * (x / 2.0) * i1_half - (x / 4.0) * s1
    return k0, k1


# Trapezoid rule for x > _SERIES_CUT.  With s^2 = 2x sinh^2(t/2),
#   e^x K_nu(x) = int_0^inf e^{-x(cosh t - 1)} cosh(nu t) dt
#               = int_0^inf e^{-s^2} T_nu(1 + s^2/x) 2/sqrt(2x + s^2) ds,
# T_nu the Chebyshev polynomial.  The integrand is even and analytic in s, so
# the trapezoid rule converges geometrically.  Its nearest singularity is the
# branch point s = i sqrt(2x), so the error is about e^{-2 pi sqrt(2x)/h},
# largest at the cut (for large x the Gaussian caps it at e^{-pi^2/h^2}):
# h = 0.25 gives e^{-35.5} = 4e-16 at x = 1.  The nodes stop at s = 8, where
# e^{-s^2} = 2e-28 leaves the truncation below rounding for every supported
# order: 33 nodes, the same for every x > 1 and every order.
_TRAP_H = 0.25
_TRAP_S2 = (_TRAP_H * np.arange(33)) ** 2
_TRAP_W = _TRAP_H * np.exp(-_TRAP_S2)
_TRAP_W[0] *= 0.5

# The rule is summed through the monomials of T_nu(1 + z) = sum_p a[nu, p] z^p,
# a[nu, 0] = 1 and a[nu, p] = nu/(nu+p) C(nu+p, 2p) 2^p > 0: with the moments
# M[j, p] = 2 W_j s_j^(2p), e^x K_nu(x) = sum_p a[nu, p] x^-p (R @ M)[p] for
# the node table R_j = (2x + s_j^2)^(-1/2).  Every term is nonnegative, so the
# sum has no cancellation.  a is built in integers (C(nu+p, 2p) = 0 for p > nu).
_MAX_INT_ORDER = MAX_TWICE_NU // 2
_T_MONOMIALS = np.array(
    [
        [1.0] + [nu * math.comb(nu + p, 2 * p) * 2**p // (nu + p) for p in range(1, _MAX_INT_ORDER + 1)]
        for nu in range(_MAX_INT_ORDER + 1)
    ],
    dtype=float,
)
_TRAP_MOMENTS = 2.0 * _TRAP_W[:, None] * _TRAP_S2[:, None] ** np.arange(_MAX_INT_ORDER + 1)

# Points per block of the (points x 33) node table R (135 kB), whatever the input size.
_TRAP_BLOCK = 512


def _k_trapezoid_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and x > 1 by the 33-node rule."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    moments = _TRAP_MOMENTS[:, : order + 1]
    coeffs = _T_MONOMIALS[order]
    for i in range(0, flat.size, _TRAP_BLOCK):
        xb = flat[i : i + _TRAP_BLOCK]
        r = np.add.outer(2.0 * xb, _TRAP_S2)
        np.sqrt(r, out=r)
        np.divide(1.0, r, out=r)
        q = r @ moments
        inv = 1.0 / xb
        acc = coeffs[order] * q[:, order]
        for p in range(order - 1, -1, -1):
            acc = acc * inv + coeffs[p] * q[:, p]
        out[i : i + _TRAP_BLOCK] = acc
    return out.reshape(x.shape)


# From x = 16 on, sqrt(2x/pi) e^x K_nu(x) = 1 + g_nu(32/x - 1) with g_nu smooth on [-1, 1]
# (Trefethen, Approximation Theory and Approximation Practice, ch. 8): g_nu interpolates the
# rule at 12 first-kind Chebyshev nodes (a DCT in math.fsum); its trailing coefficients are at
# most 1.3e-16 (order 6; more terms add rounding).  Clenshaw's recurrence sums it per block.
_CHEB_CUT, _CHEB_TERMS, _CHEB_BLOCK = 16.0, 12, 8192


def _chebyshev_coefficients(order: int) -> np.ndarray:
    theta = math.pi * (np.arange(_CHEB_TERMS) + 0.5) / _CHEB_TERMS
    x = 2.0 * _CHEB_CUT / (1.0 + np.cos(theta))
    dev = _k_trapezoid_scaled(order, x) * np.sqrt(2.0 * x / math.pi) - 1.0
    coef = [2.0 * math.fsum(dev * np.cos(j * theta)) / _CHEB_TERMS for j in range(_CHEB_TERMS)]
    return np.array([0.5 * coef[0]] + coef[1:])


_CHEB_COEFFS = np.array([_chebyshev_coefficients(nu) for nu in range(_MAX_INT_ORDER + 1)])


def _k_chebyshev_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and x >= 16 by its Chebyshev series."""
    flat, out = x.reshape(-1), np.empty(x.size)
    coef = _CHEB_COEFFS[order]
    for i in range(0, flat.size, _CHEB_BLOCK):
        xb = flat[i : i + _CHEB_BLOCK]
        y2 = 4.0 * _CHEB_CUT / xb - 2.0  # 2y
        b1, b2, tmp = np.full_like(xb, coef[-1]), np.zeros_like(xb), np.empty_like(xb)
        for c in coef[-2:0:-1]:  # b_j = c_j + 2y b_{j+1} - b_{j+2}, in place
            np.multiply(y2, b1, out=tmp)
            tmp -= b2
            tmp += c
            b1, b2, tmp = tmp, b1, b2
        g = 0.5 * y2 * b1 - b2 + coef[0]
        out[i : i + _CHEB_BLOCK] = np.sqrt(0.5 * math.pi / xb) * (1.0 + g)
    return out.reshape(x.shape)


def _k_series_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and x <= 1: series, then upward recurrence."""
    k0, k1 = _k01_series(x)
    scale = np.exp(x)
    # K_{-1} = K_1 and K_0 start K_{m+1} = K_{m-1} + (2m / x) K_m
    prev, cur = k1 * scale, k0 * scale
    for m in range(order):
        prev, cur = cur, prev + (2.0 * m / x) * cur
    return cur


def bessel_k_scaled_array(twice_nu: int, x: np.ndarray) -> np.ndarray:
    """e^x K_{nu}(x) elementwise over an array of positive arguments."""
    if twice_nu < 0 or twice_nu > MAX_TWICE_NU:
        raise UnsupportedOrderError(
            f"order nu = {twice_nu}/2 outside supported range [0, {MAX_TWICE_NU}/2]"
        )
    x = np.asarray(x, dtype=float)
    lo, hi = x.min(initial=np.inf), x.max(initial=0.0)
    if not lo > 0:  # min propagates NaN, so NaN fails too
        raise DomainError("K_nu requires arguments x > 0")
    if twice_nu % 2 == 1:
        return _half_integer_scaled((twice_nu - 1) // 2, x)
    order = twice_nu // 2
    # a region holding every point runs its rule on x itself: no gather or scatter
    if hi <= _SERIES_CUT:
        return _k_series_scaled(order, x)
    if lo >= _CHEB_CUT:
        return _k_chebyshev_scaled(order, x)
    if lo > _SERIES_CUT and hi < _CHEB_CUT:
        return _k_trapezoid_scaled(order, x)
    out = np.empty_like(x)
    small, large = x <= _SERIES_CUT, x >= _CHEB_CUT
    mid = ~(small | large)
    if lo <= _SERIES_CUT:
        out[small] = _k_series_scaled(order, x[small])
    out[mid] = _k_trapezoid_scaled(order, x[mid])
    out[large] = _k_chebyshev_scaled(order, x[large])
    return out
