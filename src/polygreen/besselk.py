"""Modified Bessel functions of the second kind, K_nu, for the kernel evaluations.

Only orders nu = 0, 1/2, 1, ..., 13/2 arise (nu = (n-2k)/2 plus derivative
shifts), so the implementation is specialised:

* half-integer orders use the terminating closed form
  K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_j (m+j)!/(j!(m-j)!) (2x)^{-j},
  exact up to rounding for every x > 0;
* integer orders use, for x <= 1, the ascending series for (K_0, K_1) and
  the upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu, which is
  forward stable for K; for x > 1, each order comes directly from one fixed
  33-node trapezoid rule on
  e^x K_nu(x) = int_0^inf e^{-s^2} T_nu(1 + s^2/x) 2/sqrt(2x + s^2) ds,
  with T_nu the Chebyshev polynomial, taken on every second node from x = 16
  on (steps and node counts derived beside the rule).  The rule is
  evaluated as one matrix product per block of points: the node table
  (2x + s_j^2)^{-1/2} times a constant matrix of moments 2 W_j s_j^{2p},
  then a Horner sum in 1/x with the nonnegative monomial coefficients of
  T_nu(1 + z), so no term cancels.

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

# From x = 16 on, every second node (h = 0.5, 17 nodes, weights 2 W_j) is
# enough: the error is about e^(d^2 - 2 pi d/h) for a strip of half-width
# d < sqrt(2x) (Trefethen & Weideman, SIAM Rev. 56 (2014) 385), 1e-17 at d = sqrt(32).
_WIDE_STEP_CUT = 16.0

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

# Points per block of the (points x nodes) table R: one 512 x 33 table
# (135 kB), or 512 x 17 from x = 16 on, whatever the input size.  On the
# 17-node rule, single-threaded, 2048-point blocks took 0.13-0.15 ms against
# 0.16-0.18 ms on 1,080 points and 9.3-9.6 ms against 9.9-11.1 ms on 81,000
# points, but the n = 4 torus scan did not gain (0.029-0.038 s against
# 0.031-0.034 s) and its peak RSS rose by 0.6-0.7 MB.
_TRAP_BLOCK = 512


def _k_trapezoid_scaled(order: int, x: np.ndarray, stride: int) -> np.ndarray:
    """e^x K_order(x) for an integer order and x > 1, on every stride-th node."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    s2 = _TRAP_S2[::stride]
    moments = stride * _TRAP_MOMENTS[::stride, : order + 1]
    coeffs = _T_MONOMIALS[order]
    for i in range(0, flat.size, _TRAP_BLOCK):
        xb = flat[i : i + _TRAP_BLOCK]
        r = np.add.outer(2.0 * xb, s2)
        np.sqrt(r, out=r)
        np.divide(1.0, r, out=r)
        q = r @ moments
        inv = 1.0 / xb
        acc = coeffs[order] * q[:, order]
        for p in range(order - 1, -1, -1):
            acc = acc * inv + coeffs[p] * q[:, p]
        out[i : i + _TRAP_BLOCK] = acc
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
    if lo >= _WIDE_STEP_CUT:
        return _k_trapezoid_scaled(order, x, 2)
    if lo > _SERIES_CUT and hi < _WIDE_STEP_CUT:
        return _k_trapezoid_scaled(order, x, 1)
    out = np.empty_like(x)
    small, wide = x <= _SERIES_CUT, x >= _WIDE_STEP_CUT
    mid = ~(small | wide)
    if lo <= _SERIES_CUT:
        out[small] = _k_series_scaled(order, x[small])
    out[mid] = _k_trapezoid_scaled(order, x[mid], 1)
    out[wide] = _k_trapezoid_scaled(order, x[wide], 2)
    return out
