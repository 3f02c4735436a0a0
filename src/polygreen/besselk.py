"""Modified Bessel functions of the second kind, K_nu, for the kernel evaluations.

Only orders nu = 0, 1/2, 1, ..., 13/2 arise (nu = (n-2k)/2 plus derivative
shifts), so the implementation is specialised:

* half-integer orders use the terminating closed form
  K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_j (m+j)!/(j!(m-j)!) (2x)^{-j},
  exact up to rounding for every x > 0;
* integer orders use, for x <= 1, the ascending series for (K_0, K_1) as
  fixed 11-term Horner sums in x^2/4, and for 1 < x < 16 one 20-term
  Chebyshev series each for (K_0, K_1) in 2 log x / log 16 - 1; both
  continue by the upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu,
  which is forward stable for K.  From x = 16 on, each order is one 12-term
  Chebyshev series in 32/x - 1.  Both sets of Chebyshev coefficients are
  interpolated at import from one fixed 33-node trapezoid rule on
  e^x K_nu(x) = int_0^inf e^{-s^2} T_nu(1 + s^2/x) 2/sqrt(2x + s^2) ds,
  with T_nu the Chebyshev polynomial, which sums only nonnegative terms:
  the node table (2x + s_j^2)^{-1/2} times a constant matrix of moments
  2 W_j s_j^{2p}, then a Horner sum in 1/x with the nonnegative monomial
  coefficients of T_nu(1 + z).

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


# Ascending series for x <= _SERIES_CUT in z = x^2/4 <= 1/4, with H_j the harmonic numbers:
#   K_0 = -(log(x/2) + gamma) sum_j z^j/j!^2 + sum_j H_j z^j/j!^2,
#   K_1 = 1/x + (x/2) log(x/2) sum_j z^j/(j!(j+1)!) - (x/4) sum_j (2H_j + 1/(j+1) - 2 gamma) z^j/(j!(j+1)!).
# Each sum is a fixed 11-term polynomial in z (the first term dropped is below 3e-21 of its
# sum); Horner's rule sums all four at once.
_SERIES_TERMS = 11


def _series_coefficients() -> np.ndarray:
    rows, h = [], 0.0  # h = H_j
    for j in range(_SERIES_TERMS):
        d0 = math.factorial(j) ** 2
        d1 = d0 * (j + 1)
        rows.append([1 / d0, 1 / d1, h / d0, (2.0 * h + 1 / (j + 1) - 2.0 * EULER_GAMMA) / d1])
        h += 1 / (j + 1)
    return np.array(rows)


_SERIES_COEFFS = _series_coefficients()


def _k01_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled (K_0, K_1) by the ascending series, for x <= _SERIES_CUT."""
    z = x * x / 4.0
    lg = np.log(x / 2.0)
    coef = _SERIES_COEFFS.reshape(_SERIES_COEFFS.shape + (1,) * x.ndim)
    acc = np.empty((4,) + x.shape)
    acc[:] = coef[-1]
    for c in coef[-2::-1]:
        acc *= z
        acc += c
    i0, i1_half, s0, s1 = acc  # I_0(x), I_1(x)/(x/2) and the sums against H_j
    k0 = -(lg + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / x + lg * (x / 2.0) * i1_half - (x / 4.0) * s1
    return k0, k1


def _upward(order: int, x: np.ndarray, k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """K_order from (K_0, K_1), both under one common scale, by upward recurrence."""
    # K_{-1} = K_1 and K_0 start K_{m+1} = K_{m-1} + (2m / x) K_m, forward stable for K
    prev, cur = k1, k0
    for m in range(order):
        prev, cur = cur, prev + (2.0 * m / x) * cur
    return cur


# Trapezoid rule for x > _SERIES_CUT, the one source of the two Chebyshev series below; it
# runs only at import.  With s^2 = 2x sinh^2(t/2),
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


def _k_trapezoid_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and x > 1 by the 33-node rule."""
    r = np.add.outer(2.0 * x, _TRAP_S2)
    np.sqrt(r, out=r)
    np.divide(1.0, r, out=r)
    q = r @ _TRAP_MOMENTS[:, : order + 1]
    inv = 1.0 / x
    coeffs = _T_MONOMIALS[order]
    acc = coeffs[order] * q[..., order]
    for p in range(order - 1, -1, -1):
        acc = acc * inv + coeffs[p] * q[..., p]
    return acc


# sqrt(2x/pi) e^x K_nu(x) = 1 + g_nu(y), g_nu smooth on y in [-1, 1] (Trefethen, Approximation
# Theory and Approximation Practice, ch. 8), interpolated from the rule at first-kind
# Chebyshev nodes (a DCT in math.fsum):
# * from x = 16 on, one 12-term series per order in y = 32/x - 1, summed by Clenshaw's
#   recurrence; trailing coefficients at most 1.3e-16 (order 6; more terms add rounding);
# * on 1 < x < 16, one 20-term series each for orders 0 and 1 in y = 2 log x / log 16 - 1,
#   trailing coefficients at most 1.1e-16, summed at once by Horner's rule in the powers of y:
#   two passes per term against Clenshaw's three, and the power coefficients sum in magnitude
#   to what the Chebyshev ones do (0.088 and 0.306).  The factor sqrt(2x/pi) keeps the sum
#   from cancelling near x = 16, where e^x K_0 has fallen to a quarter of its value at 1.
_CHEB_CUT, _CHEB_TERMS, _CHEB_BLOCK = 16.0, 12, 8192
_MID_TERMS = 20
_MID_SCALE = 2.0 / math.log(_CHEB_CUT)  # y + 1 per log x


def _chebyshev_coefficients(order: int, terms: int, node_x) -> np.ndarray:
    """Coefficients of g_order interpolated at the x = node_x(y) of ``terms`` nodes y."""
    theta = math.pi * (np.arange(terms) + 0.5) / terms
    x = node_x(np.cos(theta))
    dev = _k_trapezoid_scaled(order, x) * np.sqrt(2.0 * x / math.pi) - 1.0
    coef = [2.0 * math.fsum(dev * np.cos(j * theta)) / terms for j in range(terms)]
    return np.array([0.5 * coef[0]] + coef[1:])


def _chebyshev_to_powers(coef: np.ndarray) -> np.ndarray:
    """Coefficients in the powers y^j of sum_j coef[j] T_j(y), per column of coef."""
    t = np.zeros((len(coef), len(coef)))  # row j: T_j, built in integers
    t[0, 0] = t[1, 1] = 1.0
    for j in range(1, len(coef) - 1):  # T_{j+1} = 2y T_j - T_{j-1}
        t[j + 1, 1:] = 2.0 * t[j, :-1]
        t[j + 1] -= t[j - 1]
    return t.T @ coef


_CHEB_COEFFS = np.array([
    _chebyshev_coefficients(nu, _CHEB_TERMS, lambda y: 2.0 * _CHEB_CUT / (1.0 + y))
    for nu in range(_MAX_INT_ORDER + 1)
])
# (_MID_TERMS, 2): column nu holds g_nu's Chebyshev coefficients; _MID_POWERS those of
# 1 + g_nu in the monomials y^j
_MID_COEFFS = np.array([
    _chebyshev_coefficients(nu, _MID_TERMS, lambda y: np.exp((y + 1.0) / _MID_SCALE))
    for nu in (0, 1)
]).T
_MID_POWERS = _chebyshev_to_powers(_MID_COEFFS)
_MID_POWERS[0] += 1.0


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


def _k_middle_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and 1 < x < 16: (K_0, K_1) series, then ``_upward``."""
    flat, out = x.reshape(-1), np.empty(x.size)
    for i in range(0, flat.size, _CHEB_BLOCK):
        xb = flat[i : i + _CHEB_BLOCK]
        y = np.log(xb)
        y *= _MID_SCALE
        y -= 1.0
        acc = np.empty((2, xb.size))
        acc[:] = _MID_POWERS[-1, :, None]
        for a in _MID_POWERS[-2::-1, :, None]:
            acc *= y
            acc += a
        acc *= np.sqrt(0.5 * math.pi / xb)
        out[i : i + _CHEB_BLOCK] = _upward(order, xb, acc[0], acc[1])
    return out.reshape(x.shape)


def _k_series_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and x <= 1: series, then ``_upward``."""
    k0, k1 = _k01_series(x)
    scale = np.exp(x)
    return _upward(order, x, k0 * scale, k1 * scale)


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
        return _k_middle_scaled(order, x)
    out = np.empty_like(x)
    small, large = x <= _SERIES_CUT, x >= _CHEB_CUT
    mid = ~(small | large)
    if lo <= _SERIES_CUT:
        out[small] = _k_series_scaled(order, x[small])
    out[mid] = _k_middle_scaled(order, x[mid])
    out[large] = _k_chebyshev_scaled(order, x[large])
    return out
