"""Modified Bessel functions of the second kind, K_nu, for the kernel evaluations.

Only orders nu = 0, 1/2, 1, ..., 13/2 arise (nu = (n-2k)/2 plus derivative
shifts), so every order is nu0 + m with nu0 = 0 or 1/2, and each follows
from its family's first pair by the upward recurrence
K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu (DLMF 10.29.1), which is forward
stable for K and adds only nonnegative terms.  The regions supply only that
pair:

* half-integer orders start from K_{-1/2} = K_{1/2} = sqrt(pi/(2x)) e^{-x},
  exact for every x > 0;
* integer orders start from K_{-1} = K_1 and K_0: for x <= 1 by the
  ascending series as fixed 11-term Horner sums in x^2/4, for 1 < x < 16 by
  one 20-term Chebyshev series each in 2 log x / log 16 - 1, and from x = 16
  on by one 12-term Chebyshev series each in 32/x - 1.  Both Chebyshev
  pairs are interpolated at import from one fixed 33-node trapezoid rule on
  e^x K_nu(x) = int_0^inf e^{-s^2} T_nu(1 + s^2/x) 2/sqrt(2x + s^2) ds
  for nu = 0 and 1 (T_0 = 1, T_1(1 + z) = 1 + z), which sums only
  nonnegative terms, and both are summed by one Horner evaluator in the
  powers of their variable.

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


def _upward(twice_nu: int, x: np.ndarray, prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """e^x K_{twice_nu/2}(x) from its family's first pair (K_{nu0-1}, K_{nu0}), nu0 = 0 or 1/2.

    Both members of the pair are under one common scale.
    """
    for twice in range(twice_nu % 2, twice_nu, 2):  # K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu
        prev, cur = cur, prev + (twice / x) * cur
    return cur


# Trapezoid rule for x > _SERIES_CUT, the one source of the two Chebyshev pairs below; it
# runs only at import.  With s^2 = 2x sinh^2(t/2),
#   e^x K_nu(x) = int_0^inf e^{-x(cosh t - 1)} cosh(nu t) dt
#               = int_0^inf e^{-s^2} T_nu(1 + s^2/x) 2/sqrt(2x + s^2) ds,
# T_nu the Chebyshev polynomial.  The integrand is even and analytic in s, so
# the trapezoid rule converges geometrically.  Its nearest singularity is the
# branch point s = i sqrt(2x), so the error is about e^{-2 pi sqrt(2x)/h},
# largest at the cut (for large x the Gaussian caps it at e^{-pi^2/h^2}):
# h = 0.25 gives e^{-35.5} = 4e-16 at x = 1.  The nodes stop at s = 8, where
# e^{-s^2} = 2e-28 leaves the truncation below rounding: 33 nodes, the same
# for every x > 1.  With T_0 = 1 and T_1(1 + z) = 1 + z the rule is the node
# table R_j = (2x + s_j^2)^(-1/2) against the moments M[j, p] = 2 W_j s_j^(2p),
# p = 0, 1: e^x K_0 = (R @ M)[0] and e^x K_1 = (R @ M)[0] + (R @ M)[1] / x.
# Every term is nonnegative, so the sum has no cancellation.
_TRAP_H = 0.25
_TRAP_S2 = (_TRAP_H * np.arange(33)) ** 2
_TRAP_W = _TRAP_H * np.exp(-_TRAP_S2)
_TRAP_W[0] *= 0.5
_TRAP_MOMENTS = 2.0 * _TRAP_W[:, None] * _TRAP_S2[:, None] ** np.arange(2)


def _k01_trapezoid_scaled(x: np.ndarray) -> np.ndarray:
    """(e^x K_0(x), e^x K_1(x)) for x > 1 by the 33-node rule, as a (2, len(x)) array."""
    r = np.add.outer(2.0 * x, _TRAP_S2)
    np.sqrt(r, out=r)
    np.divide(1.0, r, out=r)
    q = r @ _TRAP_MOMENTS
    return np.array([q[:, 0], q[:, 1] * (1.0 / x) + q[:, 0]])


# sqrt(2x/pi) e^x K_nu(x) = 1 + g_nu(y) for nu = 0 and 1, g_nu smooth on y in [-1, 1]
# (Trefethen, Approximation Theory and Approximation Practice, ch. 8), interpolated from the
# rule at first-kind Chebyshev nodes (a DCT in math.fsum):
# * on 1 < x < 16, 20 terms in y = 2 log x / log 16 - 1, trailing coefficients at most 1.1e-16;
# * from x = 16 on, 12 terms in y = 32/x - 1, trailing coefficients at most one unit in the
#   last place of the leading 1 (more terms add rounding).
# Both pairs are summed by Horner's rule in the powers of y: two passes per term against
# Clenshaw's three, and the power coefficients sum in magnitude to what the Chebyshev ones
# do (0.088 and 0.306 on 1 < x < 16, 0.0077 and 0.023 from 16 on).  The factor sqrt(2x/pi)
# keeps the sum from cancelling near x = 16, where e^x K_0 has fallen to a quarter of its
# value at 1.
_CHEB_CUT, _CHEB_TERMS, _CHEB_BLOCK = 16.0, 12, 8192
_MID_TERMS = 20
_MID_SCALE = 2.0 / math.log(_CHEB_CUT)  # y + 1 per log x


def _chebyshev_coefficients(terms: int, node_x) -> np.ndarray:
    """Coefficients of g_0 and g_1, column nu, interpolated at the x = node_x(y) of ``terms`` nodes y."""
    theta = math.pi * (np.arange(terms) + 0.5) / terms
    x = node_x(np.cos(theta))
    dev = _k01_trapezoid_scaled(x) * np.sqrt(2.0 * x / math.pi) - 1.0
    coef = np.array([[2.0 * math.fsum(d * np.cos(j * theta)) / terms for d in dev]
                     for j in range(terms)])
    coef[0] *= 0.5
    return coef


def _chebyshev_to_powers(coef: np.ndarray) -> np.ndarray:
    """Coefficients in the powers y^j of sum_j coef[j] T_j(y), per column of coef."""
    t = np.zeros((len(coef), len(coef)))  # row j: T_j, built in integers
    t[0, 0] = t[1, 1] = 1.0
    for j in range(1, len(coef) - 1):  # T_{j+1} = 2y T_j - T_{j-1}
        t[j + 1, 1:] = 2.0 * t[j, :-1]
        t[j + 1] -= t[j - 1]
    return t.T @ coef


_MID_COEFFS = _chebyshev_coefficients(_MID_TERMS, lambda y: np.exp((y + 1.0) / _MID_SCALE))
_CHEB_COEFFS = _chebyshev_coefficients(_CHEB_TERMS, lambda y: 2.0 * _CHEB_CUT / (1.0 + y))
# the coefficients of 1 + g_nu in the monomials y^j, column nu
_MID_POWERS, _CHEB_POWERS = (_chebyshev_to_powers(c) for c in (_MID_COEFFS, _CHEB_COEFFS))
_MID_POWERS[0] += 1.0
_CHEB_POWERS[0] += 1.0


def _k_powers_scaled(order: int, x: np.ndarray, y: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """e^x K_order(x) from the (K_0, K_1) pair's powers of y, then ``_upward``.

    Orders 0 and 1 sum only their own column; higher orders sum both.
    """
    # (K_{-1}, K_0) = (K_1, K_0) start the recurrence
    coef = powers[:, order : order + 1, None] if order < 2 else powers[:, ::-1, None]
    flat, y, out = x.reshape(-1), y.reshape(-1), np.empty(x.size)
    for i in range(0, flat.size, _CHEB_BLOCK):
        xb, yb = flat[i : i + _CHEB_BLOCK], y[i : i + _CHEB_BLOCK]
        acc = np.empty((coef.shape[1], xb.size))
        acc[:] = coef[-1]
        for a in coef[-2::-1]:
            acc *= yb
            acc += a
        acc *= np.sqrt(0.5 * math.pi / xb)
        out[i : i + _CHEB_BLOCK] = acc[0] if order < 2 else _upward(2 * order, xb, *acc)
    return out.reshape(x.shape)


def _k_middle_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and 1 < x < 16."""
    return _k_powers_scaled(order, x, np.log(x) * _MID_SCALE - 1.0, _MID_POWERS)


def _k_chebyshev_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and x >= 16."""
    return _k_powers_scaled(order, x, 2.0 * _CHEB_CUT / x - 1.0, _CHEB_POWERS)


def _k_series_scaled(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) for an integer order and x <= 1: series, then ``_upward``."""
    k0, k1 = _k01_series(x)
    scale = np.exp(x)
    return _upward(2 * order, x, k1 * scale, k0 * scale)


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
        half = np.sqrt(math.pi * (0.5 / x))  # e^x K_{-1/2} = e^x K_{1/2}
        return _upward(twice_nu, x, half, half)
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
