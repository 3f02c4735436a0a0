"""Modified Bessel functions of the second kind, K_nu, for the kernel evaluations.

Only orders nu = 0, 1/2, 1, ..., 13/2 arise (nu = (n-2k)/2 plus derivative
shifts), so the implementation is specialised:

* half-integer orders use the terminating closed form
  K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_j (m+j)!/(j!(m-j)!) (2x)^{-j},
  exact up to rounding for every x > 0;
* integer orders build (K_0, K_1) from the ascending series for x <= 6,
  a compensated exponential-node quadrature for 6 < x < 16 (double precision
  cannot bridge the series/asymptotic gap: the series loses ~log10(I_0(x))
  digits to cancellation, the asymptotic floor is ~e^{-2x}), and the
  divergent asymptotic expansion with a smallest-term remainder check for
  x >= 16; higher integer orders follow by upward recurrence
  K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu, which is forward stable for K.

All internal work is done on the exponentially scaled function e^x K_nu(x)
so that large arguments neither underflow nor overflow; the unscaled value
is reconstructed at the end (exact 0.0 beyond x = 700, where e^{-x} has no
normal double representation worth propagating).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedOrderError
from .params import BesselOrder

EULER_GAMMA = 0.57721566490153286061

# Largest supported order, stored as 2*nu.  Covers nu = (n-2k)/2 + l for all
# dimensions and derivative depths exercised by the kernel module.
MAX_TWICE_NU = 13

# Beyond this argument e^{-x} is not representable; callers get exact zero.
UNDERFLOW_ARG = 700.0

_SERIES_CUT = 6.0
_ASYM_CUT = 16.0


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
    """Unscaled (K_0, K_1) by the ascending series; reliable for x <= 6."""
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


# Quadrature grid for the middle band: e^x K_nu(x) = int_0^inf
# exp(-x (cosh t - 1)) cosh(nu t) dt.  The integrand is even and analytic, so
# the trapezoid rule converges geometrically; T covers x (cosh T - 1) >= 46
# for every x > 6 and h = T/640 leaves the discretisation error below 1e-16.
_MID_T = math.acosh(1.0 + 46.0 / _SERIES_CUT) + 0.25
_MID_N = 640
_MID_NODES = np.linspace(0.0, _MID_T, _MID_N + 1)
_MID_COSHM1 = np.cosh(_MID_NODES) - 1.0
_MID_W = np.full(_MID_N + 1, _MID_T / _MID_N)
_MID_W[0] *= 0.5
_MID_W[-1] *= 0.5
_MID_W_COSH = _MID_W * np.cosh(_MID_NODES)


# Points per block of the (points x nodes) integrand table, so its memory
# stays at _MID_BLOCK * (_MID_N + 1) doubles (5 MB) whatever the input size.
_MID_BLOCK = 1024


def _k01_mid_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (e^x K_0, e^x K_1) by quadrature, for the 6 < x < 16 band."""
    if x.size > _MID_BLOCK:
        blocks = [_k01_mid_scaled(x[i : i + _MID_BLOCK]) for i in range(0, x.size, _MID_BLOCK)]
        return tuple(np.concatenate(part) for part in zip(*blocks))
    expf = np.exp(-np.outer(x, _MID_COSHM1))
    return expf @ _MID_W, expf @ _MID_W_COSH


def _k_asym_scaled(twice_nu: int, x: np.ndarray) -> np.ndarray:
    """Scaled e^x K_nu(x) by the asymptotic expansion, for x >= 16.

    The series diverges; terms are accumulated while they decrease and the
    smallest term bounds the remainder, which stays below 1e-14 relative for
    x >= 16 and the orders supported here.
    """
    mu = twice_nu * twice_nu  # 4 nu^2
    total = np.ones_like(x)
    term = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    for j in range(1, 60):
        factor = (mu - (2 * j - 1) ** 2) / (8.0 * j * x)
        nxt = term * factor
        # freeze elements whose terms stopped decreasing (optimal truncation)
        grow = np.abs(nxt) >= np.abs(term)
        active = active & ~grow
        nxt = np.where(active, nxt, 0.0)
        total = total + nxt
        term = nxt
        if not np.any(np.abs(term) > 1e-18 * np.abs(total)):
            break
    return np.sqrt(math.pi / (2.0 * x)) * total


def _k01_scaled_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (e^x K_0, e^x K_1) over an array, joining the three regions."""
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    small = x <= _SERIES_CUT
    large = x >= _ASYM_CUT
    mid = ~small & ~large
    if np.any(small):
        xs = x[small]
        a, b = _k01_series(xs)
        scale = np.exp(xs)
        k0[small] = a * scale
        k1[small] = b * scale
    if np.any(mid):
        a, b = _k01_mid_scaled(x[mid])
        k0[mid] = a
        k1[mid] = b
    if np.any(large):
        xl = x[large]
        k0[large] = _k_asym_scaled(0, xl)
        k1[large] = _k_asym_scaled(2, xl)
    return k0, k1


def bessel_k_scaled_array(twice_nu: int, x: np.ndarray) -> np.ndarray:
    """e^x K_{nu}(x) elementwise over an array of positive arguments."""
    if twice_nu < 0 or twice_nu > MAX_TWICE_NU:
        raise UnsupportedOrderError(
            f"order nu = {twice_nu}/2 outside supported range [0, {MAX_TWICE_NU}/2]"
        )
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bessel_k requires argument > 0")
    if twice_nu % 2 == 1:
        return _half_integer_scaled((twice_nu - 1) // 2, x)
    k0, k1 = _k01_scaled_array(x)
    n = twice_nu // 2
    if n == 0:
        return k0
    if n == 1:
        return k1
    prev, cur = k0, k1
    for m in range(1, n):
        prev, cur = cur, prev + (2.0 * m / x) * cur
    return cur


def bessel_k_array(twice_nu: int, x: np.ndarray) -> np.ndarray:
    """K_nu(x) elementwise; exact 0.0 where x exceeds the underflow cutoff."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bessel_k requires argument > 0")
    out = np.zeros_like(x)
    ok = x <= UNDERFLOW_ARG
    if np.any(ok):
        xs = x[ok]
        out[ok] = bessel_k_scaled_array(twice_nu, xs) * np.exp(-xs)
    return out


def bessel_k(order: BesselOrder | int, r: float) -> float:
    """K_nu(r) for nu >= 0 on the half-integer grid and r > 0.

    ``order`` may be a :class:`BesselOrder` or the integer 2*nu.
    """
    twice = order.twice_nu if isinstance(order, BesselOrder) else int(order)
    if r <= 0:
        raise DomainError(f"bessel_k requires r > 0, got {r}")
    if r > UNDERFLOW_ARG:
        return 0.0
    return float(bessel_k_scaled_array(twice, np.array([r]))[0] * math.exp(-r))


def bessel_k_scaled(order: BesselOrder | int, r: float) -> float:
    """e^r K_nu(r), safe for arbitrarily large r."""
    twice = order.twice_nu if isinstance(order, BesselOrder) else int(order)
    if r <= 0:
        raise DomainError(f"bessel_k requires r > 0, got {r}")
    return float(bessel_k_scaled_array(twice, np.array([r]))[0])
