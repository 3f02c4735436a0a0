"""Bessel-K evaluator tests against independent reference values.

Reference values were computed ahead of the build with an independent
arbitrary-precision evaluator (mpmath, 40 digits) and frozen here; the
ascending-series oracle below is a separate plain-float implementation kept
deliberately independent of the vectorised code under test.
"""

import math

import numpy as np
import pytest

from polygreen import besselk
from polygreen import euclid
from polygreen.besselk import EULER_GAMMA, MAX_TWICE_NU, bessel_k_scaled_array, gamma_fn
from polygreen.errors import DomainError, UnsupportedOrderError

# (2*nu, x, K_nu(x)) -- frozen high-precision references
K_REFERENCE = [
    (0, 1.0, 0.42102443824070833),
    (0, 0.5, 0.92441907122766586),
    (0, 3.0, 0.034739504386279248),
    (0, 6.5, 0.00072593176762933535),
    (0, 10.0, 1.7780062316167652e-5),
    (0, 20.0, 5.7412378153365243e-10),
    (0, 55.0, 2.1913102183534151e-25),
    (2, 1.0, 0.60190723019723457),
    (2, 0.001, 999.99623815608555),
    (2, 8.0, 0.00015536921180500113),
    (2, 30.0, 2.1677320018915494e-14),
    (4, 0.7, 3.6613299608091533),
    (4, 12.0, 2.5826183081060227e-6),
    (6, 2.5, 0.2682271463934492),
    (8, 9.0, 0.00011716626082846714),
    (10, 40.0, 1.1423814375953183e-18),
    (12, 1.3, 731.72392465282179),
    (12, 25.0, 6.9979638984783126e-12),
    (1, 1.0, 0.46106850444789456),
    (3, 2.0, 0.17990665795209217),
    (5, 0.3, 75.15214016437489),
    (7, 5.0, 0.011027711053957217),
    (9, 1.7, 9.9035221582160878),
    (11, 12.0, 7.2726851637944448e-6),
    (13, 0.05, 3728464848533.7054),
    (13, 33.0, 1.8992533559439253e-15),
]


def bessel_k(twice_nu: int, x: float) -> float:
    """K_nu(x) from the one evaluator, e^x K_nu(x), times e^{-x}."""
    return float(bessel_k_scaled_array(twice_nu, np.array([x]))[0] * np.exp(-x))


def k0_series_oracle(x: float) -> float:
    """Plain-float ascending series for K_0, independent of the implementation."""
    z = x * x / 4.0
    i0 = 1.0
    s = 0.0
    term = 1.0
    h = 0.0
    for j in range(1, 80):
        term *= z / (j * j)
        h += 1.0 / j
        i0 += term
        s += term * h
    return -(math.log(x / 2.0) + EULER_GAMMA) * i0 + s


def k01_series_loop(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled (K_0, K_1) by the ascending series, term by term to convergence.

    The reference for the fixed Horner sums: each term follows from the last
    by one multiplication, and the loop stops once every point's K_0 term
    is below 1e-18 of its sum.
    """
    z = x * x / 4.0
    lg = np.log(x / 2.0)
    i0, i1_half = np.ones_like(x), np.ones_like(x)   # I_0(x) and I_1(x)/(x/2)
    s0 = np.zeros_like(x)
    s1 = np.full_like(x, 1.0 - 2.0 * EULER_GAMMA)     # j = 0 term, H_0 + H_1 = 1
    term0, term1 = np.ones_like(x), np.ones_like(x)
    h = 0.0
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


def trapezoid_by_recurrence(order: int, x: np.ndarray) -> np.ndarray:
    """e^x K_order(x) by the same 33-node rule, with T_order(1 + s^2/x) per node.

    The all-order reference above x = 1: the Chebyshev recurrence runs at
    every (point, node), with no shared moments, no Chebyshev series and no
    recurrence in the order of K.  It runs in z = s^2/x rather than
    u = 1 + z (Reinsch's form): with D_j = T_j - T_{j-1}, the steps
    D_{j+1} = D_j + 2z T_j and T_{j+1} = T_j + D_{j+1} add only positive
    terms, where T_{j+1} = 2u T_j - T_{j-1} cancels near u = 1 and lost up
    to 2.9e-15 at orders 4-6 from x = 16 on.
    """
    xb = np.asarray(x, dtype=float)[:, None]
    s2 = besselk._TRAP_S2
    z = s2 / xb
    weight = 2.0 * besselk._TRAP_W / np.sqrt(2.0 * xb + s2)
    # T_0 = 1 and D_0 = T_0 - T_{-1} = -z, as T_{-1} = T_1 = 1 + z
    t, d = np.ones_like(z), -z
    for _ in range(order):
        d = d + 2.0 * z * t
        t = t + d
    return (t * weight).sum(axis=1)


def half_integer_closed_form(m: int, x: np.ndarray) -> np.ndarray:
    """e^x K_{m+1/2}(x) as sqrt(pi/(2x)) times a degree-m polynomial in 1/(2x).

    The terminating closed form sum_j (m+j)!/(j!(m-j)!) (2x)^{-j}, the oracle
    for the upward recurrence from K_{-1/2} = K_{1/2}.
    """
    acc = np.zeros_like(x)
    inv = 1.0 / (2.0 * x)
    for j in range(m, -1, -1):
        c = math.factorial(m + j) // (math.factorial(j) * math.factorial(m - j))
        acc = acc * inv + float(c)
    return np.sqrt(math.pi * inv) * acc


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(1.0) == 1.0
        # recurrence from Gamma(1/2): Gamma(5/2) = (3/2)(1/2) sqrt(pi)
        assert gamma_fn(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize(
        "x,expected",
        [(14.5, 23092317922.314238), (30.0, 8.841761993739702e30), (7.0, 720.0)],
    )
    def test_high_arguments(self, x, expected):
        assert gamma_fn(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)


class TestBesselK:
    @pytest.mark.parametrize("twice_nu,x,expected", K_REFERENCE)
    def test_reference_values(self, twice_nu, x, expected):
        assert bessel_k(twice_nu, x) == pytest.approx(expected, rel=1e-10)

    def test_half_order_closed_forms(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x};  K_{3/2}(x) adds the (1 + 1/x) factor
        assert bessel_k(1, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-14
        )
        assert bessel_k(3, 2.0) == pytest.approx(
            math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5, rel=1e-14
        )

    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 2.0, 4.0])
    def test_series_oracle(self, x):
        assert bessel_k(0, x) == pytest.approx(k0_series_oracle(x), rel=1e-13)

    @pytest.mark.parametrize("x", [0.2, 1.7, 6.2, 11.0, 19.0, 44.0])
    @pytest.mark.parametrize("twice_nu", [2, 4, 5, 8, 11])
    def test_upward_recurrence_identity(self, twice_nu, x):
        # K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu, nu = twice_nu / 2
        nu = twice_nu / 2.0
        lhs = bessel_k(twice_nu + 2, x)
        rhs = bessel_k(twice_nu - 2, x) + (2.0 * nu / x) * bessel_k(twice_nu, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "twice_nu,x,expected",
        [
            (0, 0.999, 0.42162685730813516),
            (0, 1.001, 0.42042304210549163),
            (0, 5.999, 0.001245338981992395),
            (0, 6.001, 0.0012426511420149516),
            (0, 15.999, 3.503020684126026e-8),
            (0, 16.001, 3.4958063686062823e-8),
            (2, 0.999, 0.60293127632301204),
            (2, 1.001, 0.60088541081968234),
            (2, 5.999, 0.0013453885119458836),
            (2, 6.001, 0.0013424525494396229),
            (2, 15.999, 3.6108839042044634e-8),
            (2, 16.001, 3.6034341849046971e-8),
        ],
    )
    def test_region_joins(self, twice_nu, x, expected):
        # frozen references straddling the series/trapezoid seam at x = 1, the
        # seam of the trapezoid rule and the Chebyshev series at 16, and the
        # former quadrature join at 6
        assert bessel_k(twice_nu, x) == pytest.approx(expected, rel=1e-10)

    def test_scaled_large_argument(self):
        # e^x K_0(x) stays representable far beyond the underflow cutoff
        assert bessel_k_scaled_array(0, np.array([2000.0]))[0] == pytest.approx(
            0.028023205014604324, rel=1e-12
        )

    def test_underflow_policy(self):
        # the kernels return exact 0.0 where e^{-x} is below UNDERFLOW_ARG = 700
        assert euclid.kernel_closed_form(4, 1, 710.0) == 0.0
        assert euclid.kernel_closed_form(5, 1, 1.0e4) == 0.0

    def test_positive(self):
        xs = np.geomspace(1e-6, 60, 50)
        for twice_nu in range(0, 14):
            assert np.all(bessel_k_scaled_array(twice_nu, xs) * np.exp(-xs) > 0.0)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                bessel_k_scaled_array(0, np.array([2.0, bad]))
        for order in (14, -1):
            with pytest.raises(UnsupportedOrderError):
                bessel_k_scaled_array(order, np.array([1.0]))

    def test_chebyshev_blocks_match_one_block(self, monkeypatch):
        # both Chebyshev pairs, from x = 16 on and on 1 < x < 16, in blocks
        # of 100 points against one block, bitwise (their sums are pointwise)
        x = np.linspace(1.001, 700.0, 3 * besselk._CHEB_BLOCK // 2 + 17)
        large, mid = x[x >= 16.0], x[x < 16.0]
        for order in range(MAX_TWICE_NU // 2 + 1):
            series = besselk._k_chebyshev_scaled(order, large)
            middle = besselk._k_middle_scaled(order, mid)
            with monkeypatch.context() as m:
                m.setattr(besselk, "_CHEB_BLOCK", 100)
                np.testing.assert_array_equal(
                    besselk._k_chebyshev_scaled(order, large), series, err_msg=str(order)
                )
                np.testing.assert_array_equal(
                    besselk._k_middle_scaled(order, mid), middle, err_msg=str(order)
                )

    def test_trapezoid_matches_chebyshev_recurrence(self):
        # the (K_0, K_1) moment sum against the per-node recurrence of the
        # same rule, over (1, 700]: 4.3e-16 at most (K_1)
        x = np.geomspace(1.0 + 1e-9, 700.0, 2053)
        for order, got in enumerate(besselk._k01_trapezoid_scaled(x)):
            want = trapezoid_by_recurrence(order, x)
            assert np.max(np.abs(got - want) / want) <= 4e-15, order

    def test_chebyshev_series_matches_full_rule(self):
        # the (K_0, K_1) pair from x = 16 against the 33-node rule it
        # interpolates, over [16, 700] and far beyond: 6.6e-16 at most (K_1),
        # against 2e-15
        x = np.concatenate([np.geomspace(besselk._CHEB_CUT, 700.0, 2053), [1e3, 1e4, 1e5]])
        for order, rule in enumerate(besselk._k01_trapezoid_scaled(x)):
            series = besselk._k_chebyshev_scaled(order, x)
            assert np.max(np.abs(series - rule) / rule) <= 2e-15, order
        # the orders the upward recurrence builds from that pair, against the
        # per-node recurrence of the rule: 6.8e-16 at most (order 4), against
        # the same 2e-15
        for order in range(2, MAX_TWICE_NU // 2 + 1):
            series = besselk._k_chebyshev_scaled(order, x)
            rule = trapezoid_by_recurrence(order, x)
            assert np.max(np.abs(series - rule) / rule) <= 2e-15, order

    def test_middle_series_matches_full_rule(self):
        # the (K_0, K_1) series on 1 < x < 16 and the upward recurrence
        # against the 33-node rule, every integer order, on a dense grid
        # reaching both ends: 2.0e-15 at most (order 2)
        x = np.concatenate([np.geomspace(1.0 + 1e-12, 16.0 - 1e-12, 20001),
                            np.linspace(1.0 + 1e-9, 1.01, 501), np.linspace(15.99, 16.0 - 1e-9, 501)])
        for order in range(MAX_TWICE_NU // 2 + 1):
            middle = besselk._k_middle_scaled(order, x)
            rule = trapezoid_by_recurrence(order, x)
            assert np.max(np.abs(middle - rule) / rule) <= 3e-15, order

    def test_middle_series_trailing_coefficients(self):
        # one 20-term series each for orders 0 and 1; their last
        # coefficients (6.4e-17 and 1.1e-16) are below 5e-16
        coeffs = besselk._MID_COEFFS
        assert coeffs.shape == (besselk._MID_TERMS, 2)
        assert np.all(np.abs(coeffs[-1]) <= 5e-16), coeffs[-1]

    def test_series_matches_convergent_loop(self):
        # the fixed 11-term Horner sums against the term-by-term loop run to
        # convergence, on (0, 1]: 5.7e-16 at most (K_0)
        x = np.concatenate([np.geomspace(1e-8, 1.0, 4001), [0.5, 0.999, 1.0]])
        for got, want in zip(besselk._k01_series(x), k01_series_loop(x)):
            assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_chebyshev_series_trailing_coefficient(self):
        # one 12-term series each for orders 0 and 1 from x = 16; their last
        # coefficients (5.7e-17 and 8.1e-17) are below one unit in the last
        # place of the leading 1: more terms add nothing
        coeffs = besselk._CHEB_COEFFS
        assert coeffs.shape == (besselk._CHEB_TERMS, 2)
        assert np.all(np.abs(coeffs[-1]) <= np.finfo(float).eps), coeffs[-1]

    def test_mixed_regions_match_each_region_alone(self):
        # a shuffled array over the ascending-series region and the two
        # Chebyshev-series regions gives, bitwise, each region's values
        # evaluated on its own
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(1e-3, 1.0, 600), rng.uniform(1.0, 16.0, 700),
                            rng.uniform(16.0, 700.0, 800), [1.0, 16.0]])
        rng.shuffle(x)
        regions = [x <= 1.0, (x > 1.0) & (x < 16.0), x >= 16.0]
        for twice_nu in range(0, MAX_TWICE_NU + 1, 2):
            mixed = bessel_k_scaled_array(twice_nu, x)
            for pick in regions:
                alone = bessel_k_scaled_array(twice_nu, x[pick])
                np.testing.assert_array_equal(mixed[pick], alone, err_msg=str(twice_nu))

    @pytest.mark.parametrize(
        "picked", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    )
    def test_region_subsets_match_each_region_alone(self, picked):
        # arrays meeting one, two or all three of the integer-order regions
        # (series, the (K_0, K_1) series with recurrence, Chebyshev series
        # from 16) take each branch of the dispatch; every region's points
        # come out bitwise as evaluated alone, and the seams x = 1 and 16
        # go to the series and to the series from 16
        rng = np.random.default_rng(list(picked))
        bands = [np.append(rng.uniform(1e-3, 1.0, 40), 1.0), rng.uniform(1.0 + 1e-12, 16.0, 50),
                 np.append(rng.uniform(16.0, 700.0, 60), 16.0)]
        x = np.concatenate([bands[i] for i in picked])
        rng.shuffle(x)
        alone_by = [besselk._k_series_scaled, besselk._k_middle_scaled, besselk._k_chebyshev_scaled]
        for twice_nu in range(0, MAX_TWICE_NU + 1, 2):
            mixed = bessel_k_scaled_array(twice_nu, x)
            for i in picked:
                pick = np.isin(x, bands[i])
                alone = alone_by[i](twice_nu // 2, x[pick])
                np.testing.assert_array_equal(mixed[pick], alone, err_msg=f"{twice_nu} {i}")

    def test_half_integer_recurrence_matches_closed_form(self):
        # every half-integer order by the upward recurrence from
        # K_{-1/2} = K_{1/2} against the terminating closed form on
        # [1e-3, 700]: 1.2e-15 at most (nu = 13/2); nu = 1/2 is the closed
        # form itself, bitwise
        x = np.concatenate([np.geomspace(1e-3, 700.0, 4001), [1.0, 16.0]])
        np.testing.assert_array_equal(bessel_k_scaled_array(1, x), half_integer_closed_form(0, x))
        for twice_nu in range(3, MAX_TWICE_NU + 1, 2):
            got = bessel_k_scaled_array(twice_nu, x)
            want = half_integer_closed_form((twice_nu - 1) // 2, x)
            assert np.max(np.abs(got - want) / want) <= 2e-15, twice_nu


# The README's relative accuracy for K_nu, rounded up.  Against 40-digit
# mpmath the largest error on the grid below is 2.4e-15 (K_0 at x = 1.001,
# the (K_0, K_1) series), and 5.1e-16 from x = 16 on (K_2 at x = 16.01, the
# (K_0, K_1) series there and the recurrence); the README's denser scan of
# 1,124 points found 2.39e-15 (K_0, x = 1.0051) and 5.6e-16 from x = 16 on
# (K_3, x = 329).
BESSEL_REL_ERROR = 1e-14


def test_region_seams_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    # [1e-3, 700], the series/trapezoid seam at x = 1 and the seam of the
    # rule and the Chebyshev series at x = 16
    xs = np.concatenate([np.geomspace(1e-3, 700.0, 160), np.linspace(0.99, 1.01, 21),
                         np.linspace(15.99, 16.01, 11)])
    refs = {twice_nu: [] for twice_nu in range(14)}
    for x in xs:
        X = mpmath.mpf(float(x))
        # mpmath gives the two lowest orders of each family (K_0, K_1 and
        # K_{1/2}, K_{3/2}); the rest follow by upward recurrence at 40 digits
        for first in (0, 1):
            nu0 = mpmath.mpf(first) / 2
            k = [mpmath.besselk(nu0, X), mpmath.besselk(nu0 + 1, X)]
            for j in range(1, 6):
                k.append(k[j - 1] + 2 * (nu0 + j) / X * k[j])
            for j, val in enumerate(k):
                refs[first + 2 * j].append(float(val))
    for twice_nu, ref in refs.items():
        ref = np.array(ref)
        rel = np.abs(bessel_k_scaled_array(twice_nu, xs) * np.exp(-xs) - ref) / ref
        assert np.max(rel) <= BESSEL_REL_ERROR, (twice_nu, float(xs[np.argmax(rel)]))
