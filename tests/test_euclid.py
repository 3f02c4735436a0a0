"""Euclidean kernel tests: constants, closed form, scaling, derivatives,
two-regime envelope, near-diagonal remainders."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygreen import euclid, giraud
from polygreen.besselk import UNDERFLOW_ARG, bessel_k_scaled_array
from polygreen.errors import DomainError, OutOfRegimeError, UnsupportedOrderError
from polygreen.giraud import radial_convolve
from polygreen.params import ProblemParams

PI = math.pi


def kernel_envelope(p, r):
    return giraud.envelope_value(giraud.kernel_far_envelope(p.n, p.k), p.n, p.alpha, r)


class TestConstants:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (3, 1, 1.0 / (4 * PI)),
            (5, 2, 1.0 / (16 * PI**2)),
            (5, 1, 1.0 / (8 * PI**2)),
        ],
    )
    def test_c_nk(self, n, k, expected):
        assert euclid.c_nk(n, k) == pytest.approx(expected, rel=1e-14)

    def test_c_nk_domain(self):
        with pytest.raises(DomainError):
            euclid.c_nk(4, 2)
        with pytest.raises(DomainError):
            euclid.c_nk(3, 0)

    def test_closed_form_constant_reduces_at_k1(self):
        for n in (3, 4, 5, 7):
            assert euclid.closed_form_constant(n, 1) == pytest.approx(
                (2 * PI) ** (-n / 2), rel=1e-14
            )

    def test_sphere_area(self):
        assert euclid.sphere_area(3) == pytest.approx(4 * PI, rel=1e-14)
        assert euclid.sphere_area(2) == pytest.approx(2 * PI, rel=1e-14)


class TestEta:
    def test_cases(self):
        assert euclid.eta(0.1, 7, 2) == pytest.approx(0.01, rel=1e-14)
        assert euclid.eta(0.1, 4, 1) == pytest.approx(0.01 * (1 + math.log(10)), rel=1e-12)
        assert euclid.eta(1.0, 3, 1) == 1.0

    @pytest.mark.parametrize("t", [0.0, -0.1, 1.0001, 2.0])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            euclid.eta(t, 3, 1)


class TestKernelK1:
    # the closed form at k = 1: the fundamental solution of (Delta + 1)
    def test_yukawa(self):
        assert euclid.kernel_closed_form(3, 1, 1.0) == pytest.approx(
            math.exp(-1) / (4 * PI), rel=1e-13
        )

    def test_small_r_limit(self):
        # r * kernel -> 1/((n-2) omega_{n-1}) = 1/(4 pi) in n = 3
        for r in (1e-6, 1e-8):
            assert r * euclid.kernel_closed_form(3, 1, r) == pytest.approx(1 / (4 * PI), rel=1e-5)

    def test_n5_value(self):
        # frozen from the Bessel reference composition
        assert euclid.kernel_closed_form(5, 1, 2.0) == pytest.approx(
            0.00064276551966115458, rel=1e-12
        )

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                euclid.kernel_closed_form(3, 1, bad)
        with pytest.raises(DomainError):
            euclid.kernel_closed_form(2, 1, 1.0)


class TestClosedForm:
    def test_k1_reduction_exact(self):
        # D_{n,1} r^{-nu} K_nu(r) = (2 pi)^{-n/2} r^{-(n-2)/2} K_{(n-2)/2}(r)
        rs = np.geomspace(1e-3, 20, 30)
        for n in (3, 4, 5, 6, 7):
            a = euclid.kernel_closed_form_array(n, 1, rs)
            k = bessel_k_scaled_array(n - 2, rs) * np.exp(-rs)
            b = (2 * PI) ** (-n / 2) * rs ** (-(n - 2) / 2) * k
            np.testing.assert_allclose(a, b, rtol=1e-14)

    @pytest.mark.parametrize(
        "n,k,r,expected",
        [
            (5, 2, 1.0, math.exp(-1) / (16 * PI**2)),
            (7, 3, 1.0, math.exp(-1) / (128 * PI**3)),
        ],
    )
    def test_elementary_values(self, n, k, r, expected):
        assert euclid.kernel_closed_form(n, k, r) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 2), (6, 2), (7, 3)])
    def test_small_r_normalisation(self, n, k):
        # r^{n-2k} G -> c_{n,k} as r -> 0
        c = euclid.c_nk(n, k)
        for r in (1e-5, 1e-6):
            val = euclid.kernel_closed_form(n, k, r) * r ** (n - 2 * k)
            assert val == pytest.approx(c, rel=1e-3)

    @pytest.mark.slow
    def test_semigroup_oracle(self):
        # numerical self-convolution of the k = 1 kernel matches k = 2
        p = ProblemParams(5, 1, 1.0)
        kern = euclid.green_radial_kernel(p)
        val, err = radial_convolve(kern, kern, 5, 0.5, tol=1e-8)
        assert val == pytest.approx(euclid.kernel_closed_form(5, 2, 0.5), rel=1e-6)


class TestKernelAlpha:
    def test_alpha_one_identity(self):
        rs = np.geomspace(1e-3, 10, 20)
        p = ProblemParams(3, 1, 1.0)
        np.testing.assert_allclose(
            euclid.kernel_alpha_array(p, rs), np.exp(-rs) / (4 * PI * rs), rtol=1e-14
        )

    def test_scaled_yukawa(self):
        p = ProblemParams(3, 1, 100.0)
        assert euclid.kernel_alpha(p, 0.5) == pytest.approx(
            10 * math.exp(-5) / (20 * PI), rel=1e-13
        )

    def test_scaled_n5k2(self):
        p = ProblemParams(5, 2, 4.0)
        assert euclid.kernel_alpha(p, 1.0) == pytest.approx(
            math.sqrt(4.0) * math.exp(-2) / (16 * PI**2 * 2), rel=1e-13
        )

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (6, 1), (7, 2)])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0, 100.0])
    def test_scaling_exactness(self, n, k, alpha):
        rs = np.geomspace(1e-3, 10, 50)
        p = ProblemParams(n, k, alpha)
        p1 = ProblemParams(n, k, 1.0)
        lhs = euclid.kernel_alpha_array(p, rs)
        rhs = alpha ** (0.5 * p.twice_nu) * euclid.kernel_alpha_array(
            p1, math.sqrt(alpha) * rs
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_positivity(self):
        rs = np.geomspace(1e-4, 30, 80)
        for n, k in [(3, 1), (4, 1), (5, 2), (7, 3)]:
            p = ProblemParams(n, k, 7.0)
            assert np.all(euclid.kernel_alpha_array(p, rs) > 0)

    def test_underflow_policy(self):
        p = ProblemParams(3, 1, 1e6)
        assert euclid.kernel_alpha(p, 1.0) == 0.0  # sqrt(alpha) r = 1000 > 700


def masked_terms_reference(terms, r):
    """RadialTerms.evaluate as a gather below s r = 700 and a scatter into zeros."""
    x = terms.s * r
    out = np.zeros_like(r)
    ok = x <= UNDERFLOW_ARG
    xs, rs = x[ok], r[ok]
    acc = np.zeros_like(rs)
    for (tp, tm), q in terms.entries.items():
        acc += q.coef[0] * rs ** (0.5 * tp) * bessel_k_scaled_array(tm, xs)
    out[ok] = acc * np.exp(-xs)
    return out


class TestUnderflowRule:
    # one evaluator for values and derivatives: clipped at s r = 700, exact
    # 0.0 beyond it, DomainError for a NaN or nonpositive radius

    @pytest.mark.parametrize("lo,hi", [(1e-3, 700.0), (1e-3, 1400.0), (700.0 + 1e-9, 1400.0)])
    def test_evaluate_matches_masked_reference(self, lo, hi):
        # bitwise, at orders 0-3, below 700, straddling it and wholly above it
        # (exact zeros), with the radii on both sides of the cut
        t = np.append(np.geomspace(lo, hi, 301), min(hi, 700.0) if lo < 700.0 else hi)
        for n, k in [(3, 1), (4, 1), (5, 2), (6, 1), (7, 2)]:
            for alpha in (1.0, 50.0):
                p = ProblemParams(n, k, alpha)
                for l in range(4):
                    terms = euclid.kernel_terms(p, l)
                    r = t / p.sqrt_alpha
                    if lo < 700.0 < hi:
                        r = np.append(r, [terms.r_cut, np.nextafter(terms.r_cut, np.inf)])
                    got = terms.evaluate(r)
                    np.testing.assert_array_equal(got, masked_terms_reference(terms, r))
                    assert np.array_equal(got == 0.0, p.sqrt_alpha * r > UNDERFLOW_ARG)

    def test_inf_is_zero_without_warning(self):
        r = np.array([np.inf, 0.5, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (ProblemParams(3, 1, 1.0), ProblemParams(4, 1, 2000.0)):
                for l in range(3):
                    vals = euclid.kernel_terms(p, l).evaluate(r)
                    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] != 0.0
                assert euclid.kernel_alpha(p, math.inf) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, -math.inf])
    def test_nan_or_nonpositive_radius_raises(self, bad):
        p = ProblemParams(4, 1, 3.0)
        r = np.array([bad, 0.5])
        for l in range(3):
            with pytest.raises(DomainError):
                euclid.kernel_terms(p, l).evaluate(r)
        with pytest.raises(DomainError):
            euclid.kernel_alpha_array(p, r)
        with pytest.raises(DomainError):
            euclid.kernel_radial_derivative(p, bad, 1)


class TestRadialDerivative:
    def test_zeroth_is_kernel(self):
        p = ProblemParams(5, 2, 3.0)
        assert euclid.kernel_radial_derivative(p, 0.7, 0) == pytest.approx(
            euclid.kernel_alpha(p, 0.7), rel=1e-14
        )
        # the term algebra's G_alpha against the closed form
        # D_{n,k} alpha^nu x^{-nu} K_nu(x), x = sqrt(alpha) r, at all 13 orders
        # and over every Bessel region
        t = np.geomspace(1e-3, 600.0, 401)
        for k in (1, 2, 3):
            for n in range(2 * k + 1, 2 * k + 14):
                for alpha in (1.0, 50.0, 2000.0):
                    p = ProblemParams(n, k, alpha)
                    r = t / p.sqrt_alpha
                    x, nu = p.sqrt_alpha * r, 0.5 * p.twice_nu
                    want = (euclid.closed_form_constant(n, k) * alpha**nu * x ** (-nu)
                            * bessel_k_scaled_array(p.twice_nu, x) * np.exp(-x))
                    got = euclid.kernel_alpha_array(p, r)
                    assert np.max(np.abs(got - want) / want) <= 4e-15, (n, k, alpha)

    def test_yukawa_first_derivative(self):
        p = ProblemParams(3, 1, 1.0)
        assert euclid.kernel_radial_derivative(p, 1.0, 1) == pytest.approx(
            -2 * math.exp(-1) / (4 * PI), rel=1e-13
        )

    @pytest.mark.parametrize("n,k,alpha", [(5, 2, 1.0), (4, 1, 2.0), (7, 3, 5.0)])
    def test_finite_difference_consistency(self, n, k, alpha):
        p = ProblemParams(n, k, alpha)
        h = 5e-5
        for l in range(1, 2 * k + 1):
            for r in (0.3, 0.8, 2.0):
                fd = (
                    euclid.kernel_radial_derivative(p, r + h, l - 1)
                    - euclid.kernel_radial_derivative(p, r - h, l - 1)
                ) / (2 * h)
                an = euclid.kernel_radial_derivative(p, r, l)
                assert fd == pytest.approx(an, rel=1e-6)

    def test_order_limits(self):
        p = ProblemParams(3, 1, 1.0)
        with pytest.raises(UnsupportedOrderError):
            euclid.kernel_radial_derivative(p, 1.0, 3)
        with pytest.raises(DomainError):
            euclid.kernel_radial_derivative(p, 1.0, -1)


class TestEnvelope:
    def test_near_regime(self):
        p = ProblemParams(3, 1, 100.0)
        assert kernel_envelope(p, 0.05) == pytest.approx(20.0, rel=1e-14)

    def test_far_regime_n3(self):
        p = ProblemParams(3, 1, 100.0)
        assert kernel_envelope(p, 1.0) == pytest.approx(math.exp(-10), rel=1e-13)

    def test_far_regime_positive_power(self):
        p = ProblemParams(5, 2, 4.0)
        assert kernel_envelope(p, 1.0) == pytest.approx(4 * math.exp(-2), rel=1e-13)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 2)])
    def test_domination_with_stable_constant(self, n, k):
        # kernel <= C * envelope with one C per (n, k), uniformly in alpha
        cs = []
        for alpha in (1.0, 1e2, 1e4):
            p = ProblemParams(n, k, alpha)
            rs = np.geomspace(0.05 / p.sqrt_alpha, 200.0 / p.sqrt_alpha, 96)
            vals = euclid.kernel_alpha_array(p, rs)
            env = np.array([kernel_envelope(p, float(r)) for r in rs])
            keep = env > 0
            cs.append(float(np.max(vals[keep] / env[keep])))
        c_all = max(cs)
        assert np.isfinite(c_all)
        assert max(cs) / min(cs) < 1.5  # alpha-stable fit


class TestRemainderRatio:
    def test_exact_yukawa_identity(self):
        # ratio is |e^{-t} - 1| / t, inside (1 - t/2, 1)
        for alpha in (4.0, 1e4):
            p = ProblemParams(3, 1, alpha)
            for t in (1e-3, 0.1, 0.7, 1.0):
                r = t / p.sqrt_alpha
                ratio = euclid.remainder_ratio(p, r)
                assert ratio == pytest.approx((1 - math.exp(-t)) / t, rel=1e-9)
                assert 1 - t / 2 < ratio <= 1.0

    def test_taylor_value(self):
        p = ProblemParams(3, 1, 1e4)
        assert euclid.remainder_ratio(p, 1e-4) == pytest.approx(1 - 0.005, rel=1e-4)

    def test_bounded_for_n5k2(self):
        p = ProblemParams(5, 2, 1.0)
        rs = np.geomspace(1e-3, 1.0, 64)
        ratios = [euclid.remainder_ratio(p, float(r)) for r in rs]
        assert max(ratios) < 2.0

    def test_out_of_regime(self):
        p = ProblemParams(3, 1, 100.0)
        with pytest.raises(OutOfRegimeError):
            euclid.remainder_ratio(p, 0.2)  # sqrt(alpha) r = 2 > 1


class TestDifferentiatedRemainder:
    def test_yukawa_exact(self):
        # for (3,1), l=1: ratio equals e^{-t} / (4 pi)
        p = ProblemParams(3, 1, 4.0)
        t = 0.5
        assert euclid.differentiated_remainder_ratio(p, t / 2.0, 1) == pytest.approx(
            math.exp(-t) / (4 * PI), rel=1e-10
        )

    def test_bounded_n5k2(self):
        p = ProblemParams(5, 2, 1.0)
        for l in (1, 2, 3):
            vals = [
                euclid.differentiated_remainder_ratio(p, float(r), l)
                for r in np.geomspace(1e-3, 1.0, 32)
            ]
            assert max(vals) < 10.0

    def test_finite_difference_crosscheck(self):
        # d/dr of r^{n-2k} G against central differences
        p = ProblemParams(5, 2, 1.0)
        r, h = 0.1, 1e-5
        gap = p.n - 2 * p.k
        fd = (
            (r + h) ** gap * euclid.kernel_alpha(p, r + h)
            - (r - h) ** gap * euclid.kernel_alpha(p, r - h)
        ) / (2 * h)
        ratio = euclid.differentiated_remainder_ratio(p, r, 1)
        t = p.sqrt_alpha * r
        assert abs(fd) * r / euclid.eta(t, 5, 2) == pytest.approx(ratio, rel=1e-5)

    def test_l_zero_rejected(self):
        p = ProblemParams(5, 2, 1.0)
        with pytest.raises(DomainError):
            euclid.differentiated_remainder_ratio(p, 0.1, 0)


@given(
    alpha=st.floats(min_value=0.5, max_value=200.0),
    r=st.floats(min_value=1e-3, max_value=8.0),
)
@settings(max_examples=60, deadline=None)
def test_scaling_property(alpha, r):
    """kernel(n,k,alpha,r) = alpha^{(n-2k)/2} kernel(n,k,1,sqrt(alpha) r)."""
    p = ProblemParams(5, 2, alpha)
    lhs = euclid.kernel_alpha(p, r)
    rhs = alpha**0.5 * euclid.kernel_alpha(
        ProblemParams(5, 2, 1.0), math.sqrt(alpha) * r
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_params_invariants():
    with pytest.raises(DomainError):
        ProblemParams(4, 2, 1.0)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ProblemParams(3, 1, bad)
    with pytest.raises(DomainError):
        ProblemParams(3, 0, 1.0)
