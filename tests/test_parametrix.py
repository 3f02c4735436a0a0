"""Parametrix pipeline tests: cutoff, exact error field, iterate envelopes,
defining identities, remainder bound, assembly against the lattice oracle.

The manual k = 1 product-rule formula l = G (-chi'' - (n-1) chi'/r) - 2 chi' G'
serves as the independent oracle for the operator algebra; the per-mode
Fourier identity (xi^2 + alpha) Hhat = 1 + lhat checks the semi-analytic
transforms against each other.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polygreen import euclid, giraud, parametrix, torus
from polygreen.cutoff import CutoffSpec, auto_tau0, cutoff_for, smoothstep_polynomial
from polygreen.errors import ConvergenceError, DomainError, PreconditionError
from polygreen.giraud import printed_iterate_exponents, psi_value
from polygreen.params import ProblemParams

G3 = torus.TorusGeometry(3, 1.0)
P2000 = ProblemParams(3, 1, 2000.0)


def chi_derivative(cut, r, order):
    """d^order chi / dr^order inside the annulus, from the smoothstep: chi = 1 - S(u)."""
    return -cut.step.deriv(order)(cut.scaled(r)) / cut.half**order


def displacement_distances(geometry, m):
    """|v| over the nearest-representative displacement grid, shape (m,)*n."""
    return torus.unfold_orthant(torus.sample_radial(lambda r: r, geometry, m), m)


def bispherical_convolve(f, f_edges, g, g_edges, n, r, nodes=40):
    """(f * g)(r) on R^n for radial f, g smooth between their edges, no Fourier transform.

    (f*g)(r) = omega_{n-2} / (2^{n-3} r^{n-2}) int f(s) s int g(t) t w^{(n-3)/2} dt ds
    with w = (t^2 - (r-s)^2)((r+s)^2 - t^2) and t over [|r - s|, r + s].  Gauss-
    Legendre in t on each of g's pieces clipped to that range, and in s on
    f's pieces cut where |r - s| or r + s crosses an edge of g, so every
    integrand is smooth on its panel.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)

    def rule(a, b):
        half = 0.5 * (b - a)
        return (a + half)[..., None] + half[..., None] * x, half[..., None] * w

    cuts = {c for e in g_edges for c in (r - e, r + e, e - r)} | {r}
    edges = sorted(set(f_edges) | {c for c in cuts if f_edges[0] < c < f_edges[-1]})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        s, ws = rule(np.array(a), np.array(b))
        inner = np.zeros_like(s)
        for c, d in zip(g_edges[:-1], g_edges[1:]):
            lo, hi = np.maximum(c, np.abs(r - s)), np.minimum(d, r + s)
            t, wt = rule(lo, np.maximum(lo, hi))
            ss = s[..., None]
            weight = ((t * t - (r - ss) ** 2) * ((r + ss) ** 2 - t * t)) ** ((n - 3) / 2)
            inner += np.sum(g(t.ravel()).reshape(t.shape) * t * weight * wt, axis=-1)
        total += float(np.sum(f(s) * s * inner * ws))
    return euclid.sphere_area(n - 1) / (2 ** (n - 3) * r ** (n - 2)) * total


def direct_gamma2_at_zero(params, cut):
    """Gamma^2(0) = int l^2 = omega_{n-1} int l(r)^2 r^{n-1} dr by Gauss-Legendre quadrature."""
    prof = parametrix.error_field_profile(params, cut)
    nodes, weights = np.polynomial.legendre.leggauss(600)
    r = 0.5 * (cut.tau0 - cut.half) * (nodes + 1) + cut.half
    w = 0.5 * (cut.tau0 - cut.half) * weights
    return euclid.sphere_area(params.n) * float(np.sum(w * prof(r) ** 2 * r ** (params.n - 1)))


def l_hat(params, cut, xi):
    """lhat(|xi|): the radial transform of l over its annulus [tau0/2, tau0]."""
    l = parametrix.error_field_profile(params, cut)
    return torus._radial_fourier(params.n, l, cut.half, cut.tau0, xi)


def h_hat(params, h, xi):
    """Hhat(|xi|): the radial transform of a built H over its support [0, tau0]."""
    return torus._radial_fourier(params.n, h, 0.0, h.support_radius, xi)


def reach(n, m):
    """Xi = 2 pi m sqrt(n) / L at L = 1: the pipeline's transform bound at grid m."""
    return 2.0 * math.pi * m * math.sqrt(n)


@pytest.fixture(scope="module")
def state128():
    return parametrix.run_pipeline(P2000, G3, grid=128, alias_limit=0.05)


@pytest.fixture(scope="module")
def state64():
    cut = cutoff_for(3, 1, 1.0)
    with pytest.warns(RuntimeWarning):
        # 64 cells put ~2.9 cells across the annulus: under-resolution warning
        return parametrix.run_pipeline(P2000, G3, grid=64, cutoff=cut, alias_limit=0.6)


class TestCutoff:
    def test_smoothstep_endpoints(self):
        s = smoothstep_polynomial(4)
        assert s(0.0) == pytest.approx(0.0, abs=1e-15)
        assert s(1.0) == pytest.approx(1.0, rel=1e-14)
        for order in range(1, 5):
            d = s.deriv(order)
            assert d(0.0) == pytest.approx(0.0, abs=1e-10)
            assert d(1.0) == pytest.approx(0.0, abs=1e-10)

    def test_chi_plateaus(self):
        cut = CutoffSpec(tau0=0.09, smoothness=4)
        assert cut.chi(0.01) == 1.0
        assert cut.chi(0.0451) < 1.0
        assert cut.chi(0.095) == 0.0
        r = np.linspace(0.001, 0.12, 200)
        vals = cut.chi(r)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    @pytest.mark.parametrize("smoothness", [4, 6, 8])
    def test_chi_keeps_relative_accuracy_near_tau0(self, smoothness):
        # chi = S(1 - u) against 50-digit mpmath on 2,000 radii of
        # [0.9 tau0, tau0), where chi falls to 1e-32, and on the rest of the
        # annulus; 1 - S(u) in doubles was off by up to 1.7e-10 there and
        # negative at up to 113 of the radii
        mpmath = pytest.importorskip("mpmath")
        tau0, n = 0.09, smoothness
        cut = CutoffSpec(tau0=tau0, smoothness=n)
        r = np.concatenate([np.linspace(0.9 * tau0, tau0, 2000, endpoint=False),
                            np.linspace(0.5 * tau0, 0.9 * tau0, 400, endpoint=False)])
        got = cut.chi(r)
        with mpmath.workdps(50):
            half = mpmath.mpf(tau0) / 2
            ref = []
            for ri in r:
                v = 1 - (mpmath.mpf(float(ri)) - half) / half
                ref.append(float(v ** (n + 1) * sum(
                    math.comb(n + j, j) * math.comb(2 * n + 1, n - j) * (-v) ** j for j in range(n + 1)
                )))
        ref = np.array(ref)
        assert np.all(got > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 4e-15

    @pytest.mark.parametrize("smoothness", [1, 4, 8, 20, 30])
    def test_chi_plateaus_are_exact(self, smoothness):
        # exactly 1 on [0, tau0/2] and 0 from tau0 on, also where the
        # monomial S(1) rounds away from 1 (smoothness 20 and up)
        tau0 = 0.09
        cut = CutoffSpec(tau0=tau0, smoothness=smoothness)
        inner = np.append(np.linspace(0.0, tau0 / 2, 50), tau0 / 2)
        outer = np.append(np.linspace(tau0, 1.0, 50), np.nextafter(tau0, 1.0))
        assert np.all(cut.chi(inner) == 1.0) and cut.chi(tau0 / 2) == 1.0
        assert np.all(cut.chi(outer) == 0.0) and cut.chi(tau0) == 0.0
        inside = cut.chi(np.linspace(tau0 / 2, tau0, 101)[1:-1])
        # next to tau0/2, v^(N+1) times the sum may round a few ulps over 1
        assert np.all((0.0 < inside) & (inside <= 1.0 + smoothness * np.finfo(float).eps))

    def test_chi_matches_the_smoothstep_polynomial(self):
        # chi's nonnegative form v^(N+1) sum_j C(N+j, j) (1 - v)^j is the
        # smoothstep S(v) exposed for the symbolic pipeline, in integers; its
        # values agree with 1 - S(u) in doubles to the latter's cancellation
        # (7.7e-11 at most, smoothness 8 = 2k + 2 at k = 3)
        x = np.polynomial.Polynomial([0, 1])
        for n in range(1, 13):
            form = x ** (n + 1) * sum(math.comb(n + j, j) * (1 - x) ** j for j in range(n + 1))
            np.testing.assert_array_equal(form.coef, smoothstep_polynomial(n).coef)
            if n > 8:
                continue
            cut = CutoffSpec(tau0=2.0, smoothness=n)
            r = np.linspace(1.0, 2.0, 41)
            np.testing.assert_allclose(cut.chi(r), 1.0 - cut.step(cut.scaled(r)), rtol=0, atol=1e-10)

    def test_chi_derivative_matches_fd(self):
        cut = CutoffSpec(tau0=0.09, smoothness=4)
        h = 1e-7
        for r in (0.05, 0.06, 0.08):
            fd = (cut.chi(r + h) - cut.chi(r - h)) / (2 * h)
            assert chi_derivative(cut, r, 1) == pytest.approx(fd, rel=1e-5)

    def test_auto_tau0(self):
        assert auto_tau0(3, 1.0) == pytest.approx(0.09)

    @pytest.mark.parametrize("tau0", [math.nan, math.inf, 0.0, -0.1])
    def test_bad_tau0_rejected(self, tau0):
        with pytest.raises(DomainError, match="tau0 must be positive and finite"):
            CutoffSpec(tau0=tau0, smoothness=4)
        with pytest.raises(DomainError, match="tau0"):
            cutoff_for(3, 1, 1.0, tau0)


class TestBuildH:
    def test_chi_one_region_is_kernel(self):
        h = parametrix.build_H(P2000, G3)
        r = np.array([0.01, 0.02, 0.044])
        np.testing.assert_allclose(
            h(r), euclid.kernel_alpha_array(P2000, r), rtol=1e-15
        )

    def test_vanishes_beyond_tau0(self):
        h = parametrix.build_H(P2000, G3)
        assert np.all(h(np.array([0.09, 0.1, 0.3])) == 0.0)

    def test_annulus_value(self):
        h = parametrix.build_H(P2000, G3)
        # independent smoothstep evaluation at u = (0.07 - 0.045)/0.045
        u = (0.07 - 0.045) / 0.045
        s = sum(
            math.comb(4 + j, j) * math.comb(9, 4 - j) * (-u) ** j for j in range(5)
        ) * u**5
        chi = 1.0 - s
        expect = chi * math.exp(-math.sqrt(2000.0) * 0.07) / (4 * math.pi * 0.07)
        assert h(np.array([0.07]))[0] == pytest.approx(expect, rel=1e-12)

    def test_alpha_too_small_rejected(self):
        with pytest.raises(PreconditionError) as err:
            parametrix.build_H(ProblemParams(3, 1, 1.0), G3)
        assert "tau0/2" in str(err.value)

    def test_fourier_identity_with_error_field(self):
        # (xi^2 + alpha) Hhat(xi) = 1 + lhat(xi) for k = 1 (delta + error)
        h = parametrix.build_H(P2000, G3)
        xi = np.array([0.0, 5.0, 40.0, 200.0, 700.0])
        lhs = (xi**2 + P2000.alpha) * h_hat(P2000, h, xi)
        rhs = 1.0 + l_hat(P2000, cutoff_for(3, 1, 1.0), xi)
        np.testing.assert_allclose(lhs, rhs, rtol=2e-9)

    @pytest.mark.parametrize("n, k", [(3, 1), (5, 2), (7, 2), (7, 3)])
    def test_H_and_l_are_radial_kernels(self, n, k):
        # the one radial-profile type: H ~ r^{2k-n} and the bounded l, both
        # supported in tau0, with no Green-kernel order or decay tag
        p = ProblemParams(n, k, 2000.0)
        geom = torus.TorusGeometry(n, 1.0)
        cut = cutoff_for(n, k, 1.0)
        h = parametrix.build_H(p, geom, cut)
        l = parametrix.error_field_profile(p, cut)
        assert isinstance(h, euclid.RadialKernel) and isinstance(l, euclid.RadialKernel)
        assert (h.sing_exp, h.support_radius) == (2 * k - n, cut.tau0)
        assert (l.sing_exp, l.support_radius) == (0.0, cut.tau0)
        for kern in (h, l):
            assert kern.decay_rate == 0.0 and kern.semigroup_order is None
            assert np.all(kern(np.array([cut.tau0, 1.5 * cut.tau0, 0.45])) == 0.0)


class TestErrorField:
    def test_support_is_machine_zero_off_annulus(self):
        cut = cutoff_for(3, 1, 1.0)
        prof = parametrix.error_field_profile(P2000, cut)
        inside = prof(np.array([0.001, 0.02, 0.0449]))
        outside = prof(np.array([0.0901, 0.2, 0.49]))
        assert np.all(inside == 0.0)
        assert np.all(outside == 0.0)

    def test_manual_product_rule_oracle(self):
        # k = 1: l = G * (-chi'' - (n-1) chi'/r) - 2 chi' G'
        cut = cutoff_for(3, 1, 1.0)
        prof = parametrix.error_field_profile(P2000, cut)
        for r in (0.05, 0.06, 0.0675, 0.085):
            g = euclid.kernel_alpha(P2000, r)
            gp = euclid.kernel_radial_derivative(P2000, r, 1)
            c1 = chi_derivative(cut, r, 1)
            c2 = chi_derivative(cut, r, 2)
            manual = g * (-c2 - 2.0 / r * c1) - 2.0 * c1 * gp
            assert prof(np.array([r]))[0] == pytest.approx(manual, rel=1e-12)

    def test_k2_profile_vanishes_inside(self):
        # (Delta + alpha)^2 of the k = 2 kernel is zero away from the pole;
        # the pipeline reproduces that cancellation numerically
        p = ProblemParams(5, 2, 3000.0)
        cut = CutoffSpec(tau0=0.07, smoothness=6)
        prof = parametrix.error_field_profile(p, cut)
        vals = prof(np.array([0.01, 0.03, 0.034]))
        assert np.all(vals == 0.0)  # piecewise-zero region by construction
        # annulus values are finite and smooth
        ann = prof(np.array([0.04, 0.05, 0.06]))
        assert np.all(np.isfinite(ann))
        assert np.any(ann != 0.0)

    @pytest.mark.parametrize(
        "n,k,alpha",
        [(n, k, a) for k in (1, 2, 3) for n in range(2 * k + 1, 8) for a in (100.0, 2000.0)],
    )
    def test_k2_operator_annihilates_kernel(self, n, k, alpha):
        # the algebra applied to the bare kernel (chi = 1 plateau) cancels:
        # (Delta + alpha)^k G = 0 away from the pole, up to rounding that
        # grows like (sqrt(alpha) r)^{-2k} toward the pole
        p = ProblemParams(n, k, alpha)
        expr = euclid.kernel_terms(p)
        for _ in range(k):
            expr = expr.apply_operator(n, alpha)
        t = np.array([0.3, 0.5, 0.8, 1.2, 2.0, 3.0])  # sqrt(alpha) r
        r = t / p.sqrt_alpha
        scale = euclid.kernel_alpha_array(p, r) * alpha**k * np.maximum(1.0, t ** (-2 * k))
        assert np.all(np.abs(expr.evaluate(r)) <= 1e-10 * scale)

    def test_depth_cap(self):
        with pytest.raises(DomainError):
            parametrix.error_field_profile(ProblemParams(9, 4, 100.0), CutoffSpec(0.05, 10))

    def test_under_resolution_warning(self):
        cut = cutoff_for(3, 1, 1.0)
        with pytest.warns(RuntimeWarning):
            parametrix.error_field(P2000, G3, cut, 32)

    def test_profile_built_once_per_pipeline(self, monkeypatch):
        # the sampled field, the guard's lhat and the inverse transforms read
        # one symbolic build; the sampled field is the public error_field's
        calls = []
        build = parametrix.error_field_profile

        def recording(params, cutoff):
            calls.append(params)
            return build(params, cutoff)

        monkeypatch.setattr(parametrix, "error_field_profile", recording)
        with pytest.warns(RuntimeWarning, match="error-field annulus"):
            state = parametrix.run_pipeline(P2000, G3, grid=16, alias_limit=1.0)
        assert calls == [P2000]
        with pytest.warns(RuntimeWarning, match="error-field annulus"):
            np.testing.assert_array_equal(state.l, parametrix.error_field(P2000, G3, state.cutoff, 16))

    def test_integral_identity(self, state64):
        # int l = alpha^k int H - 1 (defining identity against phi = 1)
        int_h = h_hat(P2000, state64.H, np.zeros(1))[0]
        expected = P2000.alpha * int_h - 1.0
        # grid-64 samples span the annulus with ~2.9 cells; the semi-
        # analytic identity at xi = 0 is tested exactly elsewhere
        l_grid = torus.unfold_orthant(state64.l, 64)
        assert float(np.sum(l_grid)) * (1.0 / 64) ** 3 == pytest.approx(expected, rel=0.05)

    def test_sup_bound_constant_non_increasing(self):
        # sup|l| <= C alpha^{k(n+1)/4} (tau0/2)^{((k-2)n+k+4)/2} e^{-sqrt(a) tau0/2}
        cs = []
        for alpha in (2000.0, 8000.0):
            p = ProblemParams(3, 1, alpha)
            cut = cutoff_for(3, 1, 1.0)
            prof = parametrix.error_field_profile(p, cut)
            rr = np.linspace(cut.half, cut.tau0, 4000)
            sup = float(np.max(np.abs(prof(rr))))
            form = alpha * cut.half * math.exp(-math.sqrt(alpha) * cut.half)
            cs.append(sup / form)
        assert cs[1] <= 1.1 * cs[0]


class TestRadialInterpolant:
    @pytest.mark.parametrize("transform", ["lhat", "Hhat"])
    @pytest.mark.parametrize(
        "n, k, alpha, m",
        [(3, 1, 2000.0, 64), (3, 1, 8000.0, 64), (3, 1, 2000.0, 128), (3, 1, 8000.0, 128),
         (5, 2, 2000.0, 16)],
    )
    def test_matches_direct_quadrature(self, n, k, alpha, m, transform):
        # |q|^2 tables out to the pipeline's reach Xi = 2 pi m sqrt(n) / L,
        # interpolated, against the quadrature run at each xi with the same
        # Gauss rule (a seeded subset at 128^3)
        p = ProblemParams(n, k, alpha)
        cut = cutoff_for(n, k, 1.0)
        xi = 2.0 * math.pi * np.sqrt(torus._sums_of_squares(n, m))
        assert len(xi) > math.ceil(xi[-1] * cut.tau0) + 16  # interpolated, not direct
        if transform == "lhat":
            profile, r_lo = parametrix.error_field_profile(p, cut), cut.half
        else:
            profile, r_lo = parametrix.build_H(p, torus.TorusGeometry(n, 1.0), cut), 0.0
        got = torus._radial_fourier(n, profile, r_lo, cut.tau0, xi)
        pick = np.arange(len(xi))
        if m == 128:
            rng = np.random.default_rng(11)
            pick = np.union1d([0, len(xi) - 1], rng.choice(len(xi), 500, replace=False))
        want = torus._radial_quadrature(n, profile, r_lo, cut.tau0, xi[pick], xi[-1])
        assert np.max(np.abs(got[pick] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_short_tables_are_direct(self):
        cut = cutoff_for(3, 1, 1.0)
        h = parametrix.build_H(P2000, G3, cut)
        for xi, xi_max in ((np.linspace(0.0, 1000.0, 50), 1000.0), (np.zeros(1), 0.0)):
            want = torus._radial_quadrature(3, h, 0.0, cut.tau0, xi, xi_max)
            assert np.array_equal(h_hat(P2000, h, xi), want)

    def test_nan_profile_raises_with_estimate(self):
        xi = np.linspace(0.0, 1000.0, 400)
        with pytest.raises(ConvergenceError) as err:
            torus._radial_fourier(3, lambda r: np.full_like(r, np.nan), 0.0, 0.09, xi)
        assert err.value.error_estimate is not None
        assert err.value.best_estimate.shape == xi.shape


class TestGammaIterateSampled:
    def test_gate_trips_on_underresolved_annulus(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ConvergenceError) as err:
                parametrix.run_pipeline(P2000, G3, grid=32)  # spec-default 1e-8 gate
        assert err.value.error_estimate > parametrix.ALIAS_LIMIT

    @pytest.mark.parametrize("n, k, grid", [(5, 1, 16), (5, 2, 16), (3, 1, 64)])
    def test_gate_counts_n_dimensional_shells(self, n, k, grid):
        # the gate's tail fraction is the fraction of the first iterate's
        # energy above 2/3 Nyquist counted over every mode of the grid's
        # cube, shell by shell
        p = ProblemParams(n, k, 2000.0)
        geom = torus.TorusGeometry(n, 1.0)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ConvergenceError) as err:
                parametrix.run_pipeline(p, geom, grid=grid)
        h = grid // 2
        counts = np.ones(1)
        for _ in range(n):
            counts = sum(np.pad(counts, (q * q, h * h - q * q)) for q in range(-h, h + 1))
        qsq = np.flatnonzero(counts)
        xi = 2.0 * math.pi * np.sqrt(qsq)
        energy = counts[qsq] * l_hat(p, cutoff_for(n, k, 1.0), xi) ** 2
        exact = energy[qsq > (2.0 / 3.0 * h) ** 2].sum() / energy.sum()
        assert err.value.error_estimate == pytest.approx(exact, rel=1e-12)

    def test_young_bound(self, state64):
        g1 = torus.unfold_orthant(state64.gammas[0], 64)
        g2 = torus.unfold_orthant(state64.gammas[1], 64)
        h3 = (1.0 / 64) ** 3
        assert np.max(np.abs(g2)) <= np.max(np.abs(g1)) * np.sum(np.abs(g1)) * h3 * 1.01


class TestFieldProfiles:
    """The R^n profiles behind the tables, against Fourier-free oracles.

    Beyond N tau0 the assembled G equals the lattice sum by construction,
    so these pin the construction inside, where criterion 7a has few pairs.
    """

    def test_gamma2_at_zero_in_the_state(self, state128):
        # measured 4.1e-7 (7.0e-6 with the band-2 alias fold)
        oracle = direct_gamma2_at_zero(P2000, state128.cutoff)
        assert state128.gammas[1][0, 0, 0] == pytest.approx(oracle, rel=1e-6)

    def test_gamma2_at_zero_n5(self):
        # the n = 5 annulus needs Xi ~ 2000 (a 142^5 grid): measured 2.7e-6;
        # at 16^5, Xi = 225, the state's Gamma^2(0) is 95% off
        p = ProblemParams(5, 2, 2000.0)
        cut = cutoff_for(5, 2, 1.0)
        h = parametrix.build_H(p, torus.TorusGeometry(5, 1.0), cut)
        l = parametrix.error_field_profile(p, cut)
        got = parametrix._field_profiles(p, cut, h, l, 3, np.zeros(1), 2000.0)
        assert got[0, 0] == pytest.approx(direct_gamma2_at_zero(p, cut), rel=1e-5)

    def test_gamma2_and_layer_against_convolutions(self, state128):
        # Gamma^2 = l * l and layer 1 = -(l * H) at the 128^3 reach; the
        # measured gaps are at most 3.1e-9 and 5.3e-7 of the sup.
        # radial_convolve cannot resolve l * l: l's inner edge at tau0/2
        # is a kink inside its fixed polar rules (estimate 0.18 at r = 0.07).
        # radial_convolve takes the built l and the state's H as they are
        cut = state128.cutoff
        l = parametrix.error_field_profile(P2000, cut)
        radii = np.array([0.02, 0.07, 0.12, 0.17])
        rows = parametrix._field_profiles(P2000, cut, state128.H, l, 2, radii, reach(3, 128))
        sup_gamma2 = np.max(np.abs(state128.gammas[1]))
        sup_layer = np.max(np.abs(state128.layers[0]))
        edges = [cut.half, cut.tau0]
        for r, gamma2, layer in zip(radii, rows[0], rows[1]):
            want = bispherical_convolve(l, edges, l, edges, 3, r)
            assert abs(gamma2 - want) <= 1e-8 * sup_gamma2
            conv, _ = giraud.radial_convolve(l, state128.H, 3, r, tol=1e-10 * sup_layer)
            assert abs(layer + conv) <= 1e-6 * sup_layer

    @pytest.mark.parametrize(
        "n, k, m, xi_max, bound",
        [(3, 1, 128, reach(3, 128), 2e-5), (5, 2, 32, 2000.0, 5e-6)],
        ids=["n3-grid128", "n5-xi2000"],
    )
    def test_identity_at_inner_radii(self, n, k, m, xi_max, bound):
        # H + sum layers + U = G_alpha on R^n, at the grid radii below N tau0;
        # measured 9.8e-6 (next to N tau0) and 8.5e-7 relative to G_alpha
        p = ProblemParams(n, k, 2000.0)
        cut = cutoff_for(n, k, 1.0)
        depth = n // 2 + 1
        radii = np.unique(torus.sample_radial(lambda r: r, torus.TorusGeometry(n, 1.0), m))
        radii = radii[(radii > 0) & (radii < depth * cut.tau0)]
        h = parametrix.build_H(p, torus.TorusGeometry(n, 1.0), cut)
        l = parametrix.error_field_profile(p, cut)
        rows = parametrix._field_profiles(p, cut, h, l, depth, radii, xi_max)
        kernel = euclid.kernel_alpha_array(p, radii)
        residual = h(radii) + rows[depth - 1 :].sum(axis=0) - kernel
        assert np.max(np.abs(residual) / kernel) <= bound


class TestPipeline:
    def test_depth_for_n3(self, state64):
        assert state64.N == 2
        assert len(state64.gammas) == 2
        assert len(state64.layers) == 1

    def test_envelope_telescoping(self, state64):
        tau0 = Fraction(state64.cutoff.tau0).limit_denominator(10**9)
        envelopes = giraud.iterate_error_envelope(3, 1, tau0, state64.N)
        for i, env in enumerate(envelopes, start=1):
            p_exp, rho_exp = printed_iterate_exponents(3, 1, i)
            assert env.p == p_exp and env.rho == rho_exp

    def test_gamma_autocorrelation_oracle(self, state64):
        # gamma(0) = int l^2 = 4 pi int l(r)^2 r^2 dr, by radial quadrature
        oracle = direct_gamma2_at_zero(P2000, state64.cutoff)
        assert state64.gamma[0, 0, 0] == pytest.approx(oracle, rel=2e-3)

    def test_gamma_support(self, state64):
        dist = displacement_distances(G3, 64)
        gamma = torus.unfold_orthant(state64.gamma, 64)
        sup = np.max(np.abs(gamma))
        outside = np.abs(gamma[dist > 2 * state64.cutoff.tau0 + 0.02])
        assert np.max(outside) <= 1e-4 * sup

    def test_spectral_multiplier_inequality(self, state64):
        assert np.max(np.abs(state64.u)) <= np.max(np.abs(state64.gamma)) / P2000.alpha

    def test_defining_identity_per_mode(self):
        # mult_q * Hhat_q (1 - lhat_q) + lhat_q^2 = 1 exactly for N = 2, k = 1:
        # the assembled G* and gamma satisfy the distributional identity
        h = parametrix.build_H(P2000, G3)
        for q in (0.0, 1.0, 2.0, 5.0):
            xi = 2 * math.pi * q
            mult = xi**2 + P2000.alpha
            hhat = float(h_hat(P2000, h, np.array([xi]))[0])
            lhat = float(l_hat(P2000, cutoff_for(3, 1, 1.0), np.array([xi]))[0])
            assert mult * hhat * (1.0 - lhat) + lhat**2 == pytest.approx(1.0, abs=5e-9)

    def test_u_contraction_in_alpha(self):
        # Upsilon = sup |u| / Psi_{0.1, alpha} decreases along the ladder
        vals = {}
        for alpha in (2000.0, 8000.0):
            p = ProblemParams(3, 1, alpha)
            with pytest.warns(RuntimeWarning, match="error-field annulus"):
                st = parametrix.run_pipeline(p, G3, grid=64, alias_limit=0.6)
            dist = displacement_distances(G3, 64)
            psi = psi_value(0.1, alpha, dist, 0.5)
            vals[alpha] = float(np.max(np.abs(torus.unfold_orthant(st.u, 64)) / psi))
        assert vals[8000.0] <= 1.1 * vals[2000.0]

    def test_assembly_against_lattice_oracle(self, state64):
        report = parametrix.assemble_and_compare(
            state64, n_pairs=60, d_range=(0.06, 0.30), seed=3
        )
        # grid 64 carries band-128 truncation ringing near the layer support
        # edge; the acceptance configuration at grid 128 holds 1e-2 with margin
        assert report.max_rel_error < 5e-2

    def test_pipeline_calls_no_fft(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.fft called")

        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, refuse)
        with pytest.warns(RuntimeWarning):
            state = parametrix.run_pipeline(P2000, G3, grid=32, alias_limit=1.0)
        parametrix.assemble_and_compare(state, n_pairs=5, d_range=(0.1, 0.3))

    @pytest.mark.parametrize("n, k, grid", [(3, 1, 32), (3, 1, 33), (5, 2, 15)])
    def test_state_fields_on_orthant(self, n, k, grid):
        geom = torus.TorusGeometry(n, 1.0)
        with pytest.warns(RuntimeWarning):
            state = parametrix.run_pipeline(ProblemParams(n, k, 2000.0), geom, grid, alias_limit=1.0)
        fields = [state.l, state.u] + state.gammas + state.layers
        assert len(fields) == 2 * state.N + 1
        assert all(f.shape == (grid // 2 + 1,) * n for f in fields)

    @pytest.mark.parametrize(
        "m, digest",
        [(64, "f7581929b76b5e60a48de5e03425e3b6285f98198901fddc4bdef5dd3a94aabf"),
         (128, "dba700004ccba80e90f7c2894a3685b39acf44d399687c41d6e9026e9a5fa991")],
    )
    def test_pairs_drawn_as_on_the_full_grid(self, m, digest):
        # sha256 of the (200, 3) int64 grid indices that np.argwhere over the
        # full float distance grid gave at the acceptance draw (seed 2024)
        dist = torus.sample_radial(lambda r: r, G3, m)
        lo = max(0.05, 2.0 / m)
        chosen = parametrix._draw_pairs((dist >= lo) & (dist <= 0.45), m, 200, 2024)
        assert chosen.shape == (200, 3)
        assert hashlib.sha256(chosen.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("m, seed", [(33, 3), (40, 7)])
    def test_pairs_match_argwhere_draw(self, m, seed):
        full = displacement_distances(G3, m)
        candidates = np.argwhere((full >= 0.06) & (full <= 0.3))
        rng = np.random.default_rng(seed)
        want = candidates[rng.choice(len(candidates), size=60, replace=False)]
        dist = torus.sample_radial(lambda r: r, G3, m)
        got = parametrix._draw_pairs((dist >= 0.06) & (dist <= 0.3), m, 60, seed)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "n, m, count",
        [(1, 2, 1), (1, 7, 3), (1, 8, 100), (2, 2, 3), (2, 9, 10), (2, 10, 1000),
         (4, 2, 5), (4, 5, 40), (4, 6, 40), (4, 3, 10**4)],
    )
    def test_pairs_match_argwhere_over_unfolded_mask(self, n, m, count):
        # a random orthant mask, drawn from by rank, against the draw over the
        # grid's candidates in C order; a count at or above the candidates
        # takes every one of them, in the seeded order
        mask = np.random.default_rng(m + n).random((m // 2 + 1,) * n) < 0.5
        candidates = np.argwhere(torus.unfold_orthant(mask, m))
        take = min(count, len(candidates))
        want = candidates[np.random.default_rng(5).choice(len(candidates), size=take, replace=False)]
        got = parametrix._draw_pairs(mask, m, count, 5)
        assert got.dtype == np.intp
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, m", [(1, 2), (2, 7), (4, 6)])
    def test_draw_from_empty_mask_rejected(self, n, m):
        mask = np.zeros((m // 2 + 1,) * n, dtype=bool)
        with pytest.raises(DomainError, match="no pairs to compare: 3 requested of 0"):
            parametrix._draw_pairs(mask, m, 3, 2024)

    def test_readme_run_never_unfolds(self, state128, monkeypatch):
        # the README run's pipeline and comparison never unfold a field
        def refuse(*args, **kwargs):
            raise AssertionError("unfold_orthant called")

        monkeypatch.setattr(torus, "unfold_orthant", refuse)
        parametrix.run_pipeline(P2000, G3, grid=128, alias_limit=0.05)
        parametrix.assemble_and_compare(state128)

    def test_comparison_peak_below_one_orthant_array(self, state128):
        # the pair draw holds boolean orthant and radius-table arrays only:
        # its traced peak stays below one float64 orthant array, 8 * 65^3 B
        # (10.7 MB when it unfolded the candidate mask to the grid)
        parametrix.assemble_and_compare(state128)  # the caches of the draw are warm
        tracemalloc.start()
        try:
            parametrix.assemble_and_compare(state128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 65**3

    def test_error_field_held_once(self, state128):
        # Gamma^1 = -l is the state's one array of the error field, and l
        # reads it negated: u, Gamma^1, Gamma^2 and the layer, no fifth array
        arrays = [v for v in vars(state128).values() if isinstance(v, np.ndarray)]
        arrays += state128.gammas + state128.layers
        assert len({id(a) for a in arrays}) == len(arrays) == 2 * state128.N
        assert state128.gammas[0].tobytes() == (-state128.l).tobytes()

    def test_pipeline_peak_below_five_orthant_arrays(self):
        # a warm 128^3 run holds Gamma^1, u, Gamma^2 and the layer: 9.6 MB
        # traced, where storing l and -l both peaked at 11.8 MB
        parametrix.run_pipeline(P2000, G3, grid=128, alias_limit=0.05)  # warm caches
        tracemalloc.start()
        try:
            parametrix.run_pipeline(P2000, G3, grid=128, alias_limit=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * 65**3

    @pytest.mark.parametrize(
        "kwargs, match",
        [pytest.param({"seed": s}, "seed", id=str(s)) for s in (-1, -2024, 1.5, np.float64(3.0))]
        + [
            pytest.param({"n_pairs": c}, f"pair count must be an integer, got {c}", id=f"pairs-{c}")
            for c in (2.5, np.float64(3.0))
        ],
    )
    def test_negative_seed_rejected_before_the_draw(self, state64, kwargs, match, monkeypatch):
        # and any seed or pair count that is no integer, which numpy would
        # refuse with a TypeError
        def refuse(*args, **kwargs):
            raise AssertionError("radius table built")

        monkeypatch.setattr(torus, "_radial_table", refuse)
        with pytest.raises(DomainError, match=match):
            parametrix.assemble_and_compare(state64, **kwargs)

    @pytest.mark.parametrize("n_pairs, d_range", [(0, (0.06, 0.30)), (10, (0.30, 0.06))])
    def test_comparison_without_pairs_rejected(self, state64, n_pairs, d_range):
        with pytest.raises(DomainError, match="no pairs"):
            parametrix.assemble_and_compare(state64, n_pairs=n_pairs, d_range=d_range)

    @pytest.mark.parametrize("grid", [1, 0, -8])
    def test_degenerate_grid_rejected(self, grid):
        with pytest.raises(DomainError, match="at least 2"):
            parametrix.run_pipeline(P2000, G3, grid=grid)

    def test_tau0_guard(self):
        cut = CutoffSpec(tau0=0.2, smoothness=4)  # 0.2 >= i_g/(n+2) = 0.1
        with pytest.raises(PreconditionError):
            parametrix.run_pipeline(P2000, G3, grid=64, cutoff=cut)

    def test_alpha_below_threshold_rejected(self):
        with pytest.raises(PreconditionError):
            parametrix.run_pipeline(ProblemParams(3, 1, 1.0), G3, grid=64)
