"""Parametrix pipeline tests: cutoff, exact error field, iterate envelopes,
defining identities, remainder bound, assembly against the lattice oracle.

The manual k = 1 product-rule formula l = G (-chi'' - (n-1) chi'/r) - 2 chi' G'
serves as the independent oracle for the operator algebra; the per-mode
Fourier identity (xi^2 + alpha) Hhat = 1 + lhat checks the semi-analytic
transforms against each other.
"""

import math

import numpy as np
import pytest

from polygreen import euclid, parametrix, torus
from polygreen.cutoff import CutoffSpec, auto_tau0, cutoff_for, smoothstep_polynomial
from polygreen.errors import ConvergenceError, DomainError, PreconditionError
from polygreen.giraud import printed_iterate_exponents, psi_value
from polygreen.params import ProblemParams

G3 = torus.TorusGeometry(3, 1.0)
P2000 = ProblemParams(3, 1, 2000.0)


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

    def test_chi_derivative_matches_fd(self):
        cut = CutoffSpec(tau0=0.09, smoothness=4)
        h = 1e-7
        for r in (0.05, 0.06, 0.08):
            fd = (cut.chi(r + h) - cut.chi(r - h)) / (2 * h)
            assert cut.chi_derivative(r, 1) == pytest.approx(fd, rel=1e-5)

    def test_auto_tau0(self):
        assert auto_tau0(3, 1.0) == pytest.approx(0.09)


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
        lhs = (xi**2 + P2000.alpha) * h.fourier(xi)
        rhs = 1.0 + parametrix.error_field_fourier(P2000, h.cutoff, xi)
        np.testing.assert_allclose(lhs, rhs, rtol=2e-9)


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
            c1 = cut.chi_derivative(r, 1)
            c2 = cut.chi_derivative(r, 2)
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

    def test_integral_identity(self, state64):
        # int l = alpha^k int H - 1 (defining identity against phi = 1)
        int_h = state64.H.integral()
        expected = P2000.alpha * int_h - 1.0
        # grid-64 samples span the annulus with ~2.9 cells; the semi-
        # analytic identity at xi = 0 is tested exactly elsewhere
        assert float(np.sum(state64.l)) * (1.0 / 64) ** 3 == pytest.approx(expected, rel=0.05)

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
        # the pipeline's |q|^2 tables, interpolated, against the quadrature
        # run at each xi with the same Gauss rule (a seeded subset at 128^3)
        p = ProblemParams(n, k, alpha)
        cut = cutoff_for(n, k, 1.0)
        xi = 2.0 * math.pi * np.sqrt(torus._sums_of_squares(n, parametrix.EVAL_BAND * m // 2))
        assert len(xi) > math.ceil(xi[-1] * cut.tau0) + 16  # interpolated, not direct
        if transform == "lhat":
            got = parametrix.error_field_fourier(p, cut, xi)
            profile, r_lo = parametrix.error_field_profile(p, cut), cut.half
        else:
            got = parametrix.HProfile(p, cut).fourier(xi)
            profile, r_lo = parametrix.HProfile(p, cut), 0.0
        pick = np.arange(len(xi))
        if m == 128:
            rng = np.random.default_rng(11)
            pick = np.union1d([0, len(xi) - 1], rng.choice(len(xi), 500, replace=False))
        want = torus._radial_quadrature(n, profile, r_lo, cut.tau0, xi[pick], xi[-1])
        assert np.max(np.abs(got[pick] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_short_tables_are_direct(self):
        cut = cutoff_for(3, 1, 1.0)
        h = parametrix.HProfile(P2000, cut)
        xi = np.linspace(0.0, 1000.0, 50)
        assert np.array_equal(h.fourier(xi), torus._radial_quadrature(3, h, 0.0, cut.tau0, xi, 1000.0))
        assert h.integral() == torus._radial_quadrature(3, h, 0.0, cut.tau0, np.zeros(1), 0.0)[0]

    def test_nan_profile_raises_with_estimate(self):
        xi = np.linspace(0.0, 1000.0, 400)
        with pytest.raises(ConvergenceError) as err:
            torus._radial_fourier(3, lambda r: np.full_like(r, np.nan), 0.0, 0.09, xi)
        assert err.value.error_estimate is not None
        assert err.value.best_estimate.shape == xi.shape


class TestGammaIterateSampled:
    def test_convolution_matches_direct_sum(self, monkeypatch):
        # coefficients zero for |q| >= m/2 leave each grid mode one nonzero
        # alias, so the coefficient route's Gamma^(2) is exactly the direct
        # O(m^2n) periodic sum Gamma^(1) (*) Gamma^(1) (L/m)^n
        m = 8
        cut = cutoff_for(3, 1, 1.0)
        h = parametrix.build_H(P2000, G3, cut)
        lhat = parametrix.error_field_fourier

        def band_limited(params, cutoff, xi):
            qn = xi * G3.L / (2.0 * math.pi)
            return np.where(qn < m / 2 - 0.25, lhat(params, cutoff, xi), 0.0)

        monkeypatch.setattr(parametrix, "error_field_fourier", band_limited)
        lhat_table = parametrix._coefficient_table(
            lambda xi: parametrix.error_field_fourier(P2000, cut, xi), G3, m
        )
        hhat_table = parametrix._coefficient_table(h.fourier, G3, m)
        gammas, _, _ = parametrix._fields_from_coefficients(
            P2000, G3, cut, lhat_table, hhat_table, m, 2, parametrix.EVAL_BAND
        )
        g1 = gammas[0]
        w = (G3.L / m) ** 3
        direct = np.zeros((m, m, m))
        rev = g1[::-1, ::-1, ::-1]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    rolled = np.roll(rev, (i + 1, j + 1, k + 1), axis=(0, 1, 2))
                    direct[i, j, k] = np.sum(g1 * rolled) * w
        assert np.max(np.abs(gammas[1] - direct)) <= 1e-12 * np.max(np.abs(direct))

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
        energy = counts[qsq] * parametrix.error_field_fourier(p, cutoff_for(n, k, 1.0), xi) ** 2
        exact = energy[qsq > (2.0 / 3.0 * h) ** 2].sum() / energy.sum()
        assert err.value.error_estimate == pytest.approx(exact, rel=1e-12)

    def test_young_bound(self, state64):
        g1 = state64.gammas[0]
        g2 = state64.gammas[1]
        h3 = (1.0 / 64) ** 3
        assert np.max(np.abs(g2)) <= np.max(np.abs(g1)) * np.sum(np.abs(g1)) * h3 * 1.01


class TestPipeline:
    def test_depth_for_n3(self, state64):
        assert state64.N == 2
        assert len(state64.gammas) == 2
        assert len(state64.layers) == 1

    def test_envelope_telescoping(self, state64):
        for i, env in enumerate(state64.envelopes, start=1):
            p_exp, rho_exp = printed_iterate_exponents(3, 1, i)
            assert env.p == p_exp and env.rho == rho_exp

    def test_gamma_autocorrelation_oracle(self, state64):
        # gamma(0) = int l^2 = 4 pi int l(r)^2 r^2 dr, by radial quadrature
        cut = state64.cutoff
        prof = parametrix.error_field_profile(P2000, cut)
        nodes, weights = np.polynomial.legendre.leggauss(600)
        r = 0.5 * (cut.tau0 - cut.half) * (nodes + 1) + cut.half
        w = 0.5 * (cut.tau0 - cut.half) * weights
        oracle = 4 * math.pi * float(np.sum(w * prof(r) ** 2 * r**2))
        assert state64.gamma[0, 0, 0] == pytest.approx(oracle, rel=2e-3)

    def test_gamma_support(self, state64):
        dist = torus.displacement_distances(G3, 64)
        sup = np.max(np.abs(state64.gamma))
        outside = np.abs(state64.gamma[dist > 2 * state64.cutoff.tau0 + 0.02])
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
            hhat = float(h.fourier(np.array([xi]))[0])
            lhat = float(parametrix.error_field_fourier(P2000, h.cutoff, np.array([xi]))[0])
            assert mult * hhat * (1.0 - lhat) + lhat**2 == pytest.approx(1.0, abs=5e-9)

    def test_u_contraction_in_alpha(self):
        # Upsilon = sup |u| / Psi_{0.1, alpha} decreases along the ladder
        vals = {}
        for alpha in (2000.0, 8000.0):
            p = ProblemParams(3, 1, alpha)
            st = parametrix.run_pipeline(p, G3, grid=64, alias_limit=0.6)
            dist = torus.displacement_distances(G3, 64)
            psi = psi_value(0.1, alpha, dist, 0.5)
            vals[alpha] = float(np.max(np.abs(st.u) / psi))
        assert vals[8000.0] <= 1.1 * vals[2000.0]

    def test_assembly_against_lattice_oracle(self, state64):
        report = parametrix.assemble_and_compare(
            state64, n_pairs=60, d_range=(0.06, 0.30), seed=3
        )
        # grid 64 carries band-128 truncation ringing near the layer support
        # edge; the acceptance configuration at grid 128 holds 1e-2 with margin
        assert report.max_rel_error < 5e-2

    def test_folded_fields_match_downsampled_band(self):
        # reference: materialise at 64^3 from coefficients at the distinct
        # radii and keep every second sample, the route the fold replaces
        m, band, depth = 32, 2, 2
        cut = cutoff_for(3, 1, 1.0)
        h = parametrix.build_H(P2000, G3, cut)
        lhat_table = parametrix._coefficient_table(
            lambda xi: parametrix.error_field_fourier(P2000, cut, xi), G3, band * m // 2
        )
        hhat_table = parametrix._coefficient_table(h.fourier, G3, band * m // 2)
        gammas, layers, u = parametrix._fields_from_coefficients(
            P2000, G3, cut, lhat_table, hhat_table, m, depth, band
        )
        big = band * m
        freqs = [np.fft.fftfreq(big, d=1.0 / big)] * 2 + [np.fft.rfftfreq(big, d=1.0 / big)]
        qsq = sum(g * g for g in np.meshgrid(*freqs, indexing="ij"))
        xi = 2.0 * math.pi * np.sqrt(qsq)
        uniq, inverse = np.unique(np.round(xi, 10), return_inverse=True)
        lhat = parametrix.error_field_fourier(P2000, cut, uniq)
        hhat = h.fourier(uniq)

        def sampled(coef_u):
            coef = coef_u[inverse].reshape(xi.shape)
            field = np.fft.irfftn(coef, s=(big,) * 3, axes=(0, 1, 2)) * big**3
            return field[::band, ::band, ::band]

        dist = torus.displacement_distances(G3, m)
        layer_ref = sampled(-lhat * hhat)
        layer_ref[dist > 2 * cut.tau0] = 0.0
        refs = [sampled(-lhat), sampled(lhat**2), layer_ref,
                sampled(lhat**2 / (uniq**2 + P2000.alpha))]
        for got, ref in zip(gammas + layers + [u], refs):
            assert got.shape == (m,) * 3
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_pipeline_transforms_at_grid_size(self, monkeypatch):
        shapes = []
        irfftn = np.fft.irfftn

        def recording(a, s=None, *args, **kwargs):
            shapes.append(tuple(s))
            return irfftn(a, s, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfftn", recording)
        with pytest.warns(RuntimeWarning):
            parametrix.run_pipeline(P2000, G3, grid=32, alias_limit=1.0)
        assert shapes and all(s == (32,) * 3 for s in shapes)

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
