"""Parametrix pipeline tests: cutoff, exact error field, iterate envelopes,
defining identities, remainder bound, assembly against the lattice oracle.

The manual k = 1 product-rule formula l = G (-chi'' - (n-1) chi'/r) - 2 chi' G'
serves as the independent oracle for the operator algebra; the per-mode
Fourier identity (xi^2 + alpha) Hhat = 1 + lhat checks the semi-analytic
transforms against each other.
"""

import hashlib
import itertools
import math
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


def fft_route_fields(params, geometry, cutoff, lhat, hhat, m, depth, band):
    """Gamma iterates, layers and u over the whole m-grid by the full-grid FFT, in one list.

    The tables are folded onto the m-grid's rfft layout (every mode sums its
    band^n aliases in the band*m spectrum) and inverse-transformed by
    ``np.fft.irfftn``; the oracle of the orthant cosine transform.
    """
    n, L = geometry.n, geometry.L
    gammas, layers, cur = [], [], -lhat
    for i in range(1, depth + 1):
        gammas.append(cur)
        if i < depth:
            layers.append(cur * hhat)
            cur = cur * (-lhat)
    tables = gammas + layers + [cur / torus._multiplier(params, geometry, np.arange(len(lhat)))]
    big = band * m
    freq_sq = np.fft.fftfreq(big, d=1.0 / big).astype(np.intp) ** 2
    layout = [np.arange(m)] * (n - 1) + [np.arange(m // 2 + 1)]
    coefs = [np.zeros([len(axis) for axis in layout]) for _ in tables]
    for shift in itertools.product(range(band), repeat=n):
        qsq = sum(np.ix_(*[freq_sq[idx + m * t] for idx, t in zip(layout, shift)]))
        for coef, table in zip(coefs, tables):
            coef += table[qsq]
    fields = [np.fft.irfftn(c, s=(m,) * n, axes=tuple(range(n))) * (m / L) ** n for c in coefs]
    dist = displacement_distances(geometry, m)
    for i, layer in enumerate(fields[depth : 2 * depth - 1], start=1):
        layer[dist > (i + 1) * cutoff.tau0] = 0.0
    return fields


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
            assert chi_derivative(cut, r, 1) == pytest.approx(fd, rel=1e-5)

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

    def test_integral_identity(self, state64):
        # int l = alpha^k int H - 1 (defining identity against phi = 1)
        int_h = state64.H.integral()
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
            P2000, G3, cut, lhat_table, hhat_table, m, 2
        )
        g1 = torus.unfold_orthant(gammas[0], m)
        w = (G3.L / m) ** 3
        direct = np.zeros((m, m, m))
        rev = g1[::-1, ::-1, ::-1]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    rolled = np.roll(rev, (i + 1, j + 1, k + 1), axis=(0, 1, 2))
                    direct[i, j, k] = np.sum(g1 * rolled) * w
        g2 = torus.unfold_orthant(gammas[1], m)
        assert np.max(np.abs(g2 - direct)) <= 1e-12 * np.max(np.abs(direct))

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
        g1 = torus.unfold_orthant(state64.gammas[0], 64)
        g2 = torus.unfold_orthant(state64.gammas[1], 64)
        h3 = (1.0 / 64) ** 3
        assert np.max(np.abs(g2)) <= np.max(np.abs(g1)) * np.sum(np.abs(g1)) * h3 * 1.01


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
        cut = state64.cutoff
        prof = parametrix.error_field_profile(P2000, cut)
        nodes, weights = np.polynomial.legendre.leggauss(600)
        r = 0.5 * (cut.tau0 - cut.half) * (nodes + 1) + cut.half
        w = 0.5 * (cut.tau0 - cut.half) * weights
        oracle = 4 * math.pi * float(np.sum(w * prof(r) ** 2 * r**2))
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
            hhat = float(h.fourier(np.array([xi]))[0])
            lhat = float(parametrix.error_field_fourier(P2000, h.cutoff, np.array([xi]))[0])
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

    def test_folded_fields_match_downsampled_band(self):
        # reference: materialise at 64^3 from coefficients at the distinct
        # radii and keep every second sample, the route the fold replaces
        m, band, depth = 32, parametrix.EVAL_BAND, 2
        cut = cutoff_for(3, 1, 1.0)
        h = parametrix.build_H(P2000, G3, cut)
        lhat_table = parametrix._coefficient_table(
            lambda xi: parametrix.error_field_fourier(P2000, cut, xi), G3, band * m // 2
        )
        hhat_table = parametrix._coefficient_table(h.fourier, G3, band * m // 2)
        gammas, layers, u = parametrix._fields_from_coefficients(
            P2000, G3, cut, lhat_table, hhat_table, m, depth
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

        dist = displacement_distances(G3, m)
        layer_ref = sampled(-lhat * hhat)
        layer_ref[dist > 2 * cut.tau0] = 0.0
        refs = [sampled(-lhat), sampled(lhat**2), layer_ref,
                sampled(lhat**2 / (uniq**2 + P2000.alpha))]
        for got, ref in zip(gammas + layers + [u], refs):
            assert got.shape == (m // 2 + 1,) * 3
            assert np.max(np.abs(torus.unfold_orthant(got, m) - ref)) <= 1e-12 * np.max(np.abs(ref))

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

    @pytest.mark.parametrize("n, k, m", [(3, 1, 32), (3, 1, 33), (5, 2, 16), (5, 2, 15)])
    def test_cosine_transform_matches_full_grid_fft(self, n, k, m):
        # Gamma^i, the layers and u on the orthant, unfolded, against the
        # full-grid alias fold and irfftn at the grid size
        p = ProblemParams(n, k, 2000.0)
        geom = torus.TorusGeometry(n, 1.0)
        cut = cutoff_for(n, k, 1.0)
        h = parametrix.EVAL_BAND * m // 2
        lhat = parametrix._coefficient_table(
            lambda xi: parametrix.error_field_fourier(p, cut, xi), geom, h
        )
        hhat = parametrix._coefficient_table(parametrix.build_H(p, geom, cut).fourier, geom, h)
        depth = n // 2 + 1
        gammas, layers, u = parametrix._fields_from_coefficients(
            p, geom, cut, lhat, hhat, m, depth
        )
        refs = fft_route_fields(p, geom, cut, lhat, hhat, m, depth, parametrix.EVAL_BAND)
        got = gammas + layers + [u]
        assert len(got) == len(refs) == 2 * depth
        for field, ref in zip(got, refs):
            assert field.shape == (m // 2 + 1,) * n
            assert np.max(np.abs(torus.unfold_orthant(field, m) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [32, 33, 1000, 1001])
    def test_mirror_cosines_reduce_the_argument(self, m):
        # w_o cos(2 pi q o / m) with q o reduced mod m first stays within a
        # few ulp where q o / m runs to m/4 turns (unreduced, the argument
        # alone is off by ~ulp(2 pi m / 4), 2.3e-13 at m = 1000), against a
        # 30-digit cosine of the exactly reduced fraction
        mpmath = pytest.importorskip("mpmath")
        q = np.arange(m // 2 + 1)
        got = torus._mirror_cosines(q, m)
        o = q if m < 100 else np.array([0, 1, m // 3, m // 2 - 1, m // 2])
        with mpmath.workdps(30):
            for j in o:
                for jj in o:
                    w = 1 if jj == 0 or 2 * jj == m else 2
                    want = w * mpmath.cos(2 * mpmath.pi * (int(j) * int(jj) % m) / m)
                    assert abs(got[j, jj] - float(want)) <= 2e-15

    @pytest.mark.parametrize(
        "m, digest",
        [(64, "f7581929b76b5e60a48de5e03425e3b6285f98198901fddc4bdef5dd3a94aabf"),
         (128, "dba700004ccba80e90f7c2894a3685b39acf44d399687c41d6e9026e9a5fa991")],
    )
    def test_pairs_drawn_as_on_the_full_grid(self, m, digest):
        # sha256 of the (200, 3) int64 grid indices that np.argwhere over the
        # full float distance grid gave at the acceptance draw (seed 2024)
        dist = torus.sample_radial(lambda r: r, G3, m)
        chosen = parametrix._draw_pairs(dist, m, max(0.05, 2.0 / m), 0.45, 200, 2024)
        assert chosen.shape == (200, 3)
        assert hashlib.sha256(chosen.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("m, seed", [(33, 3), (40, 7)])
    def test_pairs_match_argwhere_draw(self, m, seed):
        full = displacement_distances(G3, m)
        candidates = np.argwhere((full >= 0.06) & (full <= 0.3))
        rng = np.random.default_rng(seed)
        want = candidates[rng.choice(len(candidates), size=60, replace=False)]
        dist = torus.sample_radial(lambda r: r, G3, m)
        assert np.array_equal(parametrix._draw_pairs(dist, m, 0.06, 0.3, 60, seed), want)

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
