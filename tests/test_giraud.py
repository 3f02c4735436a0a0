"""Envelope calculus and convolution engine tests.

The ball-overlap values are the analytic lens volume (pi/12)(4a+r)(2a-r)^2
for unit balls; convolution identities use the closed-form kernels as the
independent oracle.
"""

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygreen import euclid, giraud, torus
from polygreen.errors import ConvergenceError, DomainError, EstimateNotApplicableError
from polygreen.params import ProblemParams

F = Fraction


def depth_first_segments(func, a, b, breaks, tol_abs, tol_rel):
    """Per-panel, depth-first form of giraud._adaptive_segments without its
    panel budget: (value, error estimate, accepted panels)."""

    def gl(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * (func(mid + half * giraud._GL_X) @ giraud._GL_W)

    pts = sorted({a, b, *[p for p in breaks if a < p < b]})
    stack = [(pts[i], pts[i + 1], gl(pts[i], pts[i + 1]), 0) for i in range(len(pts) - 1)]
    total = sum(v[0] for _, _, v, _ in stack)
    value = 0.0
    err = 0.0
    accepted = 0
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = gl(lo, mid)
        right = gl(mid, hi)
        fine = left + right
        delta = abs(fine[0] - coarse[0])
        local_tol = max(tol_abs, tol_rel * abs(total)) * (hi - lo) / (b - a)
        rounding = 50.0 * giraud._EPS * abs(fine[0])
        if delta <= max(local_tol, rounding) or depth >= 52:
            value += fine[0]
            err += max(delta + fine[1], rounding)
            accepted += 1
            continue
        stack.append((lo, mid, left, depth + 1))
        stack.append((mid, hi, right, depth + 1))
    return value, err, accepted


def ball_kernel(radius: float = 1.0) -> euclid.RadialKernel:
    return euclid.RadialKernel(
        evaluator=lambda r: (r <= radius).astype(float),
        sing_exp=0.0,
        support_radius=radius,
    )


def yukawa_type(n: int, k: int, alpha: float) -> euclid.RadialKernel:
    """Kernel-shaped profile without the semigroup tag (generic convolution)."""
    p = ProblemParams(n, k, alpha)
    return euclid.RadialKernel(
        evaluator=lambda r: euclid.kernel_alpha_array(p, r),
        sing_exp=float(2 * k - n),
        decay_rate=p.sqrt_alpha,
    )


class TestComposeEuclid:
    def test_power_case(self):
        z = giraud.compose_euclid(
            giraud.power_envelope(2, 0, -1), giraud.power_envelope(2, 0, -1), 5
        )
        assert z.near.kind == "power" and z.near.beta == 4  # bound r^{-1}
        assert z.rho == 3  # far r^3 e^{-r}

    def test_bounded_case(self):
        z = giraud.compose_euclid(
            giraud.power_envelope(5, 0, 0), giraud.power_envelope(5, 0, 0), 5
        )
        assert z.near.kind == "const"

    def test_log_case(self):
        z = giraud.compose_euclid(
            giraud.power_envelope(2, 0, 0), giraud.power_envelope(3, 0, 0), 5
        )
        assert z.near.kind == "log"


class TestComposeAlpha:
    def test_error_field_squared(self):
        lx = giraud.error_field_envelope(3, 1, F(9, 100))
        z = giraud.compose_alpha(lx, lx, 3)
        assert z.near.kind == "const_alpha" and z.near.alpha_exp == F(-1, 2)
        assert z.p == 2 and z.rho == 5
        assert z.support == F(9, 50)

    def test_bounded_self_composition(self):
        x = giraud.power_envelope(3, 0, 0)
        z = giraud.compose_alpha(x, x, 3)
        assert z.near.kind == "const_alpha" and z.near.alpha_exp == F(-3, 2)

    def test_support_additivity(self):
        x = giraud.power_envelope(2, 1, 1, support=F(1, 10))
        y = giraud.power_envelope(2, 1, 1, support=F(3, 20))
        assert giraud.compose_alpha(x, y, 3).support == F(1, 4)

    def test_compatibility_enforced(self):
        bad = giraud.power_envelope(2, 3, 0)  # 2p - rho = 6 > n - beta = 1
        good = giraud.power_envelope(2, 1, 1)
        with pytest.raises(EstimateNotApplicableError) as err:
            giraud.compose_alpha(bad, good, 3)
        assert "2p - rho" in str(err.value.failed_inequality)

    def test_injectivity_radius_guard(self):
        x = giraud.power_envelope(2, 1, 1, support=F(3, 10))
        with pytest.raises(EstimateNotApplicableError):
            giraud.compose_alpha(x, x, 3, injectivity_radius=0.5)


class TestCompatibility:
    def test_error_field_zero_slack(self):
        ok, report = giraud.compatibility_check(giraud.error_field_envelope(3, 1, F(1, 10)), 3)
        assert ok and report["slack"] == 0

    def test_trivial(self):
        ok, report = giraud.compatibility_check(giraud.power_envelope(3, 0, 0), 3)
        assert ok and report["slack"] == 0

    def test_failing(self):
        ok, report = giraud.compatibility_check(giraud.power_envelope(2, 3, 0), 3)
        assert not ok and report["slack"] == -5


class TestIterateExponents:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2])
    def test_printed_exponents(self, n, k):
        if n <= 2 * k:
            pytest.skip("requires n > 2k")
        depth = n // 2 + 1
        envs = giraud.iterate_error_envelope(n, k, F(1, 20), depth)
        for i, env in enumerate(envs, start=1):
            p_expect, rho_expect = giraud.printed_iterate_exponents(n, k, i)
            assert env.p == p_expect
            assert env.rho == rho_expect
            assert env.support == i * F(1, 20)
            if 2 * i < n:
                assert env.near.kind == "power" and env.near.beta == 2 * i
            elif 2 * i == n:
                assert env.near.kind == "log"
            else:
                assert env.near.kind == "const_alpha"
                assert env.near.alpha_exp == -F(2 * i - n, 2)

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 1), (5, 2), (7, 2)])
    def test_correction_layer_exponents(self, n, k):
        # composing the i-th iterate with the kernel envelope reproduces the
        # layer exponents p_i = k(i(n+1)+n-3)/4, rho_i = (k(n+1)(i+1)-2n+4i)/2
        depth = n // 2 + 1
        envs = giraud.iterate_error_envelope(n, k, F(1, 40), depth)
        kernel_env = giraud.kernel_far_envelope(n, k)
        for i in range(1, depth):
            if 2 * i >= n:
                break
            layer = giraud.compose_alpha(envs[i - 1], kernel_env, n)
            assert layer.p == F(k * (i * (n + 1) + n - 3), 4)
            assert layer.rho == F(k * (n + 1) * (i + 1) - 2 * n + 4 * i, 2)
            # the pair sits exactly on the compatibility line: 2p - rho = n - beta
            assert 2 * layer.p - layer.rho == n - 2 * k - 2 * i


class TestRemarkA4:
    @given(
        rho=st.fractions(min_value=F(-5, 2), max_value=F(4)),
        nu=st.fractions(min_value=F(-5, 2), max_value=F(4)),
    )
    @settings(max_examples=50, deadline=None)
    def test_composed_far_power_exceeds_inputs(self, rho, nu):
        # rho + nu + n >= max(rho, nu) + (n + min(rho, nu)), with equality:
        # the convolution decays less quickly than either factor (n = 3)
        n = 3
        total = rho + nu + n
        assert total == max(rho, nu) + (n + min(rho, nu))
        assert total > max(rho, nu)  # min(rho, nu) > -n


@given(
    b1=st.fractions(min_value=F(1, 2), max_value=F(3, 2)),
    b2=st.fractions(min_value=F(1, 2), max_value=F(3, 2)),
    b3=st.fractions(min_value=F(1, 2), max_value=F(3, 2)),
)
@settings(max_examples=40, deadline=None)
def test_associativity_below_criticality(b1, b2, b3):
    """Near exponents compose associatively while partial sums stay < n."""
    n = 5
    if b1 + b2 >= n or b2 + b3 >= n or b1 + b2 + b3 >= n:
        return
    e1 = giraud.power_envelope(b1, 0, 0)
    e2 = giraud.power_envelope(b2, 0, 0)
    e3 = giraud.power_envelope(b3, 0, 0)
    left = giraud.compose_alpha(giraud.compose_alpha(e1, e2, n), e3, n)
    right = giraud.compose_alpha(e1, giraud.compose_alpha(e2, e3, n), n)
    assert left.near.beta == right.near.beta == b1 + b2 + b3
    assert left.p == right.p and left.rho == right.rho


class TestPsi:
    def test_minimal_instance(self):
        x = giraud.EnvelopeSpec(near=giraud.NearRegime("const"), p=F(0), rho=F(0))
        out = giraud.compose_psi(x, 0.5, 3, 0.5)
        assert out.alpha_exp == F(-3, 2)

    def test_twice_multiplies_prefactor(self):
        x = giraud.EnvelopeSpec(near=giraud.NearRegime("const"), p=F(0), rho=F(0))
        once = giraud.compose_psi(x, 0.5, 3, 0.5)
        twice = giraud.compose_psi(x, 0.5, 3, 0.5, psi=once)
        assert twice.alpha_exp == F(-3)

    def test_gamma_envelope_composition(self):
        # normalized final iterate: bounded near, 2p - rho = 0
        gamma = giraud.EnvelopeSpec(
            near=giraud.NearRegime("const_alpha", alpha_exp=F(-1, 2)),
            p=F(5, 2),
            rho=F(5),
            support=F(9, 50),
        )
        out = giraud.compose_psi(gamma, 0.1, 3, 0.5)
        assert out.alpha_exp == F(-1, 2) - F(3, 2)

    def test_hypothesis_violation(self):
        x = giraud.EnvelopeSpec(near=giraud.NearRegime("const"), p=F(1), rho=F(0))
        with pytest.raises(EstimateNotApplicableError):
            giraud.compose_psi(x, 0.1, 3, 0.5)

    @pytest.mark.parametrize(
        "near, p, rho, failed",
        [
            (giraud.NearRegime("power", beta=F(2)), F(0), F(0), "beta == n"),
            (giraud.NearRegime("log"), F(0), F(0), "near regime bounded"),
            (giraud.NearRegime("const"), F(1), F(1), "2p - rho <= 0"),
        ],
    )
    def test_refusals_name_the_failed_hypothesis(self, near, p, rho, failed):
        x = giraud.EnvelopeSpec(near=near, p=p, rho=rho)
        with pytest.raises(EstimateNotApplicableError) as err:
            giraud.compose_psi(x, 0.1, 3, 0.5)
        assert err.value.failed_inequality == failed

    def test_psi_value_regimes(self):
        ig = 0.5
        alpha = 400.0
        assert giraud.psi_value(0.1, alpha, 0.01, ig) == pytest.approx(math.exp(-0.9))
        assert giraud.psi_value(0.1, alpha, 0.1, ig) == pytest.approx(math.exp(-0.9 * 2.0))
        assert giraud.psi_value(0.1, alpha, 0.4, ig) == pytest.approx(
            math.exp(-0.9 * 20 * 0.25)
        )

    def test_psi_value_array_matches_scalar(self):
        # same branch per element as the scalar call, equal to rounding of exp
        d = np.array([[0.0, 0.01, 0.05], [0.1, 0.25, 0.4]])
        got = giraud.psi_value(0.1, 400.0, d, 0.5)
        assert got.shape == d.shape
        want = [giraud.psi_value(0.1, 400.0, float(x), 0.5) for x in d.ravel()]
        np.testing.assert_allclose(got.ravel(), want, rtol=4e-16, atol=0.0)
        assert isinstance(giraud.psi_value(0.1, 400.0, 0.1, 0.5), float)
        with pytest.raises(DomainError):
            giraud.psi_value(1.0, 400.0, d, 0.5)


class TestSerialization:
    def test_roundtrip_power(self):
        x = giraud.power_envelope(F(3, 2), F(1, 4), F(-1, 2), support=F(9, 100))
        assert giraud.EnvelopeSpec.from_json_dict(json.loads(json.dumps(x.to_json_dict()))) == x

    def test_roundtrip_const_alpha(self):
        x = giraud.EnvelopeSpec(
            near=giraud.NearRegime("const_alpha", alpha_exp=F(-1, 2)), p=F(2), rho=F(5)
        )
        assert giraud.EnvelopeSpec.from_json_dict(x.to_json_dict()) == x

    @pytest.mark.parametrize(
        "near, beta",
        [
            (giraud.NearRegime("power", beta=F(3, 2)), "3/2"),
            (giraud.NearRegime("log"), "log"),
            (giraud.NearRegime("const"), "const"),
            (giraud.NearRegime("const_alpha", alpha_exp=F(-1, 2)), {"const_alpha": "-1/2"}),
        ],
    )
    def test_roundtrip_every_near_kind(self, near, beta):
        x = giraud.EnvelopeSpec(near=near, p=F(1, 4), rho=F(-1, 2), rate=F(2), support=F(9, 100))
        d = x.to_json_dict()
        assert d == {"beta": beta, "p": "1/4", "rho": "-1/2", "rate": "2", "support": "9/100"}
        assert giraud.EnvelopeSpec.from_json_dict(json.loads(json.dumps(d))) == x

    @pytest.mark.parametrize(
        "d, key",
        [
            ({"beta": "2", "p": [1], "rho": "1"}, "'p'"),
            ({"beta": "2", "p": "1", "rho": "1", "support": "1/0"}, "'support'"),
            ({"beta": {"const_alpha": None}, "p": "1", "rho": "1"}, "'const_alpha'"),
        ],
    )
    def test_malformed_value_names_the_key(self, d, key):
        # missing keys and a non-object are the CLI's compose cases
        with pytest.raises(DomainError, match=key):
            giraud.EnvelopeSpec.from_json_dict(d)


class TestRadialConvolve:
    @pytest.mark.parametrize(
        "r,expected",
        [
            (0.5, 2.650718801466388),
            (1.0, 1.3089969389957472),
            (1.7, 0.13430308594096366),
        ],
    )
    def test_ball_overlap_oracle(self, r, expected):
        val, err = giraud.radial_convolve(ball_kernel(), ball_kernel(), 3, r, tol=1e-7)
        assert val == pytest.approx(expected, rel=1e-6)

    def test_semigroup_well_definedness_guard(self):
        p = ProblemParams(3, 1, 1.0)
        kern = euclid.green_radial_kernel(p)
        with pytest.raises(DomainError):
            giraud.radial_convolve(kern, kern, 3, 1.0)

    def test_semigroup_value(self):
        p = ProblemParams(5, 1, 1.0)
        kern = euclid.green_radial_kernel(p)
        val, _ = giraud.radial_convolve(kern, kern, 5, 1.0, tol=1e-8)
        assert val == pytest.approx(euclid.kernel_closed_form(5, 2, 1.0), rel=1e-6)

    def test_semigroup_mixed_orders(self):
        # G^(2) * G^(1) = G^(3) in n = 7 (well-defined: 2*3 < 7)
        k2 = euclid.green_radial_kernel(ProblemParams(7, 2, 1.0))
        k1 = euclid.green_radial_kernel(ProblemParams(7, 1, 1.0))
        for r in (0.25, 2.0):
            val, _ = giraud.radial_convolve(k2, k1, 7, r, tol=1e-8)
            assert val == pytest.approx(euclid.kernel_closed_form(7, 3, r), rel=1e-4)

    def test_symmetry(self):
        f = yukawa_type(3, 1, 4.0)
        g = ball_kernel(0.8)
        tol = 1e-7
        a, _ = giraud.radial_convolve(f, g, 3, 0.6, tol=tol)
        b, _ = giraud.radial_convolve(g, f, 3, 0.6, tol=tol)
        assert abs(a - b) <= 2 * tol

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0])
    def test_error_estimate_dominates_closed_form(self, n, r):
        kern = euclid.green_radial_kernel(ProblemParams(n, 1, 1.0))
        val, err = giraud.radial_convolve(kern, kern, n, r, tol=1e-8)
        assert err >= abs(val - euclid.kernel_closed_form(n, 2, r))

    @pytest.mark.parametrize(
        "kern,n,r,points",
        [
            # 540 and 315 outer nodes, each with 1 f point and 49 polar g points
            (euclid.green_radial_kernel(ProblemParams(5, 1, 1.0)), 5, 1.0, 27000),
            (ball_kernel(), 3, 1.0, 15750),
        ],
        ids=["green", "ball"],
    )
    def test_kernel_calls_are_batched(self, kern, n, r, points):
        calls = []

        def counted(t):
            calls.append(t.size)
            return kern.evaluator(t)

        counting = dataclasses.replace(kern, evaluator=counted)
        giraud.radial_convolve(counting, counting, n, r, tol=1e-8)
        # f is g: one call per refinement level for the outer and polar
        # nodes together; the point count pins the panel tree
        assert len(calls) <= 8
        assert sum(calls) == points

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("r", [0.25, 0.8, 1.5])
    def test_one_call_path_matches_two_calls(self, n, r):
        # the shared call evaluates the same points as the separate f and g
        # calls, so value and error estimate agree bitwise
        f = euclid.green_radial_kernel(ProblemParams(n, 1, 1.0))
        g = dataclasses.replace(f)  # equal to f, but not f
        assert giraud.radial_convolve(f, f, n, r, tol=1e-8) == giraud.radial_convolve(
            f, g, n, r, tol=1e-8
        )

    def test_sine_from_half_angle(self):
        # 2 s sqrt((1 - s)(1 + s)) with s = sin(theta/2) against np.sin on
        # [0, pi], densest near the ends: within 5e-16 (1 + 1/(pi - theta))
        rng = np.random.default_rng(32)
        u = rng.random(200_000)
        theta = np.concatenate(
            [np.linspace(0.0, math.pi, 100_001), math.pi * u**6, math.pi * (1.0 - u**6)]
        )
        got = giraud._sin_from_half(np.sin(0.5 * theta))
        gap = math.pi - theta
        assert np.all(np.abs(got - np.sin(theta)) * gap <= 5e-16 * (1.0 + gap))
        assert got[0] == 0.0 and got[100_000] == 0.0

    @pytest.mark.parametrize(
        "kern,n,r",
        [
            *[
                (euclid.green_radial_kernel(ProblemParams(n, 1, 1.0)), n, r)
                for n in (5, 6, 7)
                for r in (0.25, 0.5, 1.0, 2.0)
            ],
            *[(ball_kernel(), 3, r) for r in (0.5, 1.0, 1.7)],
        ],
    )
    def test_level_batched_matches_depth_first(self, monkeypatch, kern, n, r):
        batched = giraud._adaptive_segments
        seen = []

        def both(func, a, b, breaks, tol_abs, tol_rel):
            nodes = {"batched": [], "depth_first": []}

            def recording(key):
                def wrapped(s):
                    nodes[key].append(np.array(s))
                    return func(s)

                return wrapped

            value, err = batched(recording("batched"), a, b, breaks, tol_abs, tol_rel)
            ref_value, ref_err, ref_accepted = depth_first_segments(
                recording("depth_first"), a, b, breaks, tol_abs, tol_rel
            )
            got, want = (np.sort(np.concatenate(nodes[key])) for key in ("batched", "depth_first"))
            # E evaluated panels from P initial ones and S splits: E = 3P + 4S,
            # and P + S panels are accepted
            initial = len({a, b, *[p for p in breaks if a < p < b]}) - 1
            seen.append((got.size // giraud._GL_X.size + initial) // 4)
            assert np.array_equal(got, want)
            assert seen[-1] == ref_accepted
            assert abs(value - ref_value) <= 4 * np.spacing(abs(ref_value))
            assert abs(err - ref_err) <= 1e-5 * ref_err
            return value, err

        monkeypatch.setattr(giraud, "_adaptive_segments", both)
        giraud.radial_convolve(kern, kern, n, r, tol=1e-8)
        assert len(seen) == 1

    def test_interval_budget_raises_typed_error(self):
        # an integrand that never settles exhausts the 4000-panel budget
        rng = np.random.default_rng(16)

        def noise(s):
            return np.stack([rng.standard_normal(s.size), np.zeros(s.size)])

        with pytest.raises(ConvergenceError, match="interval budget") as info:
            giraud._adaptive_segments(noise, 0.0, 1.0, [0.5], 1e-12, 1e-12)
        assert math.isfinite(info.value.best_estimate)
        assert math.isfinite(info.value.error_estimate)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_integrand_layout_does_not_change_sums(self, tol):
        # the same integrand returned C-ordered and F-ordered gives the same
        # (value, error estimate) bitwise: the panel sums read C order
        def integrand(x):
            out = np.empty((2, x.size))
            out[0] = np.sin(37.0 * x) * np.exp(x) / (1.0 + x * x)
            out[1] = 1e-9 * np.abs(np.cos(11.0 * x))
            return out

        c_order = giraud._adaptive_segments(integrand, 0.0, 3.0, [0.5, 1.0], tol, tol)
        f_order = giraud._adaptive_segments(
            lambda x: np.asfortranarray(integrand(x)), 0.0, 3.0, [0.5, 1.0], tol, tol
        )
        assert c_order == f_order

    @pytest.mark.parametrize("count", [15, 24])
    def test_gauss_rules_from_the_shared_table(self, count):
        # the 24-node rule is the one embedded at the odd Kronrod nodes
        rules = {15: (giraud._GL_X, giraud._GL_W), 24: (giraud._XK[1::2], giraud._WG[1::2])}
        nodes, weights = rules[count]
        want_nodes, want_weights = np.polynomial.legendre.leggauss(count)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(weights, want_weights)

    def test_kronrod_rule_from_the_shared_table(self):
        nodes, kronrod, gauss = torus.gauss_kronrod(24)
        assert np.array_equal(giraud._POLAR_NODES, 0.5 * (nodes + 1.0))
        assert np.array_equal(giraud._POLAR_WEIGHTS[:, 0], 0.5 * kronrod)
        assert np.array_equal(giraud._POLAR_WEIGHTS[:, 1], 0.5 * (kronrod - gauss))
        assert np.count_nonzero(gauss) == 24

    @pytest.mark.parametrize(
        "r,tol,bad",
        [
            (math.inf, 1e-8, "r=inf"),
            (-math.inf, 1e-8, "r=-inf"),
            (math.nan, 1e-8, "r=nan"),
            (0.5, math.nan, "tol=nan"),
            (0.5, math.inf, "tol=inf"),
            (0.5, 0.0, "tol=0.0"),
            (0.5, -1.0, "tol=-1.0"),
        ],
    )
    def test_bad_radius_or_tolerance_rejected_before_quadrature(self, r, tol, bad):
        calls = []

        def counted(t):
            calls.append(t.size)
            return np.ones_like(t)

        kern = dataclasses.replace(ball_kernel(), evaluator=counted)
        with pytest.raises(DomainError, match=re.escape(bad)):
            giraud.radial_convolve(kern, kern, 3, r, tol=tol)
        assert calls == []

    def test_nonintegrable_rejected(self):
        bad = euclid.RadialKernel(
            evaluator=lambda r: r**-3.0, sing_exp=-3.0, support_radius=1.0
        )
        with pytest.raises(DomainError):
            giraud.radial_convolve(bad, ball_kernel(), 3, 0.5)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            giraud.radial_convolve(ball_kernel(), ball_kernel(), 1, 0.5)


class TestEnvelopeValue:
    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_bad_radius_rejected(self, r):
        # NaN fails the r > 0 check too instead of propagating into the bound
        with pytest.raises(DomainError, match="need r > 0"):
            giraud.envelope_value(giraud.kernel_far_envelope(3, 1), 3, 100.0, r)

    def test_log_near_regime(self):
        # 1 + |log(sqrt(alpha) r)| for sqrt(alpha) r <= 1: 1 + log 2 at sqrt(alpha) r = 1/2
        spec = giraud.EnvelopeSpec(near=giraud.NearRegime("log"), p=F(0), rho=F(0))
        assert giraud.envelope_value(spec, 3, 100.0, 0.05) == pytest.approx(1.0 + math.log(2.0), rel=1e-15)
        assert giraud.envelope_value(spec, 3, 100.0, 0.1) == 1.0
        assert giraud.envelope_value(spec, 3, 100.0, 0.2) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_infinite_radius_is_zero(self):
        assert giraud.envelope_value(giraud.kernel_far_envelope(3, 1), 3, 100.0, math.inf) == 0.0

    @pytest.mark.parametrize("alpha", [math.nan, -1.0, math.inf, 0.0])
    def test_bad_alpha_rejected(self, alpha):
        # as ProblemParams: a NaN, negative, infinite or zero alpha is a
        # domain error, not nan, a bare ValueError, 0.0 or a value
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            giraud.envelope_value(giraud.kernel_far_envelope(3, 1), 3, alpha, 0.5)


class TestCertifyBound:
    def test_yukawa_type_stable(self):
        n, k = 3, 1
        base = giraud.kernel_far_envelope(n, k)
        composed = giraud.compose_alpha(base, base, n)
        family = lambda a: yukawa_type(n, k, a)
        report = giraud.certify_bound(
            family, family, composed, n,
            alpha_list=[100.0, 10000.0],
            r_grid=list(np.geomspace(0.01, 0.5, 10)),
        )
        assert report.passed
        assert report.drift <= 2.0
        # only a loose ceiling: the constants fitted on these 10 radii (0.036
        # and 0.026) are sampled maxima, below the true supremum 1/(8 pi)
        assert max(report.fitted.values()) < 1.0

    def test_shared_family_built_once_per_alpha(self):
        n = 3
        base = giraud.kernel_far_envelope(n, 1)
        composed = giraud.compose_alpha(base, base, n)
        built = []

        def family(a):
            built.append(a)
            return yukawa_type(n, 1, a)

        giraud.certify_bound(family, family, composed, n, alpha_list=[100.0, 400.0], r_grid=[0.05])
        assert built == [100.0, 400.0]
        built.clear()
        # two family objects: each builds its own kernel
        giraud.certify_bound(
            family, lambda a: family(a), composed, n, alpha_list=[100.0], r_grid=[0.05]
        )
        assert built == [100.0, 100.0]

    def test_support_violation_counterexample(self):
        # halved support: the convolution of two unit balls lives out to r=2
        composed = giraud.EnvelopeSpec(
            near=giraud.NearRegime("const"), p=F(0), rho=F(0), support=F(1)
        )
        report = giraud.certify_bound(
            lambda a: ball_kernel(), lambda a: ball_kernel(), composed, 3,
            alpha_list=[1.0], r_grid=[0.5, 1.5],
        )
        assert not report.passed
        assert report.counterexample is not None
        assert report.counterexample["r"] == pytest.approx(1.5)

    def test_far_slope_of_composed_envelope(self):
        # round trip: sampling the composed far regime and refitting recovers
        # the printed exponent rho + nu + n (the convolution itself decays
        # at least this fast; the bound's slope is the printed one)
        n = 3
        base = giraud.kernel_far_envelope(n, 1)
        composed = giraud.compose_alpha(base, base, n)
        alpha = 400.0
        rs = np.geomspace(2.0 / math.sqrt(alpha), 20.0 / math.sqrt(alpha), 24)
        vals = np.array([giraud.envelope_value(composed, n, alpha, float(r)) for r in rs])
        slope, _ = giraud.fit_far_slope(rs, vals, math.sqrt(alpha))
        assert slope == pytest.approx(float(composed.rho), abs=0.2)
        # and the actual convolution is dominated on that grid
        f = yukawa_type(n, 1, alpha)
        conv = np.array([giraud.radial_convolve(f, f, n, float(r), tol=1e-9)[0] for r in rs])
        assert np.all(conv <= 1.0 * vals)
