"""Torus Green's function tests: lattice sums against the frozen image-sum
oracle, the per-mode spectral solve, representation formula, symmetry/positivity,
derivative envelopes, field serialization."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygreen import euclid, parametrix, torus
from polygreen.cutoff import cutoff_for
from polygreen.errors import BudgetError, DomainError
from polygreen.params import ProblemParams

PI = math.pi
G3 = torus.TorusGeometry(3, 1.0)

# truncated image sum at alpha=100, v=(1/2,0,0), L=1 (image radius 6),
# computed ahead of the build at 40 digits
LATTICE_ORACLE = 0.0021528642328906954


class TestDistance:
    def test_wraparound(self):
        d, v = torus.torus_distance(G3, np.zeros(3), np.array([0.75, 0.0, 0.0]))
        assert d == pytest.approx(0.25)
        np.testing.assert_allclose(v, [-0.25, 0.0, 0.0])

    def test_coincident(self):
        d, _ = torus.torus_distance(G3, np.full(3, 0.3), np.full(3, 0.3))
        assert d == 0.0

    def test_boundary_tie_break(self):
        geom = torus.TorusGeometry(3, 2.0)
        d, v = torus.torus_distance(geom, np.zeros(3), np.array([1.0, 1.0, 1.0]))
        assert d == pytest.approx(math.sqrt(3.0))
        np.testing.assert_allclose(v, [-1.0, -1.0, -1.0])

    def test_injectivity_radius(self):
        assert G3.injectivity_radius == 0.5

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
    def test_period_must_be_finite_positive(self, L):
        with pytest.raises(DomainError):
            torus.TorusGeometry(3, L)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(DomainError):
            torus.torus_distance(G3, np.zeros(3), np.array([0.1, 0.0, bad]))
        with pytest.raises(DomainError):
            torus.torus_distance(G3, np.array([bad, 0.0, 0.0]), np.zeros(3))

    @given(
        x=st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=3),
        y=st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, x, y):
        x, y = np.array(x), np.array(y)
        dxy, _ = torus.torus_distance(G3, x, y)
        dyx, _ = torus.torus_distance(G3, y, x)
        assert dxy == pytest.approx(dyx, abs=1e-12)
        assert dxy <= math.sqrt(3.0) / 2.0 + 1e-12


class TestLatticeSum:
    def test_oracle_value(self):
        p = ProblemParams(3, 1, 100.0)
        val, tail = torus.green_lattice_sum(p, G3, np.zeros(3), np.array([0.5, 0, 0]), tol=1e-14)
        assert val == pytest.approx(LATTICE_ORACLE, abs=1e-15)
        assert tail <= 1e-14

    def test_symmetry_exact(self):
        p = ProblemParams(3, 1, 500.0)
        x, y = np.array([0.1, 0.7, 0.3]), np.array([0.4, 0.2, 0.9])
        a, _ = torus.green_lattice_sum(p, G3, x, y)
        b, _ = torus.green_lattice_sum(p, G3, y, x)
        assert a == pytest.approx(b, rel=1e-14)

    def test_large_alpha_reduces_to_kernel(self):
        p = ProblemParams(3, 1, 1e4)
        d = 0.1
        val, _ = torus.green_lattice_sum(p, G3, np.zeros(3), np.array([d, 0, 0]))
        assert val == pytest.approx(euclid.kernel_alpha(p, d), rel=1e-13)

    def test_translation_invariance(self):
        p = ProblemParams(3, 1, 200.0)
        x, y = np.array([0.2, 0.3, 0.4]), np.array([0.6, 0.1, 0.8])
        t = np.array([0.125, 0.25, 0.5])
        a, _ = torus.green_lattice_sum(p, G3, x, y)
        b, _ = torus.green_lattice_sum(p, G3, x + t, y + t)
        assert a == b

    def test_diagonal_rejected(self):
        p = ProblemParams(3, 1, 100.0)
        with pytest.raises(DomainError):
            torus.green_lattice_sum(p, G3, np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def test_tiny_alpha_budget(self):
        p = ProblemParams(3, 1, 1e-6)
        with pytest.raises(BudgetError):
            torus.green_lattice_sum(p, G3, np.zeros(3), np.array([0.5, 0, 0]), tol=1e-10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_batch_matches_single(self, n):
        p = ProblemParams(n, 1, 300.0)
        geom = torus.TorusGeometry(n, 1.0)
        # the last row sits on the half-period boundary
        vs = np.array([[0.2, 0.1, 0.05, 0.3], [0.4, 0.4, 0.1, -0.2], [0.5, 0.1, 0.0, 0.25]])[:, :n]
        batch = torus.green_lattice_sum_many(p, geom, vs, tol=1e-12)
        for row, v in zip(batch, vs):
            single, _ = torus.green_lattice_sum(p, geom, np.zeros(n), v, tol=1e-12)
            assert row == pytest.approx(single, rel=1e-14)

    @pytest.mark.parametrize("diagonal_row", [[0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
    def test_batch_rejects_diagonal(self, diagonal_row):
        p = ProblemParams(3, 1, 300.0)
        vs = np.array([[0.2, 0.1, 0.05], diagonal_row])
        with pytest.raises(DomainError):
            torus.green_lattice_sum_many(p, G3, vs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_batch_rejects_non_finite(self, bad):
        p = ProblemParams(3, 1, 300.0)
        vs = np.array([[0.2, 0.1, 0.05], [0.1, bad, 0.0]])
        with pytest.raises(DomainError):
            torus.green_lattice_sum_many(p, G3, vs)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, -math.inf])
    def test_tolerance_must_be_positive(self, tol):
        # NaN fails every comparison, so it would exhaust the image budget
        # and blame alpha with a BudgetError
        with pytest.raises(DomainError, match="tol"):
            torus.image_radius(ProblemParams(3, 1, 100.0), G3, tol)

    @pytest.mark.parametrize("order", [4, -1, 1.5, 1.0])
    def test_order_outside_0_to_3_rejected(self, order):
        # the shell bound has chain-rule constants for orders 0-3 only
        with pytest.raises(DomainError, match="integer order"):
            torus.image_radius(ProblemParams(3, 1, 100.0), G3, 1e-10, order)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 1.0])
    def test_tail_bound_dominates_shell_series(self, alpha):
        # at image radius 1 the certified tail must bound the whole shell
        # series sum_{j >= 2} c_j G(L (j - 1/2)), here summed to 20000 shells
        p = ProblemParams(3, 1, alpha)
        _, tail = torus.green_lattice_sum(p, G3, np.zeros(3), np.array([0.5, 0, 0]), tol=math.inf)
        js = np.arange(2, 20002)
        counts = ((2 * js + 1) ** 3 - (2 * js - 1) ** 3).astype(float)
        series = float(np.sum(counts * euclid.kernel_alpha_array(p, G3.L * (js - 0.5))))
        assert tail >= series

    def test_near_diagonal_expansion(self):
        # |G d^{n-2k} / c_{n,k} - 1| <= C eta(sqrt(alpha) d), alpha-stable C
        cs = []
        for alpha in (500.0, 2000.0, 8000.0):
            p = ProblemParams(3, 1, alpha)
            worst = 0.0
            for t in np.geomspace(0.02, 1.0, 12):
                d = t / p.sqrt_alpha
                g, _ = torus.green_lattice_sum(p, G3, np.zeros(3), np.array([d, 0, 0]))
                dev = abs(g * d / euclid.c_nk(3, 1) - 1.0)
                worst = max(worst, dev / euclid.eta(t, 3, 1))
            cs.append(worst)
        assert max(cs) / min(cs) < 2.0

    def test_three_regime_envelope_conformance(self):
        # G <= C_eps * (near power; reduced-rate exponential; saturated) with
        # a fitted constant stable within factor 2 over the alpha ladder
        eps = 0.1
        cs = []
        for alpha in (500.0, 2000.0, 8000.0):
            p = ProblemParams(3, 1, alpha)
            worst = 0.0
            for d in np.geomspace(0.01, 0.45, 24):
                g, _ = torus.green_lattice_sum(p, G3, np.zeros(3), np.array([d, 0, 0]))
                t = p.sqrt_alpha * d
                if d >= G3.injectivity_radius / 2:
                    bound = math.exp(-(1 - eps) * p.sqrt_alpha * G3.injectivity_radius / 2)
                elif t >= 1.0:
                    bound = d ** (-1) * math.exp(-(1 - eps) * t)
                else:
                    bound = d ** (-1)
                worst = max(worst, g / bound)
            cs.append(worst)
        assert max(cs) / min(cs) < 2.0


def _orthant_rows(geometry, m):
    """Nearest-representative displacement rows of the grid indices 0 <= j_a <= m//2."""
    L = geometry.L
    reps = np.mod(torus.grid_coordinates(geometry, m)[: m // 2 + 1] + L / 2.0, L) - L / 2.0
    return np.stack(np.meshgrid(*([reps] * geometry.n), indexing="ij"), axis=-1).reshape(-1, geometry.n)


def _cellwise_wedge_fold(table, n, m, offsets):
    """sum_M table[|j + m M|^2] at each wedge cell j, the M added in itertools.product order."""
    cells = np.array(list(itertools.combinations_with_replacement(range(m // 2 + 1), n)))
    total = None
    for shift in itertools.product(offsets, repeat=n):
        term = table[np.sum((cells + m * np.array(shift)) ** 2, axis=1)]
        total = term if total is None else total + term
    return total


def _modes_on_full_grid(geometry, phi, m, origin):
    """Re sum_q c_q e^{2 pi i q.(origin + u)/L} sampled at every point u of the m-grid."""
    coords = torus.grid_coordinates(geometry, m)
    vals = np.zeros((m,) * geometry.n, dtype=complex)
    for q, coeff in phi.items():
        wave = coeff * np.exp(2j * PI * np.dot(q, origin) / geometry.L)
        for qa in q:
            wave = np.multiply.outer(wave, np.exp(2j * PI * qa * coords / geometry.L))
        vals += wave
    return vals.real


class TestSpectralSolve:
    """The per-mode solve ``solve_value_at`` at grid points."""

    def test_constant_mode(self):
        p = ProblemParams(3, 1, 100.0)
        coords = torus.grid_coordinates(G3, 8)
        u = [torus.solve_value_at(p, G3, {(0, 0, 0): 1.0}, np.array(x))
             for x in np.stack(np.meshgrid(coords, coords, coords), axis=-1).reshape(-1, 3)]
        np.testing.assert_allclose(u, 0.01, rtol=1e-14)

    def test_single_cosine(self):
        p = ProblemParams(3, 1, 1.0)
        coords = np.arange(16) / 16.0
        u = [torus.solve_value_at(p, G3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, np.array([c, 0.0, 0.0]))
             for c in coords]
        expected = np.cos(2 * PI * coords) / ((2 * PI) ** 2 + 1.0)
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_k2_factorisation(self):
        # the k = 2 solve equals the k = 1 solve of the k = 1 coefficients,
        # at 64 seeded points of the 8^5 grid
        geom = torus.TorusGeometry(5, 1.0)
        alpha = 3.0
        rng = np.random.default_rng(3)
        modes = {tuple(int(c) for c in rng.integers(-2, 3, size=5)): float(rng.normal())
                 for _ in range(6)}
        p1, p2 = ProblemParams(5, 1, alpha), ProblemParams(5, 2, alpha)
        inner = {q: c / ((2 * PI * math.sqrt(sum(a * a for a in q))) ** 2 + alpha)
                 for q, c in modes.items()}
        points = torus.grid_coordinates(geom, 8)[rng.integers(0, 8, size=(64, 5))]
        once = [torus.solve_value_at(p2, geom, modes, x) for x in points]
        twice = [torus.solve_value_at(p1, geom, inner, x) for x in points]
        np.testing.assert_allclose(once, twice, atol=1e-16)


class TestRepresentation:
    @pytest.mark.parametrize(
        "phi, x",
        [
            pytest.param({(0, 0, 0): 1.0}, (0.0, 0.0, 0.0), id="phi0"),
            pytest.param({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, (0.0, 0.0, 0.0), id="phi1"),
            pytest.param({(0, 0, 0): 1.0}, (0.3, 0.7, 0.1), id="phi0-x1"),
            pytest.param({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, (0.3, 0.7, 0.1), id="phi1-x1"),
        ],
    )
    def test_defect_small(self, phi, x):
        p = ProblemParams(3, 1, 2000.0)
        defect, est = torus.representation_check(p, G3, phi, np.array(x), grid=64)
        assert defect < 5e-4

    def test_constant_mode_identity(self):
        # integral of G equals alpha^{-k}, forced by testing against phi = 1
        p = ProblemParams(3, 1, 2000.0)
        defect, _ = torus.representation_check(p, G3, {(0, 0, 0): 1.0}, np.zeros(3), grid=64)
        assert defect < 5e-6

    @pytest.mark.parametrize("n, k", [(9, 1), (9, 4)])
    def test_unsupported_dimension_rejected_before_any_evaluation(self, n, k, monkeypatch):
        # n = 9 is refused before H is evaluated at any radius (n = 1 cannot
        # get here: ProblemParams needs n > 2k)
        params = ProblemParams(n, k, 300.0)
        calls = []
        evaluate = euclid.RadialTerms.evaluate

        def counting(self, r):
            calls.append(np.size(r))
            return evaluate(self, r)

        monkeypatch.setattr(euclid.RadialTerms, "evaluate", counting)
        with pytest.raises(DomainError, match=f"odd n <= 7 from n = 3 only, got n = {n}"):
            torus.representation_check(
                params, torus.TorusGeometry(n, 1.0), {(0,) * n: 1.0}, np.zeros(n), grid=4
            )
        assert calls == []

    def test_zero_source(self):
        p = ProblemParams(3, 1, 2000.0)
        defect, _ = torus.representation_check(p, G3, {(1, 0, 0): 0.0}, np.zeros(3), grid=32)
        assert defect == 0.0

    def test_even_dimension_rejected(self):
        p = ProblemParams(4, 1, 2000.0)
        with pytest.raises(DomainError):
            torus.representation_check(
                p, torus.TorusGeometry(4, 1.0), {(0, 0, 0, 0): 1.0}, np.zeros(4), grid=8
            )

    @pytest.mark.parametrize("n, k", [(4, 1), (9, 4)])
    def test_unsupported_dimension_rejected_before_any_table(self, n, k, monkeypatch):
        # the plane-wave spherical mean takes odd n <= 7 only; the check
        # refuses the others before it builds a table
        def refuse(*args, **kwargs):
            raise AssertionError("radius table built")

        monkeypatch.setattr(torus, "_radial_table", refuse)
        with pytest.raises(DomainError, match="odd n <= 7"):
            torus.representation_check(
                ProblemParams(n, k, 300.0), torus.TorusGeometry(n, 1.0), {(0,) * n: 1.0},
                np.zeros(n), grid=4,
            )

    @staticmethod
    def _verify_modes(n):
        # the two sources of ``torus verify``: phi = 1 and cos(2 pi x_1 / L)
        e = (1,) + (0,) * (n - 1)
        return [{(0,) * n: 1.0}, {e: 0.5, tuple(-c for c in e): 0.5}]

    def test_readme_defect_below_1e8(self):
        # subtracting H itself leaves G - H, exactly 0 inside tau0/2, for
        # the rectangle rule: the README's 128^3 defects read 1.8e-10, where
        # subtracting chi c_{n,k} / d read 7.8e-8
        p = ProblemParams(3, 1, 2000.0)
        for phi in self._verify_modes(3):
            defect, est = torus.representation_check(p, G3, phi, np.zeros(3), grid=128)
            assert defect <= 1e-8
            assert defect <= est

    @pytest.mark.parametrize("n, k, alpha, m", [(5, 1, 300.0, 16), (7, 2, 300.0, 8), (7, 3, 300.0, 8)])
    def test_defect_within_estimate_beyond_n_2k_plus_1(self, n, k, alpha, m):
        # any odd n <= 7 runs, n = 2k + 1 or not; the half-resolution
        # estimate bounds the defect
        p = ProblemParams(n, k, alpha)
        geom = torus.TorusGeometry(n, 1.0)
        for phi in self._verify_modes(n):
            defect, est = torus.representation_check(p, geom, phi, np.zeros(n), grid=m)
            assert defect <= est

    @pytest.mark.parametrize("grid", [0, -4, 16.0, np.float64(16.0)])
    def test_degenerate_grid_rejected(self, grid):
        p = ProblemParams(3, 1, 2000.0)
        with pytest.raises(DomainError, match="even grid >= 2"):
            torus.representation_check(p, G3, {(0, 0, 0): 1.0}, np.zeros(3), grid=grid)

    def test_odd_grid_rejected(self):
        # every second sample of an odd periodic grid is no half-resolution
        # grid, so the error estimate would be meaningless
        p = ProblemParams(3, 1, 2000.0)
        with pytest.raises(DomainError, match="even grid"):
            torus.representation_check(p, G3, {(0, 0, 0): 1.0}, np.zeros(3), grid=63)

    @pytest.mark.parametrize(
        "n, k, alpha, m", [(3, 1, 2000.0, 32), (3, 1, 50.0, 33), (5, 2, 300.0, 8), (5, 2, 300.0, 7)]
    )
    def test_orthant_unfolds_to_full_grid(self, n, k, alpha, m):
        p = ProblemParams(n, k, alpha)
        geom = torus.TorusGeometry(n, 1.0)
        reps = np.mod(torus.grid_coordinates(geom, m) + 0.5, 1.0) - 0.5
        rows = np.stack(np.meshgrid(*([reps] * n), indexing="ij"), axis=-1).reshape(-1, n)
        full = torus._image_sum(p, geom, rows, 1e-10)[0].reshape((m,) * n)
        orthant = torus._image_sum(p, geom, _orthant_rows(geom, m), 1e-10)[0]
        unfolded = torus.unfold_orthant(orthant.reshape((m // 2 + 1,) * n), m)
        assert np.max(np.abs(unfolded - full) / full) <= 1e-13
        dist = torus.unfold_wedge(torus.sample_radial(lambda r: r, geom, m), n, m)
        dist = torus.unfold_orthant(dist, m)
        np.testing.assert_allclose(dist, np.linalg.norm(rows, axis=1).reshape((m,) * n), rtol=1e-14)

    @pytest.mark.parametrize(
        "n, m, L", [(3, 30, 1.0), (3, 32, 1.0), (3, 33, 1.0), (3, 32, 1.7), (5, 8, 2.0)]
    )
    def test_radial_sampler_matches_float_rows(self, n, m, L):
        # f once per integer |j|^2, gathered on the wedge and unfolded to the
        # orthant, against f at the norms of the nearest-representative rows;
        # the Q = 0 cell reads 0
        geom = torus.TorusGeometry(n, L)

        def f(r):
            return np.exp(-3.0 * r) / r

        wedge = torus.sample_radial(f, geom, m)
        assert wedge.shape == (math.comb(m // 2 + n, n),)
        got = torus.unfold_wedge(wedge, n, m)
        norms = np.linalg.norm(_orthant_rows(geom, m), axis=1).reshape((m // 2 + 1,) * n)
        assert got.shape == norms.shape
        assert got.flat[0] == 0.0
        np.testing.assert_allclose(got.flat[1:], f(norms.flat[1:]), rtol=1e-14, atol=0.0)

    def test_radial_sampler_evaluates_each_radius_once(self):
        seen = []

        def f(r):
            seen.append(r)
            return r

        torus.sample_radial(f, G3, 32)
        assert len(seen) == 1
        assert len(seen[0]) == len(np.unique(seen[0])) == len(torus._sums_of_squares(3, 16)) - 1

    @pytest.mark.parametrize("n, h", [(3, 4), (5, 2), (1, 3), (3, 64), (2, 0)])
    def test_cube_counts_match_brute_force(self, n, h):
        axes = np.meshgrid(*([np.arange(-h, h + 1)] * n), indexing="ij")
        brute = np.bincount(sum(a.ravel() ** 2 for a in axes), minlength=n * h * h + 1)
        assert np.array_equal(torus._cube_counts(n, h), brute)
        assert np.array_equal(torus._sums_of_squares(n, h), np.flatnonzero(brute))

    def test_sums_of_squares_cached_read_only(self):
        sums = torus._sums_of_squares(3, 5)
        assert torus._sums_of_squares(3, 5) is sums
        assert not sums.flags.writeable
        counts = torus._cube_counts(3, 5)
        assert np.array_equal(sums, np.flatnonzero(counts))
        # the spectral guard's counts at the sums sit in the same cache entry
        shell_sums, shell_counts = torus._cube_shells(3, 5)
        assert shell_sums is sums and torus._cube_shells(3, 5)[1] is shell_counts
        assert not shell_counts.flags.writeable
        assert np.array_equal(shell_counts, counts[sums])

    @pytest.mark.parametrize(
        "n, m, offsets", [(1, 7, (0,)), (2, 6, (0, -1)), (3, 7, (0, -1)), (2, 5, (-2, -1, 0, 1, 2))]
    )
    def test_orthant_fold_matches_cellwise_sum(self, n, m, offsets):
        # the wedge fold, unfolded, against sum_M table[|j + m M|^2] at every
        # orthant cell j, for two tables at once
        h = m // 2 + m * max(abs(o) for o in offsets)
        rng = np.random.default_rng(7)
        tables = [rng.standard_normal(n * h * h + 1) for _ in range(2)]
        got = torus._wedge_fold(tables, n, m, offsets)
        for wedge, table in zip(got, tables):
            assert wedge.shape == (math.comb(m // 2 + n, n),)
            field = torus.unfold_wedge(wedge, n, m)
            for j in np.ndindex(field.shape):
                want = sum(
                    table[sum((ja + m * ma) ** 2 for ja, ma in zip(j, shift))]
                    for shift in itertools.product(offsets, repeat=n)
                )
                assert field[j] == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize(
        "n, m, offsets",
        [(1, 7, (0,)), (1, 6, (-2, -1, 0, 1, 2)), (2, 6, (0, -1)), (3, 7, (0, -1)),
         (2, 5, (-2, -1, 0, 1, 2)), (3, 6, (-2, -1, 0, 1, 2)), (3, 8, (0,))],
    )
    def test_weighted_fold_matches_cellwise_sum(self, n, m, offsets, monkeypatch):
        # sum_j sum_M table[|j + m M|^2] prod_a w[s, a, j_a] cell by cell, for
        # three weight sets at once; small blocks split both the histogram
        # and the contraction into several row blocks (n = 1 has no histogram)
        monkeypatch.setattr(torus, "_BLOCK_ELEMENTS", 24)
        h = m // 2 + m * max(abs(o) for o in offsets)
        rng = np.random.default_rng(11)
        table = rng.standard_normal(n * h * h + 1)
        weights = rng.standard_normal((3, n, m // 2 + 1))
        got = torus._weighted_fold(table, n, m, offsets, weights)
        assert got.shape == (3,)
        for s, w in enumerate(weights):
            want = sum(
                table[sum((ja + m * ma) ** 2 for ja, ma in zip(j, shift))]
                * math.prod(w[a, ja] for a, ja in enumerate(j))
                for j in np.ndindex((m // 2 + 1,) * n)
                for shift in itertools.product(offsets, repeat=n)
            )
            assert got[s] == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_radial_fields_gather_through_the_fold(self, monkeypatch):
        # the sampler and the pipeline's fields come from one fold: offset 0
        # for the fields of compact support, the orthant's image box for u
        calls = []
        fold = torus._wedge_fold

        def recording(tables, n, m, offsets):
            calls.append((len(tables), m, tuple(offsets)))
            return fold(tables, n, m, offsets)

        monkeypatch.setattr(torus, "_wedge_fold", recording)
        p = ProblemParams(3, 1, 2000.0)
        torus.sample_radial(lambda r: r, G3, 16)
        with pytest.warns(RuntimeWarning, match="error-field annulus"):
            parametrix.run_pipeline(p, G3, grid=16, alias_limit=1.0)
        offsets, _ = torus.orthant_image_offsets(p, G3, parametrix.IMAGE_TOL)
        assert offsets == (-1, 0)
        assert calls == [
            (1, 16, (0,)),
            (1, 16, (0,)),  # the error field
            (1, 16, offsets),  # u, before the other fields exist
            (2, 16, (0,)),  # Gamma^2 and one layer
        ]

    def test_orthant_squares_cached_read_only(self):
        qsq = torus._orthant_squares(3, 9)
        assert torus._orthant_squares(3, 9) is qsq
        assert not qsq.flags.writeable
        j = np.arange(5)
        assert np.array_equal(qsq, j[:, None, None] ** 2 + j[None, :, None] ** 2 + j**2)

    @pytest.mark.parametrize("n, m", [(3, 16), (3, 33), (5, 8), (5, 9)])
    @pytest.mark.parametrize("offsets", [(0,), (-1, 0), (-2, -1, 0, 1)])
    def test_orthant_fold_bitwise_as_fresh_index(self, n, m, offsets):
        # the wedge fold, with its cached index at M = 0 and per-shift
        # indices, sums the same values in the same order as a per-cell sum
        # over M in product order at the sorted cell, bit for bit
        h = m // 2 + m * max(abs(o) for o in offsets)
        rng = np.random.default_rng(n * m)
        tables = [rng.standard_normal(n * h * h + 1) for _ in range(2)]
        for got, table in zip(torus._wedge_fold(tables, n, m, offsets), tables):
            assert got.tobytes() == _cellwise_wedge_fold(table, n, m, offsets).tobytes()

    @pytest.mark.parametrize("n, grid", [(3, 16), (5, 8)])
    def test_pipeline_u_bitwise_as_fresh_index(self, n, grid, monkeypatch):
        # u's fold, and the error field's and the fields' offset-0 folds, hold
        # bit for bit the per-cell sums over M in product order at the sorted
        # cell of the tables they were given
        folds = []
        fold = torus._wedge_fold

        def recording(tables, n, m, offsets):
            folds.append(([np.array(t) for t in tables], m, tuple(offsets)))
            return fold(tables, n, m, offsets)

        monkeypatch.setattr(torus, "_wedge_fold", recording)
        p = ProblemParams(n, 1, 2000.0)
        geom = torus.TorusGeometry(n, 1.0)
        with pytest.warns(RuntimeWarning, match="error-field annulus"):
            state = parametrix.run_pipeline(p, geom, grid, alias_limit=1.0)
        want = [
            _cellwise_wedge_fold(table, n, m, offsets)
            for tables, m, offsets in folds
            for table in tables
        ]
        want[0] = -want[0]  # Gamma^1 = -l, negated in place
        assert len(want) == 2 * state.N
        got = [state.gammas[0], state.u] + state.gammas[1:] + state.layers
        for field, reference in zip(got, want):
            assert field.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n, grid", [(3, 16), (5, 8)])
    def test_unfolded_fields_invariant_under_axis_permutations(self, n, grid):
        # every field, unfolded to the grid, is exactly the same array with
        # its axes permuted, as the lattice's point group requires
        p = ProblemParams(n, 1, 2000.0)
        geom = torus.TorusGeometry(n, 1.0)
        with pytest.warns(RuntimeWarning, match="error-field annulus"):
            state = parametrix.run_pipeline(p, geom, grid, alias_limit=1.0)
        assert len(np.unique(state.u)) > 1
        for wedge in [state.l, state.u] + state.gammas + state.layers:
            field = torus.unfold_orthant(torus.unfold_wedge(wedge, n, grid), grid)
            for perm in itertools.permutations(range(n)):
                assert np.array_equal(field.transpose(perm), field)

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("m", [2, 7, 8, 16, 17])
    def test_wedge_cells_in_combinations_order(self, n, m):
        # the cells, count and order of combinations_with_replacement, in a
        # narrow read-only dtype; wedge_rank maps each cell to its row
        cells = torus.wedge_cells(n, m)
        want = list(itertools.combinations_with_replacement(range(m // 2 + 1), n))
        assert cells.shape == (n, len(want)) == (n, math.comb(m // 2 + n, n))
        assert np.array_equal(cells.T, want)
        assert cells.dtype == np.uint8 and not cells.flags.writeable
        assert torus.wedge_cells(n, m) is cells
        assert np.array_equal(torus.wedge_rank(cells.T, m), np.arange(len(want)))

    def test_wedge_built_without_orthant_arrays(self):
        # the 47,905 cells at 128^3 are built from the last axes' wedge: a
        # traced peak of 0.79 MB, below half an int64 orthant array
        torus.wedge_cells.cache_clear()
        tracemalloc.start()
        try:
            torus.wedge_cells(3, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert torus.wedge_cells(3, 128).shape == (3, 47905)
        assert peak < 4 * 65**3

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


    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_plane_wave_mean_against_mpmath(self, n):
        # mean_n(z) = 0F1(; n/2; -z^2/4); the closed forms for n = 5 and 7
        # cancel toward z = 0, where the radial interpolant puts its nodes
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        z = np.array([0.0, 5e-5, 1.01e-4, 3e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 1.99, 2.01, 5.0, 30.0])
        got = torus.plane_wave_spherical_mean(n, z)
        want = np.array([float(mpmath.hyp0f1(mpmath.mpf(n) / 2, -mpmath.mpf(x) ** 2 / 4)) for x in z])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        # a scalar z gives the 0-d array of the same value
        scalars = [torus.plane_wave_spherical_mean(n, float(x)) for x in z]
        assert all(v.shape == () for v in scalars) and np.array_equal(scalars, got)

    @pytest.mark.parametrize("n", [1, -1, 4, 9])
    def test_plane_wave_mean_refuses_other_dimensions(self, n):
        # n = 1 read the n = 7 closed form for |z| >= 2 (0.624 at z = 2.5,
        # where cos 2.5 = -0.801); z is not even read before the refusal
        with pytest.raises(DomainError, match=f"odd n <= 7 from n = 3 only, got n = {n}"):
            torus.plane_wave_spherical_mean(n, "not an array")

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("xi_max", [0.0, 30.0, 1e5])
    def test_radial_quadrature_by_angle_addition(self, n, xi_max):
        # sin and cos of xi r by angle addition over the panel centres and
        # node offsets, against the mean of every xi r computed elementwise;
        # xi_max = 30 keeps xi r below 2, in the series region, at every node
        def elementwise(f, r_lo, r_hi, xi):
            panels = max(10, math.ceil(xi_max * (r_hi - r_lo) / (2.0 * PI)))
            nodes, weights = torus.gauss_legendre(24)
            half = 0.5 * (r_hi - r_lo) / panels
            r = (r_lo + half * (2.0 * np.arange(panels)[:, None] + nodes + 1.0)).ravel()
            radial = f(r) * r ** (n - 1) * np.tile(half * weights, panels)
            mean = torus.plane_wave_spherical_mean(n, np.outer(xi, r))
            return euclid.sphere_area(n) * (radial @ mean.T)

        def f(r):
            return np.exp(-20.0 * r) * (1.0 + r)

        xi = np.concatenate([[0.0], np.linspace(0.0, xi_max, 41)[1:]])
        got = torus._radial_quadrature(n, f, 0.01, 0.06, xi, xi_max)
        want = elementwise(f, 0.01, 0.06, xi)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_radial_quadrature_sines_per_panel_and_node(self, monkeypatch):
        # np.sin runs on rows * (panels + 24) elements, not rows * panels * 24
        sizes = []
        sin = np.sin

        def counting(x, *args, **kwargs):
            sizes.append(np.size(x))
            return sin(x, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counting)
        xi = np.linspace(0.0, 1e4, 50)
        torus._radial_quadrature(5, np.ones_like, 0.0, 0.1, xi, 1e4)
        panels = math.ceil(1e4 * 0.1 / (2.0 * PI))
        assert sum(sizes) == len(xi) * (panels + 24)

    def test_gauss_legendre_rule_computed_once(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def recording(count):
            calls.append(count)
            return leggauss(count)

        torus.gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", recording)
        p = ProblemParams(3, 1, 2000.0)
        for _ in range(2):
            torus.representation_check(p, G3, {(1, 0, 0): 1.0}, np.zeros(3), grid=16)
        assert len(calls) == 1
        nodes, weights = torus.gauss_legendre(calls[0])
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_gauss_kronrod_49_is_exact_to_degree_73(self):
        nodes, kronrod, gauss = torus.gauss_kronrod(24)
        assert nodes.size == 49 and np.all(kronrod > 0)
        for d in range(74):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            assert abs(kronrod @ nodes**d - exact) <= 1e-14
        want_nodes, want_weights = np.polynomial.legendre.leggauss(24)
        assert np.max(np.abs(nodes[1::2] - want_nodes)) <= 1e-15
        assert np.array_equal(gauss[1::2], want_weights) and not np.any(gauss[::2])

    def test_gauss_kronrod_matches_quadpack_qk15(self):
        # xgk, wgk and wg of QUADPACK's qk15 (Piessens et al. 1983), outermost first
        xgk = np.array([
            0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245, 0.0,
        ])
        wgk = np.array([
            0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
        ])
        wg = np.array([
            0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
        ])
        nodes, kronrod, gauss = torus.gauss_kronrod(7)
        np.testing.assert_allclose(nodes, np.concatenate([-xgk, xgk[-2::-1]]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(kronrod, np.concatenate([wgk, wgk[-2::-1]]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss[1::2], np.concatenate([wg, wg[-2::-1]]), rtol=0, atol=1e-15)

    def test_gauss_kronrod_rule_computed_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def recording(a):
            calls.append(a.shape)
            return eigh(a)

        torus.gauss_kronrod.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", recording)
        first = torus.gauss_kronrod(24)
        second = torus.gauss_kronrod(24)
        assert calls == [(49, 49)]
        assert all(a is b for a, b in zip(first, second))
        assert not any(a.flags.writeable for a in first)

    @pytest.mark.parametrize("xi_max", [0.0, 1000.0, 1e5])
    def test_radial_quadrature_takes_panels_of_the_24_node_rule(self, xi_max, monkeypatch):
        # one cached rule on max(10, cycles) panels, where one rule of 240 to
        # 4000 nodes was built per call; against the ball's closed form
        # 4 pi (sin x - x cos x) / xi^3, x = xi R
        calls = []
        rule = torus.gauss_legendre

        def recording(count):
            calls.append(count)
            return rule(count)

        monkeypatch.setattr(torus, "gauss_legendre", recording)
        xi = np.array([0.5 * xi_max, xi_max]) if xi_max else np.zeros(1)
        got = torus._radial_quadrature(3, np.ones_like, 0.0, 0.1, xi, xi_max)
        assert set(calls) == {24}
        x = xi * 0.1
        want = 4 * math.pi * (np.sin(x) - x * np.cos(x)) / xi**3 if xi_max else 4 * math.pi / 3e3
        assert np.max(np.abs(got - want)) <= 1e-14 * 4 * math.pi / 3e3

    def test_radial_quadrature_stacks_integrands(self):
        xi = np.linspace(0.0, 800.0, 7)
        f = [lambda r: np.exp(-30.0 * r), lambda r: r * r]
        got = torus._radial_quadrature(5, lambda r: np.stack([g(r) for g in f]), 0.0, 0.2, xi, 800.0)
        assert got.shape == (2, 7)
        for row, g in zip(got, f):
            alone = torus._radial_quadrature(5, g, 0.0, 0.2, xi, 800.0)
            assert np.max(np.abs(row - alone)) <= 1e-15 * np.max(np.abs(alone))

    @pytest.mark.parametrize("m", [16, 18])
    def test_grid_sums_match_full_grid_rows(self, m):
        # defect and estimate against the float-row image sum minus the
        # parametrix H times phi(x + .) on the whole grid and on every second
        # sample, at a base point off the grid and a source with three modes;
        # the diagonal cell sums the other images, as G - H reads 0 at d = 0
        p = ProblemParams(3, 1, 2000.0)
        phi = {(1, 0, 0): 0.5, (-1, 2, 0): 0.3 - 0.2j, (0, 1, -3): 0.25j}
        x = np.array([0.3, 0.7, 0.1])
        defect, est = torus.representation_check(p, G3, phi, x, grid=m)
        reps = np.mod(torus.grid_coordinates(G3, m) + 0.5, 1.0) - 0.5
        rows = np.stack(np.meshgrid(*([reps] * 3), indexing="ij"), axis=-1).reshape(-1, 3)
        r = np.linalg.norm(rows, axis=1)
        cut = cutoff_for(3, 1, 1.0)
        h = euclid.parametrix_kernel(p, cut)
        smooth = torus._image_sum(p, G3, rows, 1e-10)[0]
        smooth[1:] -= h(r[1:])
        weighted = smooth.reshape((m,) * 3) * _modes_on_full_grid(G3, phi, m, x)
        grid_part = np.sum(weighted) / m**3
        half = np.sum(weighted[::2, ::2, ::2]) * 8 / m**3
        q, shifted = torus._shifted_modes(G3, phi, x)
        radial = torus._radial_fourier(3, h, 0.0, cut.tau0, 2 * PI * np.linalg.norm(q, axis=1))
        singular = np.sum(shifted * radial).real
        u = torus.solve_value_at(p, G3, phi, x)
        scale = np.sum(np.abs(weighted)) / m**3
        assert abs(defect - abs(grid_part + singular - u)) <= 1e-13 * scale
        assert abs(est - abs(grid_part - half)) <= 1e-13 * scale

    def test_image_sum_runs_on_orthant(self, monkeypatch):
        # the check contracts one integer-radius table over the orthant's
        # image box on the 17^3 orthant; neither the float-row image sum nor
        # a whole orthant field is formed
        calls = []
        weighted_fold = torus._weighted_fold

        def recording(table, n, m, offsets, weights):
            calls.append((n, m, tuple(offsets), weights.shape))
            return weighted_fold(table, n, m, offsets, weights)

        def unexpected(*args):
            raise AssertionError("representation check formed a whole field")

        monkeypatch.setattr(torus, "_weighted_fold", recording)
        monkeypatch.setattr(torus, "_image_sum", unexpected)
        monkeypatch.setattr(torus, "_wedge_fold", unexpected)
        p = ProblemParams(3, 1, 2000.0)
        offsets, _ = torus.orthant_image_offsets(p, G3, 1e-10)
        torus.representation_check(p, G3, {(1, 0, 0): 1.0}, np.zeros(3), grid=32)
        assert offsets == (-1, 0)
        assert calls == [(3, 32, offsets, (2, 3, 17))]  # the mode on the grid and on its even indices

    @pytest.mark.parametrize(
        "n, k, alpha, m", [(3, 1, 2000.0, 32), (3, 1, 50.0, 33), (5, 2, 300.0, 8), (5, 2, 300.0, 7)]
    )
    def test_integer_table_matches_image_sum(self, n, k, alpha, m, monkeypatch):
        # one kernel value per integer squared radius, contracted over the
        # orthant's image box with positive separable weights, against the
        # float-row image sum over the same box times the same weights; the
        # diagonal cell sums the other images, as Q = 0 reads 0
        p = ProblemParams(n, k, alpha)
        geom = torus.TorusGeometry(n, 1.0)
        offsets, _ = torus.orthant_image_offsets(p, geom, 1e-10)
        table = torus._radial_table(lambda r: euclid.kernel_alpha_array(p, r), geom, m, offsets)
        weights = np.random.default_rng(n * m).uniform(0.5, 1.5, size=(2, n, m // 2 + 1))
        got = torus._weighted_fold(table, n, m, offsets, weights)
        box = np.array(list(itertools.product(offsets, repeat=n)))
        monkeypatch.setattr(torus, "_lattice_box", lambda n, m_max: box)
        # the one-sided box serves 0 <= v_a <= L/2, so v_a = L/2 is not taken as -L/2
        rows = torus._image_sum(p, geom, np.abs(_orthant_rows(geom, m)), 1e-10)[0]
        rows = rows.reshape((m // 2 + 1,) * n)
        for total, w in zip(got, weights):
            want = np.sum(rows * functools.reduce(np.multiply.outer, w))
            assert abs(total - want) <= 1e-14 * want

    def test_integer_table_in_blocks(self, monkeypatch):
        # at alpha = 50 the orthant's image box is -3..3 per axis and the
        # check at grid 32 evaluates 25,615 distinct Q > 0: the kernel sees
        # them in blocks, each once
        p = ProblemParams(3, 1, 50.0)
        geom = torus.TorusGeometry(3, 1.0)
        offsets, _ = torus.orthant_image_offsets(p, geom, 1e-10)  # cached, so only the table calls below
        sizes = []
        kernel = euclid.kernel_alpha_array

        def recording(params, r):
            sizes.append(np.size(r))
            return kernel(params, r)

        monkeypatch.setattr(euclid, "kernel_alpha_array", recording)
        torus.representation_check(p, geom, {(0, 0, 0): 1.0}, np.zeros(3), grid=32)
        distinct = len(torus._sums_of_squares(3, 32 * 3 + 32 // 2)) - 1  # reach of -3..3
        assert offsets == tuple(range(-3, 4))
        assert distinct == 25615
        assert len(sizes) > 1
        assert max(sizes) <= torus._BLOCK_ELEMENTS
        assert sum(sizes) == distinct

    @pytest.mark.parametrize("m", [8, 9, 32])
    @pytest.mark.parametrize("offsets", [(0,), (-1, 0), (-1, 0, 1), (-2, -1, 0, 1), tuple(range(-3, 4))])
    def test_table_reach_is_the_fold_reach(self, m, offsets):
        # the table ends exactly at the largest |j + m M|^2 the fold reads,
        # and the fold over it sums |v + L M|^2 over the image box
        geom = torus.TorusGeometry(2, 1.0)
        table = torus._radial_table(lambda r: r * r, geom, m, offsets)
        index = np.arange(m // 2 + 1)
        reach = max(int(np.max(np.abs(index + m * o))) for o in offsets)
        assert len(table) == 2 * reach * reach + 1
        folded = torus.unfold_wedge(torus._wedge_fold([table], 2, m, offsets)[0], 2, m)
        sums = np.sum(np.add.outer(index, m * np.array(offsets)) ** 2, axis=1)
        want = (geom.L / m) ** 2 * len(offsets) * np.add.outer(sums, sums)
        np.testing.assert_allclose(folded, want, rtol=1e-13)

    @pytest.mark.parametrize("n, k, alpha, m", [(3, 1, 2000.0, 32), (3, 1, 50.0, 16), (5, 2, 300.0, 8)])
    def test_check_equals_a_build_at_the_old_reach(self, n, k, alpha, m, monkeypatch):
        # sizing the table by the fold's reach and evaluating the parametrix
        # only below tau0 changes no bit of the check: a table built as
        # before, over |q_a| <= m//2 + m max|M| with chi G_alpha subtracted
        # at every radius, gives the same defect and estimate
        p = ProblemParams(n, k, alpha)
        geom = torus.TorusGeometry(n, 1.0)
        phi = {(1,) + (0,) * (n - 1): 1.0, (0, 2) + (1,) * (n - 2): 0.5 - 0.25j}
        x = np.linspace(0.1, 0.7, n)
        new = torus.representation_check(p, geom, phi, x, grid=m)
        cut = cutoff_for(n, k, 1.0)
        radial_table = torus._radial_table

        def old_build(f, geometry, grid, offsets):
            return radial_table(
                lambda r: euclid.kernel_alpha_array(p, r) - cut.chi(r) * euclid.kernel_alpha_array(p, r),
                geometry, grid, (max(map(abs, offsets)),),
            )

        monkeypatch.setattr(torus, "_radial_table", old_build)
        assert torus.representation_check(p, geom, phi, x, grid=m) == new

    @pytest.mark.parametrize("n, m", [(3, 32), (3, 30), (5, 16), (5, 14)])
    def test_folded_grid_sum_matches_full_grid(self, n, m):
        # a radial table contracted with each mode's per-axis mirror cosines
        # sums like the unfolded table times phi(x + .) on the whole grid, and
        # with the odd orthant indices zeroed like the half-resolution grid;
        # a random table weighs every mode alike
        geom = torus.TorusGeometry(n, 1.0)
        rng = np.random.default_rng(n * m)
        phi = {(3,) + (1,) * (n - 1): 0.5 - 0.25j}
        for _ in range(4):
            q = tuple(int(c) for c in rng.integers(-5, 6, size=n))
            phi[q] = complex(rng.normal(), rng.normal())
        x = rng.uniform(0.0, 1.0, size=n)
        table = rng.uniform(0.5, 1.5, size=n * (m // 2) ** 2 + 1)
        q, shifted = torus._shifted_modes(geom, phi, x)
        factors = torus._mirror_cosines(q, m)
        factors[:, 0] *= shifted.real[:, None]
        even = factors.copy()
        even[..., 1::2] = 0.0
        folded = torus._weighted_fold(table, n, m, (0,), factors)
        halved = torus._weighted_fold(table, n, m, (0,), even)
        qsq = functools.reduce(np.add.outer, [np.arange(m // 2 + 1) ** 2] * n)
        full = torus.unfold_orthant(table[qsq], m) * _modes_on_full_grid(geom, phi, m, x)
        half = full[(slice(None, None, 2),) * n]
        for got, want in ((folded, full), (halved, half)):
            assert abs(np.sum(got) - np.sum(want)) <= 1e-13 * abs(np.sum(want))


class TestScan:
    def test_positive_and_symmetric(self):
        p = ProblemParams(3, 1, 500.0)
        report = torus.symmetry_positivity_scan(p, G3, 100, seed=7)
        assert report.all_positive
        assert report.min_value > 0.0
        assert report.max_asymmetry <= 1e-12

    def test_drawn_pairs_match_per_pair_draw(self, monkeypatch):
        # the seeded draw keeps the non-coincident pairs in order, bit for
        # bit as the per-pair reference loop kept them; one drawn pair is
        # made coincident
        pts = np.random.default_rng(13).uniform(0.0, 1.0, size=(50, 2, 3))
        pts[7, 1] = pts[7, 0]

        class Draw:
            def uniform(self, low, high, size):
                assert (low, high, size) == (0.0, 1.0, pts.shape)
                return pts.copy()

        seen = []
        many = torus.green_lattice_sum_many

        def recording(params, geometry, displacements, tol):
            seen.append(np.array(displacements))
            return many(params, geometry, displacements, tol)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draw())
        monkeypatch.setattr(torus, "green_lattice_sum_many", recording)
        report = torus.symmetry_positivity_scan(ProblemParams(3, 1, 500.0), G3, 50, seed=13)
        pairs = [(a, b) for a, b in pts if np.linalg.norm(a - b) > 0]
        xs = np.array([a for a, _ in pairs])
        ys = np.array([b for _, b in pairs])
        assert report.pairs == 49
        assert np.array_equal(seen[0], ys - xs) and np.array_equal(seen[1], xs - ys)

    def test_far_corner_underflow_flagged(self):
        p = ProblemParams(3, 1, 1e6)  # sqrt(alpha) * |v| > 700 at the corner
        pairs = [(np.zeros(3), np.array([0.5, 0.5, 0.5]))]
        report = torus.symmetry_positivity_scan(p, G3, pairs)
        assert report.underflow_pairs == 1
        assert report.all_positive

    def test_nan_value_fails(self, monkeypatch):
        # NaN passes neither G >= 0 nor the asymmetry bound, so it fails both
        # in pair order instead of reading as positive
        many = torus.green_lattice_sum_many

        def nan_at_second(params, geometry, displacements, tol):
            values = many(params, geometry, displacements, tol)
            values[1] = math.nan
            return values

        monkeypatch.setattr(torus, "green_lattice_sum_many", nan_at_second)
        report = torus.symmetry_positivity_scan(ProblemParams(3, 1, 500.0), G3, 4, seed=7)
        assert not report.all_positive
        assert [sorted(f) for f in report.failures] == [["value", "x", "y"], ["asymmetry", "x", "y"]]
        assert math.isnan(report.failures[0]["value"]) and math.isnan(report.min_value)

    def test_numpy_integer_count(self):
        # any integral count draws pairs, as green_derivative takes any integral order
        p = ProblemParams(3, 1, 500.0)
        assert torus.symmetry_positivity_scan(p, G3, np.int64(5), seed=3) == (
            torus.symmetry_positivity_scan(p, G3, 5, seed=3)
        )

    @pytest.mark.parametrize("seed", [-1, -2024, 1.5, np.float64(3.0)])
    def test_negative_seed_rejected_before_any_sum(self, seed, monkeypatch):
        # and any seed that is no integer, which numpy would refuse with a TypeError
        def refuse(*args, **kwargs):
            raise AssertionError("lattice sum called")

        monkeypatch.setattr(torus, "green_lattice_sum_many", refuse)
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            torus.symmetry_positivity_scan(ProblemParams(3, 1, 500.0), G3, 5, seed=seed)

    @pytest.mark.parametrize("count", [2.5, np.float64(5.0)])
    def test_non_integral_count_rejected(self, count):
        with pytest.raises(DomainError, match=f"pair count must be an integer, got {count}"):
            torus.symmetry_positivity_scan(ProblemParams(3, 1, 500.0), G3, count)

    @pytest.mark.parametrize("pairs", [0, -3, []])
    def test_zero_pairs_rejected(self, pairs):
        with pytest.raises(DomainError, match="at least one pair"):
            torus.symmetry_positivity_scan(ProblemParams(3, 1, 500.0), G3, pairs)

    def test_k2_n5_coarse(self):
        p = ProblemParams(5, 2, 200.0)
        geom = torus.TorusGeometry(5, 1.0)
        report = torus.symmetry_positivity_scan(p, geom, 20, seed=5, tol=1e-8)
        assert report.all_positive and report.min_value > 0.0


class TestDerivatives:
    def test_matches_finite_differences(self):
        p = ProblemParams(3, 1, 500.0)
        x = np.zeros(3)
        y = np.array([0.2, 0.1, 0.05])
        d, v = torus.torus_distance(G3, x, y)
        vhat = v / d
        h = 5e-5
        gp, _ = torus.green_lattice_sum(p, G3, x, y + h * vhat, tol=1e-14)
        gm, _ = torus.green_lattice_sum(p, G3, x, y - h * vhat, tol=1e-14)
        fd = (gp - gm) / (2 * h)
        assert abs(fd) == pytest.approx(torus.green_derivative(p, G3, x, y, 1), rel=1e-5)

    def test_near_regime_yukawa_gradient(self):
        # principal image dominates: |G'| -> (1 + sqrt(alpha) r) e^{-sqrt(a) r}/(4 pi r^2)
        p = ProblemParams(3, 1, 500.0)
        d = 0.05
        got = torus.green_derivative(p, G3, np.zeros(3), np.array([d, 0, 0]), 1)
        t = p.sqrt_alpha * d
        expect = (1 + t) * math.exp(-t) / (4 * PI * d**2)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_gradient_vector_aligns(self):
        p = ProblemParams(3, 1, 500.0)
        x, y = np.zeros(3), np.array([0.15, 0.1, 0.0])
        grad = torus.green_gradient(p, G3, x, y)
        d, v = torus.torus_distance(G3, x, y)
        directional = torus.green_derivative(p, G3, x, y, 1)
        assert abs(np.dot(grad, v / d)) == pytest.approx(directional, rel=1e-10)

    @pytest.mark.parametrize("n, k, alpha", [(3, 1, 1.0), (3, 1, 500.0), (4, 1, 50.0), (5, 2, 20.0)])
    def test_gradient_matches_one_row_per_axis(self, n, k, alpha):
        # one radius array and one kernel derivative per image serve every
        # axis; against n rows of the order-1 image sum along the unit axes,
        # over the same box, equal to the rounding of the two summation
        # orders: within 1e-13 of the sum of the terms' magnitudes (4.9e-15
        # at most, at (5, 2, 20) with 1.4M images)
        p, geom = ProblemParams(n, k, alpha), torus.TorusGeometry(n, 1.0)
        x, y = np.zeros(n), np.linspace(0.1, 0.4, n)
        _, v = torus.torus_distance(geom, x, y)
        rows = torus._image_sum(p, geom, np.tile(v, (n, 1)), 1e-10, 1, np.eye(n))[0]
        m, _ = torus.image_radius(p, geom, 1e-10, 1)
        w = v + torus._lattice_box(n, m)
        s = np.linalg.norm(w, axis=1)
        magnitude = np.abs(euclid.kernel_terms(p, 1).evaluate(s) / s) @ np.abs(w)
        grad = torus.green_gradient(p, geom, x, y)
        assert np.all(np.abs(grad - rows) <= 1e-13 * magnitude)

    def test_product_bound_alpha_stable(self):
        # |d/dt (t^{n-2k} G)| <= C t^{-1} eta(sqrt(alpha) t), C stable in alpha
        cs = []
        for alpha in (500.0, 2000.0):
            p = ProblemParams(3, 1, alpha)
            worst = 0.0
            for t in np.geomspace(0.05, 1.0, 8):
                d = t / p.sqrt_alpha
                y = np.array([d, 0, 0])
                val = torus.green_product_derivative(p, G3, np.zeros(3), y)
                worst = max(worst, val * d / euclid.eta(t, 3, 1))
            cs.append(worst)
        assert max(cs) <= 1.05 / (4 * PI)  # exact Yukawa constant
        assert max(cs) / min(cs) < 1.5

    def test_order_2k_rejected(self):
        p = ProblemParams(3, 1, 500.0)
        with pytest.raises(DomainError):
            torus.green_derivative(p, G3, np.zeros(3), np.array([0.1, 0, 0]), 2)

    def test_k2_second_derivative_fd(self):
        p = ProblemParams(5, 2, 300.0)
        geom = torus.TorusGeometry(5, 1.0)
        x = np.zeros(5)
        y = np.array([0.15, 0.05, 0.0, 0.0, 0.0])
        d, v = torus.torus_distance(geom, x, y)
        vhat = v / d
        h = 2e-4
        vals = []
        for s in (-1, 0, 1):
            g, _ = torus.green_lattice_sum(p, geom, x, y + s * h * vhat, tol=1e-13)
            vals.append(g)
        fd2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
        assert abs(fd2) == pytest.approx(
            torus.green_derivative(p, geom, x, y, 2), rel=1e-4
        )

    @pytest.mark.parametrize("alpha", [20.0, 300.0])
    def test_k2_third_derivative_fd(self, alpha):
        # central differences of the signed order-2 sum along vhat give order 3
        p = ProblemParams(5, 2, alpha)
        geom = torus.TorusGeometry(5, 1.0)
        x = np.zeros(5)
        y = np.array([0.15, 0.05, 0.0, 0.0, 0.0])
        d, v = torus.torus_distance(geom, x, y)
        e = (v / d)[None, :]
        h = 1e-4
        second = [torus._image_sum(p, geom, v + s * h * e, 1e-10, 2, e)[0][0] for s in (-1, 1)]
        fd3 = (second[1] - second[0]) / (2 * h)
        assert abs(fd3) == pytest.approx(torus.green_derivative(p, geom, x, y, 3), rel=1e-5)

    @pytest.mark.parametrize("n, k, alpha", [(3, 1, 500.0), (5, 2, 300.0)])
    def test_gradient_matches_axis_differences(self, n, k, alpha):
        p = ProblemParams(n, k, alpha)
        geom = torus.TorusGeometry(n, 1.0)
        x = np.zeros(n)
        y = np.linspace(0.2, 0.05, n)
        h = 5e-5
        fd = [
            (
                torus.green_lattice_sum(p, geom, x, y + h * e, tol=1e-14)[0]
                - torus.green_lattice_sum(p, geom, x, y - h * e, tol=1e-14)[0]
            )
            / (2 * h)
            for e in np.eye(n)
        ]
        np.testing.assert_allclose(torus.green_gradient(p, geom, x, y), fd, rtol=1e-5)

    @pytest.mark.parametrize("l", [1.5, 2.5])
    def test_non_integer_order_rejected(self, l):
        geom = torus.TorusGeometry(5, 1.0)
        y = np.array([0.1, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="integer"):
            torus.green_derivative(ProblemParams(5, 2, 300.0), geom, np.zeros(5), y, l)

    def test_numpy_integer_order_accepted(self):
        p = ProblemParams(5, 2, 300.0)
        geom = torus.TorusGeometry(5, 1.0)
        y = np.array([0.1, 0.0, 0.0, 0.0, 0.0])
        assert torus.green_derivative(p, geom, np.zeros(5), y, np.int64(3)) == (
            torus.green_derivative(p, geom, np.zeros(5), y, 3)
        )


class TestImageSumOrders:
    """The one image engine at orders 0-3 and its per-order certified tails."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("n, k, alpha", [(3, 1, 1.0), (3, 1, 10.0), (5, 2, 20.0), (5, 2, 300.0)])
    def test_tail_bounds_wider_box(self, monkeypatch, n, k, alpha, order):
        # five shells past the certified box, or up to the image budget's
        # cap where that is nearer (n = 5, alpha = 20: 27^5 images otherwise)
        p = ProblemParams(n, k, alpha)
        geom = torus.TorusGeometry(n, 1.0)
        rng = np.random.default_rng(24)
        V = rng.uniform(-0.5, 0.5, (1, n))
        E = rng.normal(size=(1, n))
        E /= np.linalg.norm(E, axis=1)[:, None]
        narrow, tail = torus._image_sum(p, geom, V, 1e-10, order, E)
        m_max, _ = torus.image_radius(p, geom, 1e-10, order)
        wide_radius = min(m_max + 5, torus._box_cap(n))
        assert wide_radius > m_max
        monkeypatch.setattr(torus, "image_radius", lambda *args: (wide_radius, 0.0))
        wide, _ = torus._image_sum(p, geom, V, 1e-10, order, E)
        assert tail <= 1e-10
        assert np.all(np.abs(wide - narrow) <= tail)

    def test_budget_reaches_order_3_first(self):
        # at (5, 2), L = 1, alpha = 12 the values and orders 1-2 fit the
        # image budget at 1e-10, and the order-3 bound does not
        p = ProblemParams(5, 2, 12.0)
        geom = torus.TorusGeometry(5, 1.0)
        for order in range(3):
            assert torus.image_radius(p, geom, 1e-10, order)[0] <= torus._box_cap(5)
        with pytest.raises(BudgetError):
            torus.green_derivative(p, geom, np.zeros(5), np.array([0.3, 0, 0, 0, 0]), 3)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n, k, alpha", [(3, 1, 10.0), (5, 2, 300.0)])
    def test_shell_bound_dominates_one_image(self, n, k, alpha, order):
        # d^l/dt^l G(|w + t e|) at t = 0 from a Chebyshev interpolant in t,
        # for e parallel, perpendicular and at random to w, against the
        # chain bound at r = |w|
        p = ProblemParams(n, k, alpha)
        rng = np.random.default_rng(order)
        for s in (0.05, 0.3, 1.0, 2.5):
            w = s * np.eye(n)[0]
            tilted = rng.normal(size=n)
            for e in (np.eye(n)[0], np.eye(n)[1], tilted / np.linalg.norm(tilted)):
                h = 0.25 * s
                cheb = np.polynomial.Chebyshev.interpolate(
                    lambda t: euclid.kernel_alpha_array(p, np.linalg.norm(w + np.outer(h * t, e), axis=1)),
                    30,
                )
                exact = cheb.deriv(order)(0.0) / h**order
                bound = torus._shell_bound(p, order, np.array([s]))[0]
                assert abs(exact) <= bound * (1 + 1e-6)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("n, k, alpha", [(3, 1, 1.0), (5, 2, 300.0)])
    def test_shell_bound_decays_at_the_kernel_rate(self, n, k, alpha, order):
        # the geometric closure of the tail needs B(r + L) <= e^{-sqrt(alpha) L} B(r)
        p = ProblemParams(n, k, alpha)
        r = np.linspace(0.5, 6.5, 13)
        bound = torus._shell_bound(p, order, r)
        assert np.all(bound[2:] <= math.exp(-p.sqrt_alpha) * bound[:-2] * (1 + 1e-12))
        # and the half-shell closure B(r + L/2) <= e^{-sqrt(alpha) L/2} B(r)
        assert np.all(bound[1:] <= math.exp(-0.5 * p.sqrt_alpha) * bound[:-1] * (1 + 1e-12))


class TestOrthantImageOffsets:
    """The one-sided image box of the orthant folds and its half-shell tail."""

    @pytest.mark.parametrize("tol", [1e-14, 1e-10])
    @pytest.mark.parametrize("n, k, alpha", [(3, 1, 2000.0), (3, 1, 50.0), (5, 2, 300.0), (4, 1, 500.0)])
    def test_tail_bounds_dropped_images(self, n, k, alpha, tol):
        # every image of a box two half-shells wider that the orthant box
        # drops, summed at the orthant corners v_a in {0, L/2} and at seeded
        # interior points; the box stays within the symmetric one
        p = ProblemParams(n, k, alpha)
        geom = torus.TorusGeometry(n, 1.0)
        offsets, tail = torus.orthant_image_offsets(p, geom, tol)
        m_max, _ = torus.image_radius(p, geom, tol)
        assert tail <= tol
        assert set(offsets) <= set(range(-m_max, m_max + 1))
        T = len(offsets)
        assert offsets == tuple(range(-(T // 2), (T - 1) // 2 + 1))
        wide = range(-((T + 2) // 2), (T + 1) // 2 + 1)
        dropped = np.array(
            [M for M in itertools.product(wide, repeat=n) if not set(M) <= set(offsets)], dtype=float
        )
        corners = 0.5 * np.array(list(itertools.product((0.0, 1.0), repeat=n)))
        interior = np.random.default_rng(n).uniform(0.0, 0.5, (8, n))
        for v in np.concatenate([corners, interior]):
            images = euclid.kernel_alpha_array(p, np.linalg.norm(v + dropped, axis=1))
            assert np.sum(images) <= tail

    @pytest.mark.parametrize(
        "n, k, alpha, tol, offsets",
        [(3, 1, 2000.0, 1e-14, (-1, 0)), (3, 1, 16000.0, 1e-14, (0,)), (3, 1, 500.0, 1e-14, (-1, 0, 1))],
    )
    def test_one_sided_boxes(self, n, k, alpha, tol, offsets):
        # 8, 1 and 27 shifts where the symmetric boxes hold 27, 27 and 125
        p = ProblemParams(n, k, alpha)
        assert torus.orthant_image_offsets(p, torus.TorusGeometry(n, 1.0), tol)[0] == offsets

    def test_budget_and_tolerance_as_image_radius(self):
        with pytest.raises(BudgetError):
            torus.orthant_image_offsets(ProblemParams(3, 1, 1e-6), G3, 1e-10)
        with pytest.raises(DomainError, match="tol"):
            torus.orthant_image_offsets(ProblemParams(3, 1, 100.0), G3, math.nan)


class TestDimensionChecks:
    P5 = ProblemParams(5, 2, 300.0)
    Y = np.array([0.15, 0.05, 0.0])

    def test_derivative_dimension_mismatch(self):
        with pytest.raises(DomainError):
            torus.green_derivative(self.P5, G3, np.zeros(3), self.Y, 1)

    def test_gradient_dimension_mismatch(self):
        with pytest.raises(DomainError):
            torus.green_gradient(self.P5, G3, np.zeros(3), self.Y)

    def test_product_derivative_dimension_mismatch(self):
        with pytest.raises(DomainError):
            torus.green_product_derivative(self.P5, G3, np.zeros(3), self.Y)

    def test_representation_mode_length(self):
        p = ProblemParams(3, 1, 2000.0)
        with pytest.raises(DomainError):
            torus.representation_check(p, G3, {(1, 0): 1.0}, np.zeros(3), grid=16)

    def test_spectral_solve_mode_length(self):
        with pytest.raises(DomainError):
            torus.solve_value_at(ProblemParams(3, 1, 2000.0), G3, {(1, 0): 1.0}, np.zeros(3))

    @pytest.mark.parametrize(
        "phi, x",
        [
            pytest.param({(1, 0, 0): 1.0}, np.zeros(2), id="short-point"),
            pytest.param({(1, 0, 0): 1.0}, np.zeros((1, 3)), id="matrix-point"),
            pytest.param({(0.5, 0, 0): 1.0}, np.zeros(3), id="fractional-mode"),
            pytest.param({1: 1.0}, np.zeros(3), id="scalar-mode"),
            pytest.param({}, np.zeros(3), id="empty-source"),
            pytest.param({(1, 0, 0): 1.0}, np.array([math.nan, 0.0, 0.0]), id="nan-point"),
            pytest.param({(1, 0, 0): math.inf}, np.zeros(3), id="inf-coefficient"),
        ],
    )
    def test_malformed_source_rejected(self, phi, x):
        p = ProblemParams(3, 1, 2000.0)
        with pytest.raises(DomainError):
            torus.solve_value_at(p, G3, phi, x)
        with pytest.raises(DomainError):
            torus.representation_check(p, G3, phi, x, grid=16)


class TestPsiEnvelopeOfDerivatives:
    def test_three_regime_derivative_bound(self):
        # |grad G| <= C (rate-0.9) three-regime shape with d^{-(n-2k+1)} near
        eps = 0.1
        p = ProblemParams(3, 1, 2000.0)
        for d in np.geomspace(0.01, 0.45, 12):
            val = torus.green_derivative(p, G3, np.zeros(3), np.array([d, 0, 0]), 1)
            t = p.sqrt_alpha * d
            if d >= 0.25:
                bound = math.exp(-(1 - eps) * p.sqrt_alpha * 0.25)
            elif t >= 1:
                bound = d**-2 * math.exp(-(1 - eps) * t)
            else:
                bound = d**-2
            assert val <= 1.0 * bound


@pytest.mark.slow
def test_k2_factorization_against_convolution():
    """G^(2) on the torus equals the periodised Euclidean self-convolution.

    The torus convolution of periodisations is the periodisation of the
    Euclidean convolution, evaluated here with the numerical convolution
    engine as the oracle at sampled pairs.
    """
    from polygreen.giraud import radial_convolve

    geom = torus.TorusGeometry(5, 1.0)
    alpha = 100.0
    p1 = ProblemParams(5, 1, alpha)
    p2 = ProblemParams(5, 2, alpha)
    kern = euclid.green_radial_kernel(p1)
    v = np.array([0.3, 0.1, 0.0, 0.0, 0.0])
    direct, _ = torus.green_lattice_sum(p2, geom, np.zeros(5), v, tol=1e-12)
    # the 243 images have only 29 distinct radii: convolve each once
    radii, counts = np.unique(
        np.linalg.norm(v + torus._lattice_box(5, 1) * geom.L, axis=1), return_counts=True
    )
    total = 0.0
    for r, count in zip(radii, counts):
        val, _ = radial_convolve(kern, kern, 5, float(r), tol=1e-9)
        total += count * val
    assert total == pytest.approx(direct, rel=1e-4)
