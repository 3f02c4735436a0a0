"""Mass extraction tests: the exact diagonal remainder -c_{n,k} sqrt(alpha)
against a numerical extrapolation, the frozen truncated-image oracles, and
the sqrt-growth bracket."""

import math

import numpy as np
import pytest

from polygreen import euclid, mass
from polygreen.errors import BudgetError, DomainError
from polygreen.params import ProblemParams
from polygreen.torus import TorusGeometry

PI = math.pi
G3 = TorusGeometry(3, 1.0)

# truncated image sums at radius 6, frozen from a 40-digit evaluation
MASS_ORACLE = {
    100.0: -0.79575253978439877,
    1000.0: -2.5164606052243429,
    10000.0: -7.9577471545947668,
}


def richardson_remainder(params: ProblemParams) -> float:
    """lim_{r->0} (G_alpha(r) - c_{n,k} / r) from kernel values alone.

    Four levels of Richardson extrapolation of the difference at the
    geometric radii r_j = 2^{-j} / sqrt(alpha), j = 4..10: the closed-form
    kernel's numerical oracle for the exact limit.
    """
    c = euclid.c_nk(params.n, params.k)
    radii = 2.0 ** -np.arange(4, 11) / params.sqrt_alpha
    table = euclid.kernel_alpha_array(params, radii) - c / radii
    # step ratio 2: entry j uses the smaller radius (j + 1)
    for m in range(1, 5):
        table = (2.0**m * table[1:] - table[:-1]) / (2.0**m - 1.0)
    return float(table[-1])


class TestEuclidRemainder:
    def test_yukawa_alpha100(self):
        got = euclid.euclid_remainder_at_zero(ProblemParams(3, 1, 100.0))
        assert got == pytest.approx(-10.0 / (4 * PI), abs=1e-9)

    def test_yukawa_alpha1(self):
        got = euclid.euclid_remainder_at_zero(ProblemParams(3, 1, 1.0))
        assert got == pytest.approx(-1.0 / (4 * PI), abs=1e-11)

    def test_n5k2(self):
        got = euclid.euclid_remainder_at_zero(ProblemParams(5, 2, 1.0))
        assert got == pytest.approx(-1.0 / (16 * PI**2), abs=1e-11)

    @pytest.mark.parametrize("alpha", [1.0, 100.0, 1000.0, 10000.0])
    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3)])
    def test_matches_richardson_extrapolation(self, n, k, alpha):
        # largest measured gap 9.0e-13 relative
        p = ProblemParams(n, k, alpha)
        exact = euclid.euclid_remainder_at_zero(p)
        assert richardson_remainder(p) == pytest.approx(exact, rel=1e-11)

    def test_requires_critical_dimension(self):
        with pytest.raises(DomainError):
            euclid.euclid_remainder_at_zero(ProblemParams(4, 1, 1.0))
        with pytest.raises(DomainError):
            mass.torus_mass(ProblemParams(4, 1, 100.0), TorusGeometry(4, 1.0))


class TestTorusMass:
    @pytest.mark.parametrize("alpha,expected", sorted(MASS_ORACLE.items()))
    def test_oracle_values(self, alpha, expected):
        got = mass.torus_mass(ProblemParams(3, 1, alpha), G3)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_scaled_limit(self):
        # -mu 4 pi / sqrt(alpha) -> 1; deviation ~ 2.7e-5 at alpha = 100
        mu = mass.torus_mass(ProblemParams(3, 1, 100.0), G3)
        assert -mu * 4 * PI / 10.0 == pytest.approx(1.0 - 2.787e-5, abs=2e-6)

    def test_budget_exhaustion_is_typed(self):
        with pytest.raises(BudgetError):
            mass.torus_mass(ProblemParams(3, 1, 1e-6), G3)

    def test_image_contribution_exponentially_small(self):
        # the lattice part of mu is O(e^{-sqrt(alpha) L}); computed directly
        # since it underflows the diagonal term's rounding for large alpha
        import numpy as np

        from polygreen import euclid, torus

        for alpha in (100.0, 400.0, 1600.0):
            p = ProblemParams(3, 1, alpha)
            shifts = G3.L * torus._lattice_box(3, 4)
            radii = np.linalg.norm(shifts, axis=1)
            images = float(np.sum(euclid.kernel_alpha_array(p, radii[radii > 0])))
            assert 0 < images <= 10.0 * math.exp(-math.sqrt(alpha) * G3.L)


class TestMassSweep:
    def test_bracket_n3(self):
        rep = mass.mass_sweep(ProblemParams(3, 1, 100.0), G3, [100.0, 1000.0, 10000.0])
        assert rep.passed
        lo, hi = rep.bracket
        assert 1.0 / (4 * PI) * (1 - 1e-4) <= lo <= hi <= 1.0 / (4 * PI) * (1 + 1e-12)

    def test_monotone_convergence(self):
        rep = mass.mass_sweep(ProblemParams(3, 1, 100.0), G3, [100.0, 1000.0, 10000.0])
        target = 1.0 / (4 * PI)
        gaps = [abs(s - target) for s in rep.scaled]
        assert gaps[0] >= gaps[1] >= gaps[2] - 1e-6

    def test_bracket_shrinks_with_larger_minimum(self):
        wide = mass.mass_sweep(ProblemParams(3, 1, 100.0), G3, [100.0, 10000.0])
        narrow = mass.mass_sweep(ProblemParams(3, 1, 100.0), G3, [1000.0, 10000.0])
        assert (narrow.bracket[1] - narrow.bracket[0]) <= (wide.bracket[1] - wide.bracket[0])

    def test_single_alpha_degenerate(self):
        rep = mass.mass_sweep(ProblemParams(3, 1, 400.0), G3, [400.0])
        assert rep.bracket[0] == rep.bracket[1]

    def test_n5_k2_positive_and_stable(self):
        g5 = TorusGeometry(5, 1.0)
        rep = mass.mass_sweep(ProblemParams(5, 2, 100.0), g5, [100.0, 1000.0])
        assert rep.passed
        lo, hi = rep.bracket
        assert (hi - lo) / hi < 0.05

    def test_threshold_enforced(self):
        with pytest.raises(DomainError):
            mass.mass_sweep(ProblemParams(3, 1, 100.0), G3, [50.0, 1000.0])
