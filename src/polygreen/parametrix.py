"""Four-step parametrix construction for (Delta + alpha)^k on the flat torus.

Step 1 places the cutoff Euclidean kernel H = chi(d) G_alpha(d) at the base
point and computes the error field l = (Delta + alpha)^k H exactly: on the
flat torus the kernel solves the equation away from the pole, so l is
carried entirely by the cutoff derivatives and is supported in the annulus
tau0/2 <= d <= tau0 (machine zero outside, by construction).  Step 2 builds
the convolution iterates of -l up to depth N = floor(n/2) + 1 and the
correction layers against H; Step 3 solves the spectral remainder problem
for the final iterate; Step 4 assembles G = H + sum_i layer_i + u for
cross-validation against the lattice-sum oracle.

The iterates, layers and remainder are radial on R^n, with Fourier
transforms that are products of lhat and Hhat.  Those come from
semi-analytic radial quadrature (the error field is a sharp annulus shell
whose samples alias badly, while its radial transform is cheap at any
|xi|) through a Chebyshev interpolant in |xi| (``torus._radial_fourier``).
By Poisson summation a torus field is the periodisation of its R^n
profile, so each field is one table over the distinct integer |j|^2 of the
displacement grid's orthant: inverse radial transforms below N tau0, and
G_alpha beyond for the remainder (``run_pipeline``).

The error field itself comes from the closed radial operator algebra
``euclid.RadialTerms``: on the annulus every intermediate is a finite sum
q(u) r^{p} K_{m}(sqrt(alpha) r) with q polynomial in the scaled annulus
coordinate u = (r - tau0/2)/(tau0/2), and both d/dr and division by r keep
that form, so (Delta + alpha)^k applies exactly to chi G.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from . import euclid, torus
from .besselk import UNDERFLOW_ARG
from .cutoff import CutoffSpec, cutoff_for
from .errors import ConvergenceError, DomainError, PreconditionError
from .params import ProblemParams
from .torus import _radial_fourier, _sums_of_squares

ALIAS_FRACTION = 2.0 / 3.0
ALIAS_LIMIT = 1e-8
IMAGE_TOL = 1e-14  # certified absolute tail of u's image sum and of the lattice oracle


# ---------------------------------------------------------------------------
# Step 1: cutoff parametrix and its error field
# ---------------------------------------------------------------------------

def error_field_profile(
    params: ProblemParams, cutoff: CutoffSpec
) -> Callable[[np.ndarray], np.ndarray]:
    """Radial profile of l = (Delta + alpha)^k (chi G).

    Exactly zero off the annulus: inside tau0/2 the kernel solves the
    equation, beyond tau0 everything vanishes.  k <= 3 (the operator algebra
    is exact at any depth, but deeper orders leave the supported Bessel
    table).
    """
    if params.k > 3:
        raise DomainError("symbolic radial pipeline supports k <= 3")
    kernel = euclid.kernel_terms(params)
    chi = Polynomial([1.0]) - cutoff.step  # chi in the annulus variable u
    entries = {key: chi * q for key, q in kernel.entries.items()}
    expr = euclid.RadialTerms(entries, kernel.s, cutoff.half, cutoff.half)
    for _ in range(params.k):
        expr = expr.apply_operator(params.n, params.alpha)

    lo, hi = cutoff.half, cutoff.tau0

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        mask = (r > lo) & (r < hi)
        if np.any(mask):
            out[mask] = expr.evaluate(r[mask])
        return out

    return profile


@dataclass
class HProfile:
    """The cutoff kernel H(r) = chi(r) G_alpha(r) with its radial metadata."""

    params: ProblemParams
    cutoff: CutoffSpec

    def __call__(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        pos = (r > 0) & (r < self.cutoff.tau0)
        if np.any(pos):
            out[pos] = self.cutoff.chi(r[pos]) * euclid.kernel_alpha_array(
                self.params, r[pos]
            )
        return out

    def integral(self) -> float:
        """int_{R^n} H, by radial quadrature (equals the zero Fourier mode)."""
        return float(self.fourier(np.zeros(1))[0])

    def fourier(self, xi: np.ndarray) -> np.ndarray:
        """Hhat(|xi|) by semi-analytic radial quadrature.

        Never samples the d^{2k-n} spike on a grid; the radial integrand is
        chi G r^{n-1}, integrable and smooth.
        """
        return _radial_fourier(
            self.params.n,
            lambda r: self.cutoff.chi(r) * euclid.kernel_alpha_array(self.params, r),
            0.0,
            self.cutoff.tau0,
            xi,
        )


def build_H(
    params: ProblemParams, geometry: torus.TorusGeometry, cutoff: Optional[CutoffSpec] = None
) -> HProfile:
    """Cutoff parametrix profile; requires 1/sqrt(alpha) < tau0/2."""
    cut = cutoff if cutoff is not None else cutoff_for(geometry.n, params.k, geometry.L)
    if cut.tau0 >= geometry.injectivity_radius:
        raise PreconditionError(
            f"tau0 = {cut.tau0} must stay below the injectivity radius "
            f"{geometry.injectivity_radius}"
        )
    if not 1.0 / params.sqrt_alpha < cut.tau0 / 2.0:
        raise PreconditionError(
            f"precondition 1/sqrt(alpha) < tau0/2 violated: "
            f"1/sqrt({params.alpha}) = {1.0 / params.sqrt_alpha:.6g} >= {cut.tau0 / 2.0:.6g}"
        )
    return HProfile(params=params, cutoff=cut)


def error_field(
    params: ProblemParams,
    geometry: torus.TorusGeometry,
    cutoff: CutoffSpec,
    grid: int,
) -> np.ndarray:
    """l = (Delta + alpha)^k H_x on the orthant of the displacement grid around x.

    Shape (grid//2 + 1,)*n (``torus.sample_radial``).  Warns when fewer than
    4 grid cells span the annulus width tau0/2.
    """
    cells = (cutoff.tau0 - cutoff.half) / (geometry.L / grid)
    if cells < 4.0:
        warnings.warn(
            f"error-field annulus spans only {cells:.2f} grid cells; "
            "increase the grid for a faithful sampling",
            RuntimeWarning,
        )
    return torus.sample_radial(error_field_profile(params, cutoff), geometry, grid)


def error_field_fourier(
    params: ProblemParams, cutoff: CutoffSpec, xi: np.ndarray
) -> np.ndarray:
    """lhat(|xi|) by semi-analytic radial quadrature over the annulus."""
    profile = error_field_profile(params, cutoff)
    return _radial_fourier(params.n, profile, cutoff.half, cutoff.tau0, xi)


# ---------------------------------------------------------------------------
# Steps 2 to 4: iterates, layers and remainder from radial tables
# ---------------------------------------------------------------------------

@dataclass
class ParametrixState:
    """Assembled pipeline artifacts for one base point (translation covers all).

    The radial fields l, gammas, layers and u hold the orthant 0 <= j_a <= grid//2
    of the displacement grid, shape (grid//2 + 1,)*n; ``torus.unfold_orthant``
    gives the grid.
    """

    params: ProblemParams
    geometry: torus.TorusGeometry
    grid: int
    cutoff: CutoffSpec
    H: HProfile
    l: np.ndarray
    gammas: list
    layers: list
    u: np.ndarray
    N: int

    @property
    def gamma(self) -> np.ndarray:
        return self.gammas[-1]


def _field_profiles(h_profile: HProfile, depth: int, radii: np.ndarray, xi_max: float):
    """Gamma^2..Gamma^N, layers 1..N-1 and U = G_alpha * Gamma^N on R^n at the radii.

    One row each, the inverse transform of (-lhat)^i, (-lhat)^i Hhat or
    (-lhat)^N / (xi^2 + alpha)^k over xi <= xi_max: (2 pi)^{-n} times the
    stacked ``torus._radial_quadrature`` with r and xi exchanged.
    """
    params = h_profile.params

    def transforms(xi: np.ndarray) -> np.ndarray:
        lhat = error_field_fourier(params, h_profile.cutoff, xi)
        powers = [-lhat]
        for _ in range(depth - 1):
            powers.append(powers[-1] * (-lhat))
        hhat = h_profile.fourier(xi)
        remainder = powers[-1] / (xi * xi + params.alpha) ** params.k
        return np.stack(powers[1:] + [cur * hhat for cur in powers[:-1]] + [remainder])

    out = torus._radial_quadrature(params.n, transforms, 0.0, xi_max, radii, np.max(radii))
    return out * (2.0 * math.pi) ** -params.n


def run_pipeline(
    params: ProblemParams,
    geometry: torus.TorusGeometry,
    grid: int,
    cutoff: Optional[CutoffSpec] = None,
    alias_limit: float = ALIAS_LIMIT,
) -> ParametrixState:
    """Execute H -> l -> Gamma iterates -> layers -> gamma -> u.

    Each field is the periodisation of its R^n profile (Poisson summation):
    one table over the orthant's integer radii (L/grid) sqrt(Q).  Gamma^1 =
    -l is sampled.  Gamma^i and layer i-1 (i >= 2) vanish beyond i tau0 <
    L/2, so their tables hold ``_field_profiles`` below N tau0, transformed
    up to Xi = 2 pi grid sqrt(n) / L, zero beyond, gathered at offset 0.
    On R^n, H + sum layers + U = G_alpha, and H and the layers vanish beyond
    N tau0, so U's table holds G_alpha there, and u sums it over the image
    box of ``IMAGE_TOL`` (``torus._orthant_fold`` over the image shifts).

    The spectral-tail guard reads lhat over the grid's own cube of modes,
    |q_a| <= grid // 2, and at the default threshold refuses a grid that
    under-resolves the annulus.  ``alias_limit`` must lie in [0, 1]; 1 turns
    the guard off.
    """
    if not 0.0 <= alias_limit <= 1.0:
        raise DomainError(f"alias_limit must lie in [0, 1], got {alias_limit}")
    if grid < 2:
        raise DomainError(f"pipeline grid must be at least 2, got {grid}")
    n = geometry.n
    depth = n // 2 + 1  # 2N > n
    cut = cutoff if cutoff is not None else cutoff_for(n, params.k, geometry.L)
    if not cut.tau0 < geometry.injectivity_radius / (n + 2):
        raise PreconditionError(
            f"precondition tau0 < i_g/(n+2) violated: {cut.tau0} >= "
            f"{geometry.injectivity_radius / (n + 2):.6g}"
        )
    h_profile = build_H(params, geometry, cut)
    l_field = error_field(params, geometry, cut, grid)
    h = grid // 2
    sums = _sums_of_squares(n, h)
    lhat = error_field_fourier(params, cut, 2.0 * math.pi / geometry.L * np.sqrt(sums))

    # aliasing guard: the cube |q_a| <= grid // 2 holds counts[Q] modes of |q|^2 = Q
    counts = torus._cube_counts(n, h)[sums]
    above = sums > (ALIAS_FRACTION * (grid / 2.0)) ** 2
    for i in range(1, depth + 1):
        energy = counts * np.abs(lhat) ** (2 * i)
        tail = float(np.sum(energy[above]) / np.sum(energy))
        if tail > alias_limit:
            raise ConvergenceError(
                f"spectral tail of iterate {i} is {tail:.3e} of its energy above "
                f"2/3 Nyquist at grid {grid} (limit {alias_limit:g})",
                error_estimate=tail,
            )

    spacing = geometry.L / grid
    inner = sums[sums < (depth * cut.tau0 / spacing) ** 2]
    radii = spacing * np.sqrt(inner)
    profiles = _field_profiles(h_profile, depth, radii, 2.0 * math.pi * math.sqrt(n) / spacing)
    supports = cut.tau0 * np.tile(np.arange(2, depth + 1), 2)[:, None]  # Gamma^i, layer i-1
    tables = np.zeros((2 * depth - 2, n * h * h + 1))
    tables[:, inner] = np.where(radii > supports, 0.0, profiles[:-1])
    fields = torus._orthant_fold(tables, n, grid, (0,))
    m_max, _ = torus.image_radius(params, geometry, IMAGE_TOL)
    u_table = torus._radial_table(
        lambda r: euclid.kernel_alpha_array(params, r), geometry, grid, h + grid * m_max
    )
    u_table[inner] = profiles[-1]
    u = torus._orthant_fold([u_table], n, grid, range(-m_max, m_max + 1))[0]
    return ParametrixState(
        params=params,
        geometry=geometry,
        grid=grid,
        cutoff=cut,
        H=h_profile,
        l=l_field,
        gammas=[-l_field] + fields[: depth - 1],
        layers=fields[depth - 1 :],
        u=u,
        N=depth,
    )


@dataclass
class ComparisonReport:
    pairs: int
    max_rel_error: float
    worst: dict
    tolerance: float = 1e-2

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _draw_pairs(dist: np.ndarray, m: int, lo: float, hi: float, count: int, seed: int):
    """Grid indices (rows) of up to count seeded grid points in C order with lo <= |v| <= hi.

    ``dist`` is |v| on the orthant; only the boolean mask is unfolded.
    """
    candidates = np.flatnonzero(torus.unfold_orthant((dist >= lo) & (dist <= hi), m))
    take = min(count, len(candidates))
    if take < 1:
        raise DomainError(f"no pairs to compare: {count} requested of {len(candidates)}")
    picked = np.random.default_rng(seed).choice(candidates, size=take, replace=False)
    return np.stack(np.unravel_index(picked, (m,) * dist.ndim), axis=-1)


def assemble_and_compare(
    state: ParametrixState,
    n_pairs: int = 200,
    d_range: tuple[float, float] = (0.05, 0.45),
    tol: float = 1e-2,
    seed: int = 2024,
) -> ComparisonReport:
    """Compare H + layers + u against the lattice-sum oracle on grid pairs.

    Pairs are displacement grid points with distance in ``d_range`` and at
    least two grid spacings off the diagonal; the orthant fields are read
    at min(j, grid - j).  A tol outside (0, inf), or an oracle that
    underflows to 0, is a DomainError; a NaN score fails the comparison.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"need a finite tol > 0, got {tol}")
    geom = state.geometry
    m = state.grid
    dist = torus.sample_radial(lambda r: r, geom, m)
    chosen = _draw_pairs(dist, m, max(d_range[0], 2.0 * geom.L / m), d_range[1], n_pairs, seed)
    at = tuple(np.minimum(chosen, m - chosen).T)
    d = dist[at]
    approx = state.u[at] + state.H(d)
    for layer in state.layers:
        approx = approx + layer[at]
    displacements = torus.grid_coordinates(geom, m)[chosen]
    oracles = torus.green_lattice_sum_many(state.params, geom, displacements, tol=IMAGE_TOL)
    if np.any(oracles == 0.0):
        raise DomainError(
            f"lattice oracle underflows to 0 at d = {np.min(d[oracles == 0.0]):.6g}: "
            f"sqrt(alpha) d exceeds {UNDERFLOW_ARG:g}"
        )
    rel = np.abs(approx - oracles) / np.abs(oracles)
    i = int(np.argmax(rel))  # the first NaN, if any, so a NaN score fails
    worst = {
        "displacement": displacements[i].tolist(),
        "d": float(d[i]),
        "parametrix": float(approx[i]),
        "oracle": float(oracles[i]),
        "rel_error": float(rel[i]),
    }
    return ComparisonReport(len(chosen), worst["rel_error"], worst, tolerance=tol)
