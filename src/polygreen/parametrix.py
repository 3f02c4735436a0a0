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

H and l are ``euclid.RadialKernel``s, supported in tau0, with the
singular exponents 2k - n and 0 that ``giraud.radial_convolve`` reads.
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
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

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

def error_field_profile(params: ProblemParams, cutoff: CutoffSpec) -> euclid.RadialKernel:
    """l = (Delta + alpha)^k (chi G) as a radial kernel, bounded, supported in tau0.

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
    evaluator = euclid._masked(expr.evaluate, cutoff.half, cutoff.tau0)
    return euclid.RadialKernel(evaluator, sing_exp=0.0, support_radius=cutoff.tau0)


def build_H(
    params: ProblemParams, geometry: torus.TorusGeometry, cutoff: Optional[CutoffSpec] = None
) -> euclid.RadialKernel:
    """H = chi G_alpha (``euclid.parametrix_kernel``), ~ r^{2k-n} at 0, supported in tau0.

    Requires tau0 below the injectivity radius and 1/sqrt(alpha) < tau0/2.
    """
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
    return euclid.parametrix_kernel(params, cut)


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
    return _sample_error_field(error_field_profile(params, cutoff), geometry, cutoff, grid)


def _sample_error_field(profile, geometry: torus.TorusGeometry, cutoff: CutoffSpec, grid: int):
    """``error_field`` from a built ``error_field_profile``."""
    cells = (cutoff.tau0 - cutoff.half) / (geometry.L / grid)
    if cells < 4.0:
        warnings.warn(
            f"error-field annulus spans only {cells:.2f} grid cells; "
            "increase the grid for a faithful sampling",
            RuntimeWarning,
        )
    return torus.sample_radial(profile, geometry, grid)


# ---------------------------------------------------------------------------
# Steps 2 to 4: iterates, layers and remainder from radial tables
# ---------------------------------------------------------------------------

@dataclass
class ParametrixState:
    """Assembled pipeline artifacts for one base point (translation covers all).

    The radial fields gammas, layers and u hold the orthant 0 <= j_a <= grid//2
    of the displacement grid, shape (grid//2 + 1,)*n; ``torus.unfold_orthant``
    gives the grid.  The error field is held once, as Gamma^1 = -l.
    """

    params: ProblemParams
    geometry: torus.TorusGeometry
    grid: int
    cutoff: CutoffSpec
    H: euclid.RadialKernel
    gammas: list
    layers: list
    u: np.ndarray
    N: int

    @property
    def gamma(self) -> np.ndarray:
        return self.gammas[-1]

    @property
    def l(self) -> np.ndarray:
        """The error field l = -Gamma^1, a new array per read."""
        return -self.gammas[0]


def _field_profiles(
    params: ProblemParams,
    cut: CutoffSpec,
    h: euclid.RadialKernel,
    l: euclid.RadialKernel,
    depth: int,
    radii: np.ndarray,
    xi_max: float,
) -> np.ndarray:
    """Gamma^2..Gamma^N, layers 1..N-1 and U = G_alpha * Gamma^N on R^n at the radii.

    One row each, the inverse transform of (-lhat)^i, (-lhat)^i Hhat or
    (-lhat)^N / (xi^2 + alpha)^k over xi <= xi_max: (2 pi)^{-n} times the
    stacked ``torus._radial_quadrature`` with r and xi exchanged.  lhat and
    Hhat are the radial transforms of l over the annulus and of H over
    [0, tau0] (``torus._radial_fourier``).
    """

    def transforms(xi: np.ndarray) -> np.ndarray:
        lhat = _radial_fourier(params.n, l, cut.half, cut.tau0, xi)
        powers = [-lhat]
        for _ in range(depth - 1):
            powers.append(powers[-1] * (-lhat))
        hhat = _radial_fourier(params.n, h, 0.0, cut.tau0, xi)
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
    -l is sampled and negated in place, the one array of the error field.
    Gamma^i and layer i-1 (i >= 2) vanish beyond i tau0 < L/2, so their
    tables hold ``_field_profiles`` below N tau0, transformed up to
    Xi = 2 pi grid sqrt(n) / L, zero beyond, gathered at offset 0.
    On R^n, H + sum layers + U = G_alpha, and H and the layers vanish beyond
    N tau0, so U's table holds G_alpha there, and u folds it over the orthant's
    image box of tail ``IMAGE_TOL`` (``torus.orthant_image_offsets``).

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
    l_profile = error_field_profile(params, cut)  # one symbolic build for the three readers
    gamma1 = _sample_error_field(l_profile, geometry, cut, grid)
    np.negative(gamma1, out=gamma1)
    h = grid // 2
    sums = _sums_of_squares(n, h)
    lhat = _radial_fourier(n, l_profile, cut.half, cut.tau0, 2 * math.pi / geometry.L * np.sqrt(sums))

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
    profiles = _field_profiles(
        params, cut, h_profile, l_profile, depth, radii, 2 * math.pi * math.sqrt(n) / spacing
    )
    # u first: its fold's per-shift index and gather are freed before the other fields exist
    offsets, _ = torus.orthant_image_offsets(params, geometry, IMAGE_TOL)
    u_table = torus._radial_table(lambda r: euclid.kernel_alpha_array(params, r), geometry, grid, offsets)
    u_table[inner] = profiles[-1]
    u = torus._orthant_fold([u_table], n, grid, offsets)[0]
    supports = cut.tau0 * np.tile(np.arange(2, depth + 1), 2)[:, None]  # Gamma^i, layer i-1
    tables = np.zeros((2 * depth - 2, n * h * h + 1))
    tables[:, inner] = np.where(radii > supports, 0.0, profiles[:-1])
    fields = torus._orthant_fold(tables, n, grid, (0,))
    return ParametrixState(
        params=params,
        geometry=geometry,
        grid=grid,
        cutoff=cut,
        H=h_profile,
        gammas=[gamma1] + fields[: depth - 1],
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


def _draw_pairs(mask: np.ndarray, m: int, count: int, seed: int) -> np.ndarray:
    """Grid indices (rows) of up to count seeded candidates of the m-grid, in C order.

    ``mask`` marks them on the orthant, where grid index j reads cell
    min(j, m - j).  ``within[a]`` counts the grid's candidates under each
    orthant prefix of length a, and cumulative counts map the seeded ranks
    to rows axis by axis: the rows of ``choice`` over the unfolded mask's
    candidates, which indexes them by ``choice(total)``, with no grid array.
    """
    fold = np.minimum(np.arange(m), m - np.arange(m))
    within = [mask]
    for _ in range(mask.ndim):
        within.insert(0, within[0][..., fold].sum(axis=-1))
    total = int(within[0])
    take = min(count, total)
    if take < 1:
        raise DomainError(f"no pairs to compare: {count} requested of {total}")
    ranks = np.random.default_rng(seed).choice(total, size=take, replace=False)
    rows = np.empty((take, mask.ndim), dtype=np.intp)
    cells = ()
    for a in range(mask.ndim):
        sizes = np.broadcast_to(within[a + 1][cells][..., fold], (take, m))
        ends = np.cumsum(sizes, axis=1)
        rows[:, a] = np.count_nonzero(ends <= ranks[:, None], axis=1)
        ranks = ranks - (ends - sizes)[np.arange(take), rows[:, a]]
        cells += (fold[rows[:, a]],)
    return rows


def assemble_and_compare(
    state: ParametrixState,
    n_pairs: int = 200,
    d_range: tuple[float, float] = (0.05, 0.45),
    tol: float = 1e-2,
    seed: int = 2024,
) -> ComparisonReport:
    """Compare H + layers + u against the lattice-sum oracle on grid pairs.

    Pairs are displacement grid points with distance in ``d_range`` and at
    least two grid spacings off the diagonal, drawn from the radius table's
    mask gathered on the orthant; the orthant fields are read at
    min(j, grid - j).  A tol outside (0, inf), a seed that is not a
    nonnegative integer, a pair count that is not an integer, or an oracle
    that underflows to 0, is a DomainError; a NaN score fails the comparison.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"need a finite tol > 0, got {tol}")
    torus.check_seed(seed)
    if not isinstance(n_pairs, numbers.Integral):
        raise DomainError(f"pair count must be an integer, got {n_pairs}")
    geom = state.geometry
    m = state.grid
    radii = torus._radial_table(lambda r: r, geom, m, (0,))
    lo, hi = max(d_range[0], 2.0 * geom.L / m), d_range[1]
    mask = torus._orthant_fold([(radii >= lo) & (radii <= hi)], geom.n, m, (0,))[0]
    chosen = _draw_pairs(mask, m, n_pairs, seed)
    cells = np.minimum(chosen, m - chosen)
    at = tuple(cells.T)
    d = radii[np.sum(cells * cells, axis=1)]
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
