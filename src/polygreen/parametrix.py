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

The convolutions work with exact Fourier coefficients of l, computed by
semi-analytic radial quadrature exactly like Hhat (the error field is a
sharp annulus shell whose pointwise samples alias badly, while its radial
Fourier transform is cheap at any band), so the convolution theorem applies
without discretisation error.  Fields carry twice the grid's band: the
coefficients are radial, hence tables indexed by the integer |q|^2; each
field folds them onto the orthant 0 <= q_a <= grid//2 of the grid's modes
(every mode sums its aliases), where one cosine transform per axis gives
the band-2 field on the orthant of the displacement grid, with no FFT.
The tables come from the Chebyshev interpolant of the radial transforms in
|xi| (``torus._radial_fourier``), so the quadrature runs at a few hundred
nodes, not at every distinct |q|^2.  The remainder u is solved on the same
coefficients, mode by mode.

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
EVAL_BAND = 2  # coefficient band, in grid bands, that each field is folded from


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
# Steps 2 to 4: iterates, layers and remainder from exact coefficients
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


def _coefficient_table(
    transform: Callable[[np.ndarray], np.ndarray], geometry: torus.TorusGeometry, h: int
) -> np.ndarray:
    """A radial transform at |xi| = 2 pi |q| / L, indexed by the integer |q|^2 over |q_a| <= h."""
    sums = _sums_of_squares(geometry.n, h)
    table = np.zeros(sums[-1] + 1)
    table[sums] = transform(2.0 * math.pi / geometry.L * np.sqrt(sums))
    return table


def _fields_from_coefficients(
    params: ProblemParams,
    geometry: torus.TorusGeometry,
    cutoff: CutoffSpec,
    lhat: np.ndarray,
    hhat: np.ndarray,
    m: int,
    depth: int,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gamma iterates, layers and u at grid m from exact EVAL_BAND*m coefficients.

    ``lhat`` and ``hhat`` are ``_coefficient_table``s of the band*m
    spectrum, |q_a| <= band*m // 2.  Every band-th sample of the band*m
    field is the m-grid transform of the coefficients folded onto the
    m-grid's modes, each summing its band^n aliases q + m t in the band*m
    spectrum (``torus._orthant_fold`` over the offsets t = 0, -1 at band 2).
    The aliases of q and m - q have the same squares, so the fold is even
    in each index and kept on the orthant 0 <= q_a <= m//2, where the
    inverse DFT is C[j, q] = w_q cos(2 pi (j q mod m) / m) per axis; every
    field comes back on the orthant of the displacement grid.
    Layers are support-zeroed outside d > (i+1) tau0 where they vanish
    identically (support additivity), removing series ringing.
    """
    n = geometry.n
    cosines = torus._mirror_cosines(np.arange(m // 2 + 1), m)  # [j, q]
    iterates = [-lhat]
    for _ in range(depth - 1):
        iterates.append(iterates[-1] * (-lhat))
    mult = torus._multiplier(params, geometry, np.arange(len(lhat)))
    tables = iterates + [cur * hhat for cur in iterates[:-1]] + [iterates[-1] / mult]
    offsets = [t if 2 * t < EVAL_BAND else t - EVAL_BAND for t in range(EVAL_BAND)]
    fields = []
    for field in torus._orthant_fold(tables, n, m, offsets):
        for _ in range(n):  # contract the leading mode axis, append its grid axis
            field = np.tensordot(field, cosines, axes=(0, 1))
        fields.append(field * geometry.L ** -n)
    gammas, layers, u_vals = fields[:depth], fields[depth:-1], fields[-1]
    dist = torus.sample_radial(lambda r: r, geometry, m)
    for i, layer in enumerate(layers, start=1):
        layer[dist > (i + 1) * cutoff.tau0] = 0.0
    return gammas, layers, u_vals


def run_pipeline(
    params: ProblemParams,
    geometry: torus.TorusGeometry,
    grid: int,
    cutoff: Optional[CutoffSpec] = None,
    alias_limit: float = ALIAS_LIMIT,
) -> ParametrixState:
    """Execute H -> l -> Gamma iterates -> layers -> gamma -> u.

    Convolutions use exact semi-analytic Fourier coefficients of l (no
    sampling aliasing) over ``EVAL_BAND`` times the band of the pipeline grid;
    those coefficients are folded onto the orthant of the grid's modes and
    transformed there, so grid values carry the wide-band accuracy while no
    array exceeds the orthant.  The spectral-tail guard reads the same l
    coefficients over the grid's own cube of modes, |q_a| <= grid // 2:
    at the default threshold a grid that under-resolves the annulus is
    refused.
    """
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
    h = (EVAL_BAND * grid) // 2
    lhat = _coefficient_table(lambda xi: error_field_fourier(params, cut, xi), geometry, h)

    # aliasing guard: the cube |q_a| <= grid // 2 holds counts[Q] modes of |q|^2 = Q
    counts = torus._cube_counts(n, grid // 2)
    band = np.arange(len(counts)) <= (ALIAS_FRACTION * (grid / 2.0)) ** 2
    for i in range(1, depth + 1):
        energy = counts * np.abs(lhat[: len(counts)]) ** (2 * i)
        tail = float(np.sum(energy[~band]) / np.sum(energy))
        if tail > alias_limit:
            raise ConvergenceError(
                f"spectral tail of iterate {i} is {tail:.3e} of its energy above "
                f"2/3 Nyquist at grid {grid} (limit {alias_limit:g})",
                error_estimate=tail,
            )

    hhat = _coefficient_table(h_profile.fourier, geometry, h)
    gammas, layers, u = _fields_from_coefficients(
        params, geometry, cut, lhat, hhat, grid, depth
    )
    return ParametrixState(
        params=params,
        geometry=geometry,
        grid=grid,
        cutoff=cut,
        H=h_profile,
        l=l_field,
        gammas=gammas,
        layers=layers,
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
    oracles = torus.green_lattice_sum_many(state.params, geom, displacements, tol=1e-14)
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
