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
coefficients are radial, hence tables indexed by the integer |q|^2, and
each field folds them onto the grid (every grid mode sums its aliases)
before one transform at the grid size, which gives the band-2 field at the
grid points.  The tables come from the Chebyshev interpolant of the radial
transforms in |xi| (``torus._radial_fourier``), so the quadrature runs at a
few hundred nodes, not at every distinct |q|^2.  The remainder u is solved
on the same coefficients, mode by mode.

The error field itself comes from the closed radial operator algebra
``euclid.RadialTerms``: on the annulus every intermediate is a finite sum
q(u) r^{p} K_{m}(sqrt(alpha) r) with q polynomial in the scaled annulus
coordinate u = (r - tau0/2)/(tau0/2), and both d/dr and division by r keep
that form, so (Delta + alpha)^k applies exactly to chi G.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from . import euclid, giraud, torus
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
    """Sample l = (Delta + alpha)^k H_x on the displacement grid around x.

    Warns when fewer than 4 grid cells span the annulus width tau0/2.
    """
    cells = (cutoff.tau0 - cutoff.half) / (geometry.L / grid)
    if cells < 4.0:
        warnings.warn(
            f"error-field annulus spans only {cells:.2f} grid cells; "
            "increase the grid for a faithful sampling",
            RuntimeWarning,
        )
    # l is radial and vanishes at 0, so it is sampled on the orthant and unfolded
    profile = error_field_profile(params, cutoff)
    return torus.unfold_orthant(torus.sample_radial(profile, geometry, grid), grid)


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
    """Assembled pipeline artifacts for one base point (translation covers all)."""

    params: ProblemParams
    geometry: torus.TorusGeometry
    grid: int
    cutoff: CutoffSpec
    H: HProfile
    l: np.ndarray  # fields on the displacement grid, shape (grid,)*n
    gammas: list
    layers: list
    u: np.ndarray
    N: int
    envelopes: list  # composed envelope specs of the iterates

    @property
    def gamma(self) -> np.ndarray:
        return self.gammas[-1]


def _alias_mode_norms(n: int, m: int, band: int) -> list[np.ndarray]:
    """|q|^2 of every alias q of the m-grid rfft modes in the band*m spectrum.

    Keeping every band-th sample of a field transformed at band*m equals
    transforming at m the coefficients summed over the band^n band*m-grid
    indices congruent to each m-grid index; one integer array per alias.
    """
    big = band * m
    freq_sq = np.fft.fftfreq(big, d=1.0 / big).astype(np.intp) ** 2
    layout = [np.arange(m)] * (n - 1) + [np.arange(m // 2 + 1)]
    aliases = []
    for shift in itertools.product(range(band), repeat=n):
        parts = [freq_sq[idx + m * t] for idx, t in zip(layout, shift)]
        aliases.append(sum(np.ix_(*parts)))
    return aliases


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
    band: int,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gamma iterates, layers and u at grid m from exact band*m coefficients.

    ``lhat`` and ``hhat`` are ``_coefficient_table``s of the band*m
    spectrum, |q_a| <= band*m // 2; folding a table onto the m-grid rfft
    layout and transforming at m gives the band*m field at every band-th
    sample.
    Layers are support-zeroed outside d > (i+1) tau0 where they vanish
    identically (support additivity), removing series ringing.
    """
    n = geometry.n
    L = geometry.L
    aliases = _alias_mode_norms(n, m, band)
    scale = (m / L) ** n

    def materialise(table: np.ndarray) -> np.ndarray:
        coef = sum(table[qsq] for qsq in aliases)
        return np.fft.irfftn(coef, s=(m,) * n, axes=tuple(range(n))) * scale

    dist = torus.displacement_distances(geometry, m)
    gammas = []
    layers = []
    cur = -lhat
    for i in range(1, depth + 1):
        gammas.append(materialise(cur))
        if i < depth:
            layer = materialise(cur * hhat)
            layer[dist > (i + 1) * cutoff.tau0] = 0.0
            layers.append(layer)
            cur = cur * (-lhat)
    mult = torus._multiplier(params, geometry, np.arange(len(lhat)))
    u_vals = materialise(cur / mult)
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
    those coefficients are folded onto the grid and transformed at the grid
    size, so grid values carry the wide-band accuracy while no transform or
    array exceeds the grid.  The spectral-tail guard reads the same l
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
        params, geometry, cut, lhat, hhat, grid, depth, EVAL_BAND
    )
    envelopes = giraud.iterate_error_envelope(
        n, params.k, Fraction(cut.tau0).limit_denominator(10**9), depth
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
        envelopes=envelopes,
    )


@dataclass
class ComparisonReport:
    pairs: int
    max_rel_error: float
    worst: Optional[dict]
    tolerance: float = 1e-2

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def assemble_and_compare(
    state: ParametrixState,
    n_pairs: int = 200,
    d_range: tuple[float, float] = (0.05, 0.45),
    tol: float = 1e-2,
    seed: int = 2024,
) -> ComparisonReport:
    """Compare H + layers + u against the lattice-sum oracle on grid pairs.

    Pairs are displacement grid points with distance in ``d_range`` and at
    least two grid spacings off the diagonal.
    """
    geom = state.geometry
    m = state.grid
    dist = torus.displacement_distances(geom, m)
    lo = max(d_range[0], 2.0 * geom.L / m)
    candidates = np.argwhere((dist >= lo) & (dist <= d_range[1]))
    take = min(n_pairs, len(candidates))
    if take < 1:
        raise DomainError(f"no pairs to compare: {n_pairs} requested of {len(candidates)}")
    rng = np.random.default_rng(seed)
    chosen = candidates[rng.choice(len(candidates), size=take, replace=False)]
    at = tuple(chosen.T)
    d = dist[at]
    approx = state.u[at] + state.H(d)
    for layer in state.layers:
        approx = approx + layer[at]
    coords = torus.grid_coordinates(geom, m)
    displacements = coords[chosen]
    oracles = torus.green_lattice_sum_many(state.params, geom, displacements, tol=1e-14)
    worst = None
    max_rel = 0.0
    for i, (got, oracle) in enumerate(zip(approx.tolist(), oracles.tolist())):
        rel = abs(got - oracle) / abs(oracle)
        if rel > max_rel:
            max_rel = rel
            worst = {
                "displacement": [float(v) for v in displacements[i]],
                "d": float(d[i]),
                "parametrix": got,
                "oracle": float(oracle),
                "rel_error": float(rel),
            }
    return ComparisonReport(pairs=take, max_rel_error=max_rel, worst=worst, tolerance=tol)
