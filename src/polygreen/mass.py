"""Mass of (Delta + alpha)^k on the torus in dimension n = 2k + 1.

In the odd critical dimension the Green's function splits as
G(x, y) = c_{n,k} d(x,y)^{-1} + mu_x(y) with mu continuous up to the
diagonal; the mass is mu_x(x).  On the torus it decomposes into the
Euclidean diagonal remainder lim_{r->0} (G_alpha(r) - c_{n,k}/r), which
equals -c_{n,k} sqrt(alpha) exactly for every n = 2k+1 (the kernel is
elementary there), plus the lattice images sum_{m != 0} G_alpha(|L m|),
which is exponentially small.  The mass therefore diverges like
-sqrt(alpha), bracketed by the sweep below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import euclid, torus
from .errors import DomainError
from .params import ProblemParams


def stabilization_threshold(geometry: torus.TorusGeometry) -> float:
    """alpha >= (10/L)^2 keeps the image sum below ~1e-4 of the diagonal term."""
    return (10.0 / geometry.L) ** 2


def euclid_remainder_at_zero(params: ProblemParams) -> float:
    """lim_{r->0} (G_alpha(r) - c_{n,k} r^{2k-n}) for n = 2k + 1.

    Computed by four levels of Richardson extrapolation of the difference at
    the geometric radii r_j = 2^{-j}/sqrt(alpha), j = 4..10; the closed form
    of the kernel in odd critical dimension makes -c_{n,k} sqrt(alpha) the
    exact answer, which the test suite uses as the oracle.
    """
    if params.n != 2 * params.k + 1:
        raise DomainError(
            f"mass defined for n = 2k + 1, got n={params.n}, k={params.k}"
        )
    c = euclid.c_nk(params.n, params.k)
    gap = params.n - 2 * params.k  # = 1
    js = np.arange(4, 11)
    radii = 2.0 ** (-js) / params.sqrt_alpha
    vals = euclid.kernel_alpha_array(params, radii) - c * radii ** (-gap)
    # Richardson with step ratio 2: entry j uses the smaller radius (j+1)
    table = vals.astype(float)
    for m in range(1, 5):
        table = (2.0**m * table[1:] - table[:-1]) / (2.0**m - 1.0)
    return float(table[-1])


def torus_mass(params: ProblemParams, geometry: torus.TorusGeometry) -> float:
    """mu_x(x) = Euclidean diagonal remainder + nonzero lattice images.

    The images are summed to a certified tail of 1e-12; translation
    invariance makes the result independent of the base point x.
    """
    if params.n != 2 * params.k + 1:
        raise DomainError(
            f"mass defined for n = 2k + 1, got n={params.n}, k={params.k}"
        )
    torus.check_dimensions(params, geometry)
    images, _ = torus._image_sum(params, geometry, np.zeros((1, geometry.n)), 1e-12)
    return euclid_remainder_at_zero(params) + float(images[0])


@dataclass
class MassReport:
    """Sweep of the mass over an alpha ladder with the sqrt-growth bracket."""

    alphas: list
    mu: list
    scaled: list  # -mu / sqrt(alpha)
    bracket: tuple  # (C1, C2) = (min, max) of the scaled values

    @property
    def passed(self) -> bool:
        return all(s > 0 for s in self.scaled)

    def rows(self) -> list[dict]:
        return [
            {"alpha": a, "mu": m, "scaled": s}
            for a, m, s in zip(self.alphas, self.mu, self.scaled)
        ]


def mass_sweep(
    params_base: ProblemParams,
    geometry: torus.TorusGeometry,
    alpha_list: Sequence[float],
) -> MassReport:
    """Fit the bracket C1 sqrt(alpha) <= -mu <= C2 sqrt(alpha) over the ladder.

    Alphas must sit above the stabilization threshold (10/L)^2; a
    nonpositive -mu anywhere in range is a verification failure surfaced
    through ``passed``.
    """
    thresh = stabilization_threshold(geometry)
    for a in alpha_list:
        if a < thresh:
            raise DomainError(
                f"alpha={a} below the stabilization threshold {thresh:g}"
            )
    alphas = [float(a) for a in alpha_list]
    mus = []
    scaled = []
    for a in alphas:
        p = ProblemParams(params_base.n, params_base.k, a)
        mu = torus_mass(p, geometry)
        mus.append(mu)
        scaled.append(-mu / math.sqrt(a))
    bracket = (min(scaled), max(scaled))
    return MassReport(alphas=alphas, mu=mus, scaled=scaled, bracket=bracket)
