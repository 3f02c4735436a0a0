"""Mass of (Delta + alpha)^k on the torus in dimension n = 2k + 1.

In the odd critical dimension the Green's function splits as
G(x, y) = c_{n,k} d(x,y)^{-1} + mu_x(y) with mu continuous up to the
diagonal; the mass is mu_x(x).  On the torus it decomposes into the
Euclidean diagonal remainder lim_{r->0} (G_alpha(r) - c_{n,k}/r), which
equals -c_{n,k} sqrt(alpha) exactly for every n = 2k+1 (the kernel is
c_{n,k} e^{-sqrt(alpha) r}/r there; ``euclid.euclid_remainder_at_zero``),
plus the lattice images sum_{m != 0} G_alpha(|L m|),
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


def torus_mass(params: ProblemParams, geometry: torus.TorusGeometry) -> float:
    """mu_x(x) = Euclidean diagonal remainder + nonzero lattice images.

    The images are summed to a certified tail of 1e-12; translation
    invariance makes the result independent of the base point x.
    """
    remainder = euclid.euclid_remainder_at_zero(params)
    torus.check_dimensions(params, geometry)
    images, _ = torus._image_sum(params, geometry, np.zeros((1, geometry.n)), 1e-12)
    return remainder + float(images[0])


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
