"""Green's functions of the polyharmonic operators (Delta + alpha)^k.

Euclidean closed-form Bessel kernels with exact radial derivatives, a
rational-exponent calculus for two-regime decay envelopes under
convolution, the torus Green's function by certified lattice summation and
spectral solves, the cutoff-parametrix pipeline, and the diverging-mass law
in odd critical dimension.
"""

from .params import ProblemParams
from .besselk import gamma_fn
from .euclid import (
    RadialKernel,
    c_nk,
    eta,
    euclid_remainder_at_zero,
    green_radial_kernel,
    kernel_alpha,
    kernel_alpha_array,
    kernel_closed_form,
    kernel_radial_derivative,
    remainder_ratio,
)
from .giraud import (
    EnvelopeSpec,
    NearRegime,
    compatibility_check,
    compose_alpha,
    compose_euclid,
    compose_psi,
    psi_value,
    radial_convolve,
)
from .cutoff import CutoffSpec, auto_tau0
from .torus import (
    TorusGeometry,
    green_lattice_sum,
    representation_check,
    symmetry_positivity_scan,
    torus_distance,
)
from .parametrix import ParametrixState, build_H, error_field, run_pipeline
from .mass import MassReport, mass_sweep, torus_mass

__version__ = "0.1.0"

__all__ = [
    "CutoffSpec",
    "EnvelopeSpec",
    "MassReport",
    "NearRegime",
    "ParametrixState",
    "ProblemParams",
    "RadialKernel",
    "TorusGeometry",
    "auto_tau0",
    "build_H",
    "c_nk",
    "compatibility_check",
    "compose_alpha",
    "compose_euclid",
    "compose_psi",
    "error_field",
    "eta",
    "euclid_remainder_at_zero",
    "gamma_fn",
    "green_lattice_sum",
    "green_radial_kernel",
    "kernel_alpha",
    "kernel_alpha_array",
    "kernel_closed_form",
    "kernel_radial_derivative",
    "mass_sweep",
    "psi_value",
    "radial_convolve",
    "remainder_ratio",
    "representation_check",
    "run_pipeline",
    "symmetry_positivity_scan",
    "torus_distance",
    "torus_mass",
]
