"""Two-regime decay envelopes and their exact behaviour under convolution.

An envelope bounds a kernel X by

    |X| <= d^{beta - n}                                  sqrt(alpha) d <= 1
    |X| <= alpha^p d^rho e^{-rate sqrt(alpha) d}         sqrt(alpha) d >= 1
    X = 0                                                d >= support

with beta in (0, n], rho > -n, p >= 0.  Convolving two such kernels yields
another envelope of the same family; the near regime follows the trichotomy
in beta + gamma vs n (power / log / alpha-power) and the far regime has
alpha-power n - (beta+gamma)/2 + (rho+nu)/2 and r-power rho + nu + n.  All
exponent arithmetic is exact rational arithmetic so the regime
classification never suffers floating ties.

The compatibility predicate 2p - rho <= n - beta expresses that the two
regimes of an envelope meet (up to order of magnitude) at d ~ 1/sqrt(alpha);
the composition rules are valid only under it.

The module also houses the numerical radial-convolution engine used to
check composed envelopes against actual kernels, and the Psi comparison
envelope (bounded near, rate-(1-eps) exponential middle, saturated beyond
half the injectivity radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EstimateNotApplicableError,
)
from .euclid import RadialKernel, sphere_area
from .torus import gauss_legendre

FractionLike = Fraction | int | str


def _frac(x: FractionLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class NearRegime:
    """Near-diagonal regime of an envelope.

    kind "power" bounds by d^{beta-n}; "log" by 1 + |log(sqrt(alpha) d)|;
    "const" by 1; "const_alpha" by alpha^{alpha_exp}.
    """

    kind: str
    beta: Optional[Fraction] = None
    alpha_exp: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in ("power", "log", "const", "const_alpha"):
            raise DomainError(f"unknown near-regime kind {self.kind!r}")
        if self.kind == "power" and self.beta is None:
            raise DomainError("power near regime requires beta")
        if self.kind == "const_alpha" and self.alpha_exp is None:
            raise DomainError("const_alpha near regime requires alpha_exp")


@dataclass(frozen=True)
class EnvelopeSpec:
    """Two-regime bound: near regime, far (p, rho, rate), support radius."""

    near: NearRegime
    p: Fraction
    rho: Fraction
    rate: Fraction = Fraction(1)
    support: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        if self.near.kind == "power":
            near = str(self.near.beta)
        elif self.near.kind == "const_alpha":
            near = {"const_alpha": str(self.near.alpha_exp)}
        else:
            near = self.near.kind
        return {
            "beta": near,
            "p": str(self.p),
            "rho": str(self.rho),
            "rate": str(self.rate),
            "support": None if self.support is None else str(self.support),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "EnvelopeSpec":
        """Inverse of ``to_json_dict``; DomainError names a missing or malformed key."""
        if not isinstance(d, dict) or "beta" not in d:
            raise DomainError(f"envelope must be a JSON object with the key 'beta', got {d!r}")
        raw = d["beta"]
        if isinstance(raw, dict):
            near = NearRegime("const_alpha", alpha_exp=_fraction_at(raw, "const_alpha"))
        elif raw in ("log", "const"):
            near = NearRegime(raw)
        else:
            near = NearRegime("power", beta=_fraction_at(d, "beta"))
        return EnvelopeSpec(
            near=near,
            p=_fraction_at(d, "p"),
            rho=_fraction_at(d, "rho"),
            rate=_fraction_at(d, "rate", 1),
            support=None if d.get("support") is None else _fraction_at(d, "support"),
        )


def _fraction_at(d: dict, key: str, default: Optional[int] = None) -> Fraction:
    """Fraction(d[key]), or the default when the key is absent; DomainError names the key."""
    if key not in d and default is None:
        raise DomainError(f"envelope is missing the key {key!r} in {d!r}")
    try:
        return Fraction(d.get(key, default))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"envelope key {key!r} is not a fraction: {d[key]!r}") from None


def power_envelope(
    beta: FractionLike,
    p: FractionLike,
    rho: FractionLike,
    support: Optional[FractionLike] = None,
) -> EnvelopeSpec:
    """Envelope with a plain power near regime d^{beta-n}."""
    beta = _frac(beta)
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    return EnvelopeSpec(
        near=NearRegime("power", beta=beta),
        p=_frac(p),
        rho=_frac(rho),
        support=None if support is None else _frac(support),
    )


def kernel_far_envelope(n: int, k: int) -> EnvelopeSpec:
    """Two-regime envelope of the Euclidean kernel of (Delta+alpha)^k."""
    return power_envelope(
        beta=2 * k,
        p=Fraction(k * (n - 3), 4),
        rho=Fraction((k - 2) * n + k, 2),
    )


def error_field_envelope(n: int, k: int, tau0: FractionLike) -> EnvelopeSpec:
    """Envelope of the parametrix error field: beta = 2, far alpha^{k(n+1)/4} d^{((k-2)n+k+4)/2}."""
    return power_envelope(
        beta=2,
        p=Fraction(k * (n + 1), 4),
        rho=Fraction((k - 2) * n + k + 4, 2),
        support=tau0,
    )


def _validate_power_input(spec: EnvelopeSpec, n: int, name: str) -> None:
    if spec.near.kind != "power":
        raise EstimateNotApplicableError(
            f"{name}: composition requires a power near regime, got {spec.near.kind}",
            failed_inequality="near regime is a power",
        )
    if not 0 < spec.near.beta <= n:
        raise DomainError(f"{name}: need beta in (0, n], got beta={spec.near.beta}, n={n}")
    if spec.rho <= -n:
        raise DomainError(f"{name}: need rho > -n, got rho={spec.rho}, n={n}")
    if spec.p < 0:
        raise DomainError(f"{name}: need p >= 0, got {spec.p}")


def compatibility_check(spec: EnvelopeSpec, n: int) -> tuple[bool, dict]:
    """Predicate 2p - rho <= n - beta, with the slack reported.

    Zero slack means the two regimes are of the same order at d ~ 1/sqrt(alpha).
    Bounded near regimes count as beta = n.
    """
    beta = spec.near.beta if spec.near.kind == "power" else Fraction(n)
    slack = (n - beta) - (2 * spec.p - spec.rho)
    return slack >= 0, {
        "inequality": "2p - rho <= n - beta",
        "lhs": 2 * spec.p - spec.rho,
        "rhs": n - beta,
        "slack": slack,
    }


def _near_trichotomy(total: Fraction, n: int, alpha_scaled: bool) -> NearRegime:
    if total < n:
        return NearRegime("power", beta=total)
    if total == n:
        return NearRegime("log")
    if alpha_scaled:
        return NearRegime("const_alpha", alpha_exp=-Fraction(total - n, 2))
    return NearRegime("const")


def compose_euclid(x: EnvelopeSpec, y: EnvelopeSpec, n: int) -> EnvelopeSpec:
    """Envelope of the convolution on R^n in the unscaled (alpha = 1) case.

    Near: r^{beta+gamma-n} / log / const by the trichotomy; far:
    r^{rho+nu+n} e^{-r}.
    """
    _validate_power_input(x, n, "X")
    _validate_power_input(y, n, "Y")
    support = None
    if x.support is not None and y.support is not None:
        support = x.support + y.support
    return EnvelopeSpec(
        near=_near_trichotomy(x.near.beta + y.near.beta, n, alpha_scaled=False),
        p=Fraction(0),
        rho=x.rho + y.rho + n,
        rate=Fraction(1),
        support=support,
    )


def compose_alpha(
    x: EnvelopeSpec,
    y: EnvelopeSpec,
    n: int,
    injectivity_radius: Optional[float] = None,
) -> EnvelopeSpec:
    """Envelope of the convolution in the alpha-scaled two-regime calculus.

    Requires the compatibility predicate on both inputs; the far regime
    gains alpha^{n - (beta+gamma)/2 + (rho+nu)/2} and r^{rho+nu+n}, and
    support radii add.
    """
    _validate_power_input(x, n, "X")
    _validate_power_input(y, n, "Y")
    for name, spec in (("X", x), ("Y", y)):
        ok, report = compatibility_check(spec, n)
        if not ok:
            raise EstimateNotApplicableError(
                f"{name}: compatibility failed: 2p - rho = {report['lhs']} > "
                f"n - beta = {report['rhs']} (slack {report['slack']})",
                failed_inequality=report["inequality"],
            )
    if x.rate != 1 or y.rate != 1:
        raise EstimateNotApplicableError(
            "alpha-scaled composition requires full-rate inputs (rate = 1)",
            failed_inequality="rate == 1",
        )
    support = None
    if x.support is not None and y.support is not None:
        support = x.support + y.support
        if injectivity_radius is not None and not support < injectivity_radius:
            raise EstimateNotApplicableError(
                f"support sum {support} must stay below the injectivity radius "
                f"{injectivity_radius}",
                failed_inequality="tau + sigma < i_g",
            )
    bg = x.near.beta + y.near.beta
    return EnvelopeSpec(
        near=_near_trichotomy(bg, n, alpha_scaled=True),
        p=n - Fraction(bg, 2) + Fraction(x.rho + y.rho, 2),
        rho=x.rho + y.rho + n,
        rate=Fraction(1),
        support=support,
    )


def iterate_error_envelope(n: int, k: int, tau0: FractionLike, depth: int) -> list[EnvelopeSpec]:
    """Envelopes of the convolution iterates of the error field, depth >= 1."""
    first = error_field_envelope(n, k, tau0)
    out = [first]
    for _ in range(1, depth):
        out.append(compose_alpha(out[-1], first, n))
    return out


def printed_iterate_exponents(n: int, k: int, i: int) -> tuple[Fraction, Fraction]:
    """(alpha power, r power) of the i-th error iterate: (ki(n+1)/4, (k(n+1)+4)i/2 - n)."""
    return Fraction(k * i * (n + 1), 4), Fraction((k * (n + 1) + 4) * i, 2) - n


# ---------------------------------------------------------------------------
# Psi comparison envelope (bounded near, reduced-rate middle, saturated far)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiEnvelope:
    """alpha^{alpha_exp} Psi_{eps,alpha}: the three-regime comparison shape."""

    eps: float
    alpha_exp: Fraction = Fraction(0)


def psi_value(eps: float, alpha: float, d, injectivity_radius: float):
    """Psi_{eps,alpha}(d), elementwise for an array d: three regimes,
    saturated at d >= i_g/2.  A scalar d gives a float."""
    if not 0 < eps < 1:
        raise DomainError(f"need eps in (0,1), got {eps}")
    s = math.sqrt(alpha)
    half = injectivity_radius / 2.0
    d = np.asarray(d, dtype=float)
    rate = -(1 - eps) * s
    arg = np.where(d >= half, rate * half, np.where(s * d >= 1.0, rate * d, -(1 - eps)))
    return math.exp(arg) if arg.ndim == 0 else np.exp(arg)


def compose_psi(
    x: EnvelopeSpec,
    eps: float,
    n: int,
    geometry_scale: float,
    psi: Optional[PsiEnvelope] = None,
) -> PsiEnvelope:
    """Envelope of the convolution of a bounded-near kernel with Psi_{eps,alpha}.

    Requires X bounded near the diagonal and 2p - rho <= 0; the result is
    alpha^{-n/2} times the same Psi shape (carrying along any alpha-power
    already attached to X or to the incoming Psi).
    """
    if x.near.kind == "power" and x.near.beta != n:
        raise EstimateNotApplicableError(
            f"Psi composition needs a bounded near regime (beta = n), got beta={x.near.beta}",
            failed_inequality="beta == n",
        )
    if x.near.kind == "log":
        raise EstimateNotApplicableError(
            "Psi composition needs a bounded near regime, got log",
            failed_inequality="near regime bounded",
        )
    if 2 * x.p - x.rho > 0:
        raise EstimateNotApplicableError(
            f"Psi composition needs 2p - rho <= 0, got {2 * x.p - x.rho}",
            failed_inequality="2p - rho <= 0",
        )
    if geometry_scale <= 0:
        raise DomainError("geometry scale (injectivity radius) must be positive")
    attached = x.near.alpha_exp if x.near.kind == "const_alpha" else Fraction(0)
    base = psi.alpha_exp if psi is not None else Fraction(0)
    return PsiEnvelope(eps=eps, alpha_exp=attached + base - Fraction(n, 2))


# ---------------------------------------------------------------------------
# Numeric envelope evaluation
# ---------------------------------------------------------------------------

def envelope_value(spec: EnvelopeSpec, n: int, alpha: float, r: float) -> float:
    """Numeric value of the (constant-free) envelope bound at distance r."""
    if r <= 0:
        raise DomainError(f"need r > 0, got {r}")
    if spec.support is not None and r >= float(spec.support):
        return 0.0
    s = math.sqrt(alpha)
    t = s * r
    if t <= 1.0:
        kind = spec.near.kind
        if kind == "power":
            return r ** float(spec.near.beta - n)
        if kind == "log":
            return 1.0 + abs(math.log(t))
        if kind == "const":
            return 1.0
        return alpha ** float(spec.near.alpha_exp)
    arg = float(spec.rate) * t
    if arg > 700.0:
        return 0.0
    return alpha ** float(spec.p) * r ** float(spec.rho) * math.exp(-arg)


def fit_far_slope(r: np.ndarray, values: np.ndarray, sqrt_alpha: float) -> tuple[float, float]:
    """Least-squares slope of log(v) + sqrt(alpha) r against log r.

    Returns (slope, intercept); points with nonpositive values are rejected.
    """
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise DomainError("far-field fit requires positive samples")
    y = np.log(values) + sqrt_alpha * r
    a = np.vstack([np.log(r), np.ones_like(r)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(coef[0]), float(coef[1])


# ---------------------------------------------------------------------------
# Radial convolution engine
# ---------------------------------------------------------------------------

_GL_X, _GL_W = gauss_legendre(15)
_X24, _W24 = gauss_legendre(24)
_X48, _W48 = gauss_legendre(48)
# Nodes on [0, 1] of the 24- and 48-node rules for the polar-angle integral;
# the two weight columns give the 48-node value and its gap to the 24-node one.
_POLAR_NODES = 0.5 * (np.concatenate([_X24, _X48]) + 1.0)
_POLAR_WEIGHTS = 0.5 * np.stack(
    [np.concatenate([np.zeros(24), _W48]), np.concatenate([-_W24, _W48])], axis=1
)
_EPS = np.finfo(float).eps


def _adaptive_segments(
    func: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breaks: Sequence[float],
    tol_abs: float,
    tol_rel: float,
) -> tuple[float, float]:
    """Adaptive Gauss-Legendre on [a, b] with forced breakpoints.

    ``func`` maps m nodes to a (2, m) array: the integrand and a bound on
    its own error at each node.  A panel is split until its 15-node value
    and the sum over its two halves agree; an accepted panel contributes
    that gap plus the halves' integrated node error, floored at 50 machine
    epsilons of its value for rounding.  Refinement is level-synchronous:
    one ``func`` call on the initial panels, then one per level on both
    halves of every live panel.  A panel's fate does not depend on the
    order of visits, so the panel tree is that of a depth-first search,
    and the accepted panels are summed right to left as one would visit
    them.  Returns (value, error estimate); raises ConvergenceError
    beyond 4000 panels, with the accepted panels plus the halves of the
    unresolved ones as best estimate and, as error estimate, the gap of
    the panel whose split crosses the budget (splits taken right to left).
    """

    def gl(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _GL_X
        return half * (func(nodes.ravel()).reshape(2, lo.size, _GL_X.size) @ _GL_W)

    pts = np.array(sorted({a, b, *[p for p in breaks if a < p < b]}), dtype=float)
    lo, hi = pts[:-1], pts[1:]
    coarse = gl(lo, hi)
    total = 0.0
    for v in coarse[0]:
        total += v
    tol_floor = max(tol_abs, tol_rel * abs(total))
    count = lo.size
    accepted = []  # (lo, hi, value, error) of the panels accepted at each level
    for depth in range(53):
        mid = 0.5 * (lo + hi)
        halves = gl(np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel())
        halves = halves.reshape(2, lo.size, 2)
        fine = halves.sum(axis=2)
        delta = np.abs(fine[0] - coarse[0])
        local_tol = tol_floor * (hi - lo) / (b - a)
        rounding = 50.0 * _EPS * np.abs(fine[0])
        done = (delta <= np.maximum(local_tol, rounding)) | (depth >= 52)
        accepted.append(
            (lo[done], hi[done], fine[0, done], np.maximum(delta + fine[1], rounding)[done])
        )
        split = ~done
        splits = np.count_nonzero(split)
        if not splits:
            break
        if count + 2 * splits > 4000:
            best = sum(float(v.sum()) for _, _, v, _ in accepted) + float(fine[0, split].sum())
            raise ConvergenceError(
                "adaptive quadrature exceeded its interval budget",
                best_estimate=best,
                error_estimate=float(delta[split][::-1][(4000 - count) // 2]),
            )
        count += 2 * splits
        lo = np.stack([lo[split], mid[split]], axis=1).ravel()
        hi = np.stack([mid[split], hi[split]], axis=1).ravel()
        coarse = halves[:, split].reshape(2, -1)

    leaf_lo, leaf_hi, values, errors = (np.concatenate(col) for col in zip(*accepted))
    order = np.lexsort((leaf_hi, leaf_lo))[::-1]
    value = 0.0
    err = 0.0
    for v, e in zip(values[order].tolist(), errors[order].tolist()):
        value += v
        err += e
    return value, err


def radial_convolve(
    f: RadialKernel,
    g: RadialKernel,
    n: int,
    r: float,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """(f * g)(r) for radial f, g on R^n in polar coordinates about the origin.

    With t(s, theta)^2 = r^2 + s^2 - 2 r s cos(theta) the distance from the
    point at radius s and polar angle theta (measured from the direction of
    the evaluation point) to the evaluation point,

        (f*g)(r) = omega_{n-2} int_0^{s_max} f(s) s^{n-1}
                       int_0^{theta_max(s)} g(t) sin^{n-2}(theta) dtheta ds,

    omega_{n-2} the area of S^{n-2} and theta_max(s) where t reaches the
    support of g (pi for unbounded g).  The bispherical weight
    [(t^2-(r-s)^2)((r+s)^2-t^2)]^{(n-3)/2} of the t form becomes
    (2 r s sin(theta))^{n-3}, so the inner integrand has no endpoint
    singularity for any n.  Its only near-singularity is g at t -> 0, which
    sits at theta = 0 for s near r and has width eps = |r-s| / sqrt(r s)
    in theta; the sinh substitution theta = eps sinh(v) (Johnston & Elliott,
    IJNME 62, 2005) spreads it over v in [0, asinh(theta_max / eps)], where
    fixed 24- and 48-node Gauss-Legendre rules are applied.  The outer
    integral is adaptive in s with breaks at r, geometric breaks toward 0
    and the support breaks; each refinement level makes one f evaluation
    on the 15 nodes of both halves of every live panel and one g
    evaluation on all their polar nodes.

    The returned error is omega_{n-2} times the sum over accepted outer
    panels of the gap between the panel's 15-node value and its two halves,
    plus the gap between the 48- and 24-node inner values integrated with
    the outer weights, floored at 50 machine epsilons of each panel for
    rounding.  Raises ConvergenceError when that error exceeds four times
    max(tol, tol_rel |value|), with the relative tolerance tol_rel = 1e-5.
    """
    tol_rel = 1e-5
    if n < 2:
        raise DomainError(f"radial convolution needs n >= 2, got n={n}")
    if r <= 0:
        raise DomainError(f"need r > 0, got {r}")
    for name, kern in (("f", f), ("g", g)):
        if kern.sing_exp <= -n:
            raise DomainError(
                f"{name} has non-integrable singularity: sing_exp={kern.sing_exp} <= -{n}"
            )
    if f.semigroup_order is not None and g.semigroup_order is not None:
        total_order = f.semigroup_order + g.semigroup_order
        if n <= 2 * total_order:
            raise DomainError(
                f"semigroup convolution undefined: needs n > 2k with "
                f"k = {total_order}, got n = {n}"
            )

    g_support = g.support_radius

    def outer_integrand(s: np.ndarray) -> np.ndarray:
        gap = np.abs(r - s)
        rs4 = 4.0 * r * s
        if g_support is None:
            theta_max = np.full_like(s, math.pi)
        else:
            # sin^2(theta_max / 2) = (R^2 - (r-s)^2) / (4 r s), clipped to [0, 1]
            half_sin2 = np.clip((g_support**2 - gap * gap) / rs4, 0.0, 1.0)
            theta_max = 2.0 * np.arcsin(np.sqrt(half_sin2))
        # a node can round onto s = r only after ~50 bisections toward it
        eps = np.maximum(gap, 1e-300) / np.sqrt(r * s)
        v_max = np.arcsinh(theta_max / eps)
        v = v_max[:, None] * _POLAR_NODES
        theta = eps[:, None] * np.sinh(v)
        # t^2 = (r-s)^2 + 4 r s sin^2(theta/2) keeps t accurate where
        # r^2 + s^2 - 2 r s cos(theta) would cancel (s near r, theta small)
        t = np.sqrt(gap[:, None] ** 2 + rs4[:, None] * np.sin(0.5 * theta) ** 2)
        dens = g.evaluator(t.ravel()).reshape(t.shape) * np.sin(theta) ** (n - 2)
        dens *= (eps * v_max)[:, None] * np.cosh(v)
        inner, inner_gap = (dens @ _POLAR_WEIGHTS).T
        weight = f.evaluator(s) * s ** (n - 1)
        return np.stack([weight * inner, np.abs(weight * inner_gap)])

    # Outer truncation radius: f's support, the emptiness of the theta-range
    # beyond r + supp(g), or exponential decay.
    s_max = math.inf
    if f.support_radius is not None:
        s_max = f.support_radius
    if g_support is not None:
        s_max = min(s_max, r + g_support)
    if s_max == math.inf:
        rates = [x for x in (f.decay_rate, g.decay_rate) if x and x > 0]
        if not rates:
            raise DomainError("unbounded kernels need a positive decay rate for truncation")
        s_max = r + 60.0 / min(rates)

    prefactor = sphere_area(n - 1)
    breaks = [r]
    if r > 2e-3 * s_max:
        breaks.extend(np.geomspace(1e-6 * s_max, 0.5 * r, 6))
    if g_support is not None:
        breaks.extend([abs(r - g_support), r + g_support])
    if f.support_radius is not None:
        breaks.append(f.support_radius)
    val, err = _adaptive_segments(
        outer_integrand,
        0.0,
        s_max,
        breaks,
        tol_abs=tol / prefactor * 0.3,
        tol_rel=tol_rel * 0.3,
    )
    value = prefactor * val
    error = prefactor * err
    if error > max(tol, tol_rel * abs(value)) * 4.0:
        raise ConvergenceError(
            f"radial convolution error estimate {error:g} exceeds tolerance",
            best_estimate=value,
            error_estimate=error,
        )
    return value, error


# ---------------------------------------------------------------------------
# Bound certification
# ---------------------------------------------------------------------------

@dataclass
class CertificationReport:
    """Outcome of checking a composed envelope against numerical convolutions."""

    fitted: dict
    passed: bool
    drift: float
    counterexample: Optional[dict] = None


def certify_bound(
    x_family: Callable[[float], RadialKernel],
    y_family: Callable[[float], RadialKernel],
    composed: EnvelopeSpec,
    n: int,
    alpha_list: Sequence[float],
    r_grid: Sequence[float],
) -> CertificationReport:
    """Fit the minimal C with conv <= C * composed on the grid, per alpha.

    Fails (with a counterexample) if a convolution, computed to absolute
    tolerance 1e-8, is nonzero where the composed envelope vanishes, or if
    the fitted constant drifts by more than a factor 2 across the alphas.
    An empty alpha or radius ladder is a domain error, not a vacuous pass.
    """
    if len(alpha_list) == 0 or len(r_grid) == 0:
        raise DomainError("certification needs at least one alpha and one radius")
    tol = 1e-8
    fitted: dict = {}
    for alpha in alpha_list:
        fx = x_family(alpha)
        fy = y_family(alpha)
        worst = 0.0
        for r in r_grid:
            conv, _ = radial_convolve(fx, fy, n, float(r), tol=tol)
            bound = envelope_value(composed, n, alpha, float(r))
            if bound == 0.0:
                if abs(conv) > 10.0 * tol:
                    return CertificationReport(
                        fitted=fitted,
                        passed=False,
                        drift=math.inf,
                        counterexample={"alpha": alpha, "r": float(r), "conv": conv},
                    )
                continue
            worst = max(worst, abs(conv) / bound)
        fitted[alpha] = worst
    values = [v for v in fitted.values() if v > 0]
    drift = max(values) / min(values) if values else 1.0
    return CertificationReport(fitted=fitted, passed=drift <= 2.0, drift=drift)
