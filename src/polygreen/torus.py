"""Green's function of (Delta + alpha)^k on the flat torus T^n_L.

The torus Green's function is the periodisation of the Euclidean kernel,

    G(x, y) = sum_{m in Z^n} G_alpha^(k)(|v + L m|),    v = nearest rep of y - x,

convergent for every alpha > 0 thanks to the far-field exponential decay.
One blocked image sum serves the values and their derivatives of order 1
to 3 along a unit direction, each over the image box whose certified
shell-count tail bound at that order falls below the tolerance; the
gradient takes one order-1 pass over that box for every axis.  A spectral
solver provides the independent route (Delta + alpha)^k u = phi per Fourier
mode, and the verification operations (representation formula,
symmetry/positivity scans) compare the two.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from . import euclid
from .cutoff import cutoff_for
from .errors import BudgetError, ConvergenceError, DomainError
from .params import ProblemParams


@dataclass(frozen=True)
class TorusGeometry:
    """Flat torus R^n / (L Z)^n; the injectivity radius is exactly L/2."""

    n: int
    L: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise DomainError(f"need a finite L > 0, got {self.L}")

    @property
    def injectivity_radius(self) -> float:
        return self.L / 2.0


def check_dimensions(params: ProblemParams, geometry: TorusGeometry) -> None:
    """Raise DomainError unless the operator and the torus share the dimension n."""
    if params.n != geometry.n:
        raise DomainError("params and geometry dimensions differ")


def check_seed(seed: int) -> None:
    """Raise DomainError unless seed is the nonnegative integer that np.random.default_rng takes."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")


def torus_distance(geometry: TorusGeometry, x, y) -> tuple[float, np.ndarray]:
    """Geodesic distance and the shortest displacement of y - x.

    The representative is taken componentwise in [-L/2, L/2), ties broken
    toward -L/2; it is the preimage of y under the exponential chart at x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (geometry.n,) or y.shape != (geometry.n,):
        raise DomainError(f"points must be {geometry.n}-vectors")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("points must have finite coordinates")
    L = geometry.L
    v = np.mod(y - x + L / 2.0, L) - L / 2.0
    return float(np.linalg.norm(v)), v


@lru_cache(maxsize=32)
def _lattice_box(n: int, m_max: int) -> np.ndarray:
    """All integer vectors with sup-norm <= m_max, shape (count, n)."""
    axes = [np.arange(-m_max, m_max + 1)] * n
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def _box_cap(n: int) -> int:
    """Largest sup-norm radius kept under ~3e6 lattice points."""
    return max(3, int(0.5 * ((3.0e6) ** (1.0 / n) - 1.0)))


# Points per block of the image sums and of the radial transform; it bounds
# their scratch arrays (radii, kernel values, Bessel temporaries, means).
_BLOCK_ELEMENTS = 1 << 14

_CHAIN_BOUNDS = {1: (1.0,), 2: (1.0, 1.0), 3: (1.0, 3.0, 3.0)}


def _shell_bound(params: ProblemParams, order: int, r: np.ndarray) -> np.ndarray:
    """G_alpha(r) at order 0; at order l, sum_j b_j |G^(l-j)|(r) / r^j, b = _CHAIN_BOUNDS[l].

    Decreasing in r, it bounds one image at distance >= r, at order l its
    d^l/dt^l G_alpha(|w + t e|) at t = 0 for a unit e: the derivatives of
    s = |w + t e| (``_image_sum``) obey |s1| <= 1, 0 <= s2 <= 1/s, |s3| <= 3/s^2.
    """
    if order == 0:
        return euclid.kernel_alpha_array(params, r)
    return sum(
        b * np.abs(euclid.kernel_terms(params, order - j).evaluate(r)) / r**j
        for j, b in enumerate(_CHAIN_BOUNDS[order])
    )


def _certified_tail(
    params: ProblemParams, geometry: TorusGeometry, first: int, step: int, order: int
) -> float:
    """Upper bound on the images in half-shells first, first + 1, ... of v.

    On the orthant 0 <= v_a <= L/2, |v_a + M_a L| >= (L/2) h(M_a) with
    h(M) = 2M for M >= 0 and -2M - 1 below, one-to-one from Z onto N, so
    half-shell t = max_a h(M_a) sits at distance >= L t / 2.  Groups of
    ``step`` from s = first hold c_s = (s + step)^n - s^n = int_s^{s+step}
    n x^{n-1} dx images, log-concave in s (Prekopa), for terms
    t_s = c_s B(L s / 2), B = ``_shell_bound`` at the order.  G_alpha is a
    multiple of r^{-nu} K_nu(sqrt(alpha) r), nu = n/2 - k >= 1/2, a Laplace
    transform of a nonnegative measure on [sqrt(alpha), inf) (DLMF 10.32.8);
    so is every |G^(i)| = (-d/dr)^i G_alpha, whose logarithmic derivative is
    thus <= -sqrt(alpha), also after dividing by r^j.  So t_{s+step} / t_s
    <= rho_J = e^{-sqrt(alpha) L step / 2} c_{J+step} / c_J for s >= J: past
    the 200 explicit terms the rest adds at most t_J rho_J / (1 - rho_J),
    infinite when rho_J >= 1.  Step 2 from first = 2m + 1 bounds the images
    of sup-norm > m, at >= L (j - 1/2) from every v: the symmetric box.
    """
    s = [first + step * i for i in range(201)]
    counts = np.array([(j + step) ** geometry.n - j**geometry.n for j in s], dtype=float)
    terms = counts[:-1] * _shell_bound(params, order, 0.5 * geometry.L * np.array(s[:-1]))
    rho = math.exp(-params.sqrt_alpha * 0.5 * geometry.L * step) * counts[-1] / counts[-2]
    if rho >= 1.0:
        return math.inf
    return float(np.sum(terms) + terms[-1] * rho / (1.0 - rho))


@lru_cache(maxsize=256)
def image_radius(
    params: ProblemParams, geometry: TorusGeometry, tol: float, order: int = 0
) -> tuple[int, float]:
    """Smallest sup-norm image radius m >= 1 whose certified tail is <= tol.

    ``order`` 0 bounds the values, 1 to 3 the derivatives of that order
    along a unit direction.  Returns (m, tail bound).  Raises DomainError
    unless tol > 0 (NaN fails; tol = inf accepts radius 1), and BudgetError,
    carrying the tail bound at the cap, when no radius within the image
    budget reaches tol (small alpha on a small torus).
    """
    if not tol > 0:
        raise DomainError(f"need tol > 0, got {tol}")
    cap = _box_cap(geometry.n)
    for m_max in range(1, cap + 1):
        tail = _certified_tail(params, geometry, 2 * m_max + 1, 2, order)
        if tail <= tol:
            return m_max, tail
    raise BudgetError(
        f"lattice tail {tail:g} above tol {tol:g} at image radius cap "
        f"{cap}; alpha = {params.alpha} too small for this budget",
        best_estimate=None,
        error_estimate=tail,
    )


@lru_cache(maxsize=64)
def orthant_image_offsets(
    params: ProblemParams, geometry: TorusGeometry, tol: float
) -> tuple[tuple[int, ...], float]:
    """Per-axis image shifts of the smallest box certified to tol on the orthant.

    The first T half-shells of ``_certified_tail``: the box {-floor(T/2),
    ..., floor((T-1)/2)}^n, for 0 <= v_a <= L/2 only.  T = 2m + 1 is the box
    of image radius m, so T stays below the ``image_radius`` m, whose box,
    tail and BudgetError are the fallback.  Returns (offsets, tail bound).
    """
    m_max, tail = image_radius(params, geometry, tol)
    T = 2 * m_max + 1
    for t in range(1, T):
        if (bound := _certified_tail(params, geometry, t, 1, 0)) <= tol:
            T, tail = t, bound
            break
    return tuple(range(-(T // 2), (T - 1) // 2 + 1)), tail


def _image_sum(
    params: ProblemParams, geometry: TorusGeometry, V: np.ndarray, tol: float, order: int = 0, E=None
) -> tuple[np.ndarray, float]:
    """Per row v of V, sum_m G_alpha(|v + L m|) over the certified image box.

    At order l = 1, 2 or 3 it is d^l/dt^l sum_m G_alpha(|v + L m + t e|) at
    t = 0 instead, e the unit row of E beside v, term by term from
    ``euclid.kernel_terms`` and the derivatives s1 = (w.e)/s,
    s2 = (1 - s1^2)/s and s3 = -3 s1 s2 / s of s = |w|, w = v + L m, along
    e.  The box is ``image_radius`` at that order.  Returns (values, tail
    bound).  Images at distance 0 contribute 0, so a row on the lattice
    gives the sum over the other images.
    """
    m_max, tail = image_radius(params, geometry, tol, order)
    shifts = geometry.L * _lattice_box(geometry.n, m_max)
    rows = max(1, _BLOCK_ELEMENTS // len(shifts))
    derivs = [euclid.kernel_terms(params, i) for i in range(1, order + 1)]
    out = np.empty(len(V))
    for start in range(0, len(V), rows):
        block = V[start : start + rows]
        radii = np.sqrt(
            sum((block[:, a, None] + shifts[None, :, a]) ** 2 for a in range(geometry.n))
        )
        zero = radii == 0.0
        radii[zero] = 1.0
        if order == 0:
            vals = euclid.kernel_alpha_array(params, radii)
        else:
            e = E[start : start + rows]
            s1 = (np.sum(block * e, axis=1)[:, None] + e @ shifts.T) / radii
            f = [terms.evaluate(radii) for terms in derivs]
            s2 = (1.0 - s1 * s1) / radii
            if order == 1:
                vals = f[0] * s1
            elif order == 2:
                vals = f[1] * s1 * s1 + f[0] * s2
            else:  # f3 s1^3 + 3 f2 s1 s2 + f1 s3
                vals = f[2] * s1**3 + 3.0 * s1 * s2 * (f[1] - f[0] / radii)
        vals[zero] = 0.0
        out[start : start + rows] = np.sum(vals, axis=1)
    return out, tail


def _off_diagonal(params: ProblemParams, geometry: TorusGeometry, x, y) -> tuple[float, np.ndarray]:
    """``torus_distance`` of matching params and geometry; DomainError on x = y."""
    check_dimensions(params, geometry)
    d, v = torus_distance(geometry, x, y)
    if d == 0.0:
        raise DomainError("Green's function is singular on the diagonal x = y")
    return d, v


def green_lattice_sum(
    params: ProblemParams,
    geometry: TorusGeometry,
    x,
    y,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """G(x, y) by truncated lattice summation with a certified tail bound.

    Returns (value, tail bound).  Raises on x = y (the diagonal is singular)
    and when the tolerance is unreachable within the image budget (small
    alpha on a small torus).
    """
    _, v = _off_diagonal(params, geometry, x, y)
    values, tail = _image_sum(params, geometry, v[None, :], tol)
    return float(values[0]), tail


def green_lattice_sum_many(
    params: ProblemParams,
    geometry: TorusGeometry,
    displacements: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Lattice sums for a batch of displacement rows y - x.

    Each row is reduced to its nearest representative, as in
    ``torus_distance``; rows on the lattice (the diagonal) are rejected.
    """
    check_dimensions(params, geometry)
    v = np.asarray(displacements, dtype=float)
    if v.ndim != 2 or v.shape[1] != geometry.n:
        raise DomainError(f"displacements must be rows of {geometry.n}-vectors")
    if not np.all(np.isfinite(v)):
        raise DomainError("displacements must have finite coordinates")
    L = geometry.L
    v = np.mod(v + L / 2.0, L) - L / 2.0
    if not np.all(np.any(v != 0.0, axis=1)):
        raise DomainError("Green's function is singular on the diagonal x = y")
    return _image_sum(params, geometry, v, tol)[0]


def green_derivative(params: ProblemParams, geometry: TorusGeometry, x, y, l: int) -> float:
    """Magnitude of the l-th radial derivative of G along the geodesic.

    ``_image_sum`` at order l along the unit displacement, to the absolute
    tolerance 1e-10; supported for integers 1 <= l <= min(2k - 1, 3) (the
    derivative estimates do not cover l = 2k).
    """
    top = min(2 * params.k - 1, max(_CHAIN_BOUNDS))
    if not (isinstance(l, numbers.Integral) and 1 <= l <= top):
        raise DomainError(f"need an integer 1 <= l <= min(2k-1, 3) = {top}, got {l}")
    d, v = _off_diagonal(params, geometry, x, y)
    return abs(float(_image_sum(params, geometry, v[None, :], 1e-10, l, v[None, :] / d)[0][0]))


def green_gradient(params: ProblemParams, geometry: TorusGeometry, x, y) -> np.ndarray:
    """Full gradient vector of y -> G(x, y): the first derivative along each axis.

    ``_image_sum`` at order 1 along axis a is sum_m G'(s) w_a / s, w = v + L m,
    s = |w|, over the order-1 box; G'(s)/s is evaluated once per image and
    serves every axis.
    """
    _, v = _off_diagonal(params, geometry, x, y)
    m_max, _ = image_radius(params, geometry, 1e-10, 1)
    shifts = geometry.L * _lattice_box(geometry.n, m_max)
    first = euclid.kernel_terms(params, 1)
    out = np.zeros(geometry.n)
    for start in range(0, len(shifts), _BLOCK_ELEMENTS):
        w = v + shifts[start : start + _BLOCK_ELEMENTS]
        s = np.linalg.norm(w, axis=1)
        out += (first.evaluate(s) / s) @ w
    return out


def green_product_derivative(params: ProblemParams, geometry: TorusGeometry, x, y) -> float:
    """|d/dt ( t^{n-2k} G )| along the geodesic at t = d(x, y)."""
    d, v = _off_diagonal(params, geometry, x, y)
    gap = params.n - 2 * params.k
    g = _image_sum(params, geometry, v[None, :], 1e-10)[0][0]
    gprime = _image_sum(params, geometry, v[None, :], 1e-10, 1, v[None, :] / d)[0][0]
    return float(abs(gap * d ** (gap - 1) * g + d**gap * gprime))


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------

def _shifted_modes(geometry: TorusGeometry, phi: dict, x) -> tuple[np.ndarray, np.ndarray]:
    """The modes q of phi = sum_q c_q e^{2 pi i q.y / L}, as rows, and c_q e^{2 pi i q.x/L}.

    ``phi`` is a dict {integer mode tuple: c_q}.  Raises DomainError unless
    x is a finite n-vector and phi a nonempty dict of integer n-tuples with
    finite coefficients.
    """
    n = geometry.n
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DomainError(f"point must be an {n}-vector, got shape {x.shape}")
    if not phi:
        raise DomainError("source must have at least one mode")
    if not all(np.shape(q) == (n,) and np.array_equal(q, np.round(q)) for q in phi):
        raise DomainError(f"modes must be integer {n}-tuples, got {list(phi)}")
    q = np.array(list(phi), dtype=np.intp).reshape(-1, n)
    coeffs = np.array(list(phi.values()), dtype=complex)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(coeffs))):
        raise DomainError("point and mode coefficients must be finite")
    return q, coeffs * np.exp(2j * math.pi * (q @ x) / geometry.L)


def solve_value_at(params: ProblemParams, geometry: TorusGeometry, phi: dict, x) -> float:
    """u(x) for (Delta + alpha)^k u = phi, exactly per mode; the multiplier is positive."""
    check_dimensions(params, geometry)
    q, shifted = _shifted_modes(geometry, phi, x)
    xi_sq = (2.0 * math.pi / geometry.L) ** 2 * np.sum(q * q, axis=1)
    return float(np.sum(shifted.real / (xi_sq + params.alpha) ** params.k))


def grid_coordinates(geometry: TorusGeometry, m: int) -> np.ndarray:
    return np.arange(m) * (geometry.L / m)


# ---------------------------------------------------------------------------
# Displacement grid
# ---------------------------------------------------------------------------

def unfold_orthant(table: np.ndarray, m: int) -> np.ndarray:
    """The m-grid array of an even function from its orthant values.

    A coordinate sign flip maps grid index j to m - j, so index j reads the
    orthant entry min(j, m - j).
    """
    j = np.arange(m)
    fold = np.minimum(j, m - j)
    for axis in range(table.ndim):  # per-axis gathers beat one np.ix_ gather
        table = np.take(table, fold, axis=axis)
    return table


def _radial_table(
    f: Callable[[np.ndarray], np.ndarray], geometry: TorusGeometry, m: int, offsets: Sequence[int]
) -> np.ndarray:
    """f((L/m) sqrt(Q)), indexed by the integer Q = |q|^2 over |q_a| <= h.

    h = max |j + m o| over 0 <= j <= m//2 and o in offsets, the reach of
    ``_orthant_fold``.  f runs once per distinct Q > 0, in blocks of
    ``_BLOCK_ELEMENTS``; Q = 0 and the non-sums of n squares read 0.
    """
    h = max(m // 2 + m * max(offsets), -m * min(offsets))
    sums = _sums_of_squares(geometry.n, h)[1:]
    table = np.zeros(geometry.n * h * h + 1)
    for start in range(0, len(sums), _BLOCK_ELEMENTS):
        q = sums[start : start + _BLOCK_ELEMENTS]
        table[q] = f((geometry.L / m) * np.sqrt(q))
    return table


def _orthant_fold(
    tables: Sequence[np.ndarray], n: int, m: int, offsets: Sequence[int]
) -> list[np.ndarray]:
    """Per table, sum_M table[|j + m M|^2] over M in offsets^n, on the orthant 0 <= j_a <= m//2.

    Offset 0 alone samples a radial table on the grid, and the one-sided
    shifts of ``orthant_image_offsets`` periodise it to their certified
    tail.  Each |j + m M|^2 array gathers every table: at M = 0 the cached
    ``_orthant_squares``, otherwise one built for that shift.  The M are
    summed in ``itertools.product`` order.
    """
    index = np.arange(m // 2 + 1)
    squares = {o: (index + m * o) ** 2 for o in offsets}
    fields = None
    for shift in itertools.product(offsets, repeat=n):
        qsq = reduce(np.add.outer, [squares[o] for o in shift]) if any(shift) else _orthant_squares(n, m)
        if fields is None:
            fields = [table[qsq] for table in tables]
        else:
            for field, table in zip(fields, tables):
                field += table[qsq]
    return fields


@lru_cache(maxsize=8)
def _orthant_squares(n: int, m: int) -> np.ndarray:
    """|j|^2 on the orthant 0 <= j_a <= m//2, shape (m//2 + 1,)*n; read-only, cached."""
    squares = np.arange(m // 2 + 1) ** 2
    qsq = reduce(np.add.outer, [squares] * n)
    qsq.flags.writeable = False
    return qsq


def _weighted_fold(
    table: np.ndarray, n: int, m: int, offsets: Sequence[int], weights: np.ndarray
) -> np.ndarray:
    """Per weight set s, sum_j sum_M table[|j + m M|^2] prod_a weights[s, a, j_a].

    j and M run as in ``_orthant_fold``, and ``weights`` has shape
    (sets, n, m//2 + 1); returns shape (sets,).  No orthant array is formed.
    Per axis, p = j + m M runs over the (M, j) pairs with the weight of j,
    so the sum is sum_p table[|p|^2] prod_a w_a(p_a): the first n - 1 axes
    fold into one weighted histogram of their sums of squares S per set
    (``np.bincount``), and table[S + t] at the last axis's squares t is
    gathered in blocks of rows and contracted with the histogram by a
    matrix product.
    """
    index = np.arange(m // 2 + 1)
    squares = np.concatenate([(index + m * o) ** 2 for o in offsets])
    axis_weights = np.tile(weights, len(offsets))  # [s, a, p], p as in squares
    rows = max(1, _BLOCK_ELEMENTS // len(squares))
    support = np.zeros(1, dtype=np.intp)  # the sums S so far, and their weights
    hist = np.ones((len(weights), 1))
    for a in range(n - 1):
        size = int(support[-1] + squares.max() + 1)
        reached = np.zeros(size, dtype=bool)
        grown = np.zeros((len(weights), size))
        for start in range(0, len(support), rows):
            sums = np.add.outer(support[start : start + rows], squares).ravel()
            reached[sums] = True
            for row, block, w in zip(grown, hist[:, start : start + rows], axis_weights[:, a]):
                row += np.bincount(sums, np.outer(block, w).ravel(), minlength=size)
        support = np.flatnonzero(reached)
        hist = grown[:, support]
    contracted = np.zeros((len(weights), len(squares)))
    for start in range(0, len(support), rows):
        block = table[np.add.outer(support[start : start + rows], squares)]
        contracted += hist[:, start : start + rows] @ block
    return np.sum(contracted * axis_weights[:, n - 1], axis=1)


def sample_radial(
    f: Callable[[np.ndarray], np.ndarray], geometry: TorusGeometry, m: int
) -> np.ndarray:
    """f(|v|) on the orthant 0 <= j_a <= m//2 of the displacement grid.

    Index j of the m-grid is the displacement v = (L/m) j, or its mirror
    image j - m, at radius (L/m) sqrt(Q) with the integer Q = |j|^2 on the
    orthant: f runs once per distinct Q (``_radial_table``), gathered by
    ``_orthant_fold`` at offset 0.  The cell Q = 0 reads 0; the caller sets
    it.  Shape (m//2 + 1,)*n; ``unfold_orthant`` gives the grid.
    """
    table = _radial_table(f, geometry, m, (0,))
    return _orthant_fold([table], geometry.n, m, (0,))[0]


@lru_cache(maxsize=16)
def _sums_of_squares(n: int, h: int) -> np.ndarray:
    """Sorted distinct q_1^2 + ... + q_n^2 over integers |q_a| <= h; read-only, cached."""
    sums = np.flatnonzero(_cube_counts(n, h))
    sums.flags.writeable = False
    return sums


def _cube_counts(n: int, h: int) -> np.ndarray:
    """Number of integer vectors q with |q_a| <= h at each |q|^2 = 0, ..., n h^2."""
    counts = np.ones(1)
    for _ in range(n):
        # one more axis: q and -q both shift the counts by q^2
        grown = np.zeros(counts.size + h * h)
        grown[: counts.size] = counts
        twice = 2.0 * counts
        for q in range(1, h + 1):
            grown[q * q : q * q + counts.size] += twice
        counts = grown
    return counts


def _mirror_cosines(q: np.ndarray, m: int) -> np.ndarray:
    """w_o cos(2 pi (q o mod m) / m), shape q.shape + (m//2 + 1,), over orthant indices o.

    Orthant index o stands for the w_o m-grid indices j with min(j, m - j) = o
    (two, but one at o = 0 and at o = m/2), over which e^{2 pi i q j / m} sums
    to w_o cos(2 pi q o / m); reducing q o mod m keeps the argument below 2 pi.
    """
    o = np.arange(m // 2 + 1)
    weight = np.where((o == 0) | (2 * o == m), 1.0, 2.0)
    return weight * np.cos(2.0 * math.pi * (np.multiply.outer(q, o) % m) / m)


# ---------------------------------------------------------------------------
# Representation formula check
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]; read-only, cached."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=4)
def gauss_kronrod(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod extension of gauss_legendre(count) on [-1, 1]; read-only, cached.

    Returns the 2 count + 1 nodes, the Kronrod weights and the Gauss weights,
    0 off the odd nodes, which are gauss_legendre(count)'s.  Laurie's algorithm
    (Math. Comp. 66, 1997) extends b_k = k^2 / (4 k^2 - 1) to the zero-diagonal
    Kronrod-Jacobi matrix, whose eigenpairs give the rule (Golub-Welsch).
    """
    k = np.arange(1, (3 * count + 1) // 2 + 1.0)
    b = np.zeros(2 * count + 1)
    b[1 : k.size + 1] = k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros((2, count // 2 + 2))
    t[1] = b[count + 1]
    for m in range(count - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + count + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(count - 1, 2 * count - 2):
        k = np.arange(m + 1 - count, (m - 1) // 2 + 1)
        j = count - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + count + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + count + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    # eigh reads the lower triangle: the subdiagonal sqrt(b_k) alone suffices
    nodes, vectors = np.linalg.eigh(np.diag(np.sqrt(b[1:]), -1))
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = vectors[0] ** 2 + vectors[0, ::-1] ** 2
    gauss = np.zeros_like(weights)
    nodes[1::2], gauss[1::2] = gauss_legendre(count)
    for a in (nodes, weights, gauss):
        a.flags.writeable = False
    return nodes, weights, gauss


def plane_wave_spherical_mean(n: int, z) -> np.ndarray:
    """Mean of e^{i z <omega, e>} over the unit sphere S^{n-1}, odd n only.

    Equals (2l+1)!! j_l(z) / z^l with l = (n-3)/2 in terms of spherical
    Bessel functions; elementary for odd n.
    """
    if n % 2 == 0 or n > 7:
        raise DomainError(f"spherical mean implemented for odd n <= 7 only, got n = {n}")
    z = np.asarray(z, dtype=float)
    el = (n - 3) // 2
    out = np.empty_like(z)
    # the closed forms for l >= 1 cancel like eps / z^(2l) toward 0, so
    # below |z| = 2 they give way to the series 0F1(; n/2; -z^2/4)
    small = np.abs(z) < (1e-4 if el == 0 else 2.0)
    zs = z[small]
    if el == 0:
        # Taylor: 1 - z^2/(2n) + 3 z^4 / (8 n (n+2) ... ) truncated; O(z^6) error
        out[small] = 1.0 - zs * zs / (2.0 * n) + zs**4 * (3.0 / (8.0 * n * (n + 2)))
    else:
        x = -0.25 * zs * zs
        series = np.ones_like(zs)
        for j in range(14, 0, -1):  # terms below 1e-20 beyond j = 14 for |z| < 2
            series = 1.0 + series * x / (j * (j - 1 + 0.5 * n))
        out[small] = series
    zb = z[~small]
    s = np.sin(zb)
    if el == 0:  # sin(z)/z needs no cosine
        val = s / zb
    elif el == 1:
        val = 3.0 * (s - zb * np.cos(zb)) / zb**3
    else:
        val = 15.0 * ((3.0 / zb**2 - 1.0) * s - 3.0 * np.cos(zb) / zb) / zb**3
    out[~small] = val
    return out


def _radial_quadrature(
    n: int,
    radial_values: Callable[[np.ndarray], np.ndarray],
    r_lo: float,
    r_hi: float,
    xi: np.ndarray,
    xi_max: float,
) -> np.ndarray:
    """omega_{n-1} int_{r_lo}^{r_hi} f(r) r^{n-1} mean_n(xi r) dr at each xi.

    The 24-node Gauss-Legendre rule on equal panels, one per oscillation
    at xi_max and at least 10.  f may return a stack of integrands, shape
    (..., r.size), for a result of shape (..., xi.size).  With r and xi
    exchanged and the factor (2 pi)^{-n}, this is the inverse transform.
    """
    panels = max(10, math.ceil(xi_max * (r_hi - r_lo) / (2.0 * math.pi)))
    nodes, weights = gauss_legendre(24)
    half = 0.5 * (r_hi - r_lo) / panels
    r = (r_lo + half * (2.0 * np.arange(panels)[:, None] + nodes + 1.0)).ravel()
    w = np.tile(half * weights, panels)
    radial = radial_values(r) * r ** (n - 1) * w
    out = np.empty(radial.shape[:-1] + xi.shape)
    chunk = max(1, _BLOCK_ELEMENTS // r.size)
    for i in range(0, len(xi), chunk):
        mean = plane_wave_spherical_mean(n, np.outer(xi[i : i + chunk], r))
        out[..., i : i + chunk] = radial @ mean.T
    return euclid.sphere_area(n) * out


def _radial_fourier(
    n: int,
    radial_values: Callable[[np.ndarray], np.ndarray],
    r_lo: float,
    r_hi: float,
    xi: np.ndarray,
) -> np.ndarray:
    """The radial transform of ``_radial_quadrature`` at every |xi|.

    f is supported in [r_lo, r_hi], so the transform is an entire function
    of xi of exponential type r_hi; on [0, xi_max] its Chebyshev
    coefficients decay faster than geometrically once the degree passes
    xi_max r_hi / 2 (Trefethen, ATAP, ch. 8).  Longer tables than
    N = ceil(xi_max r_hi) + 16 nodes, twice that bound plus 16, are
    therefore interpolated: the quadrature runs at the N first-kind
    Chebyshev nodes (with the panels of xi_max), a DCT gives the
    coefficients and Clenshaw's recurrence evaluates them.  The largest of
    the last five coefficients over the largest estimates the interpolation
    error; above 1e-12 (or NaN) it raises ConvergenceError.  Shorter tables
    are evaluated directly.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xi_max = float(np.max(np.abs(xi))) if xi.size else 0.0
    count = math.ceil(xi_max * r_hi) + 16
    if xi.size <= count or xi_max == 0.0:
        return _radial_quadrature(n, radial_values, r_lo, r_hi, xi, xi_max)
    angles = math.pi * (np.arange(count) + 0.5) / count
    nodes = 0.5 * xi_max * (1.0 + np.cos(angles))
    values = _radial_quadrature(n, radial_values, r_lo, r_hi, nodes, xi_max)
    coef = np.cos(np.outer(np.arange(count), angles)) @ values * (2.0 / count)
    coef[0] *= 0.5
    out = np.polynomial.chebyshev.chebval(2.0 * np.abs(xi) / xi_max - 1.0, coef)
    tail = float(np.max(np.abs(coef[-5:])))
    scale = float(np.max(np.abs(coef)))
    if not tail <= 1e-12 * scale:
        raise ConvergenceError(
            f"Chebyshev interpolant of the radial transform unresolved at "
            f"{count} nodes: trailing coefficients {tail:.3e} against {scale:.3e}",
            best_estimate=out,
            error_estimate=tail / scale,
        )
    return out


def representation_check(
    params: ProblemParams,
    geometry: TorusGeometry,
    phi_hat: dict,
    x,
    grid: int = 128,
) -> tuple[float, float]:
    """Defect |int_T G(x, .) phi - u(x)| for a trigonometric polynomial phi.

    The integral is split: the near-diagonal singularity is removed by
    subtracting the parametrix H = chi(d) G_alpha(d)
    (``euclid.parametrix_kernel``, integrated against phi by exact per-mode
    radial quadrature), and the remaining continuous part G - H is
    integrated by the periodic rectangle rule on the grid.  Returns (defect,
    quadrature error estimate).  The estimate compares with the
    half-resolution grid, so ``grid`` must be even.

    The continuous part is even in each coordinate of the displacement v:
    the lattice L Z^n is invariant under each coordinate sign flip, so the
    periodised kernel, d = |v| and the parametrix are too.  It is therefore
    summed on the orthant 0 <= j_a <= grid//2 only (images M in the box of
    ``orthant_image_offsets``, tail 1e-10), against phi(x + .) folded over
    the sign flips, per mode a product of one ``_mirror_cosines`` factor per
    axis.  Every cell plus image sits at the integer radius
    Q = |j + grid M|^2, so one table G_alpha - H per Q is contracted with
    those factors (``_weighted_fold``): H vanishes before L/2, where the
    images M != 0 begin, and G_alpha - H is exactly 0 inside tau0/2, so the
    diagonal cell's own image, Q = 0, reads 0.
    Index grid - j has the parity of j, so the factors' even orthant indices
    give the half-resolution sum.

    Any odd n <= 7 is accepted, the dimensions of
    ``plane_wave_spherical_mean``; others are a DomainError before any work.
    """
    check_dimensions(params, geometry)
    if grid < 2 or grid % 2:
        raise DomainError(
            f"representation check needs an even grid >= 2, got {grid}: its error "
            "estimate compares with every second sample, a half-resolution "
            "grid only when the grid is even"
        )
    q, shifted = _shifted_modes(geometry, phi_hat, x)
    n, L = geometry.n, geometry.L
    m = grid
    cut = cutoff_for(n, params.k, L)
    h = euclid.parametrix_kernel(params, cut)

    # singular part first, mode by mode: the radial Fourier transform of H at
    # |xi| = 2 pi |q| / L, whose spherical mean rejects an even n or n > 7
    radial = _radial_fourier(n, h, 0.0, cut.tau0, 2.0 * math.pi * np.sqrt(np.sum(q * q, axis=1)) / L)
    singular_part = float(np.real(np.sum(shifted * radial)))

    # periodised kernel minus the parametrix (H is exactly 0.0 from tau0 on),
    # one value per integer radius, contracted with the per-axis factors of
    # each mode: one weight set per mode on the grid and one on its even indices
    offsets, _ = orthant_image_offsets(params, geometry, 1e-10)
    table = _radial_table(lambda r: euclid.kernel_alpha_array(params, r) - h(r), geometry, m, offsets)
    factors = _mirror_cosines(q, m)  # [mode, axis, orthant index]
    factors[:, 0] *= shifted.real[:, None]
    even = factors.copy()
    even[..., 1::2] = 0.0
    sums = _weighted_fold(table, n, m, offsets, np.concatenate([factors, even]))
    spacing = L / m
    grid_part = float(np.sum(sums[: len(q)])) * spacing**n
    half = float(np.sum(sums[len(q) :])) * (2 * spacing) ** n

    u_x = solve_value_at(params, geometry, phi_hat, x)
    defect = abs(grid_part + singular_part - u_x)
    return defect, abs(grid_part - half)


# ---------------------------------------------------------------------------
# Symmetry / positivity scan
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    pairs: int
    min_value: float
    max_asymmetry: float
    underflow_pairs: int
    failures: list

    @property
    def all_positive(self) -> bool:
        return not self.failures


def symmetry_positivity_scan(
    params: ProblemParams,
    geometry: TorusGeometry,
    sample_pairs: Sequence[tuple] | int,
    seed: int = 2024,
    tol: float = 1e-10,
) -> ScanReport:
    """Assert G > 0 and G(x,y) = G(y,x) on sampled pairs.

    ``sample_pairs`` is either an explicit sequence of (x, y) pairs or a
    count of uniform random pairs drawn with the given seed.  Pairs whose
    value underflows to exact zero are counted separately, not failed; a
    NaN value or asymmetry fails.  A seed that is not a nonnegative integer,
    or a count that is a non-integral number, is a DomainError.
    """
    check_seed(seed)
    if isinstance(sample_pairs, numbers.Real) and not isinstance(sample_pairs, numbers.Integral):
        raise DomainError(f"pair count must be an integer, got {sample_pairs}")
    if isinstance(sample_pairs, numbers.Integral):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, geometry.L, size=(max(sample_pairs, 0), 2, geometry.n))
        pts = pts[np.any(pts[:, 0] != pts[:, 1], axis=1)]  # coincident pairs are singular
        xs, ys = pts[:, 0], pts[:, 1]
    else:
        pairs = list(sample_pairs)
        shape = (len(pairs), geometry.n)
        xs = np.array([p[0] for p in pairs], dtype=float).reshape(shape)
        ys = np.array([p[1] for p in pairs], dtype=float).reshape(shape)
    if not len(xs):
        raise DomainError("symmetry/positivity scan needs at least one pair")
    forward = green_lattice_sum_many(params, geometry, ys - xs, tol)
    asym = np.abs(forward - green_lattice_sum_many(params, geometry, xs - ys, tol))
    bad_value = ~(forward >= 0.0)  # negative or NaN; exact zeros are underflow
    bad_asym = ~(asym <= 2.0 * tol + 1e-12 * np.abs(forward))
    failures = []
    for i in np.flatnonzero(bad_value | bad_asym):
        pair = {"x": xs[i].tolist(), "y": ys[i].tolist()}
        if bad_value[i]:
            failures.append({**pair, "value": float(forward[i])})
        if bad_asym[i]:
            failures.append({**pair, "asymmetry": float(asym[i])})
    return ScanReport(
        pairs=len(xs),
        min_value=float(np.min(forward)),
        max_asymmetry=float(np.max(asym)),
        underflow_pairs=int(np.count_nonzero(forward == 0.0)),
        failures=failures,
    )
