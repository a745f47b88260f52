"""Scale functions, growth functions, gauges, domains, and sampling.

Every supremum this package reports is taken over a finite sample window
and is therefore a certified lower bound of the true sup, never an upper
bound.  This module owns the shared ingredients: the scale function r
(vanishing only at 0, nondecreasing, subadditive), the growth function R
(positive, subadditive) tied to r through the cross bound
R(u) <= a*r(u) + b, gauges pinched inside the cone
gamma*R(|x|) <= phi(x) <= beta*R(|x|), and the deterministic sample sets
(grid + low-discrepancy + seeded random points, with a nested compact
exhaustion) that all estimators evaluate on.

Two analytic side conditions on r (scaling compatibility and stability
under the compositions used downstream) hold by construction for the
built-in scale functions and are not checked numerically; user-supplied
closures are trusted on this point.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RadialFn",
    "CrossConstants",
    "Gauge",
    "Domain",
    "SampleScheme",
    "Tolerances",
    "ConditionCheck",
    "ValidationReport",
    "make_radial",
    "gauge_from_growth",
    "builtin_triple",
    "BUILTIN_TRIPLE_NAMES",
    "sample_points",
    "doubling_radii",
    "doubling_sample_sets",
    "exhaustion_sets",
    "validate_scale_pair",
    "validate_gauge",
]

DOUBLINGS = 3  # finiteness classification always uses three window doublings


@dataclass(frozen=True)
class Tolerances:
    """Numeric knobs shared across the package; all overridable per run."""

    tau_abs: float = 1e-12       # absolute slack for exact identities
    rel: float = 1e-9            # relative comparison slack
    tau_inv: float = 1e-8        # round-trip tolerance for inverses
    tau_tri: float = 1e-9        # relaxed-triangle slack
    tau_contr: float = 1e-9      # contraction-inequality slack
    tau_env: float = 1e-9        # envelope-monitor slack
    tol_conj: float = 1e-8       # Picard stopping tolerance
    tol_koenigs: float = 1e-10   # linearization convergence tolerance
    kappa_div: float = 1.5       # growth factor triggering "divergent"

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not getattr(self, name) > 0:
                raise ValueError(f"tolerance {name!r} must be positive")


# ---------------------------------------------------------------------------
# scale / growth functions


@dataclass(frozen=True)
class RadialFn:
    """Scale function r or growth function R on nonnegative reals, vectorized."""

    eval: Callable[[np.ndarray], np.ndarray]
    kind: str = "user_closure"


@dataclass(frozen=True)
class CrossConstants:
    """Constants (a, b) of the cross bound R(u) <= a*r(u) + b."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("cross constants must be positive")


_BUILTIN_EVALS = {
    "identity": lambda u: np.asarray(u, dtype=float),
    "sqrt_plus": lambda u: np.sqrt(np.maximum(np.asarray(u, dtype=float), 0.0)) + 1.0,
    "linear_plus": lambda u: np.asarray(u, dtype=float) + 1.0,
}


def make_radial(kind: str) -> RadialFn:
    """Built-in scale or growth function by name."""
    if kind not in _BUILTIN_EVALS:
        raise ValueError(f"unknown scale or growth kind {kind!r}")
    return RadialFn(eval=_BUILTIN_EVALS[kind], kind=kind)


# ---------------------------------------------------------------------------
# domains


_REGIONS = ("box", "half_line", "box_minus_ball")
_NORMS = ("euclidean", "sup")


@dataclass(frozen=True)
class Domain:
    """Closed region of R^d that the homeomorphisms act on.

    ``bounds`` holds one (lo, hi) interval per axis; infinities are allowed.
    Any sequence of pairs is accepted and stored as a tuple of float pairs.
    ``half_line`` is the one-dimensional ray [lo, inf).  ``box_minus_ball``
    removes the open ball of ``inner_radius`` around the origin, which the
    functional checks that need 0 excluded rely on.
    """

    dim: int
    region: str = "box"
    bounds: tuple = ()
    norm: str = "euclidean"
    inner_radius: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.region not in _REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        if self.norm not in _NORMS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.region == "half_line" and self.dim != 1:
            raise ValueError("half_line region is one-dimensional only")
        bounds = self.bounds
        if not bounds:
            if self.region == "half_line":
                bounds = ((0.0, np.inf),)
            else:
                bounds = tuple((-np.inf, np.inf) for _ in range(self.dim))
        # one canonical form, so equal domains compare and hash equal
        object.__setattr__(self, "bounds", tuple(
            (float(lo), float(hi)) for lo, hi in bounds))
        if len(self.bounds) != self.dim:
            raise ValueError("bounds must give one interval per axis")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError("empty axis interval")
        if self.region == "half_line" and self.bounds[0][0] < 0:
            raise ValueError("half_line lower bound must be >= 0")
        if self.region == "box_minus_ball" and not self.inner_radius > 0:
            raise ValueError("box_minus_ball needs a positive inner_radius")

    def fold_norm(self, parts, out: np.ndarray | None = None) -> np.ndarray:
        """The norm of vectors given by their per-axis parts, in axis order.

        ``parts`` yields one array per axis, all of one shape.  The sup norm
        is a running maximum of |x_k|; the euclidean norm is the running sum
        x_0^2 + x_1^2 + ... followed by one square root.  In dimension 1 both
        are |x_0|, which no square overflows or underflows.

        With ``out`` (float, of the parts' shape) the norm is written into
        it and no array is allocated: ``out`` may be the first part itself,
        and every part is overwritten, so a generator may write each part
        into one scratch array after the previous one is folded.  Without
        it the parts are read only.  Either way the bits are the same.
        """
        parts = iter(parts)
        first = next(parts)
        overwrite = out is not None
        if self.norm == "sup" or self.dim == 1:
            out = np.abs(first, out=out)
            for x in parts:
                np.maximum(out, np.abs(x, out=x if overwrite else None),
                           out=out)
            return out
        out = np.multiply(first, first, out=out)
        for x in parts:
            out += np.multiply(x, x, out=x if overwrite else None)
        return np.sqrt(out, out=out if overwrite else None)

    def norm_of(self, pts: np.ndarray) -> np.ndarray:
        """The norm of each point of a ``(..., dim)`` array (its last axis).

        One :meth:`fold_norm` over ``pts[..., k]``.  The sup norm's bits
        equal ``np.max(np.abs(p), axis=-1)``, since a maximum is exact.  In
        dimension 1 the norm is |x_0|: a finite |x_0| stays finite, and the
        bits equal ``np.sqrt(p * p)`` wherever x_0^2 neither overflows nor
        underflows, about 1.5e-154 <= |x_0| <= 1.34e154.  From 2 up to 7
        axes the euclidean bits equal ``np.sqrt(np.sum(p * p, axis=-1))``:
        numpy adds fewer than 8 terms in order, and every term is a square
        >= 0.  From 8 axes on numpy sums pairwise, so the euclidean norm may
        differ from it in the last bits.
        """
        pts = np.atleast_2d(pts)
        return self.fold_norm(pts[..., k] for k in range(pts.shape[-1]))

    def contains(self, pts: np.ndarray, slack: float = 1e-9) -> np.ndarray:
        """Whether each row of ``pts`` lies in the region, within ``slack``.

        Only finite bounds are compared.  A NaN coordinate fails every
        comparison, so an axis unbounded both ways tests x == x instead:
        no row with a NaN coordinate is contained.
        """
        pts = np.atleast_2d(pts)
        tests = []
        for j, (lo, hi) in enumerate(self.bounds):
            x = pts[:, j]
            if lo > -np.inf:
                tests.append(x >= lo - slack)
            if hi < np.inf:
                tests.append(x <= hi + slack)
            if lo == -np.inf and hi == np.inf:
                tests.append(x == x)
        if self.region == "box_minus_ball":
            tests.append(self.norm_of(pts) >= self.inner_radius - slack)
        mask = tests[0]
        for test in tests[1:]:
            mask &= test
        return mask


# ---------------------------------------------------------------------------
# gauges


@dataclass(frozen=True)
class Gauge:
    """Continuous positive weight phi with cone constants beta > gamma > 0.

    ``m`` is the uniform lower bound of phi.  The constructor enforces the
    ordering of the cone constants; the sampled inequalities themselves are
    the business of :func:`validate_gauge`.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    beta: float
    gamma: float
    m: float
    label: str = "gauge"

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.beta > self.gamma:
            raise ValueError("cone constants need beta > gamma")
        if not self.m > 0:
            raise ValueError("m must be positive")


def gauge_from_growth(growth: RadialFn, domain: Domain, beta: float,
                      gamma: float, m: float, label: str = "") -> Gauge:
    """Gauge phi(x) = R(|x|) with the cone constants supplied by the caller."""

    def _eval(pts: np.ndarray) -> np.ndarray:
        return growth.eval(domain.norm_of(pts))

    return Gauge(eval=_eval, beta=beta, gamma=gamma, m=m,
                 label=label or f"{growth.kind}(|x|)")


# growth kind -> cross constants (a, b) against the identity scale
_BUILTIN_TRIPLES = {
    "sqrt_plus": CrossConstants(a=1.0, b=1.25),
    "linear_plus": CrossConstants(a=1.0, b=1.0),
}

BUILTIN_TRIPLE_NAMES = tuple(_BUILTIN_TRIPLES)


def builtin_triple(name: str, domain: Domain):
    """Shipped (R, r, cross, gauge) combinations known to validate cleanly.

    ``sqrt_plus``: R(u) = sqrt(u) + 1, r = identity, a = 1, b = 5/4,
    cone constants beta = 2, gamma = 1/2, floor m = 1.
    ``linear_plus``: R(u) = u + 1, r = identity, a = 1, b = 1, same cone.
    """
    if name not in _BUILTIN_TRIPLES:
        raise ValueError(f"unknown builtin triple {name!r}")
    growth = make_radial(name)
    phi = gauge_from_growth(growth, domain, beta=2.0, gamma=0.5, m=1.0)
    return growth, make_radial("identity"), _BUILTIN_TRIPLES[name], phi


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampleScheme:
    """Deterministic recipe for the finite evaluation window.

    The window is the part of the domain inside the ball of
    ``window_radius``; estimators additionally look at three doublings of
    that radius to classify finiteness.  ``exhaustion_levels`` is the top
    index of the nested compacts K_k = window-samples inside the ball of
    radius 2^k.
    """

    window_radius: float
    grid_points_per_axis: int = 41
    quasirandom_count: int = 64
    exhaustion_levels: int = 4
    seed: int = 0

    def __post_init__(self):
        if not self.window_radius > 0:
            raise ValueError("window_radius must be positive")
        if self.grid_points_per_axis < 2:
            raise ValueError("grid_points_per_axis must be >= 2")
        if self.quasirandom_count < 0:
            raise ValueError("quasirandom_count must be >= 0")
        if self.exhaustion_levels < 1:
            raise ValueError("exhaustion_levels must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# quasirandom points take one prime per axis
QUASIRANDOM_MAX_DIM = len(_PRIMES)


def _kronecker(n: int, dim: int) -> np.ndarray:
    # additive low-discrepancy sequence; deterministic, independent of seed
    if n <= 0:
        return np.zeros((0, dim))
    if dim > QUASIRANDOM_MAX_DIM:
        raise ValueError(
            f"quasirandom sampling supports dim <= {QUASIRANDOM_MAX_DIM}")
    alphas = np.sqrt(np.array(_PRIMES[:dim], dtype=float))
    steps = np.arange(1, n + 1, dtype=float)[:, None]
    return np.modf(steps * alphas[None, :])[0]


def _axis_windows(domain: Domain, radius: float) -> list:
    out = []
    for lo, hi in domain.bounds:
        out.append((max(lo, -radius), min(hi, radius)))
    return out


_LADDER_DEPTH = 48  # dyadic scales down to ~1e-14 of the window radius


def _origin_ladder(domain: Domain, radius: float) -> np.ndarray:
    # Weighted sups concentrate near the origin (the gauge floor); a plain
    # grid misses structure at small scales, so every window carries points
    # at all dyadic scales along each signed axis direction.
    scales = radius * 2.0 ** -np.arange(1, _LADDER_DEPTH + 1)
    blocks = []
    for j in range(domain.dim):
        for sign in (1.0, -1.0):
            pts = np.zeros((scales.shape[0], domain.dim))
            pts[:, j] = sign * scales
            blocks.append(pts)
    return np.concatenate(blocks, axis=0)


def _window_points(domain: Domain, scheme: SampleScheme,
                   radius: float | None = None) -> np.ndarray:
    """Grid, low-discrepancy, seeded random points, the origin anchor and
    ladder that lie in domain ∩ ball(0, radius), unsorted and possibly
    repeated."""
    radius = scheme.window_radius if radius is None else float(radius)
    axes = _axis_windows(domain, radius)
    for lo, hi in axes:
        if not lo < hi:
            raise ValueError("window does not intersect the domain")
    grids = [np.linspace(lo, hi, scheme.grid_points_per_axis) for lo, hi in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)

    unit = _kronecker(scheme.quasirandom_count, domain.dim)
    lows = np.array([lo for lo, _ in axes])
    highs = np.array([hi for _, hi in axes])
    qr = lows + unit * (highs - lows)

    rng = np.random.default_rng(np.random.SeedSequence(
        [int(scheme.seed), int(max(1.0, radius))]))
    rand = lows + rng.random((scheme.quasirandom_count, domain.dim)) * (highs - lows)

    anchor = np.clip(np.zeros((1, domain.dim)), lows, highs)
    ladder = _origin_ladder(domain, radius)

    pts = np.concatenate([pts, qr, rand, anchor, ladder], axis=0)
    keep = domain.contains(pts, slack=0.0)
    keep &= domain.norm_of(pts) <= radius * (1.0 + 1e-12)
    pts = pts[keep]
    if pts.shape[0] == 0:
        raise ValueError("sampling produced an empty window")
    return pts


def _distinct_rows(pts: np.ndarray) -> tuple:
    """The distinct rows of a ``(n, d)`` array in lexicographic order, and
    the index of each one's first occurrence: the bits of ``np.unique(pts,
    axis=0, return_index=True)``, from one stable ``np.lexsort`` over the
    columns and one comparison of neighbours."""
    order = np.lexsort(pts.T[::-1])
    ordered = pts[order]
    new = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    return ordered[new], order[new]


def sample_points(domain: Domain, scheme: SampleScheme,
                  radius: float | None = None) -> np.ndarray:
    """Finite sample of domain ∩ ball(0, radius); grid, low-discrepancy,
    seeded random points, and the origin anchor, deduplicated."""
    return _distinct_rows(_window_points(domain, scheme, radius))[0]


def doubling_radii(scheme: SampleScheme) -> tuple:
    return tuple(scheme.window_radius * (2 ** j) for j in range(DOUBLINGS + 1))


# Two cache rules.  Data derived from a sample table depends on (domain,
# scheme[, gauge or cap]) alone, and a scale-pair report on (growth, r,
# cross, scheme, tol) alone, so each is cached with functools.lru_cache,
# keyed by value, at most _TABLE_CACHE_SIZE entries per function; a table's own
# data is one _Table record, so no part of it outlives the rest and hands out a
# second copy of the table.  Chain images are not values: homspace caches them
# in its run and process memos, keyed on the identity of their input array.  A
# Picard run asks for the same few tables dozens of times.  Tables of a 2-d
# window hold a few thousand rows, so 64 keys stay small; an image cached on a
# table the LRU dropped keeps that table alive until the image is evicted too.
_TABLE_CACHE_SIZE = 64


def _read_only(pts: np.ndarray) -> np.ndarray:
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True, eq=False)
class _Geometry:
    """Where the points of a table lie: ``norms`` per row, their stable
    ``order``, the largest norm ``radius`` (0 for no rows) and, per radius
    of ``radii``, the count ``cuts`` of rows, in norm order, within it
    (relative slack 1e-9)."""

    radii: tuple
    norms: np.ndarray
    order: np.ndarray
    radius: float
    cuts: tuple


def _norm_geometry(norms: np.ndarray, radii) -> _Geometry:
    """The geometry of points with these ``norms``, cut at ``radii``."""
    order = np.argsort(norms, kind="stable")
    cuts = np.searchsorted(norms[order], np.multiply(radii, 1.0 + 1e-9),
                           side="right")
    return _Geometry(tuple(radii), norms, order,
                     float(np.max(norms, initial=0.0)), tuple(cuts.tolist()))


@dataclass(frozen=True, eq=False)
class _Table:
    """The data of one (domain, scheme), every array read-only: the top
    table ``pts``, the first ``level`` sampling each row, their geometry
    ``geo``, the ``levels`` of :func:`doubling_sample_sets` and, cut on
    first use since most tables are never cut, the compacts."""

    scheme: SampleScheme
    pts: np.ndarray
    level: np.ndarray
    geo: _Geometry
    levels: tuple

    @functools.cached_property
    def rows(self) -> tuple:
        """Per compact K_k of :func:`exhaustion_sets`, the window's own
        points (level 0) of norm at most min(window radius, 2^k), relative
        slack 1e-12, its ascending row indices in ``pts``: the one place
        the compacts are cut."""
        out = []
        for k in range(self.scheme.exhaustion_levels + 1):
            cut = min(self.scheme.window_radius, float(2 ** k))
            rows = np.flatnonzero((self.level == 0)
                                  & (self.geo.norms <= cut * (1.0 + 1e-12)))
            rows.flags.writeable = False
            out.append(rows)
        return tuple(out)

    @functools.cached_property
    def compacts(self) -> tuple:
        return tuple(_read_only(self.pts[rows]) for rows in self.rows)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table(domain: Domain, scheme: SampleScheme) -> _Table:
    """The :class:`_Table` of (domain, scheme).  One :func:`_distinct_rows`
    sorts the raw points of all four levels; no level is sorted on its
    own."""
    radii = doubling_radii(scheme)
    raw = [_window_points(domain, scheme, radius) for radius in radii]
    level = np.repeat(np.arange(len(raw)), [len(lvl) for lvl in raw])
    pts, first = _distinct_rows(np.concatenate(raw))
    pts, level = _read_only(pts), level[first]
    levels = tuple((radius, _read_only(pts[level <= k]))
                   for k, radius in enumerate(radii[:-1])) + ((radii[-1], pts),)
    geo = _norm_geometry(domain.norm_of(pts), radii)
    level.flags.writeable = False
    geo.norms.flags.writeable = geo.order.flags.writeable = False
    return _Table(scheme, pts, level, geo, levels)


def doubling_sample_sets(domain: Domain, scheme: SampleScheme) -> tuple:
    """Cumulative sample sets for the window and its three doublings.

    Each set contains the previous one, so sup estimates taken level by
    level are nondecreasing by construction.  Returns a tuple of
    (radius, points) pairs.  Level k keeps the points of the top table
    first sampled at a level <= k, in its order, so every level is a
    subsequence of the top one.  Memoized on (domain, scheme): equal keys
    get the same read-only arrays.
    """
    return _table(domain, scheme).levels


def _gauge_values(phi: Gauge, pts: np.ndarray) -> tuple:
    """(phi(pts), and whether every value is positive and finite)."""
    values = np.asarray(phi.eval(pts))
    return values, bool(np.all(values > 0) and np.all(np.isfinite(values)))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table_gauge(phi: Gauge, domain: Domain, scheme: SampleScheme) -> tuple:
    """:func:`_gauge_values` of phi on the top table of (domain, scheme),
    the values read-only."""
    values, valid = _gauge_values(phi, _table(domain, scheme).pts)
    values = values.view()
    values.flags.writeable = False
    return values, valid


def exhaustion_sets(domain: Domain, scheme: SampleScheme) -> tuple:
    """Nested compacts K_0 ⊆ ... ⊆ K_{k_max} cut from the window's table,
    each the rows ``_Table.rows`` names of the top table.

    Memoized on (domain, scheme): equal keys get the same tuple of
    read-only arrays.
    """
    return _table(domain, scheme).compacts


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    margin: float          # worst violation beyond 0; 0.0 if clean, NaN if NaN
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def margin_of(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.margin
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "margin": float(c.margin)}
                for c in self.checks
            ],
        }


def _u_samples(scheme: SampleScheme) -> np.ndarray:
    # nonnegative scalar arguments for r and R; windows up to one doubling
    us = [np.linspace(0.0, w, scheme.grid_points_per_axis)
          for w in doubling_radii(scheme)]
    us.append(_kronecker(scheme.quasirandom_count, 1)[:, 0] * scheme.window_radius)
    rng = np.random.default_rng(np.random.SeedSequence([int(scheme.seed), 97]))
    us.append(rng.random(scheme.quasirandom_count) * scheme.window_radius)
    return _distinct_rows(np.concatenate(us)[:, None])[0][:, 0]


def _strided_subset(n: int, cap: int) -> np.ndarray:
    """Indices of all n items or, when n * n exceeds ``cap``, of an evenly
    strided subset of at most isqrt(cap) of them, so that the kept items
    make at most ``cap`` ordered pairs."""
    if n * n <= cap:
        return np.arange(n)
    return np.arange(0, n, -(-n // math.isqrt(cap)))


def _worst(excess: np.ndarray, args) -> tuple:
    idx = int(np.argmax(excess))
    return tuple(float(np.asarray(a).ravel()[idx]) for a in args)


def _max_check(name: str, worst: float, witness,
               tol: Tolerances) -> ConditionCheck:
    """Condition excess <= tau_abs on every sample, given the largest
    excess ``worst`` and the sample ``witness`` first reaching it; a NaN
    excess fails it, with margin NaN."""
    return ConditionCheck(name, worst <= tol.tau_abs,
                          float(np.maximum(0.0, worst)), witness)


def _sup_check(name: str, excess: np.ndarray, args,
               tol: Tolerances) -> ConditionCheck:
    """:func:`_max_check` of an excess array, witnessed at its argmax."""
    if not excess.size:
        return _max_check(name, 0.0, None, tol)
    return _max_check(name, float(np.max(excess)), _worst(excess, args), tol)


def _positive_check(name: str, vals: np.ndarray,
                    u: np.ndarray) -> ConditionCheck:
    """Condition vals > 0 on every sample, witnessed at the most negative;
    a NaN value fails it, with margin NaN.  The margin is 0.0 - min, not
    -min, so a least value of exactly 0 reports +0.0, not -0.0."""
    ok = bool(np.all(vals > 0))
    margin = float(np.maximum(0.0, 0.0 - np.min(vals))) if vals.size else 0.0
    return ConditionCheck(name, ok, margin, None if ok else _worst(-vals, (u,)))


# The pair checks walk their grid in blocks of whole rows of at most
# _PAIR_BLOCK_CELLS cells, 64 KiB per float temporary: below glibc's 128 KiB
# threshold, so no temporary is a fresh mmap whose pages fault on first use.
_PAIR_BLOCK_CELLS = 8192


def _fold_worst(worst, excess: np.ndarray, base: int):
    """The running (largest excess, flat index of its first cell) of the
    cells before one more block ``excess`` whose first cell has flat index
    ``base``, folded with that block as ``np.max`` and ``np.argmax`` fold
    the whole grid: the first NaN wins and sticks, and a tie keeps the
    earlier cell.  ``worst`` is None before the first block.  The value
    kept is the first cell's, so a largest excess of zero reached by both
    +0.0 and -0.0 keeps the first one's sign, where ``np.max`` leaves it to
    its SIMD lanes."""
    k = int(np.argmax(excess))
    m = float(excess.flat[k])
    if worst is None or (not math.isnan(worst[0])
                         and (m > worst[0] or math.isnan(m))):
        return m, base + k
    return worst


def _pair_checks(growth: RadialFn, scale: RadialFn, sub: np.ndarray,
                 r_sub: np.ndarray, R_sub: np.ndarray,
                 tol: Tolerances) -> tuple:
    """The r_nondecreasing, r_subadditive and R_subadditive checks over
    every ordered pair (x, y) of the distinct samples ``sub``, x == y
    included, x outer, given ``r_sub`` = r(sub) and ``R_sub`` = R(sub).
    r and R are evaluated once more per block, on its pair sums."""
    n = sub.shape[0]
    rows = max(1, _PAIR_BLOCK_CELLS // n)
    mono = r_add = R_add = None
    for i0 in range(0, n, rows):
        x, rx, Rx = (v[i0:i0 + rows, None] for v in (sub, r_sub, R_sub))
        # r(min(x, y)) - r(max(x, y)), the samples being distinct
        up = x <= sub
        mono = _fold_worst(mono, np.where(up, rx, r_sub)
                           - np.where(up, r_sub, rx), i0 * n)
        s = (x + sub).ravel()
        r_add = _fold_worst(r_add, np.reshape(scale.eval(s), up.shape)
                            - rx - r_sub, i0 * n)
        R_add = _fold_worst(R_add, np.reshape(growth.eval(s), up.shape)
                            - Rx - R_sub, i0 * n)

    def pair(k):
        return float(sub[k // n]), float(sub[k % n])

    return (_max_check("r_nondecreasing", mono[0],
                       tuple(sorted(pair(mono[1]))), tol),
            _max_check("r_subadditive", r_add[0], pair(r_add[1]), tol),
            _max_check("R_subadditive", R_add[0], pair(R_add[1]), tol))


def validate_scale_pair(growth: RadialFn, scale: RadialFn, cross: CrossConstants,
                        scheme: SampleScheme,
                        tol: Tolerances = Tolerances()) -> ValidationReport:
    """Sampled verification of the scale/growth axioms and the cross bound.

    Reported, never raised: each condition carries a pass flag and the worst
    violation margin (0.0 for a clean pass, NaN for a NaN violation).  r and
    R must be elementwise, mapping an array to one of its shape whose every
    value depends on its own argument alone, as the rule that no estimate
    depends on its batch already requires: each is evaluated once per sample
    and once per pair sum, in blocks.  Memoized on (growth, r, cross,
    scheme, tol): equal keys get the same report.
    """
    return _scale_pair_report(growth, scale, cross, scheme, tol)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _scale_pair_report(growth: RadialFn, scale: RadialFn,
                       cross: CrossConstants, scheme: SampleScheme,
                       tol: Tolerances) -> ValidationReport:
    """The report of :func:`validate_scale_pair`."""
    u = _u_samples(scheme)
    pos = u > 0
    ru, Ru = scale.eval(u), growth.eval(u)
    # every pair (x, y), x == y included, of a strided subset, x outer
    kept = _strided_subset(u.shape[0], 250_000)
    zero = np.zeros(1)
    r_nondecreasing, r_subadditive, R_subadditive = _pair_checks(
        growth, scale, u[kept], ru[kept], Ru[kept], tol)
    return ValidationReport(checks=(
        _sup_check("r_zero_at_origin", np.abs(scale.eval(zero)), (zero,), tol),
        _positive_check("r_positive_off_origin", ru[pos], u[pos]),
        r_nondecreasing,
        r_subadditive,
        _positive_check("R_positive", Ru, u),
        R_subadditive,
        _sup_check("cross_bound", Ru - cross.a * ru - cross.b, (u,), tol),
    ))


def _shell_min(vals: np.ndarray, norms: np.ndarray, radius: float) -> float:
    """The least of ``vals`` over the outer shell |x| >= radius / 2, or
    over every row when the shell holds none."""
    shell = norms >= 0.5 * radius
    return float(np.min(vals[shell])) if np.any(shell) else float(np.min(vals))


def validate_gauge(phi: Gauge, growth: RadialFn, domain: Domain,
                   scheme: SampleScheme,
                   tol: Tolerances = Tolerances()) -> ValidationReport:
    """Sampled verification of the gauge conditions.

    The floor and the cone are pointwise inequalities, checked as in
    :func:`validate_scale_pair` on the top table, which holds every level.
    Coercivity is a window-doubling diagnostic (the minimum of phi over
    the outer shell has to grow as the window doubles).
    """
    # every level is a subset of the top table, so the top's values hold
    # every value the levels take
    table = _table(domain, scheme)
    vals = _table_gauge(phi, domain, scheme)[0]
    if np.any(~np.isfinite(vals)):
        raise ValueError("gauge evaluated to a non-finite value")
    inner = table.level == 0
    inner_min = _shell_min(vals[inner], table.geo.norms[inner],
                           table.geo.radii[0])
    outer_min = _shell_min(vals, table.geo.norms, table.geo.radii[-1])
    Rn = growth.eval(table.geo.norms)
    where = tuple(table.pts.T)
    # the shortfall of the outer minimum against the growth it must show,
    # so the margin is positive exactly when the check fails
    shortfall = inner_min + tol.tau_abs - outer_min
    return ValidationReport(checks=(
        _sup_check("floor_m", phi.m - vals, where, tol),
        _sup_check("cone_lower", phi.gamma * Rn - vals, where, tol),
        _sup_check("cone_upper", vals - phi.beta * Rn, where, tol),
        ConditionCheck("coercive_shell_growth", shortfall < 0,
                       max(0.0, shortfall),
                       (inner_min, outer_min)),
    ))
