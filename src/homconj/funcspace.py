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
import weakref
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

    def fold_norm(self, parts) -> np.ndarray:
        """The norm of vectors given by their per-axis parts, in axis order.

        ``parts`` yields one array per axis, all of one shape.  The sup norm
        is a running maximum of |x_k|; the euclidean norm is the running sum
        x_0^2 + x_1^2 + ... followed by one square root.
        """
        parts = iter(parts)
        first = next(parts)
        if self.norm == "sup":
            out = np.abs(first)
            for x in parts:
                np.maximum(out, np.abs(x), out=out)
            return out
        out = first * first
        for x in parts:
            out += x * x
        return np.sqrt(out)

    def norm_of(self, pts: np.ndarray) -> np.ndarray:
        """The norm of each point of a ``(..., dim)`` array (its last axis).

        One :meth:`fold_norm` over ``pts[..., k]``.  Up to 7 axes the bits
        equal ``np.sqrt(np.sum(p * p, axis=-1))`` and
        ``np.max(np.abs(p), axis=-1)``: numpy adds fewer than 8 terms in
        order, every term is a square >= 0, and a maximum is exact.  From 8
        axes on numpy sums pairwise, so the euclidean norm may differ from
        it in the last bits.
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


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _kronecker(n: int, dim: int) -> np.ndarray:
    # additive low-discrepancy sequence; deterministic, independent of seed
    if n <= 0:
        return np.zeros((0, dim))
    if dim > len(_PRIMES):
        raise ValueError("quasirandom sampling supports dim <= 8")
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


def sample_points(domain: Domain, scheme: SampleScheme,
                  radius: float | None = None) -> np.ndarray:
    """Finite sample of domain ∩ ball(0, radius); grid, low-discrepancy,
    seeded random points, and the origin anchor, deduplicated."""
    return np.unique(_window_points(domain, scheme, radius), axis=0)


def doubling_radii(scheme: SampleScheme) -> tuple:
    return tuple(scheme.window_radius * (2 ** j) for j in range(DOUBLINGS + 1))


# Two cache rules.  Data derived from a sample table (the tables, their
# geometry, phi on them, the r_lipschitz pair cloud) depends on (domain,
# scheme[, gauge]) alone, so it is cached with functools.lru_cache, keyed
# by value, at most _TABLE_CACHE_SIZE entries per function.  Chain images
# are not values: homspace caches them in its run and process memos, keyed
# on the identity of their input array.  A Picard run asks for the same
# few tables dozens of times.  Tables of a 2-d window hold a few thousand
# rows, so 64 keys stay small; an image cached on a table the LRU dropped
# keeps that table alive until the image is evicted too.
_TABLE_CACHE_SIZE = 64

# id -> every table handed out and still alive.  A read-only flag alone
# does not mark a table: a read-only view of a writable array can change.
_TABLES = weakref.WeakValueDictionary()


def _read_only(pts: np.ndarray) -> np.ndarray:
    pts.flags.writeable = False
    _TABLES[id(pts)] = pts
    return pts


def _is_table(pts: np.ndarray) -> bool:
    """Whether ``pts`` is itself a sample table this module handed out."""
    return _TABLES.get(id(pts)) is pts


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


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def doubling_sample_sets(domain: Domain, scheme: SampleScheme) -> tuple:
    """Cumulative sample sets for the window and its three doublings.

    Each set contains the previous one, so sup estimates taken level by
    level are nondecreasing by construction.  Returns a tuple of
    (radius, points) pairs.  One ``np.unique`` sorts the raw window points
    of all four levels (no level is sorted on its own); level k keeps those
    first sampled at a level <= k, still sorted.  Memoized on (domain,
    scheme): equal keys get the same read-only arrays.
    """
    radii = doubling_radii(scheme)
    levels = [_window_points(domain, scheme, radius) for radius in radii]
    level = np.repeat(np.arange(len(levels)), [len(lvl) for lvl in levels])
    pts, first = np.unique(np.concatenate(levels), axis=0, return_index=True)
    return tuple((radius, _read_only(pts[level[first] <= k]))
                 for k, radius in enumerate(radii))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _top_table(domain: Domain, scheme: SampleScheme) -> tuple:
    """(the top table of (domain, scheme), its read-only geometry at the
    doubling radii): the one place the norms of the top table are taken."""
    pts = doubling_sample_sets(domain, scheme)[-1][1]
    geo = _norm_geometry(domain.norm_of(pts), doubling_radii(scheme))
    geo.norms.flags.writeable = geo.order.flags.writeable = False
    return pts, geo


def _gauge_values(phi: Gauge, pts: np.ndarray) -> tuple:
    """(phi(pts), and whether every value is positive and finite)."""
    values = np.asarray(phi.eval(pts))
    return values, bool(np.all(values > 0) and np.all(np.isfinite(values)))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table_gauge(phi: Gauge, domain: Domain, scheme: SampleScheme) -> tuple:
    """:func:`_gauge_values` of phi on the top table of (domain, scheme),
    the values read-only."""
    values, valid = _gauge_values(phi, _top_table(domain, scheme)[0])
    values = values.view()
    values.flags.writeable = False
    return values, valid


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def exhaustion_sets(domain: Domain, scheme: SampleScheme) -> tuple:
    """Nested compacts K_0 ⊆ ... ⊆ K_{k_max} cut from the window's table.

    Memoized on (domain, scheme): equal keys get the same tuple of
    read-only arrays.
    """
    base = doubling_sample_sets(domain, scheme)[0][1]
    norms = domain.norm_of(base)
    out = []
    for k in range(scheme.exhaustion_levels + 1):
        cut = min(scheme.window_radius, float(2 ** k))
        out.append(_read_only(base[norms <= cut * (1.0 + 1e-12)]))
    return tuple(out)


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
    return np.unique(np.concatenate(us))


def _strided_subset(n: int, cap: int) -> np.ndarray:
    """Indices of all n items or, when n * n exceeds ``cap``, of an evenly
    strided subset of about sqrt(cap) of them."""
    if n * n <= cap:
        return np.arange(n)
    return np.arange(0, n, int(np.ceil(n / np.sqrt(cap))))


def _worst(excess: np.ndarray, args) -> tuple:
    idx = int(np.argmax(excess))
    return tuple(float(np.asarray(a).ravel()[idx]) for a in args)


def _sup_check(name: str, excess: np.ndarray, args,
               tol: Tolerances) -> ConditionCheck:
    """Condition excess <= tau_abs on every sample, witnessed at the worst;
    a NaN excess fails it, with margin NaN."""
    worst = float(np.max(excess)) if excess.size else 0.0
    return ConditionCheck(name, worst <= tol.tau_abs,
                          float(np.maximum(0.0, worst)),
                          _worst(excess, args) if excess.size else None)


def _positive_check(name: str, vals: np.ndarray,
                    u: np.ndarray) -> ConditionCheck:
    """Condition vals > 0 on every sample, witnessed at the most negative;
    a NaN value fails it, with margin NaN."""
    ok = bool(np.all(vals > 0))
    margin = float(np.maximum(0.0, -np.min(vals))) if vals.size else 0.0
    return ConditionCheck(name, ok, margin, None if ok else _worst(-vals, (u,)))


def validate_scale_pair(growth: RadialFn, scale: RadialFn, cross: CrossConstants,
                        scheme: SampleScheme,
                        tol: Tolerances = Tolerances()) -> ValidationReport:
    """Sampled verification of the scale/growth axioms and the cross bound.

    Reported, never raised: each condition carries a pass flag and the worst
    violation margin (0.0 for a clean pass, NaN for a NaN violation).
    """
    u = _u_samples(scheme)
    upos = u[u > 0]
    Ru = growth.eval(u)
    # every pair (x, y), x == y included, of a strided subset, x outer
    sub = u[_strided_subset(u.shape[0], 250_000)]
    a_u, b_u = (x.ravel() for x in np.meshgrid(sub, sub, indexing="ij"))
    lo, hi = np.minimum(a_u, b_u), np.maximum(a_u, b_u)
    zero = np.zeros(1)
    return ValidationReport(checks=(
        _sup_check("r_zero_at_origin", np.abs(scale.eval(zero)), (zero,), tol),
        _positive_check("r_positive_off_origin", scale.eval(upos), upos),
        _sup_check("r_nondecreasing", scale.eval(lo) - scale.eval(hi),
                   (lo, hi), tol),
        _sup_check("r_subadditive", scale.eval(a_u + b_u) - scale.eval(a_u)
                   - scale.eval(b_u), (a_u, b_u), tol),
        _positive_check("R_positive", Ru, u),
        _sup_check("R_subadditive", growth.eval(a_u + b_u) - growth.eval(a_u)
                   - growth.eval(b_u), (a_u, b_u), tol),
        _sup_check("cross_bound", Ru - cross.a * scale.eval(u) - cross.b,
                   (u,), tol),
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
    pts, geo = _top_table(domain, scheme)
    vals = _table_gauge(phi, domain, scheme)[0]
    if np.any(~np.isfinite(vals)):
        raise ValueError("gauge evaluated to a non-finite value")
    radius, inner = doubling_sample_sets(domain, scheme)[0]
    inner_min = _shell_min(phi.eval(inner), domain.norm_of(inner), radius)
    outer_min = _shell_min(vals, geo.norms, geo.radii[-1])
    Rn = growth.eval(geo.norms)
    where = tuple(pts.T)
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
