"""Composition-operator checks: r-Lipschitz constants, the eigenvalue gate,
linearization, and the functional-equation diagnostics.

The gate asks for a gauge phi with phi(f(x)) >= alpha * lam_r(f) * phi(x)
pointwise (and the same for g) at some alpha > 1; that is what buys the
1/alpha contraction of the conjugacy operator downstream.  Everything here
is sampled: lam_r estimates are pairwise sups and therefore lower bounds,
and the pointwise gate inequalities are checked on the same windowed sample
sets the rest of the package uses.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .funcspace import (
    _BUILTIN_EVALS,
    DOUBLINGS,
    Domain,
    Gauge,
    RadialFn,
    SampleScheme,
    Tolerances,
    _TABLE_CACHE_SIZE,
    _norm_geometry,
    _strided_subset,
    _table_gauge,
    _top_table,
    doubling_radii,
    doubling_sample_sets,
)
from .homspace import (
    Homeo,
    _classify,
    _images,
    _kept_images,
    _shell_trace,
)

__all__ = [
    "ConvergenceError",
    "RLipschitzEstimate",
    "EigenReport",
    "KoenigsReport",
    "ResidualReport",
    "FunctionalLowerBound",
    "WanderingReport",
    "ObstructionReport",
    "r_lipschitz",
    "check_p_alpha",
    "koenigs_eigenfunction",
    "abel_check",
    "schroeder_functional_check",
    "wandering_check",
    "periodic_obstruction",
]

PAIR_CAP = 1_000_000
_SEP_FLOOR = 1e-9


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to converge within its budget."""


# ---------------------------------------------------------------------------
# r-Lipschitz estimation


@dataclass(frozen=True)
class RLipschitzEstimate:
    """Pairwise sup of r(|f(x)-f(y)|) / r(|x-y|) over sampled pairs.

    The cloud is in stable norm order: ``witness_pair`` is the first
    maximizer in that order, inner point first, and a pair's window shell
    is its later norm.  ``pair_count`` is the number of ordered pairs
    (x, y) the sup ran over, both orders of each kept pair counted: pairs
    closer than the separation floor or at zero r-separation are not.

    In one dimension with r the identity the sup runs over neighbour
    pairs of the cloud in increasing x: ``pair_count`` counts those (both
    orders), and ``witness_pair`` is the first steepest of them in x
    order, inner point first.
    """

    value: float
    witness_pair: tuple | None
    finiteness: str
    window_trace: tuple
    pair_count: int

    @property
    def finite(self) -> bool:
        return self.finiteness == "finite"


def _near_partners(pts: np.ndarray, pts_norms: np.ndarray,
                   seed: int) -> np.ndarray:
    # random pairs biased toward small separations; scale shrinks per block
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1729]))
    blocks = []
    for scale in (1e-2, 1e-4, 1e-6):
        direction = rng.standard_normal(pts.shape)
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        step = scale * (1.0 + pts_norms)[:, None]
        blocks.append(pts + step * direction / norms)
    return np.concatenate(blocks, axis=0)


# Cloud rows per block of the pair walk: a block pairs its rows with every
# row after its first, densely, so it holds at most this many times the
# cloud's rows of cells; a mask keeps the pairs the sup runs over.
_BLOCK_ROWS = 64


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _pair_cloud(domain: Domain, scheme: SampleScheme,
                pair_cap: int) -> np.ndarray:
    """Top table and near partners, strided to pair_cap, in norm order,
    read-only.  Not a sample table: the process memo caches no image of
    it."""
    pts, geo = _top_table(domain, scheme)
    partners = _near_partners(pts, geo.norms, scheme.seed)
    keep = domain.contains(partners, slack=0.0)
    cloud = np.concatenate([pts, partners[keep]], axis=0)
    cloud = cloud[_strided_subset(cloud.shape[0], pair_cap)]
    cloud = cloud[np.argsort(domain.norm_of(cloud), kind="stable")]
    cloud.flags.writeable = False
    return cloud


def _later(x: np.ndarray, lo: int, hi: int):
    """Per axis k, the ``(hi - lo, len(x) - lo - 1)`` array of
    x[i, k] - x[j, k] over lo <= i < hi and every j > lo.

    The parts go to :meth:`Domain.fold_norm`, so no ``(rows, later, dim)``
    tensor of differences is ever built.
    """
    return (x[lo:hi, k, None] - x[None, lo + 1:, k]
            for k in range(x.shape[1]))


def _r_lipschitz(maps: tuple, r: RadialFn, scheme: SampleScheme,
                 tol: Tolerances, pair_cap: int) -> list:
    """:func:`r_lipschitz` of each of ``maps`` (one domain), from one walk
    over the pair cloud, so the pair geometry is built once for all: the
    neighbour slopes in one dimension with r the built-in identity (the
    function object, not its label), the pair walk otherwise."""
    if maps[0].domain.dim == 1 and r.eval is _BUILTIN_EVALS["identity"]:
        return _neighbour_slopes(maps, scheme, tol, pair_cap)
    return _all_pairs(maps, r, scheme, tol, pair_cap)


def _estimates(best: list, columns, norms: np.ndarray, scheme: SampleScheme,
               tol: Tolerances, pair_count: int) -> list:
    """One estimate per map from its (value, witness pair) and its ratios
    ``columns``, each taken at the shell of ``norms``."""
    geo = _norm_geometry(norms, doubling_radii(scheme))
    out = []
    for (value, witness), column in zip(best, columns):
        trace = _shell_trace(column, geo)
        finiteness = "undetermined" if np.isnan(value) else \
            _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
        out.append(RLipschitzEstimate(value, witness, finiteness, trace,
                                      pair_count))
    return out


def _all_pairs(maps: tuple, r: RadialFn, scheme: SampleScheme,
               tol: Tolerances, pair_cap: int) -> list:
    """The pair walk of :func:`_r_lipschitz`: every pair of the cloud, in
    row blocks."""
    domain = maps[0].domain
    cloud = _pair_cloud(domain, scheme, pair_cap)
    images = [_images(f, cloud, "pair samples") for f in maps]
    # in norm order a pair i < j has shell norms[j]; per map, each column's
    # running maximum over its kept rows, by np.maximum (fmax drops a NaN)
    norms = domain.norm_of(cloud)
    columns = np.full((len(maps), len(cloud)), -np.inf)
    seen = np.zeros(len(cloud), dtype=bool)     # columns with a kept pair
    best = [(np.nan, None)] * len(maps)     # (value, witness pair) per map
    kept = 0
    for lo in range(0, len(cloud) - 1, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(cloud) - 1)
        raw = domain.fold_norm(_later(cloud, lo, hi))
        sep = r.eval(raw)
        # below ~1e-9 relative separation the quotient measures evaluation
        # rounding, not the map; the deliberate near-partner blocks stay
        # three orders of magnitude above this floor.  triu keeps j > i.
        ok = (raw > _SEP_FLOOR * (1.0 + norms[lo + 1:])) & (sep > 0)
        ok[:, :hi - lo] = np.triu(ok[:, :hi - lo])
        if not ok.any():
            continue
        kept += np.count_nonzero(ok)
        seen[lo + 1:] |= ok.any(axis=0)
        block = np.full(ok.shape, -np.inf)
        for m, fc in enumerate(images):
            np.divide(r.eval(domain.fold_norm(_later(fc, lo, hi))), sep,
                      out=block, where=ok)
            columns[m, lo + 1:] = np.maximum(columns[m, lo + 1:], block.max(0))
            # np.argmax takes the first NaN as the maximum; so does the fold
            k = int(np.argmax(block))
            if not ok.flat[k]:      # a masked -inf cell ties every kept one
                k = int(np.argmax(ok))
            value, pair = best[m]
            if pair is None or not (np.isnan(value) or block.flat[k] <= value):
                row, col = divmod(k, ok.shape[1])
                best[m] = (float(block.flat[k]),
                           tuple(cloud[[lo + row, lo + 1 + col]]))
    return _estimates(best, columns[:, seen], norms[seen], scheme, tol,
                      2 * kept)


def _thinned(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Indices of the points ``x`` in increasing order, each point closer
    than the separation floor to the last kept one dropped.  A gap's floor
    is taken at its larger norm, as the pair walk takes a pair's.

    A point above the floor from its predecessor is above it from every
    point before, so only the others are walked one by one.
    """
    order = np.argsort(x, kind="stable")
    if len(order) < 2:
        return order
    x, norms = x[order], norms[order]
    keep = np.append(True, np.diff(x) > _SEP_FLOOR
                     * (1.0 + np.maximum(norms[:-1], norms[1:])))
    last = 0
    for i in np.flatnonzero(~keep).tolist():
        if keep[i - 1]:
            last = i - 1
        keep[i] = x[i] - x[last] > _SEP_FLOOR * (1.0 + max(norms[i],
                                                          norms[last]))
    return order[keep]


def _neighbour_slopes(maps: tuple, scheme: SampleScheme, tol: Tolerances,
                      pair_cap: int) -> list:
    """:func:`_r_lipschitz` in one dimension with r the identity.

    Along the thinned cloud in increasing x, a chord's slope is a weighted
    average of the neighbour slopes it spans, and a shell {|x| <= R} is a
    run of neighbours on every one-dimensional region (the hole of
    box_minus_ball holds no point), so the largest neighbour slope in a
    shell is the sup over its chords.  Only chords that span a sub-floor
    gap drop out (Strongin 1973; Wood & Zhang, J. Global Optim. 8, 1996).
    """
    domain = maps[0].domain
    cloud = _pair_cloud(domain, scheme, pair_cap)
    images = [_images(f, cloud, "pair samples") for f in maps]
    norms = domain.norm_of(cloud)
    line = _thinned(cloud[:, 0], norms)
    # each neighbour pair in norm order, inner point first: its shell is b's,
    # and its quotient, by the domain's norm, has the pair walk's bits
    a, b = np.minimum(line[:-1], line[1:]), np.maximum(line[:-1], line[1:])
    sep = domain.norm_of(cloud[a] - cloud[b])
    columns = [domain.norm_of(fc[a] - fc[b]) / sep for fc in images]
    best = []
    for column in columns:
        k = int(np.argmax(column)) if column.size else None
        best.append((np.nan, None) if k is None else
                    (float(column[k]), tuple(cloud[[a[k], b[k]]])))
    return _estimates(best, columns, norms[b], scheme, tol, 2 * len(a))


def r_lipschitz(f: Homeo, r: RadialFn, scheme: SampleScheme,
                tol: Tolerances = Tolerances()) -> RLipschitzEstimate:
    """Windowed estimate of the r-Lipschitz constant of f.

    All pair ratios come from one cloud, in stable norm order, built over
    the full cumulative sample table; the trace restricts that single
    profile to the doubling shells (a pair belongs to the shell of its
    later, outer point; a NaN ratio fills its shell and every larger one),
    so trace growth reflects where the steep pairs live.  Degenerate pairs
    (closer than the separation floor, or at zero scale separation) are
    skipped.  The cloud is cached per (domain, scheme); f runs once on it,
    and the pairs are walked in row blocks.  Each block is evaluated
    densely and masked: r runs on every cell of the block, 0 and
    separations below the floor included, so r must be defined on all of
    [0, inf); a masked cell never reaches the sup, the witness or the
    count, whatever r returns there.  Every quantity is symmetric in the
    pair, so each unordered pair is visited once: the witness, the first
    row-major maximizer over i < j in norm order, is the first over all
    (i, j), and ``pair_count`` counts both orders.  Classification follows
    the same three-doubling growth rule as displacement; a NaN value is
    undetermined.

    In one dimension with r the built-in identity, the sup over pairs is
    the largest slope between neighbours in increasing x, shell by shell,
    and the walk is O(N log N): the cloud is sorted by x, each point
    closer than the separation floor to the last kept one is dropped, and
    each neighbour pair counts, at its later norm.  Then ``pair_count``
    counts neighbour pairs (both orders), the witness is a neighbour pair,
    and only chords through a dropped point, and rounding, can make the
    value differ from the pair walk's.
    """
    return _r_lipschitz((f,), r, scheme, tol, PAIR_CAP)[0]


# ---------------------------------------------------------------------------
# the eigenvalue gate


@dataclass(frozen=True)
class EigenReport:
    """Pointwise slack of phi(T(x)) - alpha * lam_r(T) * phi(x) over samples.

    ``lambda_g``/``min_slack_g`` are None for the single-operator form.
    A minimum is NaN when undefined or when no sample image stays in the
    domain; the verdict requires both to clear -tau_abs.  ``inputs`` is
    what the gate ran on, (f, g, phi, r, scheme, tol), so a solve handed
    the report can tell whether it is its own; it takes no part in
    comparing or printing the report.
    """

    alpha: float
    lambda_f: float
    lambda_g: float | None
    min_slack_f: float
    min_slack_g: float | None
    satisfied: bool
    worst_point: tuple | None
    inputs: tuple | None = field(default=None, compare=False, repr=False)


def _slack_profile(f: Homeo, phi: Gauge, lam: float, alpha: float,
                   scheme: SampleScheme) -> tuple:
    """Least phi(f(x)) - alpha * lam * phi(x) (a NaN counts as least) over
    the top table's points kept by :func:`homspace._kept_images`, and the
    first point attaining it; (NaN, None) when none is kept.  Every lower
    level is a subset of the top table, so this is the least over all."""
    top, geo = _top_table(f.domain, scheme)
    kept, fx, dropped = _kept_images(f, top, geo.radius)
    if kept.shape[0] == 0:
        return np.nan, None
    den = phi.eval(kept) if dropped else _table_gauge(phi, f.domain, scheme)[0]
    slack = phi.eval(fx) - alpha * lam * den
    i = int(np.argmin(slack))     # np.argmin takes the first NaN as least
    return float(slack[i]), tuple(kept[i])


def check_p_alpha(f: Homeo, g: Homeo | None, phi: Gauge, r: RadialFn,
                  alpha: float, scheme: SampleScheme,
                  tol: Tolerances = Tolerances()) -> EigenReport:
    """Sampled verification of the generalized eigenvalue gate at alpha > 1.

    Pass ``g=None`` for the single-operator form.  One walk over the pair
    cloud gives lam_r of f and g.  The slack keeps sample images as
    :func:`displacement` does, so a map keeping none fails the gate.
    Raises on a divergent r-Lipschitz estimate; an undetermined one yields
    an unsatisfied report.
    """
    if not alpha > 1.0:
        raise ValueError("the gate needs alpha > 1")
    maps = (f,) if g is None else (f, g)
    gates = []
    for T, lam, name in zip(maps, _r_lipschitz(maps, r, scheme, tol, PAIR_CAP),
                            "fg"):
        if lam.finiteness == "divergent":
            raise ValueError(f"r-Lipschitz estimate of {name} diverges")
        slack, worst = _slack_profile(T, phi, lam.value, alpha, scheme)
        gates.append((lam, slack, worst, lam.finite and slack >= -tol.tau_abs))
    (lam_f, slack_f, _, f_ok), *rest = gates
    lam_g, slack_g, _, g_ok = rest[0] if rest else (None, None, None, True)
    # np.argmin takes a NaN slack as least, whichever map it belongs to
    worst_pt = gates[int(np.argmin([gate[1] for gate in gates]))][2]
    return EigenReport(
        alpha=float(alpha),
        lambda_f=float(lam_f.value),
        lambda_g=None if lam_g is None else float(lam_g.value),
        min_slack_f=float(slack_f),
        min_slack_g=None if slack_g is None else float(slack_g),
        satisfied=bool(f_ok and g_ok),
        worst_point=worst_pt,
        inputs=(f, g, phi, r, scheme, tol),
    )


# ---------------------------------------------------------------------------
# linearization at an attracting fixed point


@dataclass(frozen=True)
class KoenigsReport:
    n_steps: int
    converged: bool
    final_increment: float
    residual: float
    growth_exponent: float


def koenigs_eigenfunction(f: Homeo, fixed_point: np.ndarray, multiplier: float,
                          scheme: SampleScheme, n_max: int = 100,
                          tol: Tolerances = Tolerances()):
    """Linearizing map psi(x) = lim (f^n(x) - x*) / multiplier^n.

    Convergence is monitored as the sup of successive increments over the
    full sample table (which subsumes the innermost exhaustion compact).
    Returns the map as a closure together with a report carrying the
    functional residual |psi(f(x)) - multiplier * psi(x)| over the samples
    and the growth of sup |psi| per doubling, read off its shell trace.
    Raises ConvergenceError when the quotients (f^n(x) - x*) / multiplier^n
    blow up or the budget runs out, which is what a mis-specified
    multiplier looks like.
    """
    if not 0.0 < multiplier < 1.0:
        raise ValueError("multiplier must lie in (0, 1)")
    domain = f.domain
    star = np.atleast_2d(np.asarray(fixed_point, dtype=float))
    pts, geo = _top_table(domain, scheme)

    orbit = pts
    psi_prev = (orbit - star) / 1.0
    initial_scale = float(np.max(domain.norm_of(psi_prev))) + 1.0
    increment = np.inf
    for n in range(1, n_max + 1):
        orbit = _images(f, orbit, f"iterate {n} of the samples")
        psi = (orbit - star) / multiplier ** n
        if np.any(~np.isfinite(psi)):
            raise ConvergenceError("linearization iterates overflowed")
        sup_now = float(np.max(domain.norm_of(psi)))
        if sup_now > 1e8 * initial_scale:
            raise ConvergenceError(
                f"linearization diverging at step {n}: sup {sup_now:.3e}")
        increment = float(np.max(domain.norm_of(psi - psi_prev)))
        psi_prev = psi
        if increment < tol.tol_koenigs:
            break
    else:
        raise ConvergenceError(
            f"no convergence in {n_max} steps (last increment {increment:.3e})")

    n_star = n

    def psi_map(x: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(x, dtype=float))
        for _ in range(n_star):
            out = f.forward(out)
        return (out - star) / multiplier ** n_star

    # psi_map(pts) is psi_prev, and psi_map(f(pts)) takes the orbit one
    # step further: the same calls on the same arrays, so the same bits
    ahead = _images(f, orbit, f"iterate {n_star + 1} of the samples")
    resid = float(np.max(domain.norm_of(
        (ahead - star) / multiplier ** n_star - multiplier * psi_prev)))

    # growth across the window doublings, reported as an exponent only
    (_, sup_inner), *_, (_, sup_outer) = _shell_trace(
        domain.norm_of(psi_prev), geo)
    growth_exponent = float(
        np.log2((sup_outer + 1e-300) / (sup_inner + 1e-300)) / DOUBLINGS)

    report = KoenigsReport(
        n_steps=n_star,
        converged=True,
        final_increment=increment,
        residual=resid,
        growth_exponent=growth_exponent,
    )
    return psi_map, report


# ---------------------------------------------------------------------------
# functional-equation diagnostics


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    worst_point: tuple


def abel_check(f: Homeo, varphi, scheme: SampleScheme) -> ResidualReport:
    """sup over samples of |varphi(f(x)) - varphi(x) - 1|."""
    pts = doubling_sample_sets(f.domain, scheme)[-1][1]
    vals = np.asarray(varphi(_images(f, pts)), dtype=float).ravel() \
        - np.asarray(varphi(pts), dtype=float).ravel() - 1.0
    err = np.abs(vals)
    i = int(np.argmax(err))
    return ResidualReport(residual=float(err[i]), worst_point=tuple(pts[i]))


@dataclass(frozen=True)
class FunctionalLowerBound:
    """Largest margin of -log|f(x)| >= -log|x| + margin over the samples."""

    margin: float
    contraction_factor: float
    worst_point: tuple


def schroeder_functional_check(f: Homeo, scheme: SampleScheme) -> FunctionalLowerBound:
    """Margin of the shifted functional condition for N(x) = -log|x|.

    Requires the origin to be excluded from the domain.  The margin equals
    -log of the worst contraction ratio |f(x)| / |x| over the samples; a
    positive margin certifies the condition on the window.
    """
    domain = f.domain
    if bool(domain.contains(np.zeros((1, domain.dim)), slack=0.0)[0]):
        raise ValueError("the log construction needs 0 outside the domain")
    pts, geo = _top_table(domain, scheme)
    ratio = domain.norm_of(_images(f, pts)) / geo.norms
    i = int(np.argmax(ratio))
    kappa = float(ratio[i])
    if kappa <= 0:
        raise ValueError("map collapsed a sample onto the origin")
    return FunctionalLowerBound(
        margin=float(-np.log(kappa)),
        contraction_factor=kappa,
        worst_point=tuple(pts[i]),
    )


# ---------------------------------------------------------------------------
# wandering compacts and periodic obstructions


@dataclass(frozen=True)
class WanderingReport:
    """Sampled separation check of iterated point clouds.

    Sound only up to the covering radius of the input cloud: the radius is
    propagated through each step by the observed pairwise stretch, and two
    clouds count as separated when their distance exceeds the sum of their
    propagated radii.
    """

    verdict: str                 # wandering | collision
    collision_pair: tuple | None
    min_separation: float
    radii_trace: tuple


def _cloud_stretch(before: np.ndarray, after: np.ndarray, domain: Domain) -> float:
    sub = _strided_subset(before.shape[0], 40_000)
    before, after = before[sub], after[sub]
    sep = domain.norm_of(before[:, None] - before[None])
    ok = sep > 0    # drops coincident points, each point with itself too
    if not np.any(ok):
        return 1.0
    out = domain.norm_of(after[:, None] - after[None])[ok] / sep[ok]
    return float(np.max(out))


def wandering_check(f: Homeo, cloud: np.ndarray, covering_radius: float,
                    nu: int, n_max: int) -> WanderingReport:
    """Checks f^n(cloud) against f^m(cloud) for all n - m >= nu, n <= n_max."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if n_max < nu:
        raise ValueError("n_max must be >= nu, or no pair of iterates is "
                         "compared")
    domain = f.domain
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    clouds = [cloud]
    radii = [float(covering_radius)]
    for n in range(1, n_max + 1):
        nxt = _images(f, clouds[-1], f"iterate {n} of the cloud")
        stretch = _cloud_stretch(clouds[-1], nxt, domain)
        clouds.append(nxt)
        radii.append(radii[-1] * max(stretch, 1e-12))

    min_sep = np.inf
    for n in range(1, n_max + 1):
        for m in range(0, n - nu + 1):
            d = float(np.min(domain.norm_of(
                clouds[n][:, None, :] - clouds[m][None, :, :])))
            min_sep = min(min_sep, d - radii[n] - radii[m])
            if d <= radii[n] + radii[m]:
                return WanderingReport("collision", (n, m), float(min_sep),
                                       tuple(radii))
    return WanderingReport("wandering", None, float(min_sep), tuple(radii))


@dataclass(frozen=True)
class ObstructionReport:
    factor: float        # (alpha * lam_r)^p
    obstructed: bool
    message: str


def periodic_obstruction(f: Homeo, alpha: float, lambda_r: float,
                         orbit: np.ndarray, p: int,
                         tol: Tolerances = Tolerances()) -> ObstructionReport:
    """Obstruction test at a verified periodic orbit.

    First verifies f cycles the supplied orbit with period p within the
    round-trip tolerance, then reports whether (alpha*lambda_r)^p exceeds 1,
    which rules the gate out at any admissible gauge.
    """
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    if orbit.shape[0] != p or p < 1:
        raise ValueError("orbit must supply exactly p points")
    domain = f.domain
    images = _images(f, orbit, "orbit")
    target = np.roll(orbit, -1, axis=0)
    err = domain.norm_of(images - target) / (1.0 + domain.norm_of(orbit))
    if float(np.max(err)) > tol.tau_inv:
        raise ValueError(
            f"orbit is not periodic within tolerance (error {float(np.max(err)):.3e})")
    factor = float((alpha * lambda_r) ** p)
    if factor > 1.0:
        msg = ("gate impossible along this orbit: "
               f"(alpha*lambda_r)^p = {factor:.6g} > 1")
        return ObstructionReport(factor=factor, obstructed=True, message=msg)
    return ObstructionReport(
        factor=factor, obstructed=False,
        message=f"no obstruction: (alpha*lambda_r)^p = {factor:.6g} <= 1")
