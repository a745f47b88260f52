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
from typing import NamedTuple

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
    _read_only,
    _strided_subset,
    _table,
    doubling_radii,
)
from .homspace import (
    Homeo,
    _classify,
    _images,
    _on_table,
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
# cloud's rows of cells; a mask keeps the pairs the sup runs over.  The
# walk's buffers are sized for its first block, the largest, and every
# block writes into views of them.  wandering_check's separation walk
# takes its blocks of this many rows too.
_BLOCK_ROWS = 64


class _Cloud(NamedTuple):
    """A pair cloud, every array read-only: the points ``pts`` in stable
    norm order and their ``norms``; in one dimension, the ``line``
    (a, b, sep, geo) of neighbour pairs too: the rows a < b of each
    neighbour pair of the thinned cloud in increasing x, its separation
    by the domain's norm and the geometry of its shell, b's norm.  The
    ``line`` is None in higher dimensions."""

    pts: np.ndarray
    norms: np.ndarray
    line: tuple | None


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _pair_cloud(domain: Domain, scheme: SampleScheme,
                pair_cap: int) -> _Cloud:
    """The :class:`_Cloud` of the top table and its near partners, strided
    to pair_cap.  Its walks go through no process memo: only
    ``homspace._on_table`` does, and only on the top table."""
    table = _table(domain, scheme)
    partners = _near_partners(table.pts, table.geo.norms, scheme.seed)
    keep = domain.contains(partners, slack=0.0)
    cloud = np.concatenate([table.pts, partners[keep]], axis=0)
    cloud = cloud[_strided_subset(cloud.shape[0], pair_cap)]
    norms = domain.norm_of(cloud)
    order = np.argsort(norms, kind="stable")
    pts, norms = _read_only(cloud[order]), _read_only(norms[order])
    if domain.dim != 1:
        return _Cloud(pts, norms, None)
    kept = _thinned(pts[:, 0], norms)
    a, b = np.minimum(kept[:-1], kept[1:]), np.maximum(kept[:-1], kept[1:])
    sep = domain.norm_of(pts[a] - pts[b])
    geo = _norm_geometry(norms[b], table.geo.radii)
    for arr in (a, b, sep, geo.norms, geo.order):
        _read_only(arr)
    return _Cloud(pts, norms, (a, b, sep, geo))


def _later(x: np.ndarray, lo: int, hi: int, out: np.ndarray,
           scratch: np.ndarray):
    """Per axis k, the ``(hi - lo, len(x) - lo - 1)`` array of
    x[i, k] - x[j, k] over lo <= i < hi and every j > lo: axis 0 written
    into ``out``, every later axis into ``scratch``.

    The parts go to :meth:`Domain.fold_norm` with ``out``, which folds each
    part before the next is written, so no ``(rows, later, dim)`` tensor of
    differences is ever built and one scratch serves every later axis.
    """
    for k in range(x.shape[1]):
        yield np.subtract(x[lo:hi, k, None], x[None, lo + 1:, k],
                          out=scratch if k else out)


def _estimate(value: float, witness: tuple | None, column: np.ndarray,
              geo, tol: Tolerances, pair_count: int) -> RLipschitzEstimate:
    """The estimate of one map from its (value, witness pair) and its
    ratios ``column``, each taken at the shell of ``geo``."""
    trace = _shell_trace(column, geo)
    finiteness = "undetermined" if np.isnan(value) else \
        _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
    return RLipschitzEstimate(value, witness, finiteness, trace, pair_count)


def _all_pairs(f: Homeo, r: RadialFn, scheme: SampleScheme,
               tol: Tolerances) -> RLipschitzEstimate:
    """The pair walk of :func:`r_lipschitz`: every pair of the cloud, in
    row blocks, each written into views of buffers allocated once here."""
    domain = f.domain
    pts, norms, _ = _pair_cloud(domain, scheme, PAIR_CAP)
    images = _images(f, pts, "pair samples")
    # in norm order a pair i < j has shell norms[j]: each column's running
    # maximum over its kept rows, by np.maximum (fmax drops a NaN)
    floor = _SEP_FLOOR * (1.0 + norms)
    column = np.full(len(pts), -np.inf)
    seen = np.zeros(len(pts), dtype=bool)       # columns with a kept pair
    value, witness = np.nan, None
    kept = 0
    # the folded cloud separation, a scratch for the later axes and the
    # folded images, and the quotients, which serve the image fold as its
    # later-axis scratch first; then two masks.  r.eval may hand back its
    # input (the identity does), so the images never fold into the
    # separation that sep may be
    later = len(pts) - 1
    size = min(_BLOCK_ROWS, later) * later
    sep_buf, scratch_buf, quot_buf = np.empty((3, size))
    ok_buf, pos_buf = np.empty((2, size), dtype=bool)
    upper = np.triu(np.ones((_BLOCK_ROWS, _BLOCK_ROWS), dtype=bool))
    for lo in range(0, later, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, later)
        shape = (hi - lo, later - lo)
        raw, scratch, block, ok, pos = (
            buf[:shape[0] * shape[1]].reshape(shape) for buf in
            (sep_buf, scratch_buf, quot_buf, ok_buf, pos_buf))
        domain.fold_norm(_later(pts, lo, hi, raw, scratch), out=raw)
        sep = r.eval(raw)
        # below ~1e-9 relative separation the quotient measures evaluation
        # rounding, not the map.  The near partners are placed three orders
        # of magnitude above this floor, but on the shipped 2-d clouds the
        # stride keeps no partner with its source row, so no near pair
        # reaches this walk there.  upper keeps j > i.
        np.greater(raw, floor[lo + 1:], out=ok)
        ok &= np.greater(sep, 0, out=pos)
        ok[:, :hi - lo] &= upper[:hi - lo, :hi - lo]
        if not ok.any():
            continue
        kept += np.count_nonzero(ok)
        seen[lo + 1:] |= ok.any(axis=0)
        image = domain.fold_norm(_later(images, lo, hi, scratch, block),
                                 out=scratch)
        # the fold wrote into the quotients, and a masked cell must read
        # -inf, never a part or an earlier block's quotient
        block.fill(-np.inf)
        np.divide(r.eval(image), sep, out=block, where=ok)
        np.maximum(column[lo + 1:], block.max(0), out=column[lo + 1:])
        # np.argmax takes the first NaN as the maximum; so does the fold
        k = int(np.argmax(block))
        if not ok.flat[k]:      # a masked -inf cell ties every kept one
            k = int(np.argmax(ok))
        if witness is None or not (np.isnan(value) or block.flat[k] <= value):
            row, col = divmod(k, ok.shape[1])
            value = float(block.flat[k])
            witness = tuple(pts[[lo + row, lo + 1 + col]])
    return _estimate(value, witness, column[seen],
                     _norm_geometry(norms[seen], doubling_radii(scheme)), tol,
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


def _neighbour_slopes(f: Homeo, scheme: SampleScheme,
                      tol: Tolerances) -> RLipschitzEstimate:
    """:func:`r_lipschitz` in one dimension with r the identity.

    Along the thinned cloud in increasing x, a chord's slope is a weighted
    average of the neighbour slopes it spans, and a shell {|x| <= R} is a
    run of neighbours on every one-dimensional region (the hole of
    box_minus_ball holds no point), so the largest neighbour slope in a
    shell is the sup over its chords.  Only chords that span a sub-floor
    gap drop out (Strongin 1973; Wood & Zhang, J. Global Optim. 8, 1996).
    """
    # the cloud's neighbour pairs, whose quotients, by the domain's norm,
    # have the pair walk's bits
    pts, _, (a, b, sep, geo) = _pair_cloud(f.domain, scheme, PAIR_CAP)
    images = _images(f, pts, "pair samples")
    column = f.domain.norm_of(images[a] - images[b]) / sep
    value, witness = np.nan, None
    if column.size:
        k = int(np.argmax(column))
        value, witness = float(column[k]), tuple(pts[[a[k], b[k]]])
    return _estimate(value, witness, column, geo, tol, 2 * len(a))


def r_lipschitz(f: Homeo, r: RadialFn, scheme: SampleScheme,
                tol: Tolerances = Tolerances()) -> RLipschitzEstimate:
    """Windowed estimate of the r-Lipschitz constant of f.

    All pair ratios come from one cloud, in stable norm order, built over
    the full cumulative sample table; the trace restricts that single
    profile to the doubling shells (a pair belongs to the shell of its
    later, outer point; a NaN ratio fills its shell and every larger one),
    so trace growth reflects where the steep pairs live.  Degenerate pairs
    (closer than the separation floor, or at zero scale separation) are
    skipped.  This is the one r-Lipschitz walk: the eigenvalue gate calls
    it once per map.  The cloud, with its norms, is cached per (domain,
    scheme) and shared by every map's walk; f runs once on it, and the
    pairs are walked in row blocks, each written into views of
    buffers the call allocates once, for its first and largest block.
    Each block is evaluated densely and masked: r runs on every cell of
    the block, 0 and separations below the floor included, so r must be
    defined on all of [0, inf); a masked cell never reaches the sup, the
    witness or the count, whatever r returns there.  r may return its
    input array, as the identity does, but must not keep it: the next
    block overwrites it.  Every quantity is symmetric in the
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
    value differ from the pair walk's.  The neighbour pairs, their
    separations and their shells are cached with the cloud, so each map
    pays for its images and quotients alone.
    """
    if f.domain.dim == 1 and r.eval is _BUILTIN_EVALS["identity"]:
        return _neighbour_slopes(f, scheme, tol)
    return _all_pairs(f, r, scheme, tol)


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
    the top table's points kept by :func:`homspace._on_table`, and the
    first point attaining it; (NaN, None) when none is kept.  Every lower
    level is a subset of the top table, so this is the least over all."""
    kept, fx, den, _, _ = _on_table(f, phi, scheme)
    if kept.shape[0] == 0:
        return np.nan, None
    slack = phi.eval(fx) - alpha * lam * den
    i = int(np.argmin(slack))     # np.argmin takes the first NaN as least
    return float(slack[i]), tuple(kept[i])


def check_p_alpha(f: Homeo, g: Homeo | None, phi: Gauge, r: RadialFn,
                  alpha: float, scheme: SampleScheme,
                  tol: Tolerances = Tolerances()) -> EigenReport:
    """Sampled verification of the generalized eigenvalue gate at alpha > 1.

    Pass ``g=None`` for the single-operator form.  lam_r of f and of g
    are each one :func:`r_lipschitz` call, both made before either slack,
    on the one cached pair cloud.  The slack keeps sample images and
    checks the gauge as :func:`displacement` does, so a map keeping none
    fails the gate and a gauge not positive and finite on the kept points
    raises EvaluationError.  Raises on a divergent r-Lipschitz estimate;
    an undetermined one yields an unsatisfied report.
    """
    if not alpha > 1.0:
        raise ValueError("the gate needs alpha > 1")
    maps = (f,) if g is None else (f, g)
    gates = []
    for T, lam, name in zip(maps, [r_lipschitz(T, r, scheme, tol)
                                   for T in maps], "fg"):
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
    table = _table(domain, scheme)

    orbit = table.pts
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
        domain.norm_of(psi_prev), table.geo)
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
    pts = _table(f.domain, scheme).pts
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
    table = _table(domain, scheme)
    ratio = domain.norm_of(_images(f, table.pts)) / table.geo.norms
    i = int(np.argmax(ratio))
    kappa = float(ratio[i])
    if kappa <= 0:
        raise ValueError("map collapsed a sample onto the origin")
    return FunctionalLowerBound(
        margin=float(-np.log(kappa)),
        contraction_factor=kappa,
        worst_point=tuple(table.pts[i]),
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


def _cloud_distance(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    """The least distance from a row of ``a`` to a row of ``b``.

    ``a`` is walked in blocks of ``_BLOCK_ROWS`` rows, so no more than a
    block of ``a`` by every row of ``b`` of differences is held at once.
    A minimum is exact, so the bits equal those of one dense minimum; a
    NaN distance still reads NaN, and an empty cloud still raises
    ``np.min``'s ValueError.
    """
    return float(np.min([
        np.min(domain.norm_of(a[lo:lo + _BLOCK_ROWS, None, :] - b[None]))
        for lo in range(0, a.shape[0], _BLOCK_ROWS)]))


def wandering_check(f: Homeo, cloud: np.ndarray, covering_radius: float,
                    nu: int, n_max: int) -> WanderingReport:
    """Checks f^n(cloud) against f^m(cloud) for all n - m >= nu, n <= n_max."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0.0 < covering_radius < np.inf:
        raise ValueError("covering_radius must be positive and finite")
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
            d = _cloud_distance(clouds[n], clouds[m], domain)
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
    if np.isnan(alpha * lambda_r):
        # an undetermined lambda_r is NaN, which no comparison rejects
        raise ValueError("alpha * lambda_r is NaN")
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
