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
from dataclasses import dataclass

import numpy as np

from .funcspace import (
    DOUBLINGS,
    Domain,
    Gauge,
    SampleScheme,
    ScaleFn,
    Tolerances,
    _pair_indices,
    _read_only,
    _strided_subset,
    doubling_radii,
    doubling_sample_sets,
)
from .homspace import EvaluationError, Homeo, _classify, _shell_trace

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

    ``pair_count`` is the number of ordered pairs (x, y) the sup ran over,
    both orders of each kept pair counted: pairs closer than the separation
    floor or at zero r-separation are not.
    """

    value: float
    witness_pair: tuple | None
    finiteness: str
    window_trace: tuple
    pair_count: int

    @property
    def finite(self) -> bool:
        return self.finiteness == "finite"


def _near_partners(pts: np.ndarray, domain: Domain, seed: int) -> np.ndarray:
    # random pairs biased toward small separations; scale shrinks per block
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1729]))
    blocks = []
    for scale in (1e-2, 1e-4, 1e-6):
        direction = rng.standard_normal(pts.shape)
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        step = scale * (1.0 + domain.norm_of(pts))[:, None]
        blocks.append(pts + step * direction / norms)
    return np.concatenate(blocks, axis=0)


# The pair geometry depends on (domain, r, scheme, pair_cap) and never on
# the map, so the g-call of check_p_alpha reuses what the f-call built.
@functools.lru_cache(maxsize=1)
def _pair_geometry(domain: Domain, r: ScaleFn, scheme: SampleScheme,
                   pair_cap: int) -> tuple:
    """Read-only (points, i, j, shell, sep) of the kept unordered pairs.

    The cloud is the full cumulative sample table plus its near partners,
    strided down to ``pair_cap`` ordered pairs.  Pairs i < j come in
    row-major order; ``points`` holds just the cloud points of kept pairs
    and i, j index into it.  ``shell`` is the norm of the outer point and
    ``sep`` the r-separation.
    """
    pts = doubling_sample_sets(domain, scheme)[-1][1]
    partners = _near_partners(pts, domain, scheme.seed)
    keep = domain.contains(partners, slack=0.0)
    cloud = np.concatenate([pts, partners[keep]], axis=0)
    cloud = cloud[_strided_subset(cloud.shape[0], pair_cap)]
    i, j = np.triu_indices(cloud.shape[0], k=1)
    norms = domain.norm_of(cloud)
    raw = domain.norm_of(cloud[i] - cloud[j])
    shell = np.maximum(norms[i], norms[j])
    # below ~1e-9 relative separation the quotient measures evaluation
    # rounding, not the map; the deliberate near-partner blocks stay
    # three orders of magnitude above this floor
    ok = raw > _SEP_FLOOR * (1.0 + shell)
    i, j, shell = i[ok], j[ok], shell[ok]
    sep = r.eval(raw[ok])
    ok = sep > 0
    i, j, shell, sep = i[ok], j[ok], shell[ok], sep[ok]
    # f is evaluated on exactly the points of kept pairs: the finiteness
    # check covers those alone, and a solver that stops on a batch-wide
    # criterion sees the same batch as one fed the pair arrays
    used = np.zeros(cloud.shape[0], dtype=bool)
    used[i] = True
    used[j] = True
    renumber = np.cumsum(used) - 1
    return tuple(_read_only(a) for a in
                 (cloud[used], renumber[i], renumber[j], shell, sep))


def r_lipschitz(f: Homeo, r: ScaleFn, scheme: SampleScheme,
                tol: Tolerances = Tolerances(),
                pair_cap: int = PAIR_CAP) -> RLipschitzEstimate:
    """Windowed estimate of the r-Lipschitz constant of f.

    All pair ratios come from one cloud built over the full cumulative
    sample table; the trace restricts that single profile to the doubling
    shells (a pair belongs to the shell holding its outer point), so trace
    growth reflects where the steep pairs live.  Degenerate pairs (zero
    scale separation, each point with itself among them) are skipped.
    f runs once on the cloud points, not once per pair, and each unordered
    pair is visited once: every quantity is symmetric in the pair, and the
    first row-major maximizer over i < j is the first over all (i, j).
    ``pair_count`` still counts ordered pairs.  Classification follows the
    same three-doubling growth rule as displacement.
    """
    domain = f.domain
    pts, i, j, shell, sep = _pair_geometry(domain, r, scheme, pair_cap)
    radii = doubling_radii(scheme)
    if sep.shape[0] == 0:
        # no pairs left: every shell is empty
        return RLipschitzEstimate(np.nan, None, "undetermined",
                                  _shell_trace(radii, sep, shell), 0)
    fc = f.forward(pts)
    if np.any(~np.isfinite(fc)):
        raise EvaluationError(f"map {f.label!r} not finite on pair samples")
    ratio = r.eval(domain.norm_of(fc[i] - fc[j])) / sep

    trace = _shell_trace(radii, ratio, shell)
    k = int(np.argmax(ratio))
    best = float(ratio[k])
    witness = (pts[i[k]].copy(), pts[j[k]].copy())

    finiteness = _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
    return RLipschitzEstimate(best, witness, finiteness, trace,
                              2 * int(sep.shape[0]))


# ---------------------------------------------------------------------------
# the eigenvalue gate


@dataclass(frozen=True)
class EigenReport:
    """Pointwise slack of phi(T(x)) - alpha * lam_r(T) * phi(x) over samples.

    ``lambda_g``/``min_slack_g`` are None for the single-operator form.
    The verdict requires both minima to clear -tau_abs.
    """

    alpha: float
    lambda_f: float
    lambda_g: float | None
    min_slack_f: float
    min_slack_g: float | None
    satisfied: bool
    worst_point: tuple | None


def _slack_profile(f: Homeo, phi: Gauge, lam: float, alpha: float,
                   scheme: SampleScheme) -> tuple:
    worst = np.inf
    worst_pt = None
    for _, pts in doubling_sample_sets(f.domain, scheme):
        fx = f.forward(pts)
        keep = f.domain.contains(fx, slack=1e-9)
        if not np.any(keep):
            continue
        slack = phi.eval(fx[keep]) - alpha * lam * phi.eval(pts[keep])
        i = int(np.argmin(slack))
        if slack[i] < worst:
            worst = float(slack[i])
            worst_pt = tuple(pts[keep][i])
    return worst, worst_pt


def check_p_alpha(f: Homeo, g: Homeo | None, phi: Gauge, r: ScaleFn,
                  alpha: float, scheme: SampleScheme,
                  tol: Tolerances = Tolerances()) -> EigenReport:
    """Sampled verification of the generalized eigenvalue gate at alpha > 1.

    Pass ``g=None`` for the single-operator form.  Raises on a divergent
    r-Lipschitz estimate; an undetermined one yields an unsatisfied report.
    """
    if not alpha > 1.0:
        raise ValueError("the gate needs alpha > 1")

    def gate(T: Homeo, name: str) -> tuple:
        lam = r_lipschitz(T, r, scheme, tol)
        if lam.finiteness == "divergent":
            raise ValueError(f"r-Lipschitz estimate of {name} diverges")
        slack, worst = _slack_profile(T, phi, lam.value, alpha, scheme)
        return lam, slack, worst, lam.finite and slack >= -tol.tau_abs

    lam_f, slack_f, worst_pt, f_ok = gate(f, "f")
    lam_g = slack_g = None
    g_ok = True
    if g is not None:
        lam_g, slack_g, worst_g, g_ok = gate(g, "g")
        if slack_g < slack_f:
            worst_pt = worst_g
    return EigenReport(
        alpha=float(alpha),
        lambda_f=float(lam_f.value),
        lambda_g=None if lam_g is None else float(lam_g.value),
        min_slack_f=float(slack_f),
        min_slack_g=None if slack_g is None else float(slack_g),
        satisfied=bool(f_ok and g_ok),
        worst_point=worst_pt,
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
    functional residual |psi(f(x)) - multiplier * psi(x)| over the samples.
    Raises ConvergenceError when the tabulated iterates blow up or the
    budget runs out, which is what a mis-specified multiplier looks like.
    """
    if not 0.0 < multiplier < 1.0:
        raise ValueError("multiplier must lie in (0, 1)")
    domain = f.domain
    star = np.atleast_2d(np.asarray(fixed_point, dtype=float))
    pts = doubling_sample_sets(domain, scheme)[-1][1]
    inner = domain.norm_of(pts) <= scheme.window_radius * (1.0 + 1e-12)

    orbit = pts
    psi_prev = (orbit - star) / 1.0
    initial_scale = float(np.max(domain.norm_of(psi_prev))) + 1.0
    n_used = 0
    increment = np.inf
    for n in range(1, n_max + 1):
        orbit = f.forward(orbit)
        psi = (orbit - star) / multiplier ** n
        if np.any(~np.isfinite(psi)):
            raise ConvergenceError("linearization iterates overflowed")
        sup_now = float(np.max(domain.norm_of(psi)))
        if sup_now > 1e8 * initial_scale:
            raise ConvergenceError(
                f"linearization diverging at step {n}: sup {sup_now:.3e}")
        increment = float(np.max(domain.norm_of(psi - psi_prev)))
        psi_prev = psi
        n_used = n
        if increment < tol.tol_koenigs:
            break
    else:
        raise ConvergenceError(
            f"no convergence in {n_max} steps (last increment {increment:.3e})")

    n_star = n_used

    def psi_map(x: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(x, dtype=float))
        for _ in range(n_star):
            out = f.forward(out)
        return (out - star) / multiplier ** n_star

    resid = float(np.max(domain.norm_of(
        psi_map(f.forward(pts)) - multiplier * psi_map(pts))))

    # growth across the window doublings, reported as an exponent only
    psi_norms = domain.norm_of(psi_prev)
    sup_inner = float(np.max(psi_norms[inner])) + 1e-300
    sup_outer = float(np.max(psi_norms)) + 1e-300
    growth_exponent = float(np.log2(sup_outer / sup_inner) / DOUBLINGS)

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
    vals = np.asarray(varphi(f.forward(pts)), dtype=float).ravel() \
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
    pts = doubling_sample_sets(domain, scheme)[-1][1]
    ratio = domain.norm_of(f.forward(pts)) / domain.norm_of(pts)
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
    n = before.shape[0]
    i, j = _pair_indices(n, 40_000)
    sep = domain.norm_of(before[i] - before[j])
    ok = sep > 0    # drops coincident points, each point with itself too
    if not np.any(ok):
        return 1.0
    out = domain.norm_of(after[i] - after[j])[ok] / sep[ok]
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
    for _ in range(n_max):
        nxt = f.forward(clouds[-1])
        stretch = _cloud_stretch(clouds[-1], nxt, domain)
        clouds.append(nxt)
        radii.append(radii[-1] * max(stretch, 1e-12))

    min_sep = np.inf
    for n in range(1, n_max + 1):
        for m in range(0, n - nu + 1):
            diff = clouds[n][:, None, :] - clouds[m][None, :, :]
            d = float(np.min(domain.norm_of(diff.reshape(-1, diff.shape[2]))))
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
    images = f.forward(orbit)
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
