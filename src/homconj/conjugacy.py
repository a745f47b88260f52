"""Conjugacy operator, gates, envelope recurrence, and the Picard driver.

The operator sends h to f∘h∘g^-1; its fixed points conjugate g to f.  The
driver iterates it only after three gates pass: the eigenvalue gate at some
alpha > 1 (which makes the operator a 1/alpha contraction in the
premetric), the initial-defect gate rho(L(h0), h0) < min(1, 1/A), and a
boundedness probe of the iterates in both directions on the innermost
compact, read off one probe walk of the top sample table cut to the
outermost compact, whose whole walk a converged run must pass too.
Alongside the iteration the driver runs the envelope recurrence: the
initial defect, below 1 by its gate, seeds a per-step upper envelope that
the distance of every iterate to h0 has to respect.
"""

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from .funcspace import (
    Tolerances,
    _table,
)
from .homspace import (
    DomainMismatchError,
    EstimateContext,
    EvaluationError,
    Homeo,
    InequalityReport,
    MembershipVerdict,
    _apply,
    _chain_memo,
    _gate_constant,
    _images,
    compose,
    group_membership,
    invert,
    premetric,
)
from .koopman import EigenReport, check_p_alpha

__all__ = [
    "GateConstants",
    "CauchyEnvelope",
    "BoundReport",
    "StepRecord",
    "IterationTrace",
    "ConjugacyResult",
    "PicardContext",
    "conjugacy_operator",
    "contraction_check",
    "cauchy_envelope",
    "envelope_threshold",
    "negative_iterates_bound",
    "conjugacy_residual",
    "picard_solve",
]


@dataclass(frozen=True)
class GateConstants:
    """Constants of the iteration gates.

    ``A`` is max(a*beta, b*beta/m + beta/gamma), from
    ``homspace._gate_constant``; the defect gate is delta < min(1, 1/A).
    """

    A: float
    delta: float      # initial defect rho(L(h0), h0)
    C: float          # contraction factor 1/alpha

    @property
    def threshold(self) -> float:
        return min(1.0, 1.0 / self.A)

    @property
    def gate_passes(self) -> bool:
        return self.delta < self.threshold


def conjugacy_operator(f: Homeo, g: Homeo, h: Homeo) -> Homeo:
    """f∘h∘g^-1; fixed points conjugate g to f."""
    return compose(compose(f, h), invert(g))


def contraction_check(f: Homeo, g: Homeo, h1: Homeo, h2: Homeo,
                      alpha: float, ctx: EstimateContext) -> InequalityReport:
    """rho(L(h1), L(h2)) <= rho(h1, h2) / alpha, up to the sampling slack."""
    lhs = premetric(conjugacy_operator(f, g, h1), conjugacy_operator(f, g, h2),
                    ctx.phi, ctx.r, ctx.scheme, ctx.tol)
    rhs = premetric(h1, h2, ctx.phi, ctx.r, ctx.scheme, ctx.tol)
    bound = rhs.rho / alpha
    passed = bool(lhs.rho <= bound + ctx.tol.tau_contr)
    return InequalityReport(
        name="operator_contraction",
        lhs=float(lhs.rho),
        rhs=float(bound),
        passed=passed,
        witness={"h1": h1.label, "h2": h2.label, "alpha": float(alpha),
                 "rho_pair": float(rhs.rho)},
    )


# ---------------------------------------------------------------------------
# envelope recurrence


@dataclass(frozen=True)
class CauchyEnvelope:
    """Values of the increment envelope F_k and its telescoped tail bound.

    Recurrence: F_0 = epsilon, F_k = C^(m+k-1) * F_{k-1} + C^(m+k-1) + F_{k-1}.
    When a_m = C^(m+1) * (1 + 1/epsilon) + C < 1 the whole sequence sits
    under epsilon + C^m * (epsilon/(1-a_m) + 1/(1-C)).
    """

    m: int
    epsilon: float
    C: float
    values: tuple
    a_m: float
    tail: float       # inf when a_m >= 1
    bound: float      # epsilon + tail

    def value_at(self, k: int) -> float:
        return self.values[k]


def _envelope_tail(m: int, epsilon: float, C: float) -> tuple:
    """(a_m, tail) for seed step m; the tail is inf when a_m >= 1."""
    if not 0.0 < C < 1.0:
        raise ValueError("C must lie in (0, 1)")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    a_m = C ** (m + 1) * (1.0 + 1.0 / epsilon) + C
    if a_m >= 1.0:
        return a_m, np.inf
    return a_m, C ** m * (epsilon / (1.0 - a_m) + 1.0 / (1.0 - C))


def _envelope(m: int, epsilon: float, C: float):
    """Yield F_0, F_1, ... of the :class:`CauchyEnvelope` recurrence, which
    needs no 1/epsilon, so epsilon = 0 is allowed."""
    value, power = float(epsilon), C ** m
    while True:
        yield value
        value, power = power * value + power + value, power * C


def cauchy_envelope(m: int, epsilon: float, C: float,
                    k_max: int) -> CauchyEnvelope:
    a_m, tail = _envelope_tail(m, epsilon, C)
    if m < 1 or k_max < 0:
        raise ValueError("m >= 1 and k_max >= 0 required")
    return CauchyEnvelope(
        m=m, epsilon=float(epsilon), C=float(C),
        values=tuple(itertools.islice(_envelope(m, epsilon, C), k_max + 1)),
        a_m=float(a_m), tail=float(tail), bound=float(epsilon + tail),
    )


def envelope_threshold(epsilon: float, C: float) -> int:
    """Smallest n with the seed step m = n + 1 taming the envelope.

    Taming means a_m < 1 and the telescoped tail at most epsilon, so the
    whole envelope stays at or below 2 * epsilon.  a_m and the tail are
    non-increasing in m, also in floating point, so doubling finds a taming
    step and bisection the least one.  ValueError when the tail still fails
    once C^m underflows (a term overflowed), past which it is constant.
    """
    def tames(m: int) -> bool:
        return _envelope_tail(m, epsilon, C)[1] <= epsilon

    hi = 1
    while not tames(hi):
        if C ** hi == 0.0:
            raise ValueError(f"no seed step tames {epsilon!r} at C {C!r}")
        hi *= 2
    lo = hi // 2      # 0, or a step that does not tame
    return lo + bisect.bisect_left(range(lo + 1, hi + 1), True, key=tames)


# ---------------------------------------------------------------------------
# boundedness probe


@dataclass(frozen=True)
class BoundReport:
    """Sup norms of the operator iterates of h0 over a fixed compact.

    The doubly-infinite boundedness requirement is realized on the finite
    symmetric range |n| <= n_bnd; ``flagged`` means the outer half of the
    range grew past kappa_div times the inner half, the window-doubling
    idiom applied to the iteration index, or that some value is not finite
    (``notes`` then names the first such n).  ``rows[n]`` holds the
    per-point norms whose maximum is ``values[n]``.
    """

    values: dict
    n_bnd: int
    flagged: bool
    max_value: float
    notes: tuple = ()
    rows: dict = field(default=None, compare=False, repr=False)


def _iterates(f: Homeo, g: Homeo, h0: Homeo):
    """Yield f^n∘h0∘g^-n for n = 1, 2, ...; the iterates f^-n∘h0∘g^n are
    ``_iterates(invert(f), invert(g), h0)``."""
    h, g_inv = h0, invert(g)
    while True:
        h = compose(compose(f, h), g_inv)
        yield h


def negative_iterates_bound(f: Homeo, g: Homeo, h0: Homeo, pts: np.ndarray,
                            n_bnd: int, tol: Tolerances = Tolerances(),
                            rows: np.ndarray | None = None) -> BoundReport:
    """Sup norms of f^n∘h0∘g^-n over ``pts[rows]`` for |n| <= n_bnd.

    Each iterate is split into its leading run of f (n >= 0) or f^-1
    (n < 0) atoms and the rest.  The rests are walked on all of ``pts``
    under a chain memo, so the orbits g^-n(pts) and g^n(pts) are walked
    once, not once per n, and a caller's memo keeps them for its own walks
    from ``pts``; each rest image is then cut to ``rows`` (None: every
    row).  The runs are applied in lockstep by :func:`_lockstep_norms`, so
    f and f^-1 are each called once per round, O(n_bnd) calls in all, not
    once per atom of every chain.  Every atom is row-wise, so the norms are
    bit for bit those of a walk of each chain alone on ``pts[rows]``.  An
    image that leaves the float range warns nowhere: the probe flags it
    (see :class:`BoundReport`), and rows outside ``rows`` are never
    looked at.  The report keeps the per-point norms in the order 0, 1,
    -1, 2, -2, ..., so its restriction to a subset of the rows needs no
    second walk.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rows = slice(None) if rows is None else rows
    pos = {0: h0, **dict(zip(range(1, n_bnd + 1), _iterates(f, g, h0)))}
    neg = dict(zip(range(-1, -n_bnd - 1, -1),
                   _iterates(invert(f), invert(g), h0)))
    with _chain_memo(), np.errstate(over="ignore", invalid="ignore"):
        norms = _lockstep_norms(pos, f, pts, rows)
        norms.update(_lockstep_norms(neg, invert(f), pts, rows))
    order = sorted(norms, key=lambda n: (abs(n), n < 0))
    return _bound_report({n: norms[n] for n in order}, n_bnd, tol)


def _leading_run(chain: tuple, block: tuple) -> int:
    """How many copies of ``block`` open ``chain``; 0 for an empty block."""
    k, w = 0, len(block)
    while w and chain[k * w:(k + 1) * w] == block:
        k += 1
    return k


def _lockstep_norms(chains: dict, step: Homeo, pts: np.ndarray,
                    rows) -> dict:
    """The norms of h(pts)[rows] for each map h of ``chains``, keyed alike.

    Each chain is k copies of ``step`` after a rest.  The rest images, cut
    to ``rows``, are stacked in order of decreasing k, and each round
    applies ``step`` once to the prefix of chains whose run is not yet
    done; a chain's norms are taken as its run ends, so no finished image
    outlives its round and none is filed in a memo.
    """
    if not chains:
        return {}
    runs = {}
    for key, h in chains.items():
        k = _leading_run(h.chain, step.chain)
        rest = Homeo(h.domain, h.chain[k * len(step.chain):])
        runs[key] = (k, rest.forward(pts)[rows])
    order = sorted(runs, key=lambda key: -runs[key][0])
    stack = np.concatenate([runs[key][1] for key in order])
    norm_of, m = step.domain.norm_of, runs[order[0]][1].shape[0]
    norms, live = {}, len(order)
    for k in range(runs[order[0]][0] + 1):
        while live and runs[order[live - 1]][0] == k:
            live -= 1
            norms[order[live]] = norm_of(stack[live * m:(live + 1) * m])
        if live:
            stack = stack[:live * m]
            for atom_step in reversed(step.chain):
                stack = _apply(atom_step, stack)
    return norms


def _bound_report(rows: dict, n_bnd: int, tol: Tolerances) -> BoundReport:
    """The report whose value at each n is the maximum of ``rows[n]``."""
    values = {n: float(np.max(norms)) for n, norms in rows.items()}
    half = max(v for k, v in values.items() if abs(k) <= n_bnd // 2)
    full = float(np.max(list(values.values())))
    # a NaN compares false with the growth threshold, so a probe whose
    # iterate left the float range is flagged on its own
    bad = next((n for n, v in values.items() if not np.isfinite(v)), None)
    notes = () if bad is None else (
        f"boundedness probe: iterate n={bad} is not finite",)
    flagged = bad is not None or bool(full > tol.kappa_div * half
                                      + tol.tau_abs)
    return BoundReport(values=values, n_bnd=n_bnd, flagged=flagged,
                       max_value=full, notes=notes, rows=rows)


def _check_domains(est: EstimateContext, *maps: Homeo) -> None:
    """Estimates over est's samples mean nothing for maps on another domain."""
    for f in maps:
        if f.domain != est.domain:
            raise DomainMismatchError(
                f"map {f.label!r} acts on {f.domain}, the estimate context "
                f"on {est.domain}")


def conjugacy_residual(f: Homeo, g: Homeo, h: Homeo, ctx: EstimateContext) -> float:
    """sup over samples of r(|f(h(x)) - h(g(x))|) / phi(g(x)).

    Both images are walks of composed chains, f∘h and h∘g, from the top
    sample table, the premetric's rule (see homspace), not walks of h from
    the images g(x).  For an iterate h = f^n∘h0∘g^-n seam cancellation
    makes h∘g the chain f∘h' of the previous iterate h'.  So under a chain
    memo, after the residual of h', this one walks no image twice and
    grows only the orbit g^-k of the table, by one step; no second orbit
    starts from g(x).  phi(g(x)) still reads the images g(x).
    Raises DomainMismatchError unless f, g, h and ctx share one domain.
    """
    _check_domains(ctx, f, g, h)
    pts = _table(ctx.domain, ctx.scheme).pts
    gx = _images(g, pts)
    fhx = _images(compose(f, h), pts)
    num = ctx.r.eval(ctx.domain.norm_of(fhx - _images(compose(h, g), pts)))
    return float(np.max(num / ctx.phi.eval(gx)))


# ---------------------------------------------------------------------------
# the Picard driver


@dataclass(frozen=True)
class StepRecord:
    n: int
    rho_increment: float
    conj_residual: float
    compact_bound: float
    fk_envelope: float       # the envelope at n, seeded at step 0


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple
    verdict: str             # converged | gate_failed | budget_exhausted |
                             # unbounded_on_compacts | non_finite |
                             # undetermined
    constants: GateConstants
    eigen: EigenReport
    failed_gate: str | None = None
    gate_margin: float | None = None
    anchored: tuple = ()     # (step, observed rho to h0, envelope value)
    incrementally_bounded: bool | None = None
    bound_pre: BoundReport | None = None
    bound_post: BoundReport | None = None
    notes: tuple = ()

    @property
    def n_steps(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ConjugacyResult:
    h: Homeo
    trace: IterationTrace
    membership: MembershipVerdict | None
    residual: float

    @property
    def converged(self) -> bool:
        return self.trace.verdict == "converged"


@dataclass(frozen=True)
class PicardContext:
    est: EstimateContext
    alpha: float
    n_max: int = 200
    n_bnd: int = 32
    eigen_report: EigenReport | None = None    # None: the solve runs the gate

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError("alpha must exceed 1")
        if self.n_max < 1 or self.n_bnd < 0:
            raise ValueError("n_max >= 1 and n_bnd >= 0 required")
        if self.eigen_report is not None \
                and self.eigen_report.alpha != self.alpha:
            raise ValueError(
                f"eigen_report was computed at alpha {self.eigen_report.alpha}"
                f", not at {self.alpha}")


@_chain_memo()
def picard_solve(f: Homeo, g: Homeo, h0: Homeo,
                 ctx: PicardContext) -> ConjugacyResult:
    """Iterate h <- f∘h∘g^-1 from h0 under the three gates.

    Stops when both the increment rho(h_{n+1}, h_n) and the conjugation
    residual drop below tol_conj.  The eigenvalue gate is checked here
    unless ``ctx.eigen_report`` brings it; a report whose ``inputs`` are not
    this solve's f, g, gauge, scale, scheme and tolerances raises
    ValueError.  Never weakens a gate: a failed gate or a flagged
    boundedness probe ends the run with its verdict, no steps and no
    membership.  The probe walks the top sample table and reports its rows
    in the outermost compact; its rows in the innermost compact decide the
    gate (``bound_pre``), and a converged run must pass the whole report
    (``bound_post``).  A step whose estimates cannot be evaluated (an
    image left the float range) ends the run as ``non_finite``, and a step
    whose increment or residual is NaN ends it as ``undetermined``, each
    with the steps before it and no membership.  Each step's compact bound
    is the larger of the values of ``bound_pre`` at +-(n+1) (NaN if either
    is); a run of more than n_bnd steps probes the innermost compact once
    more after its last step, as far as it went, and that probe enters
    neither ``bound_pre`` nor ``bound_post``.  The defect gate makes
    delta < min(1, 1/A) <= 1, so the envelope is seeded at step 0 with
    epsilon = delta (0 too), and step n's observation is rho(h_{n+1}, h0).

    The whole solve runs under one chain memo (see homspace), and every
    estimate walks from the top sample table.  The probe walks the orbits
    g^-k and g^k of that table up to n_bnd, so the steps' residuals and
    observations find them in the memo; each step's increment walks its
    own g^-1 on its root f^-n(P).  Every atom is row-wise, so every number
    is bit for bit that of walking each chain alone.  Raises
    DomainMismatchError unless f, g, h0 and ``ctx.est`` share one domain.
    """
    est = ctx.est
    _check_domains(est, f, g, h0)
    tol = est.tol
    eigen = ctx.eigen_report or check_p_alpha(f, g, est.phi, est.r,
                                              ctx.alpha, est.scheme, tol)
    if eigen.inputs != (f, g, est.phi, est.r, est.scheme, tol):
        raise ValueError("eigen_report was computed on other maps, gauge, "
                         "scale, scheme or tolerances than this solve's")
    C = 1.0 / ctx.alpha

    table = _table(est.domain, est.scheme)
    top, compacts = table.pts, table.rows
    inner = next((rows for rows in compacts if rows.size), None)
    if inner is None:
        raise ValueError("empty compact exhaustion")
    outer = compacts[-1]
    in_inner = np.isin(outer, inner)

    delta_est = premetric(conjugacy_operator(f, g, h0), h0,
                          est.phi, est.r, est.scheme, tol)
    constants = GateConstants(A=_gate_constant(est.phi, est.cross),
                              delta=float(delta_est.rho), C=C)

    # the first gate that fails ends the run as (verdict, gate, margin)
    failed = bound = bound_pre = None
    if not eigen.satisfied:
        # np.minimum keeps a NaN slack whichever map it belongs to
        failed = ("gate_failed", "eigenvalue_gate", float(np.minimum(
            eigen.min_slack_f,
            np.inf if eigen.min_slack_g is None else eigen.min_slack_g)))
    elif not constants.gate_passes:
        failed = ("gate_failed", "initial_defect",
                  float(constants.threshold - constants.delta))
    else:
        bound = negative_iterates_bound(f, g, h0, top, ctx.n_bnd, tol, outer)
        bound_pre = _bound_report(
            {n: norms[in_inner] for n, norms in bound.rows.items()},
            ctx.n_bnd, tol)
        if bound_pre.flagged:
            failed = ("unbounded_on_compacts", "iterate_boundedness", None)
    verdict, failed_gate, margin = failed or ("budget_exhausted", None, None)

    measured, anchored = [], []
    notes = [] if bound_pre is None else list(bound_pre.notes)
    n_max = 0 if failed else ctx.n_max
    h = h0
    residual = np.nan

    for n, h_next, env_val in zip(range(n_max), _iterates(f, g, h0),
                                       _envelope(1, constants.delta, C)):
        try:
            inc = constants.delta if n == 0 else premetric(
                h_next, h, est.phi, est.r, est.scheme, tol).rho
            step_residual = conjugacy_residual(f, g, h_next, est)
            observed = inc if n == 0 else premetric(
                h_next, h0, est.phi, est.r, est.scheme, tol).rho
        except EvaluationError as exc:
            # once f^-n leaves the float range no estimate of step n exists;
            # the steps before it stand
            verdict = "non_finite"
            notes.append(f"step {n} not evaluable: {exc}")
            break
        if np.isnan(inc) or np.isnan(step_residual):
            # a NaN compares false with every threshold and would pass for
            # slow convergence; the steps before it stand
            verdict = "undetermined"
            notes.append(f"step {n} undetermined: increment {inc!r}, "
                         f"residual {step_residual!r}")
            break
        residual = step_residual
        anchored.append((n, float(observed), float(env_val)))
        measured.append((n, float(inc), float(residual), float(env_val)))

        h = h_next
        if inc < tol.tol_conj and residual < tol.tol_conj:
            verdict = "converged"
            break

    # a step's compact bound is the larger norm of iterates +-(n + 1) on the
    # inner compact; a run that outlived the probe walks one probe of the
    # inner compact as far as it went, for its steps alone
    probe = bound_pre if len(measured) <= ctx.n_bnd else \
        negative_iterates_bound(f, g, h0, top, len(measured), tol, inner)
    steps = tuple(StepRecord(
        n=n, rho_increment=inc, conj_residual=res,
        compact_bound=float(np.maximum(probe.values[n + 1],
                                       probe.values[-n - 1])),
        fk_envelope=env) for n, inc, res, env in measured)

    bound_post = bound if verdict == "converged" else None
    if bound_post is not None and bound_post.flagged:
        verdict = "unbounded_on_compacts"
        notes.append("boundedness probe failed on the outer compact "
                     "after convergence")
        notes.extend(bound_post.notes)

    incr_ok = all(obs <= env + tol.tau_env
                  for _, obs, env in anchored) if anchored else None

    trace = IterationTrace(
        steps=steps, verdict=verdict, constants=constants,
        eigen=eigen, failed_gate=failed_gate,
        gate_margin=margin, anchored=tuple(anchored),
        incrementally_bounded=incr_ok,
        bound_pre=bound_pre, bound_post=bound_post, notes=tuple(notes),
    )
    membership = None
    if failed is None and verdict not in ("non_finite", "undetermined"):
        membership = group_membership(h, est.phi, est.r, est.scheme, tol)
    return ConjugacyResult(h=h, trace=trace, membership=membership,
                           residual=float(residual))
