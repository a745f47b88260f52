"""Conjugacy operator, gates, envelope recurrence, and the Picard driver.

The operator sends h to f∘h∘g^-1; its fixed points conjugate g to f.  The
driver iterates it only after three gates pass: the eigenvalue gate at some
alpha > 1 (which makes the operator a 1/alpha contraction in the
premetric), the initial-defect gate rho(L(h0), h0) < min(1, 1/A), and a
boundedness probe of the iterates in both directions on the innermost
compact, read off one probe walk of the outermost compact, whose whole
walk a converged run must pass too.  Alongside the iteration the driver
runs the envelope recurrence: once an increment drops below 1 it becomes
the seed of a per-step upper envelope that every later increment measured
against the anchor iterate has to respect.
"""

import bisect
from dataclasses import dataclass, field

import numpy as np

from .funcspace import (
    Tolerances,
    doubling_sample_sets,
    exhaustion_sets,
)
from .homspace import (
    DomainMismatchError,
    EstimateContext,
    EvaluationError,
    Homeo,
    InequalityReport,
    MembershipVerdict,
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


def cauchy_envelope(m: int, epsilon: float, C: float,
                    k_max: int) -> CauchyEnvelope:
    a_m, tail = _envelope_tail(m, epsilon, C)
    if m < 1 or k_max < 0:
        raise ValueError("m >= 1 and k_max >= 0 required")
    values = [float(epsilon)]
    power = C ** m
    for _ in range(k_max):
        prev = values[-1]
        values.append(power * prev + power + prev)
        power *= C
    return CauchyEnvelope(
        m=m, epsilon=float(epsilon), C=float(C), values=tuple(values),
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
    """Yield (f^n∘h0∘g^-n, f^-n∘h0∘g^n) for n = 1, 2, ..."""
    pos = neg = h0
    f_inv, g_inv = invert(f), invert(g)
    while True:
        pos = compose(compose(f, pos), g_inv)
        neg = compose(compose(f_inv, neg), g)
        yield pos, neg


def negative_iterates_bound(f: Homeo, g: Homeo, h0: Homeo, pts: np.ndarray,
                            n_bnd: int,
                            tol: Tolerances = Tolerances()) -> BoundReport:
    """Sup norms of f^n∘h0∘g^-n over ``pts`` for |n| <= n_bnd.

    Runs under a chain memo, so the orbits g^-n(pts) and g^n(pts) are
    walked once, not once per n.  The report keeps the per-point norms,
    so its restriction to a subset of ``pts`` needs no second walk.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    norm_of = h0.domain.norm_of
    with _chain_memo():
        rows = {0: norm_of(h0.forward(pts))}
        for n, (pos, neg) in zip(range(1, n_bnd + 1), _iterates(f, g, h0)):
            rows[n] = norm_of(pos.forward(pts))
            rows[-n] = norm_of(neg.forward(pts))
    return _bound_report(rows, n_bnd, tol)


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

    Raises DomainMismatchError unless f, g, h and ctx share one domain.
    """
    _check_domains(ctx, f, g, h)
    pts = doubling_sample_sets(ctx.domain, ctx.scheme)[-1][1]
    gx = _images(g, pts)
    fhx = _images(f, _images(h, pts), "images of h")
    num = ctx.r.eval(ctx.domain.norm_of(fhx - _images(h, gx, "images of g")))
    return float(np.max(num / ctx.phi.eval(gx)))


# ---------------------------------------------------------------------------
# the Picard driver


@dataclass(frozen=True)
class StepRecord:
    n: int
    rho_increment: float
    conj_residual: float
    compact_bound: float
    fk_envelope: float       # nan before the envelope anchor exists


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple
    verdict: str             # converged | gate_failed | budget_exhausted |
                             # unbounded_on_compacts | non_finite |
                             # undetermined
    constants: GateConstants
    alpha: float
    eigen: EigenReport
    failed_gate: str | None = None
    gate_margin: float | None = None
    anchor: int | None = None
    eps_monitor: float | None = None
    anchored: tuple = ()     # (step, observed rho to anchor, envelope value)
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
    membership.  The probe walks the outermost compact once; its rows in
    the innermost compact decide the gate (``bound_pre``), and a converged
    run must pass the whole walk (``bound_post``).  A step whose estimates
    cannot be evaluated (an image left the float range) ends the run as
    ``non_finite``, and a step whose increment or residual is NaN ends it
    as ``undetermined``, each with the steps before it and no membership.
    The whole solve runs under one chain memo (see homspace), so a step
    costs one new inverse orbit step per sample table instead of n.  Raises
    DomainMismatchError unless f, g, h0 and ``ctx.est`` share one domain.
    """
    est = ctx.est
    _check_domains(est, f, g, h0)
    tol = est.tol
    eigen = ctx.eigen_report
    if eigen is None:
        eigen = check_p_alpha(f, g, est.phi, est.r, ctx.alpha, est.scheme,
                              tol)
    elif eigen.inputs != (f, g, est.phi, est.r, est.scheme, tol):
        raise ValueError("eigen_report was computed on other maps, gauge, "
                         "scale, scheme or tolerances than this solve's")
    C = 1.0 / ctx.alpha

    levels = exhaustion_sets(est.domain, est.scheme)
    inner = next((k for k in levels if k.shape[0] > 0), None)
    if inner is None:
        raise ValueError("empty compact exhaustion")
    # the compacts are norm cuts of one table, each in the table's order
    outer = levels[-1]
    norm_of = est.domain.norm_of
    in_inner = norm_of(outer) <= np.max(norm_of(inner))

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
        bound = negative_iterates_bound(f, g, h0, outer, ctx.n_bnd, tol)
        bound_pre = _bound_report(
            {n: norms[in_inner] for n, norms in bound.rows.items()},
            ctx.n_bnd, tol)
        if bound_pre.flagged:
            failed = ("unbounded_on_compacts", "iterate_boundedness", None)
    verdict, failed_gate, margin = failed or ("budget_exhausted", None, None)

    steps, anchored = [], []
    notes = [] if bound_pre is None else list(bound_pre.notes)
    anchor = eps_monitor = envelope = h_anchor = None
    h = h0
    residual = np.nan

    n_max = 0 if failed else ctx.n_max
    for n, (h_next, neg_next) in zip(range(n_max), _iterates(f, g, h0)):
        try:
            if n == 0:
                inc = constants.delta
            else:
                inc = premetric(h_next, h, est.phi, est.r, est.scheme, tol).rho
            step_residual = conjugacy_residual(f, g, h_next, est)
            observed = inc if anchor is None else premetric(
                h_next, h_anchor, est.phi, est.r, est.scheme, tol).rho
            compact = max(
                float(np.max(norm_of(h_next.forward(outer))[in_inner])),
                float(np.max(norm_of(neg_next.forward(outer))[in_inner])))
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

        if anchor is None and inc < 1.0:
            anchor = n
            eps_monitor = float(inc)
            h_anchor = h
            envelope = cauchy_envelope(
                m=anchor + 1, epsilon=eps_monitor, C=C,
                k_max=ctx.n_max - anchor)

        if anchor is None:
            env_val = np.nan
        else:
            env_val = envelope.value_at(n - anchor)
            anchored.append((n, float(observed), float(env_val)))

        steps.append(StepRecord(
            n=n, rho_increment=float(inc), conj_residual=float(residual),
            compact_bound=compact, fk_envelope=float(env_val)))

        h = h_next
        if inc < tol.tol_conj and residual < tol.tol_conj:
            verdict = "converged"
            break

    bound_post = bound if verdict == "converged" else None
    if bound_post is not None and bound_post.flagged:
        verdict = "unbounded_on_compacts"
        notes.append("boundedness probe failed on the outer compact "
                     "after convergence")
        notes.extend(bound_post.notes)

    incr_ok = all(obs <= env + tol.tau_env
                  for _, obs, env in anchored) if anchored else None

    trace = IterationTrace(
        steps=tuple(steps), verdict=verdict, constants=constants,
        alpha=ctx.alpha, eigen=eigen, failed_gate=failed_gate,
        gate_margin=margin, anchor=anchor, eps_monitor=eps_monitor,
        anchored=tuple(anchored), incrementally_bounded=incr_ok,
        bound_pre=bound_pre, bound_post=bound_post, notes=tuple(notes),
    )
    membership = None
    if failed is None and verdict not in ("non_finite", "undetermined"):
        membership = group_membership(h, est.phi, est.r, est.scheme, tol)
    return ConjugacyResult(h=h, trace=trace, membership=membership,
                           residual=float(residual))
