"""Conjugacy operator, gates, envelope recurrence, and the Picard driver.

The operator sends h to f∘h∘g^-1; its fixed points conjugate g to f.  The
driver iterates it only after three gates pass: the eigenvalue gate at some
alpha > 1 (which makes the operator a 1/alpha contraction in the
premetric), the initial-defect gate rho(L(h0), h0) < min(1, 1/A), and a
boundedness probe of the iterates in both directions on the innermost
compact.  Alongside the iteration the driver runs the envelope recurrence:
once an increment drops below 1 it becomes the seed of a per-step upper
envelope that every later increment measured against the anchor iterate
has to respect.
"""

from dataclasses import dataclass, field

import numpy as np

from .funcspace import Tolerances, doubling_sample_sets, exhaustion_sets
from .homspace import (
    EstimateContext,
    EvaluationError,
    Homeo,
    InequalityReport,
    MembershipVerdict,
    _chain_memo,
    _triangle_coefficients,
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

    ``A`` is always recomputed from its constituents, never stored, so it
    cannot drift out of sync with them.
    """

    a: float
    b: float
    beta: float
    gamma: float
    m: float
    delta: float      # initial defect rho(L(h0), h0)
    C: float          # contraction factor 1/alpha

    @property
    def A(self) -> float:
        return max(_triangle_coefficients(self.a, self.b, self.beta,
                                          self.gamma, self.m))

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
    n: int
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


def cauchy_envelope(m: int, n: int, epsilon: float, C: float,
                    k_max: int) -> CauchyEnvelope:
    a_m, tail = _envelope_tail(m, epsilon, C)
    if m < 1 or n < 0 or k_max < 0:
        raise ValueError("m >= 1, n >= 0, k_max >= 0 required")
    values = [float(epsilon)]
    power = C ** m
    for _ in range(k_max):
        prev = values[-1]
        values.append(power * prev + power + prev)
        power *= C
    return CauchyEnvelope(
        m=m, n=n, epsilon=float(epsilon), C=float(C), values=tuple(values),
        a_m=float(a_m), tail=float(tail), bound=float(epsilon + tail),
    )


def envelope_threshold(epsilon: float, C: float, cap: int = 100_000) -> int:
    """Smallest n with the seed step m = n + 1 taming the envelope.

    Taming means a_m < 1 and the telescoped tail at most epsilon, so the
    whole envelope stays at or below 2 * epsilon.
    """
    for m in range(1, cap + 1):
        if _envelope_tail(m, epsilon, C)[1] <= epsilon:
            return m - 1
    raise RuntimeError("no taming seed step found below the cap")


# ---------------------------------------------------------------------------
# boundedness probe


@dataclass(frozen=True)
class BoundReport:
    """Sup norms of the operator iterates of h0 over a fixed compact.

    The doubly-infinite boundedness requirement is realized on the finite
    symmetric range |n| <= n_bnd; ``flagged`` means the outer half of the
    range grew past kappa_div times the inner half, the window-doubling
    idiom applied to the iteration index, or that some value is not finite
    (``notes`` then names the first such n).
    """

    values: dict
    n_bnd: int
    flagged: bool
    max_value: float
    notes: tuple = ()


def negative_iterates_bound(f: Homeo, g: Homeo, h0: Homeo, pts: np.ndarray,
                            n_bnd: int,
                            tol: Tolerances = Tolerances()) -> BoundReport:
    """Sup norms of f^n∘h0∘g^-n over ``pts`` for |n| <= n_bnd.

    Runs under a chain memo, so the orbits g^-n(pts) and g^n(pts) are
    walked once, not once per n.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    domain = h0.domain
    with _chain_memo():
        values = {0: float(np.max(domain.norm_of(h0.forward(pts))))}
        pos = h0
        neg = h0
        f_inv = invert(f)
        g_inv = invert(g)
        for n in range(1, n_bnd + 1):
            pos = compose(compose(f, pos), g_inv)
            neg = compose(compose(f_inv, neg), g)
            values[n] = float(np.max(domain.norm_of(pos.forward(pts))))
            values[-n] = float(np.max(domain.norm_of(neg.forward(pts))))
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
                       max_value=full, notes=notes)


def _residual_on(f: Homeo, g: Homeo, h: Homeo, pts: np.ndarray,
                 ctx: EstimateContext) -> float:
    gx = g.forward(pts)
    num = ctx.r.eval(ctx.domain.norm_of(f.forward(h.forward(pts)) - h.forward(gx)))
    den = ctx.phi.eval(gx)
    return float(np.max(num / den))


def conjugacy_residual(f: Homeo, g: Homeo, h: Homeo, ctx: EstimateContext) -> float:
    """sup over samples of r(|f(h(x)) - h(g(x))|) / phi(g(x))."""
    pts = doubling_sample_sets(ctx.domain, ctx.scheme)[-1][1]
    return _residual_on(f, g, h, pts, ctx)


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
    eigen: EigenReport | None
    failed_gate: str | None
    gate_margin: float | None
    anchor: int | None
    eps_monitor: float | None
    anchored: tuple          # (step, observed rho to anchor, envelope value)
    incrementally_bounded: bool | None
    bound_pre: BoundReport | None
    bound_post: BoundReport | None
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
    eigen_report: EigenReport | None = None
    verify_eigen: bool = True

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError("alpha must exceed 1")
        if self.n_max < 1 or self.n_bnd < 0:
            raise ValueError("n_max >= 1 and n_bnd >= 0 required")


def _failed(h0, verdict, constants, alpha, eigen, gate, margin,
            bound_pre=None) -> ConjugacyResult:
    trace = IterationTrace(
        steps=(), verdict=verdict, constants=constants, alpha=alpha,
        eigen=eigen, failed_gate=gate, gate_margin=margin, anchor=None,
        eps_monitor=None, anchored=(), incrementally_bounded=None,
        bound_pre=bound_pre, bound_post=None,
        notes=() if bound_pre is None else bound_pre.notes,
    )
    return ConjugacyResult(h=h0, trace=trace, membership=None,
                           residual=np.nan)


@_chain_memo()
def picard_solve(f: Homeo, g: Homeo, h0: Homeo,
                 ctx: PicardContext) -> ConjugacyResult:
    """Iterate h <- f∘h∘g^-1 from h0 under the three gates.

    Stops when both the increment rho(h_{n+1}, h_n) and the conjugation
    residual drop below tol_conj.  Never weakens a gate: a failed gate or a
    flagged boundedness probe ends the run with the corresponding verdict
    and no iteration steps.  A step whose estimates cannot be evaluated
    (an image left the float range) ends the run as ``non_finite``, and a
    step whose increment or residual is NaN ends it as ``undetermined``,
    each with the steps before it and no membership.  The whole solve runs
    under one chain memo (see homspace), so each step costs one new inverse
    orbit step per sample table instead of n.
    """
    est = ctx.est
    eigen = ctx.eigen_report
    if eigen is None and ctx.verify_eigen:
        eigen = check_p_alpha(f, g, est.phi, est.r, ctx.alpha, est.scheme,
                              est.tol)
    tol = est.tol
    C = 1.0 / ctx.alpha

    levels = exhaustion_sets(est.domain, est.scheme)
    inner = next((k for k in levels if k.shape[0] > 0), None)
    if inner is None:
        raise ValueError("empty compact exhaustion")
    outer = levels[-1]
    pts_top = doubling_sample_sets(est.domain, est.scheme)[-1][1]

    delta_est = premetric(conjugacy_operator(f, g, h0), h0,
                          est.phi, est.r, est.scheme, tol)
    constants = GateConstants(
        a=est.cross.a, b=est.cross.b, beta=est.phi.beta, gamma=est.phi.gamma,
        m=est.phi.m, delta=float(delta_est.rho), C=C,
    )

    if eigen is not None and not eigen.satisfied:
        margin = min(eigen.min_slack_f,
                     np.inf if eigen.min_slack_g is None else eigen.min_slack_g)
        return _failed(h0, "gate_failed", constants, ctx.alpha, eigen,
                       "eigenvalue_gate", float(margin))

    if not constants.gate_passes:
        margin = constants.threshold - constants.delta
        return _failed(h0, "gate_failed", constants, ctx.alpha, eigen,
                       "initial_defect", float(margin))

    bound_pre = negative_iterates_bound(f, g, h0, inner, ctx.n_bnd, tol)
    if bound_pre.flagged:
        return _failed(h0, "unbounded_on_compacts", constants, ctx.alpha,
                       eigen, "iterate_boundedness", None, bound_pre)

    steps = []
    anchored = []
    notes = []
    anchor = None
    eps_monitor = None
    envelope = None
    h_anchor = None
    h = h0
    neg = h0
    f_inv = invert(f)
    verdict = "budget_exhausted"
    residual = np.nan
    f_chain_domain = est.domain

    for n in range(ctx.n_max):
        h_next = conjugacy_operator(f, g, h)
        neg_next = compose(compose(f_inv, neg), g)
        try:
            if n == 0:
                inc = constants.delta
            else:
                inc = premetric(h_next, h, est.phi, est.r, est.scheme, tol).rho
            step_residual = _residual_on(f, g, h_next, pts_top, est)
            observed = inc if anchor is None else premetric(
                h_next, h_anchor, est.phi, est.r, est.scheme, tol).rho
            compact = max(
                float(np.max(f_chain_domain.norm_of(h_next.forward(inner)))),
                float(np.max(f_chain_domain.norm_of(neg_next.forward(inner)))))
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
        neg = neg_next

        if anchor is None and inc < 1.0:
            anchor = n
            eps_monitor = float(inc)
            h_anchor = h
            envelope = cauchy_envelope(
                m=anchor + 1, n=anchor, epsilon=eps_monitor, C=C,
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

    bound_post = None
    if verdict == "converged":
        bound_post = negative_iterates_bound(f, g, h0, outer, ctx.n_bnd, tol)
        if bound_post.flagged:
            verdict = "unbounded_on_compacts"
            notes.append("boundedness probe failed on the outer compact "
                         "after convergence")
            notes.extend(bound_post.notes)

    incr_ok = None
    if anchored:
        incr_ok = all(obs <= env + tol.tau_env for _, obs, env in anchored)

    trace = IterationTrace(
        steps=tuple(steps), verdict=verdict, constants=constants,
        alpha=ctx.alpha, eigen=eigen, failed_gate=None, gate_margin=None,
        anchor=anchor, eps_monitor=eps_monitor, anchored=tuple(anchored),
        incrementally_bounded=incr_ok, bound_pre=bound_pre,
        bound_post=bound_post, notes=tuple(notes),
    )
    membership = None
    if verdict not in ("non_finite", "undetermined"):
        membership = group_membership(h, est.phi, est.r, est.scheme, tol)
    return ConjugacyResult(h=h, trace=trace, membership=membership,
                           residual=float(residual))
