"""Homeomorphisms as lazy composition chains, displacement, and premetric.

A ``Homeo`` is a chain of primitive invertible atoms.  Composition never
flattens anything onto a grid: evaluation walks the chain pointwise.  The
single algebraic simplification performed is seam cancellation, removing an
atom that meets its own inverse when two chains are concatenated.  That is
what makes ``premetric(f, f)`` collapse to the empty chain and return an
exact 0 even when ``displacement(f)`` is divergent: the two displacement
parts are always computed from the composed map, never combined from
separate per-factor estimates, because separate estimates can both be
infinite while the composition is the identity.

Chain memo.  Picard iterates h_n = f^n∘h0∘g^-n share long right-hand
suffixes, and one run evaluates them on a few fixed sample tables.  While
a memo is open (for one ``picard_solve`` or ``negative_iterates_bound``
call; a nested call shares the outer memo), ``Homeo.forward`` walks the
chain right to left through a trie keyed by the root array's identity and
then by one (atom, direction) step per level, so every suffix image, such
as g^-k(P), is computed once and reused by later steps.  The memo holds
each root it keys on, so no other array can take over that identity
while the entry lives.  A cached image is the same atom call that an
uncached walk makes, so every number is bit for bit what it would be
without the memo.  The memo keeps at most ``_MEMO_BYTES`` of images, least recently used out
first; an evicted image is recomputed by the same calls, so eviction
changes no number either.  Cached images are shared, so they are
read-only; atoms must not write to their input.  With no memo open,
``forward`` walks the chain and caches nothing.
"""

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .funcspace import (
    CrossConstants,
    Domain,
    Gauge,
    SampleScheme,
    ScaleFn,
    Tolerances,
    doubling_radii,
    doubling_sample_sets,
    exhaustion_sets,
)

__all__ = [
    "Atom",
    "Homeo",
    "DomainMismatchError",
    "EvaluationError",
    "identity",
    "primitive",
    "compose",
    "invert",
    "DisplacementEstimate",
    "PremetricEstimate",
    "EstimateContext",
    "InequalityReport",
    "MembershipVerdict",
    "displacement",
    "premetric",
    "koopman_lambda",
    "check_relaxed_triangle",
    "ball_inside_ball_radius",
    "group_membership",
    "compact_convergence_distance",
    "roundtrip_error",
    "sup_ratio",
]


class DomainMismatchError(ValueError):
    """Composed maps must act on the same domain."""


class EvaluationError(RuntimeError):
    """A map produced non-finite values at a sample point."""


class Atom:
    """Primitive invertible map given by a forward and an inverse closure."""

    __slots__ = ("fwd", "inv", "label")

    def __init__(self, fwd: Callable, inv: Callable, label: str):
        self.fwd = fwd
        self.inv = inv
        self.label = label

    def __repr__(self):
        return f"Atom({self.label})"


@dataclass(frozen=True)
class Homeo:
    """Composition chain over a fixed domain.

    ``chain`` is a tuple of (atom, direction) pairs; the rightmost entry
    acts first.  An empty chain is the identity.
    """

    domain: Domain
    chain: tuple
    label: str = ""

    @property
    def chain_length(self) -> int:
        return len(self.chain)

    @property
    def is_identity(self) -> bool:
        return len(self.chain) == 0

    def forward(self, pts: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(pts, dtype=float))
        memo = _MEMO.get()
        if memo is not None:
            return memo.forward(self.chain, out)
        for step in reversed(self.chain):
            out = _apply(step, out)
        return out

    def inverse(self, pts: np.ndarray) -> np.ndarray:
        return invert(self).forward(pts)


def _apply(step: tuple, pts: np.ndarray) -> np.ndarray:
    atom, direction = step
    return atom.fwd(pts) if direction > 0 else atom.inv(pts)


# Bytes of arrays a chain memo keeps alive.  A Picard step adds a few
# images per step already taken, so an unbounded memo grows with the
# square of the step count: 126 MiB at 100 steps and 493 MiB at 200 on
# the 607-row default table of the half line.  Under this bound a
# 400-step run on that table still reuses every orbit image it walks.
_MEMO_BYTES = 64 << 20


class _ChainMemo:
    """Trie of chain-suffix images, least recently used out first.

    A node is a pair (image, children); a root node's image is the root
    array itself.  Every walk renews its path deepest first, so each node
    is newer than all of its descendants and the oldest node is always a
    leaf: evicting it never orphans a subtree.  Nodes hold no reference to
    their parent, so a closed memo is freed at once, without a cycle
    collection.
    """

    def __init__(self):
        self.roots = {}             # id(root) -> root node
        self.lru = OrderedDict()    # id(node) -> (node, parent, key)
        self.nbytes = 0

    def _add(self, parent: dict, key, image: np.ndarray) -> tuple:
        node = parent[key] = (image, {})
        self.lru[id(node)] = (node, parent, key)
        self.nbytes += image.nbytes
        return node

    def forward(self, chain: tuple, root: np.ndarray) -> np.ndarray:
        node = self.roots.get(id(root)) or self._add(self.roots, id(root),
                                                     root)
        path = [node]
        for step in reversed(chain):
            child = node[1].get(step)
            if child is None:
                # a read-only view: never freeze an array an atom hands back
                image = _apply(step, node[0]).view()
                image.flags.writeable = False
                child = self._add(node[1], step, image)
            node = child
            path.append(node)
        for node in reversed(path):
            self.lru.move_to_end(id(node))
        while self.nbytes > _MEMO_BYTES:
            _, (old, parent, key) = self.lru.popitem(last=False)
            del parent[key]
            self.nbytes -= old[0].nbytes
        return path[-1][0]


_MEMO = ContextVar("homconj_chain_memo", default=None)


@contextmanager
def _chain_memo():
    """Open a chain memo for the enclosed block, or share the open one."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set(_ChainMemo())
    try:
        yield
    finally:
        _MEMO.reset(token)


def identity(domain: Domain) -> Homeo:
    return Homeo(domain=domain, chain=(), label="id")


def primitive(domain: Domain, fwd: Callable, inv: Callable, label: str) -> Homeo:
    atom = Atom(fwd, inv, label)
    return Homeo(domain=domain, chain=((atom, +1),), label=label)


def invert(f: Homeo) -> Homeo:
    chain = tuple((atom, -direction) for atom, direction in reversed(f.chain))
    return Homeo(domain=f.domain, chain=chain, label=f"({f.label})^-1")


def compose(f: Homeo, g: Homeo) -> Homeo:
    """f after g.  Cancels atoms meeting their own inverse at the seam."""
    if f.domain != g.domain:
        raise DomainMismatchError(
            f"cannot compose maps on different domains: {f.label} / {g.label}")
    left = list(f.chain)
    right = list(g.chain)
    while left and right and left[-1][0] is right[0][0] \
            and left[-1][1] == -right[0][1]:
        left.pop()
        right.pop(0)
    chain = tuple(left) + tuple(right)
    label = f"{f.label}∘{g.label}" if chain else "id"
    if len(label) > 120:
        label = label[:117] + "..."
    return Homeo(domain=f.domain, chain=chain, label=label)


def roundtrip_error(f: Homeo, pts: np.ndarray) -> float:
    """max over pts of |f^-1(f(x)) - x| / (1 + |x|)."""
    pts = np.atleast_2d(pts)
    back = f.inverse(f.forward(pts))
    num = f.domain.norm_of(back - pts)
    den = 1.0 + f.domain.norm_of(pts)
    return float(np.max(num / den)) if pts.size else 0.0


# ---------------------------------------------------------------------------
# displacement


@dataclass(frozen=True)
class DisplacementEstimate:
    """Windowed lower bound of sup_x r(|f(x)-x|) / phi(x).

    ``finiteness`` is "finite", "divergent", or "undetermined", decided by
    how the estimate grows over three window doublings.  ``dropped`` counts
    samples whose image left the domain near the window boundary.
    """

    value: float
    argmax_point: np.ndarray | None
    finiteness: str
    window_trace: tuple
    dropped: int = 0

    @property
    def finite(self) -> bool:
        return self.finiteness == "finite"


def _ratio_profile(f: Homeo, phi: Gauge, r: ScaleFn, pts: np.ndarray):
    """Per-point displacement ratios r(|f(x)-x|)/phi(x) over a point set.

    Returns (ratios, kept_points, dropped).  Raises EvaluationError when the
    map itself produces non-finite values; out-of-domain but finite images
    are dropped and counted instead.
    """
    pts = np.atleast_2d(pts)
    fx = f.forward(pts)
    if np.any(~np.isfinite(fx)):
        bad = pts[np.any(~np.isfinite(fx), axis=1)][0]
        raise EvaluationError(f"map {f.label!r} not finite at {bad}")
    radius = float(np.max(f.domain.norm_of(pts))) if pts.size else 1.0
    keep = f.domain.contains(fx, slack=1e-9 * (1.0 + radius))
    dropped = int(pts.shape[0] - np.count_nonzero(keep))
    kept = pts[keep]
    if kept.shape[0] == 0:
        return np.empty(0), kept, dropped
    num = r.eval(f.domain.norm_of(fx[keep] - kept))
    den = phi.eval(kept)
    if np.any(den <= 0) or np.any(~np.isfinite(den)):
        raise EvaluationError("gauge must be positive and finite on samples")
    return num / den, kept, dropped


def sup_ratio(f: Homeo, phi: Gauge, r: ScaleFn, pts: np.ndarray):
    """Displacement ratio maximized over an explicit point set.

    Returns (value, argmax_point, dropped); see _ratio_profile for the
    error contract.
    """
    ratio, kept, dropped = _ratio_profile(f, phi, r, pts)
    if ratio.size == 0:
        return np.nan, None, dropped
    i = int(np.argmax(ratio))
    return float(ratio[i]), kept[i], dropped


def _classify(trace, kappa_div: float, tau_abs: float,
              rel: float = 1e-9) -> str:
    """Growth label for a nondecreasing window trace.

    Divergent needs the total growth over the three doublings to exceed
    kappa_div AND the last doubling to still be growing: a jump followed
    by a flat tail means the sup lives inside a bounded shell, not that it
    escapes with the window.
    """
    values = [v for _, v in trace]
    if any(not np.isfinite(v) for v in values):
        return "undetermined"
    first, last = values[0], values[-1]
    total_growth = last > kappa_div * first + tau_abs
    still_growing = last > (1.0 + rel) * values[-2] + tau_abs
    if total_growth and still_growing:
        return "divergent"
    return "finite"


def _combined(*labels: str) -> str:
    """Finiteness of a joint estimate: divergent, else undetermined, else finite."""
    return next((k for k in ("divergent", "undetermined") if k in labels),
                "finite")


def _shell_trace(radii, ratio: np.ndarray, shell: np.ndarray) -> tuple:
    """(radius, sup of ``ratio`` over entries with ``shell`` <= radius).

    An empty shell gives NaN, so empty inputs give the all-NaN trace that
    :func:`_classify` labels "undetermined".
    """
    trace = []
    for radius in radii:
        mask = shell <= radius * (1.0 + 1e-9)
        value = float(np.max(ratio[mask])) if np.any(mask) else np.nan
        trace.append((float(radius), value))
    return tuple(trace)


def displacement(f: Homeo, phi: Gauge, r: ScaleFn, scheme: SampleScheme,
                 tol: Tolerances = Tolerances()) -> DisplacementEstimate:
    """Displacement of f relative to (phi, r) on the sample window.

    The identity chain short-circuits to an exact 0 independent of phi, r
    and the samples.  Otherwise all ratios are evaluated once on the full
    cumulative sample table and the trace restricts that one profile to the
    doubling shells, so growth across the trace reflects where the large
    ratios live rather than how finely each window happened to be sampled.
    The growth of the trace decides the finiteness label.
    """
    if f.is_identity:
        trace = tuple((float(rad), 0.0) for rad in doubling_radii(scheme))
        return DisplacementEstimate(0.0, None, "finite", trace, 0)

    sets = doubling_sample_sets(f.domain, scheme)
    ratio, kept, dropped = _ratio_profile(f, phi, r, sets[-1][1])
    trace = _shell_trace(doubling_radii(scheme), ratio, f.domain.norm_of(kept))
    if ratio.size == 0:
        return DisplacementEstimate(np.nan, None, "undetermined", trace,
                                    dropped)
    i = int(np.argmax(ratio))
    best, argmax = float(ratio[i]), kept[i]

    finiteness = _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
    value = best if np.isfinite(best) else np.nan
    if finiteness == "undetermined":
        value = np.nan
    return DisplacementEstimate(value, argmax, finiteness, trace, dropped)


# ---------------------------------------------------------------------------
# premetric


@dataclass(frozen=True)
class PremetricEstimate:
    """max of the two composed displacements |f∘g^-1| and |f^-1∘g|."""

    rho: float
    left: DisplacementEstimate     # displacement of f∘g^-1
    right: DisplacementEstimate    # displacement of f^-1∘g
    finiteness: str

    @property
    def finite(self) -> bool:
        return self.finiteness == "finite"


def premetric(f: Homeo, g: Homeo, phi: Gauge, r: ScaleFn,
              scheme: SampleScheme,
              tol: Tolerances = Tolerances()) -> PremetricEstimate:
    """Composes first, estimates second.

    Both parts are displacements of composed chains; nothing is assembled
    from per-factor displacement numbers, so mutually cancelling factors
    give an exact zero.
    """
    left = displacement(compose(f, invert(g)), phi, r, scheme, tol)
    right = displacement(compose(invert(f), g), phi, r, scheme, tol)
    finiteness = _combined(left.finiteness, right.finiteness)
    rho = np.inf if finiteness == "divergent" else (
        np.nan if finiteness == "undetermined"
        else max(left.value, right.value))
    return PremetricEstimate(rho, left, right, finiteness)


def _triangle_coefficients(a: float, b: float, beta: float, gamma: float,
                           m: float) -> tuple:
    """Product and affine coefficients (a*beta, b*beta/m + beta/gamma) of
    the relaxed triangle inequality; the gate constant A is their max."""
    return a * beta, b * beta / m + beta / gamma


def koopman_lambda(disp_value: float, phi: Gauge, cross: CrossConstants) -> float:
    """Composition-operator bound coefficient built from a displacement.

    Equals a*beta*disp + b*beta/m + beta/gamma; requires a finite
    displacement value.
    """
    if not np.isfinite(disp_value):
        raise ValueError("koopman_lambda needs a finite displacement value")
    product, affine = _triangle_coefficients(cross.a, cross.b, phi.beta,
                                             phi.gamma, phi.m)
    return product * disp_value + affine


# ---------------------------------------------------------------------------
# inequality checks


@dataclass(frozen=True)
class EstimateContext:
    """Everything the composite premetric checks need, bundled once."""

    domain: Domain
    scheme: SampleScheme
    phi: Gauge
    r: ScaleFn
    cross: CrossConstants
    tol: Tolerances = Tolerances()

    @property
    def _coefficients(self) -> tuple:
        return _triangle_coefficients(self.cross.a, self.cross.b,
                                      self.phi.beta, self.phi.gamma,
                                      self.phi.m)

    @property
    def affine_coeff(self) -> float:
        # coefficient of the linear term in the relaxed triangle inequality
        return self._coefficients[1]

    @property
    def product_coeff(self) -> float:
        return self._coefficients[0]


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    witness: dict

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def check_relaxed_triangle(f: Homeo, g: Homeo, h: Homeo,
                           ctx: EstimateContext) -> InequalityReport:
    """rho(f,g) <= a*beta*rho(f,h)*rho(h,g) + (b*beta/m + beta/gamma)*rho(f,h) + rho(h,g)."""
    fg = premetric(f, g, ctx.phi, ctx.r, ctx.scheme, ctx.tol)
    fh = premetric(f, h, ctx.phi, ctx.r, ctx.scheme, ctx.tol)
    hg = premetric(h, g, ctx.phi, ctx.r, ctx.scheme, ctx.tol)
    rhs = (ctx.product_coeff * fh.rho * hg.rho
           + ctx.affine_coeff * fh.rho + hg.rho)
    passed = bool(fg.rho <= rhs + ctx.tol.tau_tri)
    return InequalityReport(
        name="relaxed_triangle",
        lhs=float(fg.rho),
        rhs=float(rhs),
        passed=passed,
        witness={"f": f.label, "g": g.label, "h": h.label,
                 "rho_fg": float(fg.rho), "rho_fh": float(fh.rho),
                 "rho_hg": float(hg.rho)},
    )


def ball_inside_ball_radius(rho_fg: float, alpha_star: float,
                            ctx: EstimateContext) -> float:
    """Radius alpha with B^-(g, alpha) inside B^-(f, alpha_star).

    Valid whenever rho(f,g) is below alpha_star divided by the affine
    coefficient; the returned radius is then strictly positive.
    """
    B = ctx.affine_coeff
    if not rho_fg < alpha_star / B:
        raise ValueError("rho(f,g) too large for a nested ball")
    return (alpha_star - B * rho_fg) / (1.0 + ctx.product_coeff * rho_fg)


# ---------------------------------------------------------------------------
# membership and compact-convergence distance


@dataclass(frozen=True)
class MembershipVerdict:
    """Finite displacement of f and f^-1 decides group membership."""

    verdict: str               # member | non_member | undetermined
    forward: DisplacementEstimate
    inverse: DisplacementEstimate


def group_membership(f: Homeo, phi: Gauge, r: ScaleFn, scheme: SampleScheme,
                     tol: Tolerances = Tolerances()) -> MembershipVerdict:
    fwd = displacement(f, phi, r, scheme, tol)
    inv = displacement(invert(f), phi, r, scheme, tol)
    verdict = {"divergent": "non_member", "undetermined": "undetermined",
               "finite": "member"}[_combined(fwd.finiteness, inv.finiteness)]
    return MembershipVerdict(verdict, fwd, inv)


def compact_convergence_distance(f: Homeo, g: Homeo, scheme: SampleScheme) -> float:
    """Weighted sup-distance over the compact exhaustion, both directions.

    delta(f,g) = sum_k 2^-k * u_k / (1 + u_k) with u_k the max of
    |f(x) - g(x)| over the level-k compact; the reported distance is
    delta(f,g) + delta(f^-1,g^-1), truncated at the scheme's top level.
    """
    if f.domain != g.domain:
        raise DomainMismatchError("distance needs a common domain")
    levels = exhaustion_sets(f.domain, scheme)

    def half(a_eval, b_eval):
        total = 0.0
        for k, pts in enumerate(levels):
            if pts.shape[0] == 0:
                continue
            diff = f.domain.norm_of(a_eval(pts) - b_eval(pts))
            u = float(np.max(diff))
            total += (2.0 ** -k) * u / (1.0 + u)
        return total

    return half(f.forward, g.forward) + half(f.inverse, g.inverse)
