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

Chain memos.  ``Homeo.forward`` walks a chain right to left.  Under a
memo it looks each step up by (input identity, step), so a suffix image
such as g^-k(P) is computed once and reused by every later walk that
passes through it.  There are two lifetimes:

* the run memo, which ``picard_solve`` and ``negative_iterates_bound``
  open for one call (a nested call shares the outer memo).  Picard iterates
  h_n = f^n∘h0∘g^-n share long right-hand suffixes, and every walk of the
  run, from any root array, goes through it.  Its images are dropped when
  the run ends, so the orbits of a finished run do not stay resident.
* the process memo, which every walk uses while no run memo is open,
  provided its root array is a sample table that ``funcspace`` handed out
  (``doubling_sample_sets`` and ``exhaustion_sets``).  Premetrics that
  share a factor g then compute g^-1(P) and g(P) once.  Any other root,
  a writable array or a read-only view of one included, is walked plainly
  and nothing is cached, since its values could change under the cache.

An entry holds its input and its step, so no other array or atom can take
over that identity while the entry lives.  A cached image is the same atom
call that an uncached walk makes, so every number is bit for bit what it
would be without a memo.  Each memo keeps at most ``_MEMO_BYTES`` of
images, least recently used out first; an evicted image is recomputed by
the same calls, so eviction changes no number either.  Cached images are
shared, so they are read-only; atoms must not write to their input.  The
memos are not locked: the package is single-threaded.

Table geometry.  Two cache rules hold in the package.  Data derived from
a sample table is cached with ``functools.lru_cache``, keyed by value:
``funcspace`` keeps the top table of each (domain, scheme) with its
norms, their stable order, the largest norm and the cuts at the doubling
radii, and phi on that table per (gauge, domain, scheme).  Chain images
are cached in the run and process memos above, keyed by identity.  So a
``displacement`` whose map keeps every row computes only the images and
their checks, r(|f(P) - P|)/phi(P), one running maximum and one argmax;
on a 2-core host this took a ``premetric_pool`` pass of the benchmark
from 0.128 s to 0.106 s (median of ten seeds).
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
    RadialFn,
    SampleScheme,
    Tolerances,
    _gauge_values,
    _is_table,
    _norm_geometry,
    _table_gauge,
    _top_table,
    doubling_radii,
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
    def is_identity(self) -> bool:
        return len(self.chain) == 0

    def forward(self, pts: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(pts, dtype=float))
        memo = _MEMO.get()
        if memo is None and _is_table(out):
            memo = _PROCESS_MEMO
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
    """Step images keyed by (id(input), step), least recently used out first.

    An entry maps its key to (input, image); holding the input keeps its
    identity from being reused while the entry lives.  Every walk renews
    its entries deepest first, so an entry is newer than every entry keyed
    on its image, and the oldest entry's image is the input of no live
    entry: evicting it never strands another.
    """

    def __init__(self):
        self.entries = OrderedDict()    # (id(input), step) -> (input, image)
        self.nbytes = 0

    def forward(self, chain: tuple, out: np.ndarray) -> np.ndarray:
        keys = []
        for step in reversed(chain):
            key = (id(out), step)
            entry = self.entries.get(key)
            if entry is None:
                # a read-only view: never freeze an array an atom hands back
                image = _apply(step, out).view()
                image.flags.writeable = False
                entry = self.entries[key] = (out, image)
                self.nbytes += image.nbytes
            out = entry[1]
            keys.append(key)
        for key in reversed(keys):
            self.entries.move_to_end(key)
        while self.nbytes > _MEMO_BYTES:
            self.nbytes -= self.entries.popitem(last=False)[1][1].nbytes
        return out


_MEMO = ContextVar("homconj_chain_memo", default=None)
_PROCESS_MEMO = _ChainMemo()


@contextmanager
def _chain_memo():
    """Open a run memo for the enclosed block, or share the open one."""
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


def _images(f: Homeo, pts: np.ndarray, on: str = "samples") -> np.ndarray:
    """f(pts), or EvaluationError naming the map, ``on`` and the first row
    of ``pts`` whose image is not finite: the one finiteness rule of every
    estimator, since a NaN compares false with every threshold."""
    fx = f.forward(pts)
    if not np.isfinite(fx).all():   # the per-row search only on failure
        bad = ~np.all(np.isfinite(fx), axis=1)
        raise EvaluationError(
            f"map {f.label!r} not finite on {on} at {pts[bad][0]}")
    return fx


def roundtrip_error(f: Homeo, pts: np.ndarray) -> float:
    """max over pts of |f^-1(f(x)) - x| / (1 + |x|)."""
    pts = np.atleast_2d(pts)
    back = _images(invert(f), _images(f, pts))
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


def _kept_images(f: Homeo, pts: np.ndarray, radius: float) -> tuple:
    """(kept points, their images, dropped count) of f on ``pts``, whose
    largest norm is ``radius``: an image outside the domain by more than
    1e-9 * (1 + radius) is dropped.  When none is, the kept points and the
    images are ``pts`` and f(pts) themselves, not copies."""
    fx = _images(f, pts)
    keep = f.domain.contains(fx, slack=1e-9 * (1.0 + radius))
    dropped = int(pts.shape[0] - np.count_nonzero(keep))
    return (pts, fx, 0) if not dropped else (pts[keep], fx[keep], dropped)


def _classify(trace, kappa_div: float, tau_abs: float, rel: float) -> str:
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


def _shell_trace(ratio: np.ndarray, geo) -> tuple:
    """(radius, sup of ``ratio`` over the entries within radius), per radius
    of ``geo``, the geometry of the entries (``funcspace._Geometry``).

    In norm order each radius keeps a prefix, whose sup is a running
    maximum read at its end: a NaN covers its shell and every larger one,
    and an empty prefix gives NaN (so empty inputs give the all-NaN trace
    that :func:`_classify` labels "undetermined").
    """
    running = np.maximum.accumulate(ratio[geo.order])
    return tuple((float(radius), float(running[cut - 1]) if cut else np.nan)
                 for radius, cut in zip(geo.radii, geo.cuts))


def displacement(f: Homeo, phi: Gauge, r: RadialFn, scheme: SampleScheme,
                 tol: Tolerances = Tolerances()) -> DisplacementEstimate:
    """Displacement of f relative to (phi, r) on the sample window.

    The identity chain short-circuits to an exact 0 independent of phi, r
    and the samples.  Otherwise the ratios r(|f(x)-x|)/phi(x) are evaluated
    once, over the points of the full cumulative sample table that
    :func:`_kept_images` keeps, and the trace restricts that one profile to
    the doubling shells, so growth across the trace reflects where the large
    ratios live rather than how finely each window happened to be sampled.
    The growth of the trace decides the finiteness label.
    """
    if f.is_identity:
        trace = tuple((float(rad), 0.0) for rad in doubling_radii(scheme))
        return DisplacementEstimate(0.0, None, "finite", trace, 0)

    top, geo = _top_table(f.domain, scheme)
    kept, fx, dropped = _kept_images(f, top, geo.radius)
    if dropped:
        # the kept rows' own geometry; with every row kept it is the
        # table's, and so are the gauge values, read off their caches
        geo = _norm_geometry(f.domain.norm_of(kept), geo.radii)
        if kept.shape[0] == 0:
            return DisplacementEstimate(np.nan, None, "undetermined",
                                        _shell_trace(np.empty(0), geo),
                                        dropped)
        den, valid = _gauge_values(phi, kept)
    else:
        den, valid = _table_gauge(phi, f.domain, scheme)
    if not valid:
        raise EvaluationError("gauge must be positive and finite on samples")
    ratio = r.eval(f.domain.norm_of(fx - kept)) / den
    trace = _shell_trace(ratio, geo)
    i = int(np.argmax(ratio))
    # the top shell holds every kept point, so a non-finite best ratio makes
    # the trace, and with it the label, undetermined
    finiteness = _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
    value = np.nan if finiteness == "undetermined" else float(ratio[i])
    # a copy: never a view of a read-only table
    return DisplacementEstimate(value, kept[i].copy(), finiteness, trace,
                                dropped)


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


def premetric(f: Homeo, g: Homeo, phi: Gauge, r: RadialFn,
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


def _triangle_coefficients(phi: Gauge, cross: CrossConstants) -> tuple:
    """Product and affine coefficients (a*beta, b*beta/m + beta/gamma) of
    the relaxed triangle inequality."""
    return (cross.a * phi.beta,
            cross.b * phi.beta / phi.m + phi.beta / phi.gamma)


def _gate_constant(phi: Gauge, cross: CrossConstants) -> float:
    """The gate constant A = max(a*beta, b*beta/m + beta/gamma)."""
    return max(_triangle_coefficients(phi, cross))


def koopman_lambda(disp_value: float, phi: Gauge, cross: CrossConstants) -> float:
    """Composition-operator bound coefficient built from a displacement.

    Equals a*beta*disp + b*beta/m + beta/gamma; requires a finite
    displacement value.
    """
    if not np.isfinite(disp_value):
        raise ValueError("koopman_lambda needs a finite displacement value")
    product, affine = _triangle_coefficients(phi, cross)
    return product * disp_value + affine


# ---------------------------------------------------------------------------
# inequality checks


@dataclass(frozen=True)
class EstimateContext:
    """Everything the composite premetric checks need, bundled once."""

    domain: Domain
    scheme: SampleScheme
    phi: Gauge
    r: RadialFn
    cross: CrossConstants
    tol: Tolerances = Tolerances()

    @property
    def affine_coeff(self) -> float:
        # coefficient of the linear term in the relaxed triangle inequality
        return _triangle_coefficients(self.phi, self.cross)[1]

    @property
    def product_coeff(self) -> float:
        return _triangle_coefficients(self.phi, self.cross)[0]


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
    # an exact 0 factor makes the product 0, even against an infinite rho
    product = 0.0 if fh.rho == 0 or hg.rho == 0 else \
        ctx.product_coeff * fh.rho * hg.rho
    rhs = product + ctx.affine_coeff * fh.rho + hg.rho
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


def group_membership(f: Homeo, phi: Gauge, r: RadialFn, scheme: SampleScheme,
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

    def half(a, b):
        total = 0.0
        for k, pts in enumerate(levels):
            if pts.shape[0] == 0:
                continue
            diff = f.domain.norm_of(_images(a, pts) - _images(b, pts))
            u = float(np.max(diff))
            total += (2.0 ** -k) * u / (1.0 + u)
        return total

    return half(f, g) + half(invert(f), invert(g))
