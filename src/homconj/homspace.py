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

Chain memos.  A chain is walked right to left.  A run is a maximal block
of one repeated (atom, direction) step, and a memo entry is one run: keyed
by (root identity, step), it holds the images step^k(root) in order, for k
up to the deepest walk so far.  :func:`_walk` is the one place where a walk
meets a memo: it walks through the open run memo, else through the memo
its caller passes, else plainly, caching nothing.  Under a memo a walk
looks up each of its chain's first two runs from its root once, reads a
shallower image from the entry and computes only the deeper ones it is
missing.  So a suffix image such as g^-k(P) or f^j∘g^-k(P) is computed
once and reused by every later walk that passes through it.  The steps
past the second run are applied plainly, and their images are filed
nowhere.  There are two lifetimes:

* the run memo, which ``picard_solve`` and ``negative_iterates_bound``
  open for one call (a nested call shares the outer memo).  Picard iterates
  h_n = f^n∘h0∘g^-n share long right-hand suffixes, and every walk of a
  run starts from the top sample table P.  The boundedness probe walks
  the orbits g^-k(P) and g^k(P) first, so the steps' residuals and
  observations find them filed.  With h0 g or the identity, every image
  a run reads again is a two-run word f^a∘g^b(P): the probe's orbits,
  f^-k(P) and f^-k∘g(P), and the residuals' f^k∘g^-m(P).  The premetric
  differences f^{n+1}∘g^-1∘f^-n, g^n∘f^-1∘g^-(n-1) and g^n∘f^-(n+1)∘g
  have a third run, which starts on a new root per step that no later
  walk meets, so none of its images is filed.  The memo's images are
  dropped when the run ends, so the orbits of a finished run do not stay
  resident.
* the process memo, which only :func:`_on_table`, the one walk of a map
  over the top table P, passes to :func:`_walk`, so it serves while no
  run memo is open.  Premetrics that share a factor g then compute
  g^-1(P) and g(P) once.  P is a read-only array that ``funcspace`` owns,
  so its images cannot go stale; the values of any other root, a writable
  array or a read-only view of one included, could change under the
  cache.

An entry holds its root and its step, so no other array or atom can take
over that identity while the entry lives.  A cached image is the same atom
call that an uncached walk makes, so every number is bit for bit what it
would be without a memo.  Each walk renews the entries of its first two
runs, and each memo keeps at most ``_MEMO_BYTES`` of images, least
recently used run out first, whole; an evicted image, like an image past
the second run, is recomputed by the same calls, so neither changes a
number.
Cached images are shared, so they are read-only; atoms must not write to
their input.  The memos are not locked: the package is single-threaded.

Table geometry.  A displacement reads the top table, its geometry and phi
on it from the value caches of ``funcspace``, whose comment states both
cache rules, so one whose map keeps every row computes only the images and
their checks, r(|f(P) - P|)/phi(P), one running maximum and one argmax.
"""

import math
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
    _KAPPA_DIV,
    _REL,
    _TAU_ABS,
    _gauge_values,
    _norm_geometry,
    _table,
    _table_gauge,
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
        for step in reversed(self.chain):
            out = _apply(step, out)
        return out

    def inverse(self, pts: np.ndarray) -> np.ndarray:
        return invert(self).forward(pts)


def _apply(step: tuple, pts: np.ndarray) -> np.ndarray:
    atom, direction = step
    return atom.fwd(pts) if direction > 0 else atom.inv(pts)


# Bytes of images a chain memo keeps alive, summed over its runs; past it
# the least recently used run is dropped whole.  A Picard step files the
# images f^j∘g^-m(P) of its residual for each j up to the step count, so
# an unbounded memo grows with the square of the step count: 27.6 MiB at
# 100 steps and 101 MiB at 200 on the 607-row window-8 table of the half
# line (contraction_pair at eta 0.5, h0 = g).  Under this bound a 400-step
# run on that table still reuses every orbit image it walks.
_MEMO_BYTES = 64 << 20


class _ChainMemo:
    """Run images keyed by (id(root), step), least recently used out first.

    An entry is one run: the tuple (root, step(root), step^2(root), ...),
    so entry[k] = step^k(root); holding the root keeps its identity from
    being reused while the entry lives.  A walk files only its chain's
    first two runs (see :meth:`forward`) and renews the second run's entry
    before the first's, so an entry is newer than every entry rooted on one
    of its images, and the oldest entry's images are the root of no live
    entry: evicting it, a whole run at once, never strands another.
    """

    def __init__(self):
        self.entries = OrderedDict()    # (id(root), step) -> (root, *images)
        self.nbytes = 0

    def forward(self, chain: tuple, out: np.ndarray) -> np.ndarray:
        """chain(out), looking up each of the chain's first two runs from
        its root once and filing the images of the run that its entry is
        missing; the steps past the two runs are applied plainly.

        A run is a maximal block of one repeated (atom, direction) step.
        The images a walk reads again are two-run words f^a∘g^b(P) of the
        root; a third run, as in the premetric difference
        f^{n+1}∘g^-1∘f^-n, sits on a root no later walk meets.
        """
        end, keys = len(chain), []
        while end and len(keys) < 2:
            step, start = chain[end - 1], end - 1
            while start and chain[start - 1] == step:
                start -= 1
            key, length = (id(out), step), end - start
            entry = self.entries.get(key, (out,))
            if len(entry) <= length:
                run = list(entry)
                while len(run) <= length:
                    # a read-only view: never freeze an array an atom
                    # hands back
                    image = _apply(step, run[-1]).view()
                    image.flags.writeable = False
                    run.append(image)
                    self.nbytes += image.nbytes
                entry = self.entries[key] = tuple(run)
            out = entry[length]
            keys.append(key)
            end = start
        for key in reversed(keys):
            self.entries.move_to_end(key)
        while self.nbytes > _MEMO_BYTES:
            run = self.entries.popitem(last=False)[1]
            self.nbytes -= sum(image.nbytes for image in run[1:])
        for step in reversed(chain[:end]):
            out = _apply(step, out)
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
    left, right = f.chain, g.chain
    k, most = 0, min(len(left), len(right))
    while k < most and left[-1 - k][0] is right[k][0] \
            and left[-1 - k][1] == -right[k][1]:
        k += 1
    chain = left[:len(left) - k] + right[k:]
    label = f"{f.label}∘{g.label}" if chain else "id"
    if len(label) > 120:
        label = label[:117] + "..."
    return Homeo(domain=f.domain, chain=chain, label=label)


def _walk(f: Homeo, pts: np.ndarray,
          fallback: _ChainMemo | None = None) -> np.ndarray:
    """f(pts), walked through the open run memo, else through
    ``fallback``, else plainly: the one place where a walk meets a chain
    memo.  ``Homeo.forward`` walks plainly, so a map that an atom or a
    gauge calls on a scratch array of its own reads no stale image."""
    memo, out = _MEMO.get() or fallback, np.atleast_2d(np.asarray(pts, float))
    return f.forward(out) if memo is None else memo.forward(f.chain, out)


def _images(f: Homeo, pts: np.ndarray, on: str = "samples",
            fallback: _ChainMemo | None = None) -> np.ndarray:
    """:func:`_walk` of f on pts, or EvaluationError naming the map, ``on``
    and the first row of ``pts`` whose image is not finite: the one
    finiteness rule of every estimator, since a NaN compares false with
    every threshold."""
    fx = _walk(f, pts, fallback)
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
    """Windowed estimate of sup_x r(|f(x)-x|) / phi(x): a lower bound up to
    the rounding of the evaluations (ROADMAP item 18).

    ``finiteness`` is "finite", "divergent", or "undetermined", decided by
    how the estimate grows over three window doublings.  ``dropped`` counts
    samples whose image left the *domain* by more than 1e-9 * (1 + the
    table's largest norm), wherever in the window the sample lies; a drop
    means the map left the domain F on the samples, so it is not in
    Hom(F).
    """

    value: float
    argmax_point: np.ndarray | None
    finiteness: str
    window_trace: tuple
    dropped: int = 0

    @property
    def finite(self) -> bool:
        return self.finiteness == "finite"


def _on_table(f: Homeo, phi: Gauge, scheme: SampleScheme) -> tuple:
    """(kept points, their images, phi on them, their geometry, dropped
    count) of f on the top table of (f.domain, scheme): the one walk of a
    map over the samples that weighs its images by the gauge, and the one
    walk that falls back on the process memo.

    An image outside the domain by more than 1e-9 * (1 + the table's
    largest norm) is dropped.  When none is, the kept points, the gauge
    values and the geometry are the table's own cached ones, not copies.
    Raises EvaluationError on a non-finite image, and unless phi is
    positive and finite on the kept points.
    """
    table = _table(f.domain, scheme)
    kept, geo = table.pts, table.geo
    fx = _images(f, kept, fallback=_PROCESS_MEMO)
    keep = f.domain.contains(fx, slack=1e-9 * (1.0 + geo.radius))
    dropped = int(kept.shape[0] - np.count_nonzero(keep))
    if dropped:
        kept, fx = kept[keep], fx[keep]
        geo = _norm_geometry(geo.norms[keep], geo.radii)
        den, valid = _gauge_values(phi, kept)
    else:
        den, valid = _table_gauge(phi, f.domain, scheme)
    if not valid:
        raise EvaluationError("gauge must be positive and finite on samples")
    return kept, fx, den, geo, dropped


def _classify(trace) -> str:
    """Growth label for a nondecreasing window trace.

    Divergent needs the total growth over the three doublings to exceed
    _KAPPA_DIV AND the last doubling to still be growing: a jump followed
    by a flat tail means the sup lives inside a bounded shell, not that it
    escapes with the window.
    """
    values = [v for _, v in trace]
    if not all(map(math.isfinite, values)):
        return "undetermined"
    first, last = values[0], values[-1]
    total_growth = last > _KAPPA_DIV * first + _TAU_ABS
    still_growing = last > (1.0 + _REL) * values[-2] + _TAU_ABS
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


def displacement(f: Homeo, phi: Gauge, r: RadialFn,
                 scheme: SampleScheme) -> DisplacementEstimate:
    """Displacement of f relative to (phi, r) on the sample window.

    The identity chain short-circuits to an exact 0 independent of phi, r
    and the samples.  Otherwise the ratios r(|f(x)-x|)/phi(x) are evaluated
    once, over the points of the full cumulative sample table that
    :func:`_on_table` keeps, and the trace restricts that one profile to
    the doubling shells, so growth across the trace reflects where the large
    ratios live rather than how finely each window happened to be sampled.
    The growth of the trace decides the finiteness label.
    """
    if f.is_identity:
        trace = tuple((float(rad), 0.0) for rad in doubling_radii(scheme))
        return DisplacementEstimate(0.0, None, "finite", trace, 0)

    kept, fx, den, geo, dropped = _on_table(f, phi, scheme)
    if kept.shape[0] == 0:
        return DisplacementEstimate(np.nan, None, "undetermined",
                                    _shell_trace(np.empty(0), geo), dropped)
    ratio = r.eval(f.domain.norm_of(fx - kept)) / den
    trace = _shell_trace(ratio, geo)
    i = int(np.argmax(ratio))
    # the top shell holds every kept point, so a non-finite best ratio makes
    # the trace, and with it the label, undetermined
    finiteness = _classify(trace)
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
              scheme: SampleScheme) -> PremetricEstimate:
    """Composes first, estimates second.

    Both parts are displacements of composed chains; nothing is assembled
    from per-factor displacement numbers, so mutually cancelling factors
    give an exact zero.
    """
    left = displacement(compose(f, invert(g)), phi, r, scheme)
    right = displacement(compose(invert(f), g), phi, r, scheme)
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


_TAU_TRI = 1e-9     # relaxed-triangle slack


@dataclass(frozen=True)
class EstimateContext:
    """Everything the composite premetric checks need, bundled once."""

    domain: Domain
    scheme: SampleScheme
    phi: Gauge
    r: RadialFn
    cross: CrossConstants

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
    fg = premetric(f, g, ctx.phi, ctx.r, ctx.scheme)
    fh = premetric(f, h, ctx.phi, ctx.r, ctx.scheme)
    hg = premetric(h, g, ctx.phi, ctx.r, ctx.scheme)
    # an exact 0 factor makes the product 0, even against an infinite rho
    product = 0.0 if fh.rho == 0 or hg.rho == 0 else \
        ctx.product_coeff * fh.rho * hg.rho
    rhs = product + ctx.affine_coeff * fh.rho + hg.rho
    passed = bool(fg.rho <= rhs + _TAU_TRI)
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


def group_membership(f: Homeo, phi: Gauge, r: RadialFn,
                     scheme: SampleScheme) -> MembershipVerdict:
    fwd = displacement(f, phi, r, scheme)
    inv = displacement(invert(f), phi, r, scheme)
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
