"""Built-in map families.

``contraction_pair`` is the worked end-to-end example: on the half line,
f(x) = eta*x against its compactly supported perturbation
g(x) = eta*x + bump(x), with the sqrt-type gauge.  All derived constants
(rate margin, slope budget, bump amplitude) are sized here so that the
validation, the eigenvalue gate, and the Picard gates pass by
construction for every eta in (0, 1).

Every linear-plus-bump map T x + e_0 bump(|x|) -- g, the
``perturbed_linear`` family and the tests' bump members -- is built by
:func:`build_perturbed_linear`; g is its one-dimensional case T = [[eta]]
on the half line.  Their inverses are the one sanctioned exception to
"closures only": :func:`damped_inverse` writes y = T^-1 x - s T^-1 e_0
and finds the scalar s = bump(|y|) of each row by a bracketed Newton
iteration, the same in every dimension, so a row's inverse does not
depend on the other rows of its batch.  A row the bump does not reach at
|T^-1 x| is T^-1 x and never enters the iteration.  The iteration sweeps
numpy arrays while many rows are live and, in dimension 1, finishes the
last few as Python floats, bit for bit the same, because a numpy call's
fixed cost outweighs a few rows' arithmetic.

The bump is evaluated only where its support reaches: :func:`_support`
screens out every row with |x - center| >= halfwidth, where the bump is
exactly +0.0, and evaluates the rest, the few in Python floats.  The
forward adds the bump through :func:`bump_eval`, which fills the rows
screened out with +0.0, and the inverse's test of which rows the bump
reaches is the same screen.
"""

import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .funcspace import (
    CrossConstants,
    Domain,
    Gauge,
    RadialFn,
    builtin_triple,
)
from .homspace import Homeo, _gate_constant, primitive

__all__ = [
    "BumpSpec",
    "Family",
    "Param",
    "REQUIRED",
    "ContractionPairBundle",
    "bump_eval",
    "bump_lipschitz",
    "BUMP_SLOPE_FACTOR",
    "build_contraction_pair",
    "build_lozi",
    "build_perturbed_linear",
    "build_pure_linear",
    "build_translation",
    "damped_inverse",
    "FAMILIES",
]

# peak slope of the smooth cutoff profile 6t^5 - 15t^4 + 10t^3 is 15/8
BUMP_SLOPE_FACTOR = 1.875


@dataclass(frozen=True)
class BumpSpec:
    """Compactly supported C^1 bump built from two mirrored smooth cutoffs.

    Support is [center - halfwidth, center + halfwidth]; the peak value is
    ``height`` and the peak slope is BUMP_SLOPE_FACTOR * height / halfwidth,
    both closed-form, which is what lets the builders enforce slope and
    amplitude budgets exactly.
    """

    center: float
    halfwidth: float
    height: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        if not 0 < self.halfwidth < math.inf:
            raise ValueError("halfwidth must be positive and finite")
        if not 0 <= self.height < math.inf:
            raise ValueError("height must be nonnegative and finite")


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """6t^5 - 15t^4 + 10t^3 for t in [0, 1]."""
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _cutoff(spec: BumpSpec, u: np.ndarray) -> np.ndarray:
    """The profile's argument t = clip(1 - u / halfwidth, 0, 1) at
    u = |x - center|: 0 off the support, 1 at its centre."""
    t = 1.0 - u / spec.halfwidth
    return np.minimum(np.maximum(t, 0.0), 1.0)


def _support(spec: BumpSpec, x: np.ndarray) -> tuple:
    """The indices of the entries of the flat array ``x`` that the bump's
    support reaches, and the bump's values there, as an array.

    An entry with |x - center| >= halfwidth has a quotient of at least 1,
    so its t clamps to 0 and its bump is exactly +0.0: it is left out and
    not evaluated.  A NaN entry fails that test, so it stays in and reads
    NaN.  The entries kept take :func:`bump_eval`'s formula, in numpy
    when more than _FLOAT_ROWS of them are kept, else one by one in
    Python floats, with the IEEE operations of numpy's ufuncs in the same
    order, so either path gives the same bits.
    """
    u = np.abs(x - spec.center)
    rows = (~(u >= spec.halfwidth)).nonzero()[0]
    if rows.size > _FLOAT_ROWS:
        return rows, spec.height * _smoothstep(_cutoff(spec, u[rows]))
    width, height = float(spec.halfwidth), float(spec.height)
    values = []
    for v in u[rows].tolist():
        t = 1.0 - v / width
        # np.minimum(np.maximum(t, 0), 1): a NaN t passes both comparisons
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        values.append(height * (t * t * t * (10.0 + t * (-15.0 + 6.0 * t))))
    return rows, np.array(values)


def bump_eval(spec: BumpSpec, x: np.ndarray) -> np.ndarray:
    """height * smoothstep(clip(1 - |x - center| / halfwidth, 0, 1)) of
    each entry of ``x``, in ``x``'s shape (a numpy float for a scalar).

    Only the entries the support reaches are evaluated
    (:func:`_support`); every other entry is +0.0, the value the formula
    gives there.  So a NaN entry reads NaN and +-inf reads +0.0.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    rows, values = _support(spec, x.reshape(-1))
    out.reshape(-1)[rows] = values
    return out[()]


def _bump_with_slope(spec: BumpSpec, x: np.ndarray) -> tuple:
    """``bump_eval(spec, x)`` and its derivative in x, from one argument."""
    u = x - spec.center
    t = _cutoff(spec, np.abs(u))
    w = t * (1.0 - t)
    return (spec.height * _smoothstep(t),
            (-30.0 * spec.height / spec.halfwidth) * np.sign(u) * (w * w))


def bump_lipschitz(spec: BumpSpec) -> float:
    return BUMP_SLOPE_FACTOR * spec.height / spec.halfwidth


# ---------------------------------------------------------------------------
# worked half-line pair


@dataclass(frozen=True)
class ContractionPairBundle:
    """Everything the end-to-end pipeline needs for one eta."""

    eta: float
    f: Homeo
    g: Homeo
    domain: Domain
    phi: Gauge
    r: RadialFn
    growth: RadialFn
    cross: CrossConstants
    alpha: float
    eps2: float
    bump: BumpSpec
    notes: tuple


def build_contraction_pair(eta: float,
                           bump_center: float = 2.0,
                           bump_halfwidth: float = 1.0) -> ContractionPairBundle:
    """Linear contraction f and its bump-perturbed twin g on [0, inf).

    Derived quantities, all sized to clear every downstream gate:

    * rate margin eps with (1 + eps) below sqrt(eta)/eta, taken at the
      midpoint, so alpha = 1 + eps > 1;
    * slope budget eps2 below both eta and sqrt(eta)/(1+eps) - eta, so
      (1+eps) * (eta + eps2) stays below sqrt(eta);
    * bump amplitude below eta^2 / A (A the affine gate constant, recomputed
      from its constituents), below the slope budget, and below
      (1-eta) * (support left edge), the last one keeping g(x) < x for
      x > 0 so g has no interior fixed point.

    Infeasibility cannot happen for eta in (0, 1); this is asserted.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if not bump_center - bump_halfwidth > 0:
        raise ValueError("bump support must stay away from the origin")

    domain = Domain(dim=1, region="half_line")
    growth, r, cross, phi = builtin_triple("sqrt_plus", domain)

    ratio = np.sqrt(eta) / eta
    eps = 0.5 * (ratio - 1.0)
    alpha = 1.0 + eps

    eps2_cap = np.sqrt(eta) / alpha - eta
    eps2 = 0.5 * min(eta, eps2_cap)

    A = _gate_constant(phi, cross)
    amp_caps = (
        eta * eta / A,
        eps2 * bump_halfwidth / BUMP_SLOPE_FACTOR,
        0.5 * (1.0 - eta) * (bump_center - bump_halfwidth),
    )
    amp = 0.9 * min(amp_caps)
    assert amp > 0.0, "bump amplitude infeasible; unreachable for eta in (0,1)"
    bump = BumpSpec(center=bump_center, halfwidth=bump_halfwidth, height=amp)
    eps2_actual = bump_lipschitz(bump)

    f = replace(build_pure_linear(eta, domain), label="f")
    g = replace(build_perturbed_linear([[eta]], bump, domain=domain),
                label="g")

    notes = (
        "gate constant A recomputed from its constituents: "
        f"A = max(a*beta, b*beta/m + beta/gamma) = {A:g}; "
        "the historically quoted value 9/4 does not match and is not used",
    )
    return ContractionPairBundle(
        eta=float(eta), f=f, g=g, domain=domain, phi=phi, r=r, growth=growth,
        cross=cross, alpha=float(alpha), eps2=float(eps2_actual), bump=bump,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# piecewise-linear planar family


def build_lozi(a: float, b: float, norm: str = "euclidean") -> Homeo:
    """Planar map (x, y) -> (1 - a|x| + y, b x) with its exact inverse."""
    if b == 0:
        raise ValueError("b must be nonzero for invertibility")
    domain = Domain(dim=2, region="box", norm=norm)

    def fwd(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([1.0 - a * np.abs(x) + y, b * x], axis=1)

    def inv(p):
        u, v = p[:, 0], p[:, 1]
        return np.stack([v / b, -1.0 + u + (a / abs(b)) * np.abs(v)], axis=1)

    return primitive(domain, fwd, inv, f"lozi({a:g},{b:g})")


# ---------------------------------------------------------------------------
# perturbed linear maps


def _rows_times(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M.T, summed column by column so that no row's result depends on
    the other rows of its batch (a BLAS product may change its kernel, and
    with it the rounding, with the row count)."""
    out = x[:, :1] * M[:, 0]
    for k in range(1, M.shape[1]):
        out = out + x[:, k:k + 1] * M[:, k]
    return out


def _radial(p: np.ndarray) -> np.ndarray:
    """|x| of each row: the absolute value in dimension 1, else euclidean.

    A finite row whose squares overflow (|x| above about 1.3e154) is taken
    again as m sqrt(sum (x_k / m)^2) with m = max |x_k|, so it reads its
    radius, or inf past the float range, without a warning; every other
    row keeps the bits of sqrt(sum x_k^2).
    """
    if p.shape[1] == 1:
        return np.abs(p[:, 0])
    with np.errstate(over="ignore"):
        r = np.sqrt(np.add.reduce(p * p, axis=1))
        big = np.isinf(r)
        if big.any():
            big &= np.isfinite(p).all(axis=1)
            q = p[big]
            m = np.maximum.reduce(np.abs(q), axis=1)
            q = q / m[:, None]
            r[big] = m * np.sqrt(np.add.reduce(q * q, axis=1))
    return r


def _unit_dot(y: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(y / |y|) . c of each row, given r = |y|, taking y / |y| as 0 at
    y = 0; in dimension 1 that is sign(y) c_0."""
    if y.shape[1] == 1:
        return np.sign(y[:, 0]) * c[0]
    unit = np.divide(y, r[:, None], out=np.zeros(y.shape),
                     where=r[:, None] > 0.0)
    return _rows_times(unit, c[None, :])[:, 0]


def _sup_norm(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """max_k |y_k| of each row, given r = |y|."""
    return r if y.shape[1] == 1 else np.maximum.reduce(np.abs(y), axis=1)


# stop rule and sweep cap of damped_inverse
_TOL = 1e-14
_MAX_SWEEPS = 200

# damped_inverse finishes its rows in Python floats, in dimension 1, once
# no more than this many are live.  A numpy sweep costs about 30 us, nearly
# all of it fixed per call; a row's sweep in floats costs about 0.65 us.
# So floats cost less below about 45 rows, and more so as rows stop at
# different sweeps, since a numpy sweep runs until its last row stops.
# Replaying the benchmark's recorded calls, 32 and 64 tie and beat 16 and
# 128.  Best of 40 rounds on a 2-core x86-64 host, Python 3.11, numpy 2.4.
# The benchmark makes no damped_inverse call in dimension 2 or more, so
# those rows always sweep in numpy.
# _support evaluates the bump in floats on at most this many rows too.  On
# 607 rows, evaluating the rows its screen keeps in numpy costs about 6 us
# on top of the screen, whatever their number up to 100; in floats it costs
# about 0.7 us plus 0.2 us a row.  The two tie near 32 rows (10.4 against
# 10.5 us in all, best of 15 rounds, same host).
_FLOAT_ROWS = 32


def damped_inverse(Tinv: np.ndarray, bump: BumpSpec, x: np.ndarray):
    """Solve T y + e_0 bump(|y|) = x row by row, given Tinv = T^-1.

    Each row is y = z - s c with z = T^-1 x and c = T^-1 e_0, where s is
    the root of F(s) = s - bump(|z - s c|).  Lip(bump) |c| < 1 makes F
    strictly increasing, with F(0) <= 0 <= F(height), so each row runs a
    bracketed Newton iteration on s from s = 0 (rtsafe, Press et al.,
    Numerical Recipes 9.4).  The bracket (lo, hi) holds the nearest points
    evaluated below and above the root, hi none at first; a Newton step
    is capped at height, and one that does not land strictly inside the
    bracket takes the midpoint of [lo, min(hi, height)] instead, so each
    sweep that moves s narrows the bracket.  A row stops on its own once
    its step moves y by at most _TOL (1 + |y|) in the sup norm, and
    returns the y after that step.  A row the bump does not reach
    (bump(|z|) = 0, so F(0) = 0 and s = 0 is its root) returns z and
    never enters the iteration; off the support it costs only the screen
    of :func:`_support`.  A call that leaves no row to iterate counts one
    sweep.  A row whose z is not finite, or that is still
    moving after _MAX_SWEEPS sweeps, comes back NaN, so the caller's
    finiteness checks fire.  Returns the solution together with the
    number of sweeps used.

    The live rows sweep together as numpy arrays.  In dimension 1, once
    no more than _FLOAT_ROWS of them are live, at entry or after any
    sweep, the few left finish one by one in Python floats
    (:func:`_float_sweeps`).  A numpy sweep costs about the same for 1 row
    as for 30, so a handful of rows is cheaper as scalars, and a large
    batch cheaper as arrays.  Both paths take the same IEEE operations in
    the same order, so a row ends on the same bits, and at the same
    sweep, on either.
    """
    c = Tinv[:, 0]
    c_max = np.maximum.reduce(np.abs(c))
    z = _rows_times(x, Tinv)
    out = np.where(np.isfinite(z).all(axis=1, keepdims=True), z, np.nan)
    # a row that is not finite has |z| inf or NaN, where the bump is 0 or
    # NaN, so the rows the bump reaches are finite
    r = _radial(z)
    rows, b = _support(bump, r)
    rows = rows[b > 0.0]
    if not rows.size:
        return out, 1
    out[rows] = np.nan
    r = r[rows]
    z = y = z[rows]
    s = lo = np.zeros(rows.shape[0])
    hi = np.full(rows.shape[0], np.inf)
    floats = _FLOAT_ROWS if c.size == 1 else 0
    sweeps = 0
    while rows.size > floats and sweeps < _MAX_SWEEPS:
        sweeps += 1
        b, slope = _bump_with_slope(bump, r)
        F = s - b
        lo = np.where(F < 0.0, s, lo)
        hi = np.where(F > 0.0, s, hi)
        # F'(s) = 1 + bump'(|y|) (y / |y|) . c
        step = np.minimum(s - F / (1.0 + slope * _unit_dot(y, r, c)),
                          bump.height)
        # a step that stays put has converged
        step = np.where(((lo < step) & (step < hi)) | (step == s), step,
                        0.5 * (lo + np.minimum(hi, bump.height)))
        moved = np.abs(step - s)
        y = z - step[:, None] * c
        r = _radial(y)
        done = moved * c_max <= _TOL * (1.0 + _sup_norm(y, r))
        finished = done.nonzero()[0]
        if finished.size:
            out[rows[finished]] = y[finished]
            live = ~done
            rows, z, y, r, step, lo, hi = (
                a[live] for a in (rows, z, y, r, step, lo, hi))
        s = step
    if rows.size and sweeps < _MAX_SWEEPS:
        sweeps = _float_sweeps(out, rows, bump, float(c[0]), sweeps + 1,
                               z[:, 0], y[:, 0], r, s, lo, hi)
    return out, sweeps


def _float_sweeps(out: np.ndarray, rows: np.ndarray, bump: BumpSpec,
                  c: float, first: int, *state: np.ndarray) -> int:
    """Finish the live ``rows`` of a dimension-1 :func:`damped_inverse` in
    Python floats.

    ``c`` is T^-1, ``state`` the rows' (z, y, |y|, s, lo, hi) as the last
    numpy sweep left them, and ``first`` the next sweep's number.  Each
    row goes on with that sweep's formulas in its order: the clamped
    cutoff, smoothstep and slope as :func:`_bump_with_slope`, the
    direction as :func:`_unit_dot` and the stop rule on |y|.  Python's
    float + - * /, abs and comparisons are the IEEE binary64 operations of
    numpy's float64 ufuncs, so each row ends on the bits, and at the
    sweep, that the numpy loop gives it.  Writes each row's y into ``out``
    as it stops, and returns the last sweep any row used (_MAX_SWEEPS if
    one never stopped).
    """
    center, width, height = (float(v) for v in (bump.center, bump.halfwidth,
                                                 bump.height))
    gain = -30.0 * height / width
    c_max = abs(c)
    last = first
    for row, z, y, r, s, lo, hi in zip(rows.tolist(),
                                       *(a.tolist() for a in state)):
        for sweep in range(first, _MAX_SWEEPS + 1):
            u = r - center
            t = 1.0 - abs(u) / width
            # np.minimum(np.maximum(t, 0), 1): t is never NaN or -0, the
            # inputs on which numpy's clamps and these could differ
            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            w = t * (1.0 - t)
            F = s - height * (t * t * t * (10.0 + t * (-15.0 + 6.0 * t)))
            if F < 0.0:
                lo = s
            elif F > 0.0:
                hi = s
            slope = gain * (1.0 if u > 0.0 else -1.0 if u < 0.0 else 0.0) \
                * (w * w)
            dot = (1.0 if y > 0.0 else -1.0 if y < 0.0 else 0.0) * c
            den = 1.0 + slope * dot
            # F * inf is numpy's F / 0 (den is never -0)
            step = s - (F / den if den else F * math.inf)
            if step > height:
                step = height
            if not (lo < step < hi or step == s):
                step = 0.5 * (lo + (hi if hi < height else height))
            moved = abs(step - s)
            y = z - step * c
            r = abs(y)
            if moved * c_max <= _TOL * (1.0 + r):
                out[row] = y
                if sweep > last:
                    last = sweep
                break
            s = step
        else:
            last = _MAX_SWEEPS
    return last


def build_perturbed_linear(T, perturbation: BumpSpec | None = None,
                           domain: Domain | None = None) -> Homeo:
    """x -> T x + e_0 bump(|x|), invertible while Lip(bump) < sigma_min(T).

    |x| is the absolute value in dimension 1 and the euclidean norm from
    dimension 2 on; no ``perturbation`` is a bump of height 0.  ``domain``
    defaults to the box of T's dimension and must match it.  T^-1 is
    computed once, here.  The forward sums T x column by column
    (:func:`_rows_times`) and the inverse is :func:`damped_inverse`, so
    neither direction's row depends on the other rows of its batch.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    dim = T.shape[0]
    if dim < 1 or T.shape != (dim, dim):
        raise ValueError("T must be square with dim >= 1")
    domain = domain or Domain(dim=dim, region="box")
    if domain.dim != dim:
        raise ValueError(f"domain has dim {domain.dim}, T has dim {dim}")
    smin = float(np.linalg.svd(T, compute_uv=False)[-1])
    if smin <= 0:
        raise ValueError("T must be invertible")
    spec = perturbation or BumpSpec(center=0.0, halfwidth=1.0, height=0.0)
    lip = bump_lipschitz(spec)
    if not lip < smin:
        raise ValueError(
            f"bump too steep: Lip {lip:g} >= sigma_min(T) = {smin:g}")
    Tinv = np.linalg.inv(T)

    def fwd(p):
        out = _rows_times(p, T)
        out[:, 0] += bump_eval(spec, _radial(p))
        return out

    def inv(p):
        y, _ = damped_inverse(Tinv, spec, p)
        return y

    return primitive(domain, fwd, inv, "T+pert")


def build_pure_linear(scale: float, domain: Domain | None = None) -> Homeo:
    if scale == 0:
        raise ValueError("scale must be nonzero")
    domain = domain or Domain(dim=1, region="box")

    def fwd(p):
        return scale * p

    def inv(p):
        return p / scale

    return primitive(domain, fwd, inv, f"{scale:g}*x")


def build_translation(offset, domain: Domain | None = None) -> Homeo:
    off = np.atleast_1d(np.asarray(offset, dtype=float))
    domain = domain or Domain(dim=off.shape[0], region="box")
    if off.shape[0] != domain.dim:
        raise ValueError("offset dimension mismatch")

    def fwd(p):
        return p + off[None, :]

    def inv(p):
        return p - off[None, :]

    return primitive(domain, fwd, inv, f"x+{np.array2string(off, precision=3)}")


# ---------------------------------------------------------------------------
# registry: the families a config can name


REQUIRED = inspect.Parameter.empty


@dataclass(frozen=True)
class Param:
    """Kind of JSON value (the CLI parses each kind), default (or REQUIRED)
    and one-line doc of a config parameter or option, with the values it
    may take: one of ``choices``, if any, and each value (each entry, for
    a list) passing ``check``, a (predicate, message) pair, if given."""

    kind: str
    doc: str
    default: object = REQUIRED
    choices: tuple = ()
    check: tuple | None = None


@dataclass(frozen=True)
class Family:
    """A family a config can name: its builder, description and parameters."""

    builder: Callable
    description: str
    params: dict      # name -> Param


def _family(builder: Callable, description: str, **params) -> Family:
    """Family whose parameter defaults are read off the builder's signature."""
    sig = inspect.signature(builder).parameters
    return Family(builder, description, {
        name: Param(kind, doc, sig[name].default)
        for name, (kind, doc) in params.items()})


def _perturbed_linear_family(scale: float, dim: int = 1,
                             bump_center: float = 2.0,
                             bump_halfwidth: float = 1.0,
                             bump_height: float = 0.0) -> Homeo:
    bump = None
    if bump_height != 0.0:
        bump = BumpSpec(center=bump_center, halfwidth=bump_halfwidth,
                        height=bump_height)
    return build_perturbed_linear(scale * np.eye(dim), bump)


FAMILIES = {
    "contraction_pair": _family(
        build_contraction_pair,
        "half-line contraction eta*x and its bump-perturbed twin",
        eta=("number", "in (0, 1)"),
        bump_center=("number", "bump centre, > bump_halfwidth"),
        bump_halfwidth=("number", "bump half-width, > 0")),
    "lozi": _family(
        build_lozi, "planar piecewise-linear map (1 - a|x| + y, b x)",
        a=("number", "real"),
        b=("number", "nonzero"),
        norm=("string", "'euclidean' or 'sup'")),
    "perturbed_linear": _family(
        _perturbed_linear_family,
        "T x + bump, inverted by a bracketed Newton solve",
        scale=("number", "nonzero diagonal value of T"),
        dim=("integer", "dimension"),
        bump_center=("number", "radial bump centre"),
        bump_halfwidth=("number", "bump half-width, > 0"),
        bump_height=("number", "bump height, >= 0; 0 means no bump")),
    "pure_linear": _family(
        build_pure_linear, "x -> scale * x",
        scale=("number", "nonzero")),
    "translation": _family(
        build_translation, "x -> x + offset",
        offset=("vector", "a number or one per axis")),
}
