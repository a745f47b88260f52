"""Built-in map families.

``contraction_pair`` is the worked end-to-end example: on the half line,
f(x) = eta*x against its compactly supported perturbation
g(x) = eta*x + bump(x), with the sqrt-type gauge.  All derived constants
(rate margin, slope budget, bump amplitude) are sized here so that the
validation, the eigenvalue gate, and the Picard gates pass by
construction for every eta in (0, 1).

Inverses that have no closed form are the one sanctioned exception to
"closures only": every map T x + pert(x) with a contractive perturbation
is inverted by :func:`damped_inverse`, one solver that runs row by row.
Each row iterates the damped map y <- T^-1 (x - pert(y)), takes a
caller-supplied (safeguarded) Newton step instead wherever that step
shrinks the row's residual at least as much as a damped step would, and
stops on its own relative rule, so a row's inverse does not depend on the
other rows of its batch.  The half-line g, the bump-perturbed linear maps
and the tests' bump members pass Newton steps built from the bump's
closed-form slope; closure perturbations use the damped iteration alone.
"""

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .funcspace import (
    CrossConstants,
    Domain,
    Gauge,
    RadialFn,
    builtin_triple,
)
from .homspace import Homeo, _triangle_coefficients, primitive

__all__ = [
    "BumpSpec",
    "Family",
    "FamilySpec",
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
        if not self.halfwidth > 0:
            raise ValueError("halfwidth must be positive")
        if not self.height >= 0:
            raise ValueError("height must be nonnegative")


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_slope(t: np.ndarray) -> np.ndarray:
    """Derivative of :func:`_smoothstep`: 30 t^2 (1 - t)^2, 0 off [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    s = t * (1.0 - t)
    return 30.0 * s * s


def bump_eval(spec: BumpSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    t = 1.0 - np.abs(x - spec.center) / spec.halfwidth
    return spec.height * _smoothstep(t)


def _bump_slope(spec: BumpSpec, x: np.ndarray) -> np.ndarray:
    """Derivative of ``bump_eval(spec, x)`` in x."""
    u = np.asarray(x, dtype=float) - spec.center
    t = 1.0 - np.abs(u) / spec.halfwidth
    return (-spec.height / spec.halfwidth) * np.sign(u) * _smoothstep_slope(t)


def bump_lipschitz(spec: BumpSpec) -> float:
    return BUMP_SLOPE_FACTOR * spec.height / spec.halfwidth


@dataclass(frozen=True)
class FamilySpec:
    """Name + parameter map, the addressable form used by configs."""

    family: str
    params: dict


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
    eps: float
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

    A = max(_triangle_coefficients(cross.a, cross.b, phi.beta, phi.gamma,
                                   phi.m))
    amp_caps = (
        eta * eta / A,
        eps2 * bump_halfwidth / BUMP_SLOPE_FACTOR,
        0.5 * (1.0 - eta) * (bump_center - bump_halfwidth),
    )
    amp = 0.9 * min(amp_caps)
    assert amp > 0.0, "bump amplitude infeasible; unreachable for eta in (0,1)"
    bump = BumpSpec(center=bump_center, halfwidth=bump_halfwidth, height=amp)
    eps2_actual = bump_lipschitz(bump)

    def f_fwd(p):
        return eta * p

    def f_inv(p):
        return p / eta

    def g_fwd(p):
        return eta * p + bump_eval(bump, p)

    f = primitive(domain, f_fwd, f_inv, "f")
    g = primitive(domain, g_fwd, _scaled_bump_inverse(eta, bump), "g")

    notes = (
        "gate constant A recomputed from its constituents: "
        f"A = max(a*beta, b*beta/m + beta/gamma) = {A:g}; "
        "the historically quoted value 9/4 does not match and is not used",
    )
    return ContractionPairBundle(
        eta=float(eta), f=f, g=g, domain=domain, phi=phi, r=r, growth=growth,
        cross=cross, alpha=float(alpha), eps=float(eps),
        eps2=float(eps2_actual), bump=bump, notes=notes,
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


def _row_norm(v: np.ndarray) -> np.ndarray:
    return np.max(np.abs(v), axis=1)


def damped_inverse(T: np.ndarray, pert: Callable, q: float, x: np.ndarray,
                   tau: float = 1e-14, max_iter: int = 200,
                   newton: Callable | None = None):
    """Solve y T^T + pert(y) = x row by row (T y + pert(y) = x per row).

    Each row iterates the damped map Phi(y) = T^-1 (x - pert(y)) and stops
    on its own once rho = |Phi(y) - y| <= tau * (1 + |Phi(y)|) in the sup
    norm of the row, returning Phi(y); rows that are done leave the active
    set.  ``q`` is the contraction ratio |T^-1| * Lip(pert) < 1, so a
    damped step shrinks a row's rho by at least q.

    ``newton(y, d)``, if given, returns the Newton correction s for the
    residual d = y - Phi(y), i.e. s solves (I + T^-1 pert'(y)) s = d, and
    y - s is the Newton candidate.  A row keeps a candidate only if it
    shrinks the row's rho by at least q, as the damped step would.  A
    rejected candidate is retried at half the step, y - s/2, y - s/4, ...,
    while the step stays at least 1 - q long (to first order a step of
    length lam leaves (1 - lam) rho), and the row takes the damped step
    when none passes.  Every kept step shrinks rho by q, so every row
    converges for every q < 1; the Newton steps make it fast where the
    damped map contracts slowly.  Rows whose correction equals d (pert is
    flat there, so Newton is the damped step) take the damped step
    without a trial.

    A row that has not met the stop rule after ``max_iter`` sweeps, or
    whose rho is NaN (its solution left the float range), comes back NaN,
    so the caller's finiteness checks fire.  Returns the solution together
    with the number of sweeps used.
    """
    Tinv = np.linalg.inv(T)
    y = _rows_times(x, Tinv)
    phi = _rows_times(x - pert(y), Tinv)
    out = np.full_like(phi, np.nan)
    rows = np.arange(phi.shape[0])
    for used in range(1, max_iter + 1):
        d = y - phi
        rho = _row_norm(d)
        done = rho <= tau * (1.0 + _row_norm(phi))
        out[rows[done]] = phi[done]
        # a NaN rho (an image left the float range) never recovers
        live = ~(done | np.isnan(rho))
        if not live.any():
            return out, used
        if used == max_iter:
            break
        rows, x, y, phi, d, rho = (rows[live], x[live], y[live], phi[live],
                                   d[live], rho[live])
        y_next = phi      # the damped step; phi itself is not needed again
        damped = np.ones(rows.shape[0], dtype=bool)
        phi_next = np.empty_like(phi)
        if newton is not None:
            s = newton(y, d)
            trial = np.flatnonzero(np.any(s != d, axis=1))
            lam = 1.0
            while trial.size and lam >= 1.0 - q:
                cand = y[trial] - lam * s[trial]
                phi_cand = _rows_times(x[trial] - pert(cand), Tinv)
                keep = _row_norm(phi_cand - cand) <= q * rho[trial]
                kept = trial[keep]
                y_next[kept] = cand[keep]
                phi_next[kept] = phi_cand[keep]
                damped[kept] = False
                trial = trial[~keep]
                lam *= 0.5
        if damped.any():
            phi_next[damped] = _rows_times(x[damped] - pert(y_next[damped]),
                                           Tinv)
        y, phi = y_next, phi_next
    return out, max_iter


def _scaled_bump_inverse(scale: float, spec: BumpSpec) -> Callable:
    """Inverse of the 1-d map p -> scale * p + bump(p), scale > Lip(bump).

    The Newton correction of :func:`damped_inverse` is d / (1 + b'(y) /
    scale), with b' in closed form.
    """
    T = np.array([[scale]])
    q = bump_lipschitz(spec) / abs(scale)

    def pert(y):
        return bump_eval(spec, y)

    def newton(y, d):
        return d / (1.0 + _bump_slope(spec, y) / scale)

    def inv(p):
        y, _ = damped_inverse(T, pert, q, p, newton=newton)
        return y

    return inv


def build_perturbed_linear(T, perturbation=None, lip: float = 0.0,
                           dim: int | None = None,
                           norm: str = "euclidean") -> Homeo:
    """x -> T x + pert(x), invertible while Lip(pert) < 1 / |T^-1|.

    ``perturbation`` may be a BumpSpec (radial bump with a fixed direction
    is not needed here: the scalar profile is applied along the first axis)
    or any vectorized closure supplied together with its Lipschitz bound
    ``lip``.  The inverse is :func:`damped_inverse`; a bump passes it a
    Newton step, a closure runs the damped iteration alone.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    d = T.shape[0] if dim is None else dim
    if d < 1 or T.shape != (d, d):
        raise ValueError("T must be square and match dim >= 1")
    smin = float(np.linalg.svd(T, compute_uv=False)[-1])
    if smin <= 0:
        raise ValueError("T must be invertible")

    newton = None
    if perturbation is None:
        def pert(p):
            return np.zeros_like(p)
        lip_val = 0.0
    elif isinstance(perturbation, BumpSpec):
        spec = perturbation
        c = np.linalg.inv(T)[:, 0]     # T^-1 e_0

        def pert(p):
            out = np.zeros_like(p)
            radial = np.sqrt(np.sum(p * p, axis=1))
            out[:, 0] = bump_eval(spec, radial)
            return out

        def newton(y, d):
            # pert'(y) = e_0 u^T with u = b'(|y|) y / |y| has rank one, so
            # (I + T^-1 e_0 u^T)^-1 d is one Sherman-Morrison update
            radial = np.sqrt(np.sum(y * y, axis=1))
            slope = np.divide(_bump_slope(spec, radial), radial,
                              out=np.zeros_like(radial), where=radial > 0)
            u = y * slope[:, None]
            ratio = np.sum(u * d, axis=1) / (1.0 + np.sum(u * c, axis=1))
            return d - c * ratio[:, None]
        lip_val = bump_lipschitz(spec)
    else:
        pert = perturbation
        lip_val = float(lip)
        if lip_val <= 0:
            raise ValueError("a closure perturbation needs its Lipschitz bound")

    if not lip_val < smin:
        raise ValueError(
            f"perturbation too steep: Lip {lip_val:g} >= 1/|T^-1| = {smin:g}")
    q = lip_val / smin

    domain = Domain(dim=d, region="box", norm=norm)

    def fwd(p):
        return p @ T.T + pert(p)

    def inv(p):
        y, _ = damped_inverse(T, pert, q, p, newton=newton)
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
    and one-line doc of a config parameter or option."""

    kind: str
    doc: str
    default: object = REQUIRED
    choices: tuple = ()


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


def _pure_linear_family(scale: float, lo: float | None = None) -> Homeo:
    domain = None
    if lo is not None:
        domain = Domain(dim=1, region="half_line", bounds=((lo, np.inf),))
    return build_pure_linear(scale, domain)


def _perturbed_linear_family(scale: float, dim: int = 1,
                             bump_center: float = 2.0,
                             bump_halfwidth: float = 1.0,
                             bump_height: float = 0.0) -> Homeo:
    bump = None
    if bump_height != 0.0:
        bump = BumpSpec(center=bump_center, halfwidth=bump_halfwidth,
                        height=bump_height)
    return build_perturbed_linear(scale * np.eye(dim), bump, dim=dim)


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
        "T x + bump, inverted by safeguarded Newton iteration",
        scale=("number", "nonzero diagonal value of T"),
        dim=("integer", "dimension"),
        bump_center=("number", "radial bump centre"),
        bump_halfwidth=("number", "bump half-width, > 0"),
        bump_height=("number", "bump height, >= 0; 0 means no bump")),
    "pure_linear": _family(
        _pure_linear_family, "x -> scale * x",
        scale=("number", "nonzero"),
        lo=("number", "if set, the domain is the half line [lo, inf)")),
    "translation": _family(
        build_translation, "x -> x + offset",
        offset=("vector", "a number or one per axis")),
}
