"""Composition-operator estimates, linearization, and recurrence diagnostics."""

import tracemalloc

import numpy as np
import pytest

from homconj import (
    ConvergenceError,
    Domain,
    Gauge,
    SampleScheme,
    Tolerances,
    abel_check,
    build_contraction_pair,
    build_lozi,
    build_perturbed_linear,
    build_pure_linear,
    build_translation,
    builtin_triple,
    check_p_alpha,
    identity,
    invert,
    koenigs_eigenfunction,
    make_radial,
    periodic_obstruction,
    primitive,
    r_lipschitz,
    sample_points,
    schroeder_functional_check,
    wandering_check,
)
from homconj import koopman
from homconj.families import BumpSpec
from homconj.funcspace import (
    RadialFn,
    _norm_geometry,
    _strided_subset,
    doubling_radii,
    doubling_sample_sets,
)
from homconj.homspace import EvaluationError, _classify, _shell_trace
from homconj.koopman import (
    PAIR_CAP,
    _BLOCK_ROWS,
    _SEP_FLOOR,
    RLipschitzEstimate,
    _all_pairs,
    _near_partners,
    _pair_cloud,
    _thinned,
)


def mask_trace(radii, ratio, shell):
    """(radius, max of ratio over entries with shell <= radius), written
    out with one mask per radius; NaN over an empty mask."""
    out = []
    for radius in radii:
        mask = shell <= radius * (1.0 + 1e-9)
        out.append((float(radius),
                    float(np.max(ratio[mask])) if np.any(mask) else np.nan))
    return tuple(out)


# ===================================================================
# r-Lipschitz estimation
# ===================================================================

def test_scaling_lipschitz_equals_scale(half_dom, sqrt_triple, scheme):
    # with r = identity the pairwise ratios of eta*x are constant
    _, r, _, _ = sqrt_triple
    for eta in (0.5, 2.0):
        f = primitive(half_dom, lambda p, c=eta: c * p,
                      lambda p, c=eta: p / c, f"{eta:g}x")
        est = r_lipschitz(f, r, scheme)
        assert est.finiteness == "finite"
        assert est.value == pytest.approx(eta, rel=1e-9)


def test_lozi_lipschitz_bound_sup_norm(scheme_fast):
    # the standard slope bound max(1 + a, |b|) holds in the sup norm
    mp = build_lozi(1.4, 0.3, norm="sup")
    r = make_radial("identity")
    est = r_lipschitz(mp, r, scheme_fast)
    assert est.finiteness == "finite"
    assert est.value <= 1.4 + 1.0 + 1e-9
    assert est.value > 1.0


def reference_r_lipschitz(f, r, scheme, tol=Tolerances()):
    """The ordered-pair estimator r_lipschitz replaced: f on both pair
    arrays, every (i, j) of the cloud strided to koopman.PAIR_CAP visited
    in stable norm order, the order whose first maximizer the walk
    reports."""
    domain = f.domain
    pts = doubling_sample_sets(domain, scheme)[-1][1]
    partners = _near_partners(pts, domain.norm_of(pts), scheme.seed)
    keep = domain.contains(partners, slack=0.0)
    cloud = np.concatenate([pts, partners[keep]], axis=0)
    cloud = cloud[_strided_subset(cloud.shape[0], koopman.PAIR_CAP)]
    cloud = cloud[np.argsort(domain.norm_of(cloud), kind="stable")]
    n = cloud.shape[0]
    i, j = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    x, y = cloud[i], cloud[j]
    raw = domain.norm_of(x - y)
    shell = np.maximum(domain.norm_of(x), domain.norm_of(y))
    floor = _SEP_FLOOR * (1.0 + shell)
    ok = raw > floor
    x, y, shell = x[ok], y[ok], shell[ok]
    sep = r.eval(raw[ok])
    ok2 = sep > 0
    x, y, shell, sep = x[ok2], y[ok2], shell[ok2], sep[ok2]
    total_pairs = int(x.shape[0])
    radii = doubling_radii(scheme)
    if total_pairs == 0:
        return RLipschitzEstimate(np.nan, None, "undetermined",
                                  mask_trace(radii, sep, shell), 0)
    fx, fy = f.forward(x), f.forward(y)
    if np.any(~np.isfinite(fx)) or np.any(~np.isfinite(fy)):
        raise EvaluationError(f"map {f.label!r} not finite on pair samples")
    ratio = r.eval(domain.norm_of(fx - fy)) / sep

    trace = mask_trace(radii, ratio, shell)
    k = int(np.argmax(ratio))
    best = float(ratio[k])
    witness = (x[k].copy(), y[k].copy())

    finiteness = _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
    return RLipschitzEstimate(best, witness, finiteness, trace, total_pairs)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def pair_walk(f, r, scheme):
    """The general pair walk, called directly: in one dimension with r the
    identity, r_lipschitz takes neighbour slopes instead."""
    return _all_pairs(f, r, scheme, Tolerances())


def takes_neighbour_slopes(f, r):
    return f.domain.dim == 1 and r.eval is make_radial("identity").eval


def _reference_cases():
    sqrt_r = make_radial("sqrt_plus")
    ident = make_radial("identity")
    light = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                         quasirandom_count=8, exhaustion_levels=2)
    cases = []
    for eta in (0.1, 0.25, 0.5):
        b = build_contraction_pair(eta)
        scheme = SampleScheme(window_radius=8.0)
        cases += [(f"pair{eta}-f", b.f, b.r, scheme, PAIR_CAP),
                  (f"pair{eta}-g", b.g, b.r, scheme, PAIR_CAP)]
        if eta == 0.25:
            cases.append(("pair0.25-g_inverse", invert(b.g), b.r, light,
                          PAIR_CAP))
            # a cap of 18 ** 2 strides the cloud down to 18 points
            cases.append(("pair0.25-g-strided", b.g, b.r, scheme, 324))
    for norm in ("euclidean", "sup"):
        cases.append((f"lozi-{norm}", build_lozi(1.4, 0.3, norm=norm),
                      ident, light, PAIR_CAP))
    bump = BumpSpec(center=2.0, halfwidth=1.0, height=0.2)
    for dim in (1, 2, 3):
        cases.append((f"perturbed-dim{dim}",
                      build_perturbed_linear(0.5 * np.eye(dim), bump),
                      sqrt_r, light, PAIR_CAP))
    cases.append(("translation-2d", build_translation([1.0, -0.5]), sqrt_r,
                  light, PAIR_CAP))
    # the walk evaluates r on every cell of a block, u = 0 included: a
    # scale that is NaN there, or that vanishes above the separation floor,
    # must leave the masked cells out of the sup, the witness and the count
    nan_at_0 = RadialFn(lambda u: np.where(u > 0.0, u, np.nan), "nan_at_0")
    zero_near_0 = RadialFn(lambda u: np.maximum(u - 0.05, 0.0), "zero_near_0")
    for r in (nan_at_0, zero_near_0):
        cases += [(f"pair0.25-g-{r.kind}", build_contraction_pair(0.25).g, r,
                   SampleScheme(window_radius=8.0), PAIR_CAP),
                  (f"lozi-{r.kind}", build_lozi(1.4, 0.3), r, light,
                   PAIR_CAP)]
    # every kept ratio is -inf, as is every masked cell: r is -inf beyond
    # 100, f stretches every separation past it, and r vanishing below
    # 0.05 masks the first cell of most blocks; the witness is still the
    # first kept pair, and no masked cell keeps an earlier block's quotient
    stretch = primitive(Domain(dim=1, region="half_line"),
                        lambda p: 1e12 * p, lambda p: p / 1e12, "1e12x")
    minus_inf = RadialFn(lambda u: np.where(
        u <= 100.0, np.maximum(u - 0.05, 0.0), -np.inf), "minus_inf")
    cases.append(("stretch-minus_inf", stretch, minus_inf,
                  SampleScheme(window_radius=8.0), PAIR_CAP))
    for norm in ("euclidean", "sup"):
        cases.append((f"stretch2d-{norm}-minus_inf",
                      build_pure_linear(1e12, Domain(dim=2, norm=norm)),
                      minus_inf, light, PAIR_CAP))
    return cases


def _assert_same_estimate(new, ref):
    assert _same_bits(new.value, ref.value)
    assert _same_bits(new.witness_pair[0], ref.witness_pair[0])
    assert _same_bits(new.witness_pair[1], ref.witness_pair[1])
    assert _same_bits(new.window_trace, ref.window_trace)
    assert new.finiteness == ref.finiteness
    assert new.pair_count == ref.pair_count


@pytest.mark.parametrize("label, f, r, scheme, cap", _reference_cases(),
                         ids=[c[0] for c in _reference_cases()])
def test_r_lipschitz_matches_ordered_pair_reference(label, f, r, scheme, cap,
                                                    monkeypatch):
    # one forward pass per point over unordered pairs gives the same bits
    # as evaluating f on both ordered-pair arrays; the 1-d identity cases,
    # which r_lipschitz takes by neighbour slopes, check the pair walk
    monkeypatch.setattr(koopman, "PAIR_CAP", cap)
    ref = reference_r_lipschitz(f, r, scheme)
    _assert_same_estimate(pair_walk(f, r, scheme), ref)
    if not takes_neighbour_slopes(f, r):
        _assert_same_estimate(r_lipschitz(f, r, scheme), ref)
    if r.kind == "minus_inf":
        assert ref.value == -np.inf


def _block_boundary_cases():
    # a cap of rows ** 2 strides each cloud to rows points; the walk visits
    # rows 0 .. rows - 2, so 65 rows fill one block exactly and 66 spill
    # one row into a second
    light = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                         quasirandom_count=8, exhaustion_levels=2)
    lozi = build_lozi(1.4, 0.3)
    g = build_contraction_pair(0.25).g
    half = SampleScheme(window_radius=8.0)
    ident, sqrt_r = make_radial("identity"), make_radial("sqrt_plus")
    return [
        (f"{label}-{rows}-rows", f, r, scheme, rows ** 2, rows)
        for label, f, r, scheme, rows in [
            ("lozi", lozi, ident, light, 2),
            ("lozi", lozi, ident, light, 63),
            ("lozi", lozi, ident, light, 64),
            ("lozi", lozi, ident, light, 65),
            ("lozi", lozi, ident, half, 66),
            ("pair-g", g, sqrt_r, half, 2),
            ("pair-g", g, sqrt_r, half, 63),
            ("pair-g", g, sqrt_r, half, 65)]
    ]


@pytest.mark.parametrize("label, f, r, scheme, cap, rows",
                         _block_boundary_cases(),
                         ids=[c[0] for c in _block_boundary_cases()])
def test_r_lipschitz_matches_reference_at_block_boundaries(label, f, r,
                                                           scheme, cap, rows,
                                                           monkeypatch):
    assert _BLOCK_ROWS == 64
    monkeypatch.setattr(koopman, "PAIR_CAP", cap)
    assert _pair_cloud(f.domain, scheme, cap).pts.shape[0] == rows
    _assert_same_estimate(r_lipschitz(f, r, scheme),
                          reference_r_lipschitz(f, r, scheme))


def _reshaped_norm(domain, p):
    """Domain.norm_of before the axis fold: one reduction over axis 1."""
    if domain.norm == "sup":
        return np.max(np.abs(p), axis=1)
    return np.sqrt(np.sum(p * p, axis=1))


def reference_block_walk(f, r, scheme, tol=Tolerances()):
    """The block walk before the axis fold, written out: each block builds
    the (rows, later, dim) tensor of differences and takes the norm over
    its reshaped rows."""
    domain = f.domain
    cloud = _pair_cloud(domain, scheme, koopman.PAIR_CAP).pts
    fc = f.forward(cloud)
    radii = doubling_radii(scheme)
    norms = _reshaped_norm(domain, cloud)
    dim = cloud.shape[1]

    def later(x, lo, hi):
        return (x[lo:hi, None, :] - x[None, lo + 1:, :]).reshape(-1, dim)

    sup = np.full(len(radii), np.nan)
    value, witness = np.nan, None
    kept = 0
    for lo in range(0, len(cloud) - 1, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(cloud) - 1)
        raw = _reshaped_norm(domain, later(cloud, lo, hi)).reshape(hi - lo, -1)
        shell = np.maximum(norms[lo:hi, None], norms[None, lo + 1:])
        ok = np.triu(raw > _SEP_FLOOR * (1.0 + shell))
        sep = r.eval(raw[ok])
        ok[ok] = sep > 0
        sep = sep[sep > 0]
        if sep.shape[0] == 0:
            continue
        kept += sep.shape[0]
        shell = shell[ok]
        ratio = r.eval(_reshaped_norm(
            domain, later(fc, lo, hi)[ok.ravel()])) / sep
        sup = np.fmax(sup, [v for _, v in mask_trace(radii, ratio, shell)])
        k = int(np.argmax(ratio))
        if witness is None or not (np.isnan(value) or ratio[k] <= value):
            rows, cols = np.nonzero(ok)
            value = float(ratio[k])
            witness = tuple(cloud[[lo + rows[k], lo + 1 + cols[k]]])
    trace = tuple(zip(map(float, radii), map(float, sup)))
    finiteness = "undetermined" if np.isnan(value) else \
        _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
    return RLipschitzEstimate(value, witness, finiteness, trace, 2 * kept)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _axis_fold_cases():
    light = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                         quasirandom_count=8, exhaustion_levels=2)
    half = SampleScheme(window_radius=8.0)
    ident, sqrt_r = make_radial("identity"), make_radial("sqrt_plus")
    g = build_contraction_pair(0.25).g
    bump = BumpSpec(center=2.0, halfwidth=1.0, height=0.2)
    # each strided cap is a square, of the row count it strides to
    cases = [("dim1", g, sqrt_r, half, PAIR_CAP),
             ("dim1-strided", g, sqrt_r, half, 18 ** 2)]
    for norm in ("euclidean", "sup"):
        lozi = build_lozi(1.4, 0.3, norm=norm)
        cases += [(f"dim2-{norm}", lozi, ident, light, PAIR_CAP),
                  (f"dim2-{norm}-strided", lozi, ident, half, 66 ** 2)]
    dim3 = build_perturbed_linear(0.5 * np.eye(3), bump)
    cases += [("dim3", dim3, sqrt_r, light, PAIR_CAP),
              ("dim3-strided", dim3, sqrt_r, light, 71 ** 2)]
    return cases


@pytest.mark.parametrize("label, f, r, scheme, cap", _axis_fold_cases(),
                         ids=[c[0] for c in _axis_fold_cases()])
def test_r_lipschitz_matches_the_reshaped_block_walk(label, f, r, scheme,
                                                     cap, monkeypatch):
    # folding the norm over per-axis differences gives the bits of the walk
    # that reduced the reshaped (rows * later, dim) difference rows
    if cap != PAIR_CAP:
        assert _pair_cloud(f.domain, scheme, cap).pts.shape[0] \
            < _pair_cloud(f.domain, scheme, PAIR_CAP).pts.shape[0]
    monkeypatch.setattr(koopman, "PAIR_CAP", cap)
    _assert_same_estimate(r_lipschitz(f, r, scheme),
                          reference_block_walk(f, r, scheme))


def test_gate_matches_the_reshaped_block_walk(bundle_025, scheme):
    # the gate's maps on the pair walk (the gate itself takes neighbour
    # slopes)
    b = bundle_025
    np.testing.assert_array_equal(
        _bits([pair_walk(T, b.r, scheme).value for T in (b.f, b.g)]),
        _bits([reference_block_walk(T, b.r, scheme).value
               for T in (b.f, b.g)]))


def _norm_samples(dim, seed=5):
    # signed values of like size, rows spread over many binades, exact
    # zeros and repeated axes
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((400, dim))
    p[::5] *= 10.0 ** rng.integers(-150, 150, size=(80, dim))
    p[::7, 0] = 0.0
    p[::11] = 0.0
    p[::13, -1] = p[::13, 0]
    return p


@pytest.mark.parametrize("dim", range(1, 13))
def test_norm_of_is_an_axis_fold(dim):
    p = _norm_samples(dim)
    euclid = Domain(dim=dim, norm="euclidean").norm_of(p)
    sup = Domain(dim=dim, norm="sup").norm_of(p)
    np.testing.assert_array_equal(_bits(sup),
                                  _bits(np.max(np.abs(p), axis=1)))
    if dim <= 7:
        # fewer than 8 non-negative terms: numpy adds them in order too
        np.testing.assert_array_equal(
            _bits(euclid), _bits(np.sqrt(np.sum(p * p, axis=1))))
    else:
        # numpy sums 8 or more terms pairwise, so the last bits may move
        ulps = np.abs(_bits(euclid).astype(np.int64)
                      - _bits(np.linalg.norm(p, axis=1)).astype(np.int64))
        assert ulps.max() <= 4
    # any leading shape: the norm runs over the last axis alone
    stacked = Domain(dim=dim, norm="euclidean").norm_of(p.reshape(20, 20, dim))
    np.testing.assert_array_equal(_bits(stacked),
                                  _bits(euclid).reshape(20, 20))
    # folded into out, each later axis written into one scratch once the
    # axis before it is folded, as the pair walk does: the same bits
    for norm, want in (("euclidean", euclid), ("sup", sup)):
        out, scratch = np.empty(len(p)), np.empty(len(p))

        def parts():
            for k in range(dim):
                buf = scratch if k else out
                buf[:] = p[:, k]
                yield buf

        got = Domain(dim=dim, norm=norm).fold_norm(parts(), out=out)
        assert got is out
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("norm", ["euclidean", "sup"])
def test_r_lipschitz_of_a_diagonal_map_is_its_largest_entry(norm):
    # the grid holds pairs along each axis, so the sup max|s| is attained
    dom = Domain(dim=2, norm=norm)
    f = build_perturbed_linear(np.diag([0.7, -1.9]), domain=dom)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=21)
    est = r_lipschitz(f, make_radial("identity"), scheme)
    assert est.finite
    assert est.value == pytest.approx(1.9, rel=1e-9)


def test_r_lipschitz_of_a_scaling_on_the_half_line(half_dom):
    f = build_pure_linear(0.3, half_dom)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=21)
    est = r_lipschitz(f, make_radial("identity"), scheme)
    assert est.finite
    assert est.value == pytest.approx(0.3, rel=1e-9)


def test_r_lipschitz_stride_path_is_taken(monkeypatch):
    b = build_contraction_pair(0.25)
    scheme = SampleScheme(window_radius=8.0)
    assert pair_walk(b.g, b.r, scheme).pair_count > 100_000
    # at most isqrt(300) = 17 strided points, so at most 17 * 16 ordered
    # pairs: the cap bounds the pair count
    monkeypatch.setattr(koopman, "PAIR_CAP", 300)
    assert 0 < pair_walk(b.g, b.r, scheme).pair_count <= 300


def test_r_lipschitz_raises_on_a_non_finite_image(half_dom, sqrt_triple, scheme):
    _, r, _, _ = sqrt_triple
    f = primitive(half_dom, lambda p: np.where(p > 20.0, np.inf, p),
                  lambda p: p, "blowup")
    with pytest.raises(EvaluationError, match="not finite on pair samples"):
        r_lipschitz(f, r, scheme)


def test_r_lipschitz_without_pairs_is_undetermined(half_dom, sqrt_triple,
                                                   monkeypatch):
    _, r, _, _ = sqrt_triple
    f = primitive(half_dom, lambda p: 2.0 * p, lambda p: p / 2.0, "2x")
    # a 1-pair cap strides the cloud down to its first point alone
    monkeypatch.setattr(koopman, "PAIR_CAP", 1)
    est = r_lipschitz(f, r, SampleScheme(window_radius=8.0))
    assert est.finiteness == "undetermined" and est.pair_count == 0
    assert np.isnan(est.value) and est.witness_pair is None


def test_r_lipschitz_nan_ratio_is_undetermined(half_dom, scheme):
    # a scale function that is NaN beyond 5 makes every ratio of a pair
    # whose images lie further apart NaN; the first such pair in row-major
    # order is the witness and the estimate is never labelled finite
    r = RadialFn(lambda u: np.where(u > 5.0, np.nan, u), "nan_beyond_5")
    f = primitive(half_dom, lambda p: 2.0 * p, lambda p: p / 2.0, "2x")
    est = r_lipschitz(f, r, scheme)
    ref = reference_r_lipschitz(f, r, scheme)
    assert np.isnan(est.value) and est.finiteness == "undetermined"
    assert _same_bits(est.witness_pair[0], ref.witness_pair[0])
    assert _same_bits(est.witness_pair[1], ref.witness_pair[1])
    assert est.pair_count == ref.pair_count


def test_r_lipschitz_nan_covers_its_shell_and_every_larger_one(half_dom,
                                                               scheme):
    # f jumps by 100 below 1e-3 and r is NaN beyond 70, so every pair
    # across the jump has a NaN ratio, with its shell in the innermost
    # window; the walk's trace is the ordered-pair reference's, all NaN
    f = primitive(half_dom, lambda p: np.where(p < 1e-3, p + 100.0, p),
                  lambda p: p, "jump_below_1e-3")
    r = RadialFn(lambda u: np.where(u > 70.0, np.nan, u), "nan_beyond_70")
    est = r_lipschitz(f, r, scheme)
    _assert_same_estimate(est, reference_r_lipschitz(f, r, scheme))
    assert all(np.isnan(v) for _, v in est.window_trace)
    assert est.finiteness == "undetermined"


def test_r_lipschitz_empty_inner_shells_read_nan(half_dom):
    # r vanishes below 20, so no pair inside the window or its first
    # doubling is kept: those two shells are empty and read NaN, not -inf
    f = primitive(half_dom, lambda p: 2.0 * p, lambda p: p / 2.0, "2x")
    r = RadialFn(lambda u: np.maximum(u - 20.0, 0.0), "zero_below_20")
    scheme = SampleScheme(window_radius=8.0, grid_points_per_axis=15,
                          quasirandom_count=8)
    est = r_lipschitz(f, r, scheme)
    _assert_same_estimate(est, reference_r_lipschitz(f, r, scheme))
    values = [v for _, v in est.window_trace]
    assert np.isnan(values[0]) and np.isnan(values[1])
    assert np.isfinite(values[2]) and np.isfinite(values[3])


def _shell_trace_cases():
    rng = np.random.default_rng(23)
    radii = (1.0, 2.0, 4.0, 8.0)
    cases = [
        (radii, np.empty(0), np.empty(0)),
        # ties at a radius, just inside it and on its cut, an empty first
        # prefix
        (radii, np.array([0.5, -np.inf, 3.0, 2.0, 7.0, np.nan]),
         np.array([1.5, 2.0, 2.0, 2.0 * (1.0 + 5e-10), 2.0 * (1.0 + 1e-9),
                   9.0])),
        (radii, np.full(3, -np.inf), np.array([0.1, 0.1, 7.0])),
        (radii, np.array([np.nan, 5.0, 6.0]), np.array([0.5, 0.5, 3.0])),
    ]
    for k in range(40):
        n = int(rng.integers(1, 30))
        shell = rng.choice([0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 9.0], n)
        if k % 2:
            shell = np.sort(shell)   # the walk's columns come in norm order
        ratio = rng.standard_normal(n)
        ratio[rng.random(n) < 0.1] = np.nan
        ratio[rng.random(n) < 0.1] = -np.inf
        cases.append((radii, ratio, shell))
    return cases


def test_shell_trace_is_the_mask_rule():
    # in any entry order, the running maxima read at the cuts are the sups
    # over the shells, NaN and -inf included, and NaN over an empty one
    for radii, ratio, shell in _shell_trace_cases():
        assert _same_bits(_shell_trace(ratio, _norm_geometry(shell, radii)),
                          mask_trace(radii, ratio, shell))


def test_gate_slack_of_an_undetermined_lambda_is_nan(half_dom, sqrt_triple,
                                                     scheme):
    # r is NaN beyond 5, so lam_r is undetermined and every slack is NaN:
    # the least slack is undefined, not +inf, and the gate does not pass
    _, _, _, phi = sqrt_triple
    r = RadialFn(lambda u: np.where(u > 5.0, np.nan, u), "nan_beyond_5")
    rep = check_p_alpha(build_pure_linear(2.0, half_dom), None, phi, r, 1.5,
                        scheme)
    assert np.isnan(rep.lambda_f) and np.isnan(rep.min_slack_f)
    assert not rep.satisfied
    top = doubling_sample_sets(half_dom, scheme)[-1][1]
    assert rep.worst_point == tuple(top[0])


def _counting(f, calls):
    """f with every forward batch's row count appended to ``calls``."""
    def fwd(p):
        calls.append(p.shape[0])
        return f.forward(p)

    return primitive(f.domain, fwd, f.inverse, f.label)


def test_r_lipschitz_work_counts(bundle_025, scheme):
    rows = []
    f = _counting(primitive(bundle_025.domain, lambda p: 0.5 * p,
                            lambda p: 2.0 * p, "x/2"), rows)
    est = pair_walk(f, bundle_025.r, scheme)
    cloud_rows = _pair_cloud(bundle_025.domain, scheme, PAIR_CAP).pts.shape[0]
    assert rows == [cloud_rows]
    assert est.pair_count > 100 * cloud_rows

    # the gate walks the cloud once per map: each map runs once on the
    # cloud, then once on the top table for its slack
    f_rows, g_rows = [], []
    check_p_alpha(_counting(bundle_025.f, f_rows),
                  _counting(bundle_025.g, g_rows), bundle_025.phi,
                  bundle_025.r, bundle_025.alpha, scheme)
    top = doubling_sample_sets(bundle_025.domain, scheme)[-1][1]
    assert f_rows == g_rows == [cloud_rows, top.shape[0]]


def test_cached_pair_cloud_changes_no_gate(bundle_025, scheme, table_caches,
                                          process_memo):
    # the cloud record is cached per (domain, scheme, cap), every array of
    # it read-only, its neighbour pairs built once; it is not the top
    # table, so the process memo caches no image of it
    b = bundle_025
    lozi, light = build_lozi(1.4, 0.3), SampleScheme(
        window_radius=4.0, grid_points_per_axis=15, quasirandom_count=8)
    r_lipschitz(b.g, b.r, scheme)
    cloud = _pair_cloud(b.domain, scheme, PAIR_CAP)
    line = cloud.line
    a, _, sep, geo = line
    for arr in (cloud.pts, cloud.norms, *line[:3], geo.norms, geo.order):
        assert not arr.flags.writeable
    assert not process_memo.entries

    def gates():
        # the 1-d gate takes neighbour slopes, the 2-d Lozi map the pair walk
        lams = [r_lipschitz(T, b.r, scheme) for T in (b.f, b.g)]
        lams.append(r_lipschitz(lozi, make_radial("identity"), light))
        return lams, repr(check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha,
                                        scheme))

    cold = gates()
    assert _pair_cloud(b.domain, scheme, PAIR_CAP) is cloud
    assert cloud.line is line
    warm = gates()
    for cache in table_caches:
        cache.cache_clear()
    cleared = gates()
    for lams, report in (warm, cleared):
        for new, ref in zip(lams, cold[0], strict=True):
            _assert_same_estimate(new, ref)
        assert report == cold[1]
    assert table_caches[2].cache_info().currsize == 2


def test_r_lipschitz_memory_stays_within_blocks():
    # one call on the 2-d Lozi cloud (about 930k ordered pairs) holds the
    # walk's buffers, each one block of _BLOCK_ROWS rows by every later row
    # of the cloud: three of float64 (separation, scratch, quotients) and
    # two bool masks, 3 + 2/8 blocks of float64.  One more block covers
    # every array of the cloud's own length (the cloud, its near partners,
    # images, norms, column maxima); a fresh temporary per block does not
    # fit
    lozi = build_lozi(1.4, 0.3)
    scheme = SampleScheme(window_radius=8.0, seed=31337)
    doubling_sample_sets(lozi.domain, scheme)
    tracemalloc.start()
    try:
        est = r_lipschitz(lozi, make_radial("identity"), scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = _pair_cloud(lozi.domain, scheme, PAIR_CAP).pts.shape[0]
    block = _BLOCK_ROWS * (n - 1) * np.dtype(float).itemsize
    assert est.pair_count > 900_000
    assert peak < (3 + 2 / 8 + 1) * block


def test_pair_walks_keep_no_state_between_calls():
    # a small and a large cloud, each walked after the other: the second
    # walk of each gives the bits of its first
    lozi = build_lozi(1.4, 0.3, norm="sup")
    r = make_radial("identity")
    small = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                         quasirandom_count=8, exhaustion_levels=2)
    large = SampleScheme(window_radius=4.0, grid_points_per_axis=21)
    assert _pair_cloud(lozi.domain, small, PAIR_CAP).pts.shape[0] \
        < _pair_cloud(lozi.domain, large, PAIR_CAP).pts.shape[0]
    walks = [r_lipschitz(lozi, r, scheme)
             for scheme in (small, large, small, large)]
    for first, again in zip(walks[:2], walks[2:]):
        _assert_same_estimate(again, first)


# -------------------------------------------------------------------
# neighbour slopes: one dimension, r = identity

_U = 2.0 ** -53                        # unit roundoff of float64
_GAMMA3 = 3.0 * _U / (1.0 - 3.0 * _U)  # three roundings in one quotient


def _chord_spread(x):
    """Relative bound on how far apart two sups of chord quotients of
    fl(eta * x) over the cloud ``x`` can lie.

    An image fl(eta * x) is eta * x * (1 + d), |d| <= u, so the chord of
    stored images over p, q has slope eta within eta * u * (|p| + |q|) /
    |q - p|; the quotient then takes three roundings (two differences, the
    division; sqrt(d * d) is |d|).  Every quotient of every chord at or
    above the separation floor, and so every sup of them, lies within
    eta * (u * K + gamma_3) of eta, with K the largest (|p| + |q|) /
    |q - p| over those chords.
    """
    x = x[:, 0]
    gap = np.abs(x[:, None] - x[None, :])
    far = gap > _SEP_FLOOR * (1.0 + np.maximum(np.abs(x)[:, None],
                                               np.abs(x)[None, :]))
    k = np.max((np.abs(x)[:, None] + np.abs(x)[None, :])[far] / gap[far])
    return 2.0 * (_U * k + _GAMMA3)


def _dropped(cloud, domain):
    return np.setdiff1d(np.arange(len(cloud)),
                        _thinned(cloud[:, 0], domain.norm_of(cloud)))


@pytest.mark.parametrize("window", (4.0, 8.0))
@pytest.mark.parametrize("seed", (0, 1, 7919))
@pytest.mark.parametrize("eta", (0.05, 0.1, 0.25, 0.5, 0.8, 0.95))
def test_neighbour_slopes_agree_with_the_pair_walk(eta, seed, window,
                                                    monkeypatch):
    b = build_contraction_pair(eta)
    scheme = SampleScheme(window_radius=window, seed=seed)
    cloud = _pair_cloud(b.domain, scheme, PAIR_CAP).pts
    # the thinning drops points only below the bump's support, where g is
    # fl(eta * x) bit for bit, as f is; a chord from there into the support
    # averages g's slope over at least the distance to the support, far
    # below its steepest neighbour pair.  So in both walks every sup is
    # either a sup of chords of fl(eta * x), within the chord spread of
    # eta, or one over pairs of kept points, where the neighbour sup is
    # within gamma_3 of every chord (a chord's slope is a weighted mean of
    # the neighbour slopes it spans, in real arithmetic).
    support = b.bump.center - b.bump.halfwidth
    low = cloud[cloud[:, 0] < support]
    assert np.all(cloud[_dropped(cloud, b.domain), 0] < support)
    assert _same_bits(b.g.forward(low), b.f.forward(low))
    bound = _chord_spread(cloud)
    assert bound < 1e-9

    new = [r_lipschitz(T, b.r, scheme) for T in (b.f, b.g)]
    ref = [pair_walk(T, b.r, scheme) for T in (b.f, b.g)]
    kept = len(cloud) - len(_dropped(cloud, b.domain))
    for est, pairs in zip(new, ref):
        assert est.finiteness == pairs.finiteness == "finite"
        assert est.pair_count == 2 * (kept - 1)
        # a neighbour pair's quotient has the pair walk's bits, so the
        # neighbour sup never exceeds the pair walk's
        assert est.value <= pairs.value <= est.value + bound * pairs.value
        for (radius, v), (ref_radius, ref_v) in zip(est.window_trace,
                                                    pairs.window_trace):
            assert radius == ref_radius
            assert v <= ref_v <= v + bound * ref_v

    # the gate reads the same verdict off either walk
    rep = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme)
    monkeypatch.setattr(koopman, "r_lipschitz", _all_pairs)
    ref_rep = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme)
    assert rep.satisfied == ref_rep.satisfied


def test_neighbour_slopes_of_a_ramp_are_exact(half_dom, scheme):
    # 4 * clip(x, a, b) over neighbours a <= 8 < b of the thinned cloud:
    # its slope 4 lies across the kinks at a and b alone, and fl(4b - 4a)
    # is 4 * fl(b - a), so the one steep quotient is 4 exactly.  The pair
    # (a, b) has the shell of b, past the window radius 8
    cloud = _pair_cloud(half_dom, scheme, PAIR_CAP).pts
    line = cloud[_thinned(cloud[:, 0], half_dom.norm_of(cloud)), 0]
    k = int(np.searchsorted(line, 8.0, side="right"))
    a, b = line[k - 1], line[k]
    assert a <= 8.0 < 8.0 * (1.0 + 1e-9) < b
    f = primitive(half_dom, lambda p: 4.0 * np.clip(p, a, b), lambda p: p,
                  "ramp")
    est = r_lipschitz(f, make_radial("identity"), scheme)
    assert est.value == 4.0
    assert [v for _, v in est.window_trace] == [0.0, 4.0, 4.0, 4.0]
    assert est.witness_pair[0][0] == a and est.witness_pair[1][0] == b
    assert est.pair_count == 2 * (len(line) - 1)
    ref = pair_walk(f, make_radial("identity"), scheme)
    assert _same_bits(est.value, ref.value)
    assert _same_bits(est.window_trace, ref.window_trace)
    assert _same_bits(est.witness_pair, ref.witness_pair)


def test_thinning_drops_points_within_the_floor_of_the_last_kept_one():
    # at 1 the floor is 2e-9: 1 + 5e-10 and 1 + 1.5e-9 fall within it of 1;
    # 1 + 3e-9 lies within the floor of its dropped predecessor but not of
    # 1, the last kept point, so it stays.  A repeated point is dropped,
    # and the input order does not matter
    x = np.array([2.0, 1.0 + 3e-9, 1.0, 1.0 + 1.5e-9, 0.0, 1.0 + 5e-10,
                  2.0, -3.0])
    kept = _thinned(x, np.abs(x))
    assert x[kept].tolist() == [-3.0, 0.0, 1.0, 1.0 + 3e-9, 2.0]
    assert kept.tolist() == [7, 4, 2, 1, 0]
    # no sub-floor gap: every point stays, in increasing order
    assert _thinned(x[[0, 2, 4, 7]], np.abs(x[[0, 2, 4, 7]])).tolist() \
        == [3, 2, 1, 0]


def test_neighbour_slopes_skip_the_sub_floor_gaps_of_the_shipped_cloud(
        half_dom, scheme):
    # the geometric points near 0 sit closer together than the floor; each
    # dropped point lies within the floor of a kept one, no kept neighbour
    # gap is below it, and pair_count counts the kept neighbours
    cloud = _pair_cloud(half_dom, scheme, PAIR_CAP).pts
    norms = half_dom.norm_of(cloud)
    kept = _thinned(cloud[:, 0], norms)
    x, drop = cloud[kept, 0], cloud[_dropped(cloud, half_dom), 0]
    assert drop.size > 0
    assert np.all(np.diff(x) > _SEP_FLOOR * (1.0 + np.abs(x[1:])))
    last = x[np.searchsorted(x, drop, side="right") - 1]
    assert np.all(drop - last <= _SEP_FLOOR * (1.0 + np.abs(drop)))
    f = build_pure_linear(0.5, half_dom)
    est = r_lipschitz(f, make_radial("identity"), scheme)
    assert est.pair_count == 2 * (len(kept) - 1)


@pytest.mark.parametrize("rows", (0, 1))
def test_neighbour_slopes_without_pairs_are_undetermined(half_dom, scheme,
                                                         rows, monkeypatch,
                                                         table_caches):
    # a cloud of the first rows alone, built and cached afresh
    monkeypatch.setattr(koopman, "_strided_subset",
                        lambda n, cap: np.arange(rows))
    assert _pair_cloud(half_dom, scheme, PAIR_CAP).pts.shape[0] == rows
    est = r_lipschitz(build_pure_linear(0.5, half_dom),
                      make_radial("identity"), scheme)
    assert est.finiteness == "undetermined" and est.pair_count == 0
    assert np.isnan(est.value) and est.witness_pair is None
    assert all(np.isnan(v) for _, v in est.window_trace)


def _straddling_cases():
    # each map's steepest quotient in every shell is one neighbour pair, so
    # both walks read the same bits: on the box, slope 4 for x >= 0 (4x is
    # exact, and a chord across 0 is flatter) and a jump of 20 at -20; on
    # the box minus the ball of 0.5, a jump of 2 across the hole and one of
    # 100 at 20
    box = Domain(dim=1)
    hole = Domain(dim=1, region="box_minus_ball", inner_radius=0.5)
    return [
        ("box", primitive(box, lambda p: np.where(
            p >= 0.0, 4.0 * p, np.where(p < -20.0, 3.0 * p, 2.0 * p)),
            lambda p: p, "box")),
        ("box_minus_ball", primitive(hole, lambda p: p + np.sign(p)
                                     + np.where(p > 20.0, 100.0, 0.0),
                                     lambda p: p, "hole")),
    ]


@pytest.mark.parametrize("label, f", _straddling_cases(),
                         ids=[c[0] for c in _straddling_cases()])
def test_neighbour_slopes_on_shells_that_straddle_0(label, f, scheme):
    # a shell {|x| <= R} is one run of the x-sorted cloud on either side of
    # 0, so each shell's sup is a neighbour pair's
    ident = make_radial("identity")
    est = r_lipschitz(f, ident, scheme)
    ref = pair_walk(f, ident, scheme)
    assert _same_bits(est.value, ref.value)
    assert _same_bits(est.window_trace, ref.window_trace)
    assert _same_bits(est.witness_pair, ref.witness_pair)
    assert est.finiteness == ref.finiteness
    assert est.pair_count < ref.pair_count
    values = [v for _, v in est.window_trace]
    # the far jump lies in the shells of 32 and 64 alone; the inner sup is
    # 4 on the box, and on the box minus the ball the chord across the hole
    # between its nearest points
    assert values[0] == values[1] < values[2] == values[3] == est.value
    x = _pair_cloud(f.domain, scheme, PAIR_CAP).pts
    a, b = x[x < 0.0].max(), x[x > 0.0].min()
    across = abs(f.forward([[b]]) - f.forward([[a]]))[0, 0] / (b - a)
    assert values[0] == (4.0 if label == "box" else across)


def test_a_user_identity_closure_takes_the_pair_walk(bundle_025, scheme):
    # dispatch tests the function object, not the label
    r = RadialFn(lambda u: u, "identity")
    est = r_lipschitz(bundle_025.g, r, scheme)
    ref = pair_walk(bundle_025.g, r, scheme)
    _assert_same_estimate(est, ref)
    assert est.pair_count > 100_000


# ===================================================================
# eigenvalue gate
# ===================================================================

def test_gate_satisfied_on_contraction_bundle(bundle_025, scheme):
    rep = check_p_alpha(bundle_025.f, bundle_025.g, bundle_025.phi,
                        bundle_025.r, bundle_025.alpha, scheme)
    assert rep.satisfied
    assert rep.min_slack_f >= -1e-12
    assert rep.min_slack_g >= -1e-12
    assert rep.lambda_f == pytest.approx(0.25, rel=5e-2)


def test_gate_single_operator_form(bundle_025, scheme):
    rep = check_p_alpha(bundle_025.f, None, bundle_025.phi, bundle_025.r,
                        bundle_025.alpha, scheme)
    assert rep.satisfied
    assert rep.lambda_g is None and rep.min_slack_g is None


def test_gate_fails_at_large_alpha(bundle_025, scheme):
    # 1/sqrt(eta) = 2 is the sharp cutoff for eta = 1/4, so alpha = 3 fails
    rep = check_p_alpha(bundle_025.f, bundle_025.g, bundle_025.phi,
                        bundle_025.r, 3.0, scheme)
    assert not rep.satisfied
    assert min(rep.min_slack_f, rep.min_slack_g) < 0.0


def test_gate_rejects_alpha_at_most_one(bundle_025, scheme):
    with pytest.raises(ValueError):
        check_p_alpha(bundle_025.f, None, bundle_025.phi, bundle_025.r,
                      1.0, scheme)


def _gate_cases():
    b = build_contraction_pair(0.25)
    half = SampleScheme(window_radius=8.0)
    light = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                         quasirandom_count=8, exhaustion_levels=2)
    # the contraction pair takes neighbour slopes, sqrt_plus the 1-d pair
    # walk, the Lozi pairs the 2-d pair walk
    cases = [("contraction", b.f, b.g, b.phi, b.r, half),
             ("contraction-sqrt_plus", b.f, b.g, b.phi,
              make_radial("sqrt_plus"), half),
             ("single", b.f, None, b.phi, b.r, half)]
    for norm in ("euclidean", "sup"):
        f, g = build_lozi(1.4, 0.3, norm=norm), build_lozi(1.1, -0.45,
                                                           norm=norm)
        _, r, _, phi = builtin_triple("sqrt_plus", f.domain)
        cases.append((f"lozi-{norm}", f, g, phi, r, light))
    return cases


@pytest.mark.parametrize("label, f, g, phi, r, scheme", _gate_cases(),
                         ids=[c[0] for c in _gate_cases()])
def test_gate_walks_each_map_through_r_lipschitz(label, f, g, phi, r, scheme,
                                                 monkeypatch):
    # the gate's lam_r of each map is one call of the public estimator, so
    # whatever wraps r_lipschitz sees every gate walk; each estimate, its
    # witness included, is the public one to the bit
    public, calls = koopman.r_lipschitz, []

    def counting(T, *args, **kwargs):
        calls.append((T, public(T, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(koopman, "r_lipschitz", counting)
    rep = check_p_alpha(f, g, phi, r, 1.5, scheme)
    maps = (f,) if g is None else (f, g)
    assert len(calls) == len(maps)
    for (T, est), M, lam in zip(calls, maps, (rep.lambda_f, rep.lambda_g)):
        assert T is M
        _assert_same_estimate(est, public(M, r, scheme))
        assert _same_bits(lam, est.value)
    assert (rep.lambda_g is None) == (g is None)


def test_gate_that_keeps_no_image_is_undetermined():
    # every image of x -> x + 100 leaves [-10, 10]: an empty sample
    # certifies nothing, so the slack is NaN and the gate does not pass
    box = Domain(dim=1, region="box", bounds=((-10.0, 10.0),))
    _, r, _, phi = builtin_triple("sqrt_plus", box)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=11)
    rep = check_p_alpha(build_translation([100.0], box), None, phi, r, 1.5,
                        scheme)
    assert np.isfinite(rep.lambda_f)
    assert np.isnan(rep.min_slack_f) and rep.worst_point is None
    assert not rep.satisfied


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_gate_rejects_a_gauge_not_positive_and_finite(bundle_025, scheme,
                                                      bad):
    # the gate walks the table as displacement does and rejects the same
    # gauges; a gauge 0 beyond 5 makes every slack there phi(f(x)) >= 0, so
    # only the gauge check can fail it
    b = bundle_025
    phi = Gauge(eval=lambda p: np.where(p[:, 0] > 5.0, bad, 1.0), beta=2.0,
                gamma=0.5, m=1.0)
    with pytest.raises(EvaluationError, match="positive and finite"):
        check_p_alpha(b.f, b.g, phi, b.r, b.alpha, scheme)


def test_gate_raises_on_a_non_finite_image_the_pair_cloud_skips(
        half_dom, sqrt_triple, scheme):
    # x/2 but +inf at the top table's second row, which the strided pair
    # cloud leaves out: lam_r is finite, and the slack sees the spike
    _, r, _, phi = sqrt_triple
    spike = doubling_sample_sets(half_dom, scheme)[-1][1][1, 0]
    assert spike not in _pair_cloud(half_dom, scheme, PAIR_CAP).pts
    f = primitive(half_dom, lambda p: np.where(p == spike, np.inf, 0.5 * p),
                  lambda p: 2.0 * p, "x/2 with a spike")
    with pytest.raises(EvaluationError, match="not finite"):
        check_p_alpha(f, None, phi, r, 1.2, scheme)


# ===================================================================
# linearization at a fixed point
# ===================================================================

def test_koenigs_recovers_identity_for_linear_map(half_dom, scheme):
    f = primitive(half_dom, lambda p: 0.5 * p, lambda p: 2.0 * p, "x/2")
    psi, rep = koenigs_eigenfunction(f, np.zeros(1), 0.5, scheme)
    assert rep.converged
    assert rep.residual < 1e-12
    pts = sample_points(half_dom, scheme)
    assert float(np.max(np.abs(psi(pts) - pts))) < 1e-10


@pytest.mark.parametrize("eta", [0.1, 0.5])
def test_koenigs_residual_reuses_the_orbit(scheme, eta):
    # n* forward calls build the orbit and one more gives the residual
    g = build_contraction_pair(eta).g
    atom = g.chain[0][0]
    forward, calls = atom.fwd, []

    def counted(p):
        calls.append(p.shape[0])
        return forward(p)

    atom.fwd = counted
    psi, rep = koenigs_eigenfunction(g, np.zeros(1), eta, scheme)
    assert len(calls) == rep.n_steps + 1
    # the residual is |psi(g(x)) - eta psi(x)| written out, bit for bit
    pts = doubling_sample_sets(g.domain, scheme)[-1][1]
    written_out = float(np.max(np.abs(psi(g.forward(pts)) - eta * psi(pts))))
    assert rep.residual == written_out


@pytest.mark.parametrize("eta", [0.1, 0.5])
def test_koenigs_growth_exponent_is_the_window_sup_ratio(scheme, eta):
    # log2 of sup |psi| over the last doubling over sup |psi| over the
    # window, per doubling, with the window cut written out
    g = build_contraction_pair(eta).g
    psi, rep = koenigs_eigenfunction(g, np.zeros(1), eta, scheme)
    pts = doubling_sample_sets(g.domain, scheme)[-1][1]
    norms = g.domain.norm_of(psi(pts))
    window = g.domain.norm_of(pts) <= scheme.window_radius * (1.0 + 1e-9)
    sup_window = float(np.max(norms[window])) + 1e-300
    sup_outer = float(np.max(norms)) + 1e-300
    assert rep.growth_exponent == float(np.log2(sup_outer / sup_window) / 3)
    assert 0.5 < rep.growth_exponent < 1.5


def test_koenigs_wrong_multiplier_blows_up(half_dom, scheme):
    f = primitive(half_dom, lambda p: 0.5 * p, lambda p: 2.0 * p, "x/2")
    with pytest.raises(ConvergenceError):
        koenigs_eigenfunction(f, np.zeros(1), 0.25, scheme, n_max=200)


def test_koenigs_multiplier_domain(half_dom, scheme):
    f = primitive(half_dom, lambda p: 0.5 * p, lambda p: 2.0 * p, "x/2")
    with pytest.raises(ValueError):
        koenigs_eigenfunction(f, np.zeros(1), 1.5, scheme)


# ===================================================================
# shift equation and the log functional bound
# ===================================================================

def test_abel_solution_for_linear_contraction():
    dom = Domain(dim=1, region="box_minus_ball", inner_radius=0.125)
    f = build_pure_linear(0.5, dom)
    log_half = np.log(0.5)

    def varphi(pts):
        return np.log(dom.norm_of(pts)) / log_half

    rep = abel_check(f, varphi, SampleScheme(window_radius=4.0))
    assert rep.residual < 1e-12


def test_schroeder_margin_is_log_two():
    dom = Domain(dim=1, region="box_minus_ball", inner_radius=0.125)
    f = build_pure_linear(0.5, dom)
    low = schroeder_functional_check(f, SampleScheme(window_radius=4.0))
    assert low.margin == pytest.approx(np.log(2.0), abs=1e-12)
    assert low.contraction_factor == pytest.approx(0.5, abs=1e-12)


def test_schroeder_rejects_domain_containing_origin(half_dom):
    f = primitive(half_dom, lambda p: 0.5 * p, lambda p: 2.0 * p, "x/2")
    with pytest.raises(ValueError):
        schroeder_functional_check(f, SampleScheme(window_radius=4.0))


# ===================================================================
# wandering clouds and the periodic obstruction
# ===================================================================

def _interval_cloud():
    return np.linspace(1.0, 1.75, 16).reshape(-1, 1)


def test_halving_map_cloud_wanders():
    dom = Domain(dim=1)
    f = build_pure_linear(0.5, dom)
    rep = wandering_check(f, _interval_cloud(), covering_radius=0.025,
                          nu=1, n_max=6)
    assert rep.verdict == "wandering"
    assert rep.min_separation > 0.0
    # the propagated radii contract along with the map
    assert rep.radii_trace[-1] < rep.radii_trace[0]


def test_identity_cloud_collides_immediately():
    dom = Domain(dim=1)
    rep = wandering_check(identity(dom), _interval_cloud(),
                          covering_radius=0.025, nu=1, n_max=6)
    assert rep.verdict == "collision"
    assert rep.collision_pair == (1, 0)


def test_wandering_rejects_bad_nu():
    dom = Domain(dim=1)
    with pytest.raises(ValueError):
        wandering_check(identity(dom), _interval_cloud(), 0.025, nu=0, n_max=3)


def test_wandering_rejects_n_max_below_nu():
    # with n_max < nu no pair of iterates is compared, so no verdict exists
    f = build_pure_linear(1.0, Domain(dim=1))
    cloud = np.array([[1.0], [1.1]])
    with pytest.raises(ValueError, match="n_max must be >= nu"):
        wandering_check(f, cloud, covering_radius=0.5, nu=1, n_max=0)
    with pytest.raises(ValueError, match="n_max must be >= nu"):
        wandering_check(f, cloud, covering_radius=0.5, nu=3, n_max=2)
    assert wandering_check(f, cloud, covering_radius=0.5, nu=1,
                           n_max=1).verdict == "collision"


@pytest.mark.parametrize("radius", [np.nan, -1.0, 0.0, np.inf])
def test_wandering_rejects_a_covering_radius_outside_zero_and_inf(radius):
    # every point of the identity is fixed, yet a NaN radius compared false
    # with every distance and a negative one shrank none, so both read as
    # wandering
    f = identity(Domain(dim=1))
    cloud = np.array([[1.0], [1.1]])
    with pytest.raises(ValueError, match="covering_radius must be positive"):
        wandering_check(f, cloud, covering_radius=radius, nu=1, n_max=3)


def test_wandering_raises_on_an_iterate_that_is_not_finite():
    # f is NaN beyond 1.6, so the second iterate of the cloud is NaN: its
    # radius and its distances would compare false and read as wandering
    f = primitive(Domain(dim=1), lambda p: np.where(p > 1.6, np.nan, p + 1.0),
                  lambda p: p - 1.0, "nan_beyond_1.6")
    cloud = (0.5 + 0.05 * np.arange(16)).reshape(-1, 1)
    with pytest.raises(EvaluationError, match="not finite on iterate 2 "):
        wandering_check(f, cloud, covering_radius=0.025, nu=1, n_max=6)


@pytest.mark.parametrize("f, cloud, nu, n_max", [
    # a 16-point cloud like the bundled wandering config's
    (build_translation([1.0], Domain(dim=1)),
     np.linspace(1.0, 1.75, 16).reshape(-1, 1), 1, 6),
    # more rows than two blocks, not a multiple of one
    (build_pure_linear(0.5, Domain(dim=1)),
     np.linspace(1.0, 1.75, 2 * _BLOCK_ROWS + 7).reshape(-1, 1), 1, 4),
    (identity(Domain(dim=1)),
     np.linspace(1.0, 1.75, 2 * _BLOCK_ROWS + 7).reshape(-1, 1), 1, 3),
    (build_lozi(1.4, 0.3), np.random.default_rng(3).uniform(
        -0.2, 0.2, (2 * _BLOCK_ROWS + 7, 2)), 2, 4),
    (build_lozi(1.4, 0.3, norm="sup"), np.random.default_rng(5).uniform(
        -0.2, 0.2, (2 * _BLOCK_ROWS + 7, 2)), 1, 3),
])
def test_wandering_blocks_give_the_dense_bits(f, cloud, nu, n_max,
                                               monkeypatch):
    rep = wandering_check(f, cloud, 1e-4, nu, n_max)
    # the unblocked formula: one dense (N, N, d) difference per pair
    monkeypatch.setattr(koopman, "_cloud_distance", lambda a, b, domain:
                        float(np.min(domain.norm_of(a[:, None, :]
                                                    - b[None, :, :]))))
    ref = wandering_check(f, cloud, 1e-4, nu, n_max)
    assert rep == ref
    assert rep.min_separation.hex() == ref.min_separation.hex()


def test_wandering_memory_stays_within_blocks():
    # a dense walk holds an (N, N) array of differences and one of their
    # norms per pair of iterates, 61 MiB here; the blocked walk holds one
    # block of _BLOCK_ROWS rows by N of each, and one more block covers
    # the clouds and the stretch estimate
    n = 2000
    cloud = np.linspace(0.0, 0.5, n).reshape(-1, 1)
    f = build_translation([1.0], Domain(dim=1))
    tracemalloc.start()
    try:
        rep = wandering_check(f, cloud, 1e-4, nu=1, n_max=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "wandering"
    block = _BLOCK_ROWS * n * np.dtype(float).itemsize
    assert peak < 3 * block


def test_periodic_obstruction_both_directions():
    dom = Domain(dim=1)
    f = primitive(dom, lambda p: 1.0 - p, lambda p: 1.0 - p, "1-x")
    orbit = np.array([[0.3], [0.7]])
    hit = periodic_obstruction(f, alpha=1.2, lambda_r=1.0, orbit=orbit, p=2)
    assert hit.obstructed
    assert hit.factor == pytest.approx(1.44, abs=1e-12)
    clear = periodic_obstruction(f, alpha=1.2, lambda_r=0.5, orbit=orbit, p=2)
    assert not clear.obstructed


def test_periodic_obstruction_raises_on_an_orbit_image_that_is_not_finite():
    # f = x/2 is NaN on (3, 3.5): the NaN round-trip error compared false
    # with the tolerance, so the orbit passed as periodic and the report
    # read "no obstruction: (alpha*lambda_r)^p = 0.36 <= 1"
    f = primitive(Domain(dim=1),
                  lambda p: np.where((p > 3.0) & (p < 3.5), np.nan, 0.5 * p),
                  lambda p: 2.0 * p, "x/2, NaN on (3, 3.5)")
    with pytest.raises(EvaluationError,
                       match=r"not finite on orbit at \[3\.2\]"):
        periodic_obstruction(f, alpha=1.2, lambda_r=0.5,
                             orbit=np.array([[3.2], [3.3]]), p=2)


def test_periodic_obstruction_rejects_an_undetermined_lambda_r():
    # an undetermined r_lipschitz value is NaN, and (alpha * NaN)^p > 1 is
    # false, so the report read "no obstruction: ... = nan <= 1"
    f = build_pure_linear(-1.0, Domain(dim=1))
    with pytest.raises(ValueError, match="alpha \\* lambda_r is NaN"):
        periodic_obstruction(f, alpha=1.2, lambda_r=np.nan,
                             orbit=np.array([[1.0], [-1.0]]), p=2)


def test_periodic_obstruction_verifies_the_orbit():
    dom = Domain(dim=1)
    f = primitive(dom, lambda p: 1.0 - p, lambda p: 1.0 - p, "1-x")
    with pytest.raises(ValueError):
        periodic_obstruction(f, 1.2, 1.0, np.array([[0.3], [0.6]]), p=2)
    with pytest.raises(ValueError):
        periodic_obstruction(f, 1.2, 1.0, np.array([[0.3]]), p=2)
