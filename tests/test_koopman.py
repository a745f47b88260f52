"""Composition-operator estimates, linearization, and recurrence diagnostics."""

import tracemalloc

import numpy as np
import pytest

from homconj import (
    ConvergenceError,
    Domain,
    SampleScheme,
    Tolerances,
    abel_check,
    build_contraction_pair,
    build_lozi,
    build_perturbed_linear,
    build_pure_linear,
    build_translation,
    check_p_alpha,
    identity,
    invert,
    koenigs_eigenfunction,
    make_scale,
    periodic_obstruction,
    primitive,
    r_lipschitz,
    sample_points,
    schroeder_functional_check,
    wandering_check,
)
from homconj.families import BumpSpec
from homconj.funcspace import (
    RadialFn,
    _pair_indices,
    doubling_radii,
    doubling_sample_sets,
)
from homconj.homspace import EvaluationError, _classify, _shell_trace
from homconj.koopman import (
    PAIR_CAP,
    _BLOCK_ROWS,
    _SEP_FLOOR,
    RLipschitzEstimate,
    _near_partners,
    _pair_cloud,
)


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
    r = make_scale("identity")
    est = r_lipschitz(mp, r, scheme_fast)
    assert est.finiteness == "finite"
    assert est.value <= 1.4 + 1.0 + 1e-9
    assert est.value > 1.0


def reference_r_lipschitz(f, r, scheme, tol=Tolerances(), pair_cap=PAIR_CAP):
    """The ordered-pair estimator r_lipschitz replaced: f on both pair
    arrays, every (i, j) of the strided cloud visited."""
    domain = f.domain
    pts = doubling_sample_sets(domain, scheme)[-1][1]
    partners = _near_partners(pts, domain, scheme.seed)
    keep = domain.contains(partners, slack=0.0)
    cloud = np.concatenate([pts, partners[keep]], axis=0)
    i, j = _pair_indices(cloud.shape[0], pair_cap)
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
                                  _shell_trace(radii, sep, shell), 0)
    fx, fy = f.forward(x), f.forward(y)
    if np.any(~np.isfinite(fx)) or np.any(~np.isfinite(fy)):
        raise EvaluationError(f"map {f.label!r} not finite on pair samples")
    ratio = r.eval(domain.norm_of(fx - fy)) / sep

    trace = _shell_trace(radii, ratio, shell)
    k = int(np.argmax(ratio))
    best = float(ratio[k])
    witness = (x[k].copy(), y[k].copy())

    finiteness = _classify(trace, tol.kappa_div, tol.tau_abs, tol.rel)
    return RLipschitzEstimate(best, witness, finiteness, trace, total_pairs)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _reference_cases():
    sqrt_r = make_scale("sqrt_plus")
    ident = make_scale("identity")
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
            # a 300-pair cap strides the cloud down to at most 18 points
            cases.append(("pair0.25-g-strided", b.g, b.r, scheme, 300))
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
    return cases


def _assert_same_estimate(new, ref):
    assert _same_bits(new.value, ref.value)
    assert _same_bits(new.witness_pair[0], ref.witness_pair[0])
    assert _same_bits(new.witness_pair[1], ref.witness_pair[1])
    assert repr(new.window_trace) == repr(ref.window_trace)
    assert new.finiteness == ref.finiteness
    assert new.pair_count == ref.pair_count


@pytest.mark.parametrize("label, f, r, scheme, cap", _reference_cases(),
                         ids=[c[0] for c in _reference_cases()])
def test_r_lipschitz_matches_ordered_pair_reference(label, f, r, scheme, cap):
    # one forward pass per point over unordered pairs gives the same bits
    # as evaluating f on both ordered-pair arrays
    _assert_same_estimate(r_lipschitz(f, r, scheme, pair_cap=cap),
                          reference_r_lipschitz(f, r, scheme, pair_cap=cap))


def _block_boundary_cases():
    # caps that stride each cloud to a given row count; the walk visits
    # rows 0 .. rows - 2, so 65 rows fill one block exactly and 66 spill
    # one row into a second
    light = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                         quasirandom_count=8, exhaustion_levels=2)
    lozi = build_lozi(1.4, 0.3)
    g = build_contraction_pair(0.25).g
    half = SampleScheme(window_radius=8.0)
    ident, sqrt_r = make_scale("identity"), make_scale("sqrt_plus")
    return [
        ("lozi-2-rows", lozi, ident, light, 2, 2),
        ("lozi-63-rows", lozi, ident, light, 3888, 63),
        ("lozi-64-rows", lozi, ident, light, 4045, 64),
        ("lozi-65-rows", lozi, ident, light, 4212, 65),
        ("lozi-66-rows", lozi, ident, half, 4246, 66),
        ("pair-g-2-rows", g, sqrt_r, half, 2, 2),
        ("pair-g-63-rows", g, sqrt_r, half, 3927, 63),
        ("pair-g-65-rows", g, sqrt_r, half, 4142, 65),
    ]


@pytest.mark.parametrize("label, f, r, scheme, cap, rows",
                         _block_boundary_cases(),
                         ids=[c[0] for c in _block_boundary_cases()])
def test_r_lipschitz_matches_reference_at_block_boundaries(label, f, r,
                                                           scheme, cap, rows):
    assert _BLOCK_ROWS == 64
    assert _pair_cloud(f.domain, scheme, cap).shape[0] == rows
    _assert_same_estimate(r_lipschitz(f, r, scheme, pair_cap=cap),
                          reference_r_lipschitz(f, r, scheme, pair_cap=cap))


def test_r_lipschitz_stride_path_is_taken():
    b = build_contraction_pair(0.25)
    scheme = SampleScheme(window_radius=8.0)
    # at most 18 strided points, so at most 18 * 17 ordered pairs
    assert 0 < r_lipschitz(b.g, b.r, scheme, pair_cap=300).pair_count <= 306
    assert r_lipschitz(b.g, b.r, scheme).pair_count > 100_000


def test_r_lipschitz_raises_on_a_non_finite_image(half_dom, sqrt_triple, scheme):
    _, r, _, _ = sqrt_triple
    f = primitive(half_dom, lambda p: np.where(p > 20.0, np.inf, p),
                  lambda p: p, "blowup")
    with pytest.raises(EvaluationError, match="not finite on pair samples"):
        r_lipschitz(f, r, scheme)


def test_r_lipschitz_without_pairs_is_undetermined(half_dom, sqrt_triple):
    _, r, _, _ = sqrt_triple
    f = primitive(half_dom, lambda p: 2.0 * p, lambda p: p / 2.0, "2x")
    # a 2-pair cap strides the cloud down to its first point alone
    est = r_lipschitz(f, r, SampleScheme(window_radius=8.0), pair_cap=1)
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
    est = r_lipschitz(f, bundle_025.r, scheme)
    cloud_rows = _pair_cloud(bundle_025.domain, scheme, PAIR_CAP).shape[0]
    assert rows == [cloud_rows]
    assert est.pair_count > 100 * cloud_rows

    # the gate walks the cloud once for f and g together: each map runs
    # once on the cloud, then once per doubling table for its slack
    f_rows, g_rows = [], []
    check_p_alpha(_counting(bundle_025.f, f_rows),
                  _counting(bundle_025.g, g_rows), bundle_025.phi,
                  bundle_025.r, bundle_025.alpha, scheme)
    tables = [p.shape[0] for _, p in
              doubling_sample_sets(bundle_025.domain, scheme)]
    assert f_rows == g_rows == [cloud_rows] + tables


def test_r_lipschitz_memory_stays_within_blocks():
    # one call on the 2-d Lozi cloud (about 930k ordered pairs) holds a few
    # row blocks of pairs, not arrays over every pair of the cloud
    lozi = build_lozi(1.4, 0.3)
    scheme = SampleScheme(window_radius=8.0, seed=31337)
    doubling_sample_sets(lozi.domain, scheme)
    tracemalloc.start()
    try:
        est = r_lipschitz(lozi, make_scale("identity"), scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.pair_count > 900_000
    assert peak < 12 * 2 ** 20


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


def test_periodic_obstruction_both_directions():
    dom = Domain(dim=1)
    f = primitive(dom, lambda p: 1.0 - p, lambda p: 1.0 - p, "1-x")
    orbit = np.array([[0.3], [0.7]])
    hit = periodic_obstruction(f, alpha=1.2, lambda_r=1.0, orbit=orbit, p=2)
    assert hit.obstructed
    assert hit.factor == pytest.approx(1.44, abs=1e-12)
    clear = periodic_obstruction(f, alpha=1.2, lambda_r=0.5, orbit=orbit, p=2)
    assert not clear.obstructed


def test_periodic_obstruction_verifies_the_orbit():
    dom = Domain(dim=1)
    f = primitive(dom, lambda p: 1.0 - p, lambda p: 1.0 - p, "1-x")
    with pytest.raises(ValueError):
        periodic_obstruction(f, 1.2, 1.0, np.array([[0.3], [0.6]]), p=2)
    with pytest.raises(ValueError):
        periodic_obstruction(f, 1.2, 1.0, np.array([[0.3]]), p=2)
