"""Gauges, scale/growth functions, domains, and the sampling machinery."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homconj import (
    CrossConstants,
    Domain,
    Gauge,
    RadialFn,
    SampleScheme,
    Tolerances,
    builtin_triple,
    compose,
    doubling_sample_sets,
    exhaustion_sets,
    gauge_from_growth,
    identity,
    make_radial,
    primitive,
    sample_points,
    validate_gauge,
    validate_scale_pair,
)
from homconj.funcspace import (
    _TABLE_CACHE_SIZE,
    _norm_geometry,
    _table_gauge,
    _top_table,
    doubling_radii,
)


# ===================================================================
# tolerances and constants
# ===================================================================

def test_tolerances_reject_nonpositive():
    with pytest.raises(ValueError):
        Tolerances(tau_abs=0.0)
    with pytest.raises(ValueError):
        Tolerances(kappa_div=-1.0)


def test_cross_constants_positive():
    with pytest.raises(ValueError):
        CrossConstants(a=0.0, b=1.0)


def test_builtin_evals_exact():
    u = np.array([0.0, 1.0, 4.0])
    assert np.array_equal(make_radial("identity").eval(u), u)
    assert np.array_equal(make_radial("sqrt_plus").eval(u),
                          np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(make_radial("linear_plus").eval(u),
                          np.array([1.0, 2.0, 5.0]))
    with pytest.raises(ValueError):
        make_radial("cubic")


# ===================================================================
# domains
# ===================================================================

def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(dim=0)
    with pytest.raises(ValueError):
        Domain(dim=2, region="half_line")
    with pytest.raises(ValueError):
        Domain(dim=1, region="torus")
    with pytest.raises(ValueError):
        Domain(dim=1, region="box_minus_ball")  # needs inner_radius


def test_domain_contains():
    ray = Domain(dim=1, region="half_line")
    assert bool(ray.contains(np.array([[1.0]]))[0])
    assert not bool(ray.contains(np.array([[-1.0]]))[0])

    punctured = Domain(dim=2, region="box_minus_ball", inner_radius=0.5)
    assert not bool(punctured.contains(np.zeros((1, 2)), slack=0.0)[0])
    assert bool(punctured.contains(np.array([[1.0, 0.0]]))[0])


@pytest.mark.parametrize("domain", [
    Domain(dim=1, region="half_line"),
    Domain(dim=2),
    Domain(dim=2, bounds=((-np.inf, 3.0), (-1.0, np.inf))),
    Domain(dim=2, region="box_minus_ball", inner_radius=0.5, norm="sup"),
], ids=["half_line", "unbounded_box", "half_bounded_box", "box_minus_ball"])
def test_domain_contains_no_nan_row(domain):
    # contains compares finite bounds only; a NaN coordinate must still
    # fail, as it failed the comparison with an infinite bound
    rng = np.random.default_rng(3)
    values = np.array([np.nan, np.inf, -np.inf, 0.0, 0.25, -2.0, 5.0, 1e300])
    pts = rng.choice(values, size=(400, domain.dim))
    pts[:8, 0] = values
    got = domain.contains(pts)
    want = ~np.isnan(pts).any(axis=1)
    for j, (lo, hi) in enumerate(domain.bounds):
        want &= (pts[:, j] >= lo - 1e-9) & (pts[:, j] <= hi + 1e-9)
    if domain.region == "box_minus_ball":
        want &= domain.norm_of(pts) >= domain.inner_radius - 1e-9
    np.testing.assert_array_equal(got, want)
    assert not got[0] and got.any()


def test_domain_bounds_are_normalized():
    # a list of lists, ints and numpy scalars give the same hashable domain
    as_list = Domain(dim=1, bounds=[[0, 5]])
    as_tuple = Domain(dim=1, bounds=((0.0, np.float64(5.0)),))
    assert as_list.bounds == ((0.0, 5.0),)
    assert all(type(v) is float for v in as_list.bounds[0])
    assert as_list == as_tuple
    assert hash(as_list) == hash(as_tuple)
    f = primitive(as_list, lambda p: p + 1.0, lambda p: p - 1.0, "shift")
    assert compose(f, identity(as_tuple)).domain == as_tuple


def test_gauge_constructor_ordering():
    growth = make_radial("linear_plus")
    dom = Domain(dim=1)
    with pytest.raises(ValueError):
        gauge_from_growth(growth, dom, beta=0.5, gamma=2.0, m=1.0)
    with pytest.raises(ValueError):
        Gauge(eval=lambda p: p, beta=2.0, gamma=0.5, m=0.0)


# ===================================================================
# sampling
# ===================================================================

def test_sample_points_deterministic_and_contained(half_dom):
    sch = SampleScheme(window_radius=8.0)
    a = sample_points(half_dom, sch)
    b = sample_points(half_dom, sch)
    assert np.array_equal(a, b)
    assert np.all(half_dom.contains(a))
    assert np.all(half_dom.norm_of(a) <= 8.0 * (1 + 1e-9))
    # the origin anchor and the dyadic ladder are present
    assert np.min(half_dom.norm_of(a)) == 0.0
    norms = np.sort(half_dom.norm_of(a))
    assert norms[1] < 1e-12  # deepest ladder rung sits near the origin


def test_sample_points_unique_rows(half_dom):
    pts = sample_points(half_dom, SampleScheme(window_radius=2.0))
    assert np.unique(pts, axis=0).shape[0] == pts.shape[0]


def test_doubling_sets_are_nested(half_dom):
    sch = SampleScheme(window_radius=4.0, grid_points_per_axis=11,
                       quasirandom_count=8)
    sets = doubling_sample_sets(half_dom, sch)
    assert [r for r, _ in sets] == [4.0, 8.0, 16.0, 32.0]
    for (_, small), (_, big) in zip(sets, sets[1:]):
        small_rows = {tuple(row) for row in small}
        big_rows = {tuple(row) for row in big}
        assert small_rows <= big_rows


@pytest.mark.parametrize("domain", [
    Domain(dim=1, region="half_line"),
    Domain(dim=1, region="box_minus_ball", inner_radius=0.125),
    Domain(dim=2),
], ids=["half_line", "box_minus_ball", "box-2d"])
def test_sample_tables_equal_the_level_by_level_build(domain):
    # one unique over all levels gives, level by level and bit for bit (as
    # uint64, so the sign of a zero counts), the running unique of the
    # level samples; the compacts are cut from the base window's sample
    def bits(pts):
        return pts.shape, pts.view(np.uint64).tobytes()

    for seed in (1, 7919):
        sch = SampleScheme(window_radius=4.0, grid_points_per_axis=11,
                           quasirandom_count=8, seed=seed)
        acc = None
        for radius, pts in doubling_sample_sets(domain, sch):
            level = sample_points(domain, sch, radius=radius)
            acc = level if acc is None else np.unique(
                np.concatenate([acc, level], axis=0), axis=0)
            assert bits(pts) == bits(acc)
        base = sample_points(domain, sch)
        norms = domain.norm_of(base)
        for k, pts in enumerate(exhaustion_sets(domain, sch)):
            cut = min(4.0, float(2 ** k)) * (1.0 + 1e-12)
            assert bits(pts) == bits(base[norms <= cut])


def _table_keys():
    # the half line at window 8, both 2-d norms at window 4 with 21 grid
    # points and the 1-d box the premetric benchmark samples, seeds 0-9
    keys = []
    for seed in range(10):
        keys += [
            (Domain(dim=1, region="half_line"),
             SampleScheme(window_radius=8.0, seed=seed)),
            (Domain(dim=2, norm="euclidean"),
             SampleScheme(window_radius=4.0, grid_points_per_axis=21,
                          seed=seed)),
            (Domain(dim=2, norm="sup"),
             SampleScheme(window_radius=4.0, grid_points_per_axis=21,
                          seed=seed)),
            (Domain(dim=1, region="box"),
             SampleScheme(window_radius=4.0, grid_points_per_axis=9,
                          quasirandom_count=8, exhaustion_levels=2,
                          seed=seed)),
        ]
    return keys


def test_sample_tables_equal_the_per_level_unique_build():
    # one unique over the raw points of all levels gives the tables built
    # by sorting each level with sample_points and then uniting the sorted
    # levels, bit for bit (as uint64, so the sign of a zero counts)
    for domain, sch in _table_keys():
        radii = doubling_radii(sch)
        levels = [sample_points(domain, sch, radius=r) for r in radii]
        level = np.repeat(np.arange(len(levels)), [len(v) for v in levels])
        pts, first = np.unique(np.concatenate(levels), axis=0,
                               return_index=True)
        table = doubling_sample_sets.__wrapped__(domain, sch)
        for k, (radius, got) in enumerate(table):
            want = pts[level[first] <= k]
            assert radius == radii[k]
            assert got.shape == want.shape
            assert got.view(np.uint64).tobytes() \
                == want.view(np.uint64).tobytes()


def test_sampling_rejects_a_window_it_cannot_sample():
    # a box beyond the window, and a corner of the plane whose points all
    # lie outside the window's ball, whether sampled alone or per level
    far = Domain(dim=1, bounds=((5.0, 10.0),))
    corner = Domain(dim=2, bounds=((1.5, 3.0), (1.5, 3.0)))
    sch = SampleScheme(window_radius=2.0)
    for sample in (sample_points, doubling_sample_sets.__wrapped__):
        with pytest.raises(ValueError, match="does not intersect"):
            sample(far, sch)
        with pytest.raises(ValueError, match="empty window"):
            sample(corner, sch)


def test_doubling_radii():
    sch = SampleScheme(window_radius=3.0)
    assert doubling_radii(sch) == (3.0, 6.0, 12.0, 24.0)


def test_sample_tables_are_memoized_read_only(half_dom):
    def key():
        return half_dom, SampleScheme(window_radius=4.0, seed=3,
                                      grid_points_per_axis=11,
                                      quasirandom_count=8)

    for table, arrays in ((doubling_sample_sets, lambda t: [p for _, p in t]),
                          (exhaustion_sets, list)):
        first = table(*key())
        assert table(*key()) is first   # equal keys, the very same arrays
        fresh = table.__wrapped__(*key())
        for pts, ref in zip(arrays(first), arrays(fresh), strict=True):
            assert np.array_equal(pts, ref)
            with pytest.raises(ValueError):
                pts[0, 0] = 1.0


def test_table_geometry_is_computed_once_per_table(table_caches):
    # the top table's geometry and gauge values are cached by value, per
    # (domain, scheme) and per (gauge, domain, scheme), read-only and
    # equal to a fresh computation bit for bit
    tables, gauges, _ = table_caches
    for domain in (Domain(dim=1, region="half_line"),
                   Domain(dim=2, norm="sup")):
        for seed in (0, 1):
            def sch():
                return SampleScheme(window_radius=4.0, grid_points_per_axis=9,
                                    quasirandom_count=8, seed=seed)

            radii = doubling_radii(sch())
            phi = builtin_triple("sqrt_plus", domain)[3]
            table = _top_table(domain, sch())
            assert _top_table(dataclasses.replace(domain), sch()) is table
            pts, geo = table
            assert pts is doubling_sample_sets(domain, sch())[-1][1]
            fresh = _norm_geometry(domain.norm_of(pts.copy()), radii)
            assert geo.radii == fresh.radii and geo.cuts == fresh.cuts
            assert geo.radius == fresh.radius == np.max(fresh.norms)
            for a, b in ((geo.norms, fresh.norms), (geo.order, fresh.order)):
                assert a.tobytes() == b.tobytes() and not a.flags.writeable
            cached = _table_gauge(phi, domain, sch())
            assert _table_gauge(phi, domain, sch()) is cached
            values, valid = cached
            assert values.tobytes() == phi.eval(pts).tobytes() and valid
            assert not values.flags.writeable
    # each key once, and at most _TABLE_CACHE_SIZE entries per cache
    for cache in (tables, gauges):
        info = cache.cache_info()
        assert (info.currsize, info.misses) == (4, 4)
        assert info.maxsize == _TABLE_CACHE_SIZE


def test_exhaustion_sets_nested(half_dom):
    sch = SampleScheme(window_radius=8.0, exhaustion_levels=4)
    levels = exhaustion_sets(half_dom, sch)
    assert len(levels) == 5
    for k, pts in enumerate(levels):
        cut = min(8.0, 2.0 ** k)
        assert np.all(half_dom.norm_of(pts) <= cut * (1 + 1e-9))
    for small, big in zip(levels, levels[1:]):
        assert small.shape[0] <= big.shape[0]


@settings(max_examples=25, deadline=None)
@given(radius=st.floats(min_value=0.5, max_value=64.0),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_sampling_respects_window_property(radius, seed):
    dom = Domain(dim=2)
    sch = SampleScheme(window_radius=radius, grid_points_per_axis=7,
                       quasirandom_count=16, seed=seed)
    pts = sample_points(dom, sch)
    assert np.all(dom.norm_of(pts) <= radius * (1 + 1e-9))
    assert np.array_equal(pts, sample_points(dom, sch))


# ===================================================================
# validation of scale pairs and gauges
# ===================================================================

def test_sqrt_triple_validates(half_dom, scheme):
    growth, r, cross, phi = builtin_triple("sqrt_plus", half_dom)
    rep = validate_scale_pair(growth, r, cross, scheme)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    gauge_rep = validate_gauge(phi, growth, half_dom, scheme)
    assert gauge_rep.passed, [c.name for c in gauge_rep.checks
                              if not c.passed]


def test_cross_bound_is_tight_at_five_quarters(half_dom, scheme):
    # sup of sqrt(u) + 1 - u sits exactly at 5/4, so b = 1.2 must fail
    growth, r, _, _ = builtin_triple("sqrt_plus", half_dom)
    bad = validate_scale_pair(growth, r, CrossConstants(a=1.0, b=1.2), scheme)
    assert not bad.passed
    assert bad.margin_of("cross_bound") > 0.0


def test_squared_scale_fails_subadditivity(half_dom, scheme):
    growth = make_radial("linear_plus")
    r2 = RadialFn(eval=lambda u: np.asarray(u, float) ** 2, kind="square")
    rep = validate_scale_pair(growth, r2, CrossConstants(a=1.0, b=1.0), scheme)
    assert rep.margin_of("r_subadditive") > 0.0
    assert not rep.passed


def test_flat_gauge_fails_cone_and_coercivity(half_dom, scheme):
    growth = make_radial("sqrt_plus")
    flat = Gauge(eval=lambda p: np.ones(np.atleast_2d(p).shape[0]),
                 beta=2.0, gamma=0.5, m=1.0, label="flat")
    rep = validate_gauge(flat, growth, half_dom, scheme)
    names = {c.name: c.passed for c in rep.checks}
    assert not names["cone_lower"]
    assert not names["coercive_shell_growth"]
    # the shell minima are both 1, so the growth falls short by tau_abs
    tau_abs = Tolerances().tau_abs
    assert rep.margin_of("coercive_shell_growth") == 1.0 + tau_abs - 1.0
    shipped = validate_gauge(builtin_triple("sqrt_plus", half_dom)[3],
                             growth, half_dom, scheme)
    assert shipped.passed
    assert shipped.margin_of("coercive_shell_growth") == 0.0


def per_level_gauge_rule(phi, growth, domain, scheme):
    """name -> (margin, witness) of the pointwise gauge conditions, folded
    level by level: a level's largest excess replaces the running one only
    when strictly larger, and the margin is the excess clipped at 0."""
    worst = dict.fromkeys(("floor_m", "cone_lower", "cone_upper"),
                          (-np.inf, None))
    for _, pts in doubling_sample_sets(domain, scheme):
        vals = phi.eval(pts)
        rn = growth.eval(domain.norm_of(pts))
        for name, excess in (("floor_m", phi.m - vals),
                             ("cone_lower", phi.gamma * rn - vals),
                             ("cone_upper", vals - phi.beta * rn)):
            i = int(np.argmax(excess))
            if excess[i] > worst[name][0]:
                worst[name] = (float(excess[i]), tuple(pts[i]))
    return {name: (max(0.0, excess), witness)
            for name, (excess, witness) in worst.items()}


def test_gauge_margins_are_the_per_level_rule(half_dom, scheme):
    growth = make_radial("sqrt_plus")
    flat = Gauge(eval=lambda p: np.ones(np.atleast_2d(p).shape[0]),
                 beta=2.0, gamma=0.5, m=1.0, label="flat")
    # the shipped gauge, except 1/2 < m at one point first sampled at the
    # second level
    levels = doubling_sample_sets(half_dom, scheme)
    dip = float(np.setdiff1d(levels[1][1][:, 0], levels[0][1][:, 0])[3])
    sqrt_gauge = builtin_triple("sqrt_plus", half_dom)[3]
    dipped = Gauge(eval=lambda p: np.where(
        np.atleast_2d(p)[:, 0] == dip, 0.5, sqrt_gauge.eval(p)),
        beta=2.0, gamma=0.5, m=1.0, label="dipped")
    for phi in (flat, dipped):
        rep = validate_gauge(phi, growth, half_dom, scheme)
        for name, (margin, witness) in per_level_gauge_rule(
                phi, growth, half_dom, scheme).items():
            check = next(c for c in rep.checks if c.name == name)
            assert check.margin == margin
            assert check.passed == (margin == 0.0)
            assert check.witness == witness
    rep = validate_gauge(dipped, growth, half_dom, scheme)
    assert rep.margin_of("floor_m") == 0.5
    assert next(c for c in rep.checks if c.name == "floor_m").witness == (dip,)


def test_validate_gauge_evaluates_the_inner_level_and_the_top_only(
        half_dom, scheme, table_caches):
    # every level is a subset of the top table, whose values are cached
    sqrt_gauge = builtin_triple("sqrt_plus", half_dom)[3]
    rows = []

    def counted(p):
        rows.append(p.shape[0])
        return sqrt_gauge.eval(p)

    phi = Gauge(eval=counted, beta=2.0, gamma=0.5, m=1.0, label="counted")
    growth = make_radial("sqrt_plus")
    (_, inner), *_, (_, top) = doubling_sample_sets(half_dom, scheme)
    rep = validate_gauge(phi, growth, half_dom, scheme)
    assert rows == [top.shape[0], inner.shape[0]]
    assert repr(rep) == repr(validate_gauge(sqrt_gauge, growth, half_dom,
                                            scheme))
    validate_gauge(phi, growth, half_dom, scheme)
    assert rows[2:] == [inner.shape[0]]
    # a value that is not finite past the inner level raises, every call
    for bad in (np.inf, np.nan):
        phi = Gauge(eval=lambda p, bad=bad: np.where(p[:, 0] > 30.0, bad,
                                                     1.0),
                    beta=2.0, gamma=0.5, m=1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="^gauge evaluated to a "
                               "non-finite value$"):
                validate_gauge(phi, growth, half_dom, scheme)


def test_nan_growth_fails_the_cone_with_nan_margins(half_dom, scheme):
    # R is NaN beyond u = 30, so both cone conditions are undefined there:
    # each fails, and its margin is NaN, not the clean 0.0
    nan_growth = RadialFn(lambda u: np.where(
        np.asarray(u) > 30.0, np.nan, np.sqrt(u) + 1.0), "nan_beyond_30")
    phi = builtin_triple("sqrt_plus", half_dom)[3]
    rep = validate_gauge(phi, nan_growth, half_dom, scheme)
    for name in ("cone_lower", "cone_upper"):
        check = next(c for c in rep.checks if c.name == name)
        assert not check.passed and np.isnan(check.margin)
        assert check.witness[0] > 30.0
    assert rep.margin_of("floor_m") == 0.0

    pair = validate_scale_pair(nan_growth, make_radial("identity"),
                               CrossConstants(a=1.0, b=1.25), scheme)
    for name in ("R_positive", "R_subadditive", "cross_bound"):
        check = next(c for c in pair.checks if c.name == name)
        assert not check.passed and np.isnan(check.margin)
