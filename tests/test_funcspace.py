"""Gauges, scale/growth functions, domains, and the sampling machinery."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homconj import (
    BUILTIN_TRIPLE_NAMES,
    ConditionCheck,
    CrossConstants,
    Domain,
    Gauge,
    RadialFn,
    SampleScheme,
    ValidationReport,
    builtin_triple,
    compose,
    displacement,
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
from conftest import churn_tables
from homconj import funcspace
from homconj.funcspace import (
    _GRID_ROWS_MAX,
    _PAIR_BLOCK_CELLS,
    _TABLE_CACHE_SIZE,
    _TAU_ABS,
    _distinct_rows,
    _first_max,
    _norm_geometry,
    _pair_checks,
    _positive_check,
    _sampling_problem,
    _scale_pair_report,
    _strided_subset,
    _table,
    _table_gauge,
    _u_samples,
    _window_points,
    doubling_radii,
)


# ===================================================================
# constants
# ===================================================================

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


@pytest.mark.parametrize("norm", ["euclidean", "sup"])
def test_one_dimensional_norm_is_the_absolute_value(norm):
    # sqrt(x * x) overflows to inf above about 1.34e154, with a warning
    # that fails here, and loses bits below about 1.5e-154: 1e-170 read 0
    domain = Domain(dim=1, norm=norm)
    x = np.array([1e200, -1e200, 1e-170, -1e-170, 5e-324, -0.0, 3.0,
                  -np.inf])
    for pts in (x[:, None], x[:, None, None]):
        got = domain.norm_of(pts)
        assert got.shape == pts.shape[:-1]
        assert got.ravel().tobytes() == np.abs(x).tobytes()
    assert domain.fold_norm([x]).tobytes() == np.abs(x).tobytes()
    moderate = np.array([1e-150, 0.1, 3.0, 7.5e153])
    assert domain.norm_of(moderate[:, None]).tobytes() \
        == np.sqrt(moderate * moderate).tobytes()


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


@pytest.mark.parametrize("field, value", [
    ("window_radius", 0.0), ("grid_points_per_axis", 1),
    ("quasirandom_count", -1), ("exhaustion_levels", 0), ("seed", -1),
    ("window_radius", math.inf)])
def test_sample_scheme_rejects_what_sampling_cannot_honour(field, value):
    # numpy's seed sequence takes no negative entropy, so a negative seed
    # must fail here, not at the first table built from the scheme; an
    # infinite radius failed at the first table with an OverflowError
    with pytest.raises(ValueError, match=f"{field} must be"):
        SampleScheme(**{"window_radius": 8.0, field: value})
    SampleScheme(window_radius=8.0, seed=0)


def test_a_window_that_cannot_be_sampled_is_rejected_before_any_is_built(
        monkeypatch, table_caches):
    # 41 ** 5 grid rows a window would be 4.6 GB; dim 9 has no quasirandom
    # points.  Neither builds a window before it is rejected
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(funcspace, "_window_points", no_window)
    cases = [
        (5, SampleScheme(window_radius=8.0),
         r"grid_points_per_axis: 41 \*\* 5 = 115,856,201 grid rows"),
        (9, SampleScheme(window_radius=8.0, grid_points_per_axis=2),
         "quasirandom_count: quasirandom sampling supports dim <= 8")]
    for dim, scheme, message in cases:
        domain = Domain(dim=dim, region="box")
        for build in (_table, sample_points):
            with pytest.raises(ValueError, match=message):
                build(domain, scheme)
    # the bound holds the grid, not the points around it
    edge = round(_GRID_ROWS_MAX ** (1 / 3))
    assert edge ** 3 == _GRID_ROWS_MAX
    assert _sampling_problem(3, SampleScheme(8.0, edge, 10**6)) is None
    assert _sampling_problem(3, SampleScheme(8.0, edge + 1, 0))
    assert _sampling_problem(9, SampleScheme(8.0, 2, 0)) is None


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
        table = _table.__wrapped__(domain, sch).levels
        for k, (radius, got) in enumerate(table):
            want = pts[level[first] <= k]
            assert radius == radii[k]
            assert got.shape == want.shape
            assert got.view(np.uint64).tobytes() \
                == want.view(np.uint64).tobytes()


def _dedup_battery():
    # every region, both norms, one to three axes, and grids both coarse
    # and fine enough that the window levels share many rows
    domains = [Domain(dim=1, region="half_line"), Domain(dim=1),
               Domain(dim=2), Domain(dim=2, norm="sup"),
               Domain(dim=2, region="box_minus_ball", inner_radius=0.5),
               Domain(dim=3), Domain(dim=3, norm="sup"),
               Domain(dim=3, region="box_minus_ball", inner_radius=0.5,
                      norm="sup")]
    for domain in domains:
        for seed in (0, 7919):
            for grid in (5, 11):
                yield domain, SampleScheme(window_radius=4.0,
                                           grid_points_per_axis=grid,
                                           quasirandom_count=8, seed=seed)


@pytest.mark.parametrize("domain, sch", list(_dedup_battery()))
def test_distinct_rows_are_the_rows_np_unique_keeps(domain, sch):
    # the raw points of a table's four levels, and of one level, give the
    # bits (as uint64, so the sign of a zero counts) and first indices of
    # np.unique
    def bits(pts):
        return pts.shape, pts.view(np.uint64).tobytes()

    raw = np.concatenate([_window_points(domain, sch, radius)
                          for radius in doubling_radii(sch)])
    pts, first = _distinct_rows(raw)
    want, want_first = np.unique(raw, axis=0, return_index=True)
    assert bits(pts) == bits(want)
    assert np.array_equal(first, want_first)
    level = _window_points(domain, sch, None)
    assert bits(_distinct_rows(level)[0]) == bits(np.unique(level, axis=0))
    assert bits(sample_points(domain, sch)) == bits(np.unique(level, axis=0))


def test_distinct_rows_keep_the_first_of_rows_equal_but_for_signed_zeros():
    x = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [2.0, 0.0],
                  [0.0, 1.0], [-1.0, 3.0]])
    pts, first = _distinct_rows(x)
    want, want_first = np.unique(x, axis=0, return_index=True)
    assert pts.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    assert first.tolist() == want_first.tolist() == [5, 0, 2]
    u = np.concatenate([np.linspace(0.0, 8.0, 17), np.linspace(0.0, 4.0, 9),
                        np.random.default_rng(3).random(50) * 4.0])
    assert _distinct_rows(u[:, None])[0][:, 0].tobytes() \
        == np.unique(u).tobytes()


def test_sampling_imports_no_masked_arrays():
    # np.unique imports numpy.ma on first use, about 5 ms of a CLI run
    code = (
        "import sys\n"
        "from homconj import (CrossConstants, Domain, SampleScheme,\n"
        "                     make_radial, sample_points,\n"
        "                     validate_scale_pair)\n"
        "scheme = SampleScheme(window_radius=4.0)\n"
        "validate_scale_pair(make_radial('linear_plus'),\n"
        "                    make_radial('sqrt_plus'),\n"
        "                    CrossConstants(a=2.0, b=2.0), scheme)\n"
        "sample_points(Domain(dim=2), scheme)\n"
        "assert 'numpy.ma' not in sys.modules\n")
    import homconj
    src = str(Path(homconj.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_sampling_rejects_a_window_it_cannot_sample():
    # a box beyond the window, and a corner of the plane whose points all
    # lie outside the window's ball, whether sampled alone or per level
    far = Domain(dim=1, bounds=((5.0, 10.0),))
    corner = Domain(dim=2, bounds=((1.5, 3.0), (1.5, 3.0)))
    sch = SampleScheme(window_radius=2.0)
    for sample in (sample_points, _table.__wrapped__):
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

    for table, arrays, field in (
            (doubling_sample_sets, lambda t: [p for _, p in t], "levels"),
            (exhaustion_sets, list, "compacts")):
        first = table(*key())
        assert table(*key()) is first   # equal keys, the very same arrays
        fresh = getattr(_table.__wrapped__(*key()), field)
        for pts, ref in zip(arrays(first), arrays(fresh), strict=True):
            assert np.array_equal(pts, ref)
            with pytest.raises(ValueError):
                pts[0, 0] = 1.0


@pytest.mark.parametrize("domain", [Domain(dim=1, region="half_line"),
                                    Domain(dim=2), Domain(dim=2, norm="sup")],
                         ids=["half_line", "box2", "box2_sup"])
@pytest.mark.parametrize("seed", [1, 7919])
def test_compacts_are_rows_of_the_top_table(domain, seed):
    # each compact is the top table at its ascending row indices, bit for
    # bit; that the compacts are the norm cuts of the window's own table is
    # test_sample_tables_equal_the_level_by_level_build's to check
    sch = SampleScheme(window_radius=4.0, grid_points_per_axis=11,
                       quasirandom_count=8, seed=seed)
    top = doubling_sample_sets(domain, sch)[-1][1]
    levels = exhaustion_sets(domain, sch)
    rows = _table(domain, sch).rows
    assert len(rows) == len(levels) == sch.exhaustion_levels + 1
    for idx, pts in zip(rows, levels):
        assert not idx.flags.writeable
        assert np.all(np.diff(idx) > 0)
        assert top[idx].tobytes() == pts.tobytes()
    assert 0 < rows[0].size < rows[-1].size < top.shape[0]


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
            table = _table(domain, sch())
            assert _table(dataclasses.replace(domain), sch()) is table
            pts, geo = table.pts, table.geo
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


def test_one_table_per_key_after_churn(half_dom, table_caches):
    # every array of a key comes from its one record, so a re-read that
    # keeps part of the key's data cannot hand out a second copy of the
    # table beside the first
    sch = SampleScheme(window_radius=8.0, seed=1)
    _, r, _, phi = builtin_triple("sqrt_plus", half_dom)
    f = primitive(half_dom, lambda p: p + 0.5, lambda p: p - 0.5, "x+0.5")
    exhaustion_sets(half_dom, sch)
    before = _table(half_dom, sch)
    churn_tables(half_dom, lambda: displacement(f, phi, r, sch))
    table = _table(half_dom, sch)
    assert table is before
    assert doubling_sample_sets(half_dom, sch)[-1][1] is table.pts
    levels = exhaustion_sets(half_dom, sch)
    assert len(levels) == len(table.rows) == sch.exhaustion_levels + 1
    for k, pts in enumerate(levels):
        assert pts.tobytes() == table.pts[table.rows[k]].tobytes()


def test_compacts_are_built_on_first_use(half_dom, sqrt_triple, scheme,
                                         table_caches):
    # a table read only by displacement cuts no compact; exhaustion_sets
    # cuts them once, into the record
    _, r, _, phi = sqrt_triple
    f = primitive(half_dom, lambda p: p + 0.5, lambda p: p - 0.5, "x+0.5")
    displacement(f, phi, r, scheme)
    table = _table(half_dom, scheme)
    assert "rows" not in vars(table) and "compacts" not in vars(table)
    levels = exhaustion_sets(half_dom, scheme)
    assert vars(table)["compacts"] is levels
    assert exhaustion_sets(half_dom, scheme) is levels


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
    assert rep.margin_of("coercive_shell_growth") == 1.0 + _TAU_ABS - 1.0
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


def test_validate_gauge_evaluates_the_top_table_once(half_dom, scheme,
                                                     table_caches):
    # every level is a subset of the top table, whose values are cached:
    # the inner level reads its values and norms off the top's
    sqrt_gauge = builtin_triple("sqrt_plus", half_dom)[3]
    rows = []

    def counted(p):
        rows.append(p.shape[0])
        return sqrt_gauge.eval(p)

    phi = Gauge(eval=counted, beta=2.0, gamma=0.5, m=1.0, label="counted")
    growth = make_radial("sqrt_plus")
    top = doubling_sample_sets(half_dom, scheme)[-1][1]
    rep = validate_gauge(phi, growth, half_dom, scheme)
    assert rows == [top.shape[0]]
    assert repr(rep) == repr(validate_gauge(sqrt_gauge, growth, half_dom,
                                            scheme))
    validate_gauge(phi, growth, half_dom, scheme)
    assert rows == [top.shape[0]]
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


def dense_sup_check(name, excess, args):
    """Condition excess <= _TAU_ABS over a whole excess array, witnessed
    at its first argmax: the rule the blocked pair checks must fold to."""
    worst = float(np.max(excess)) if excess.size else 0.0
    idx = int(np.argmax(excess)) if excess.size else None
    return ConditionCheck(
        name, worst <= _TAU_ABS, float(np.maximum(0.0, worst)),
        tuple(float(np.asarray(a).ravel()[idx]) for a in args)
        if excess.size else None)


def dense_scale_pair(growth, scale, cross, scheme):
    """``validate_scale_pair`` with its dense pair grid: the reference the
    blocked pair checks must match bit for bit."""
    _sup_check = dense_sup_check
    u = _u_samples(scheme)
    upos = u[u > 0]
    Ru = growth.eval(u)
    # every pair (x, y), x == y included, of a strided subset, x outer
    sub = u[_strided_subset(u.shape[0], 250_000)]
    a_u, b_u = (x.ravel() for x in np.meshgrid(sub, sub, indexing="ij"))
    lo, hi = np.minimum(a_u, b_u), np.maximum(a_u, b_u)
    zero = np.zeros(1)
    return ValidationReport(checks=(
        _sup_check("r_zero_at_origin", np.abs(scale.eval(zero)), (zero,)),
        _positive_check("r_positive_off_origin", scale.eval(upos), upos),
        _sup_check("r_nondecreasing", scale.eval(lo) - scale.eval(hi),
                   (lo, hi)),
        _sup_check("r_subadditive", scale.eval(a_u + b_u) - scale.eval(a_u)
                   - scale.eval(b_u), (a_u, b_u)),
        _positive_check("R_positive", Ru, u),
        _sup_check("R_subadditive", growth.eval(a_u + b_u) - growth.eval(a_u)
                   - growth.eval(b_u), (a_u, b_u)),
        _sup_check("cross_bound", Ru - cross.a * scale.eval(u) - cross.b,
                   (u,)),
    ))


def report_fields(rep):
    """Every check's name and pass flag, its margin and witness as hex."""
    return [(c.name, c.passed, float(c.margin).hex(),
             None if c.witness is None
             else tuple(float(w).hex() for w in c.witness))
            for c in rep.checks]


def assert_matches_dense(growth, scale, cross, scheme):
    rep = validate_scale_pair(growth, scale, cross, scheme)
    assert report_fields(rep) \
        == report_fields(dense_scale_pair(growth, scale, cross, scheme))
    return rep


def squared(u):
    return np.asarray(u, float) ** 2


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("name", BUILTIN_TRIPLE_NAMES)
def test_blocked_pair_checks_match_the_dense_grid(half_dom, name, seed,
                                                  table_caches):
    growth, r, cross, _ = builtin_triple(name, half_dom)
    scheme = SampleScheme(window_radius=8.0, seed=seed)
    assert assert_matches_dense(growth, r, cross, scheme).passed
    # the grid takes more than one block
    assert len(_u_samples(scheme)) ** 2 > _PAIR_BLOCK_CELLS


def scheme_ending_a_block(rows_left):
    """A scheme whose pair grid, in blocks of _PAIR_BLOCK_CELLS // n rows,
    takes more than one block and ends ``rows_left`` rows past a block
    boundary: -1 ends one row short of one, 0 on one, +1 one row past."""
    for q in range(400):
        scheme = SampleScheme(window_radius=8.0, quasirandom_count=q)
        n = len(_u_samples(scheme))
        rows = _PAIR_BLOCK_CELLS // n
        if n > rows and n % rows == rows_left % rows:
            return scheme
    raise AssertionError(f"no scheme ends {rows_left} rows past a block")


@pytest.mark.parametrize("rows_left", [-1, 0, 1])
def test_pair_checks_match_the_dense_grid_at_a_block_boundary(
        half_dom, rows_left, table_caches):
    scheme = scheme_ending_a_block(rows_left)
    top = float(_u_samples(scheme)[-1])
    # u^2 is least subadditive at the last cell, and the growth is NaN
    # only on the sum of the last cell, so both witnesses lie in the last
    # block's last row
    nan_top = RadialFn(lambda u: np.where(
        np.asarray(u) >= 2.0 * top, np.nan, np.sqrt(u) + 1.0), "nan_at_top")
    cross = CrossConstants(a=1.0, b=1.25)
    for growth in (make_radial("sqrt_plus"), nan_top):
        for r in (make_radial("identity"), RadialFn(squared, "square")):
            assert_matches_dense(growth, r, cross, scheme)
    rep = validate_scale_pair(nan_top, RadialFn(squared, "square"), cross,
                              scheme)
    for name in ("r_subadditive", "R_subadditive"):
        check = next(c for c in rep.checks if c.name == name)
        assert not check.passed and check.witness == (top, top)
    assert np.isnan(rep.margin_of("R_subadditive"))


def test_pair_checks_witness_the_first_nan(half_dom, scheme, table_caches):
    # R is NaN on (3, 5) and huge past 40: the first NaN cell comes before
    # the largest finite excess, and NaN wins over it and sticks
    def eval_(u):
        u = np.asarray(u, float)
        return np.where((u > 3.0) & (u < 5.0), np.nan,
                        np.where(u > 40.0, 1e300, np.sqrt(u) + 1.0))

    growth = RadialFn(eval_, "nan_band")
    rep = assert_matches_dense(growth, make_radial("identity"),
                               CrossConstants(a=1.0, b=1.25), scheme)
    check = next(c for c in rep.checks if c.name == "R_subadditive")
    assert not check.passed and np.isnan(check.margin)
    u = _u_samples(scheme)
    assert check.witness == (0.0, float(u[u > 3.0][0]))


def test_pair_checks_keep_the_first_of_tied_cells(half_dom, scheme,
                                                  table_caches):
    # a constant r ties every cell of both r pair checks, across blocks
    const = RadialFn(lambda u: np.full(np.shape(u), 2.0), "constant")
    rep = assert_matches_dense(make_radial("sqrt_plus"), const,
                               CrossConstants(a=1.0, b=1.25), scheme)
    for name in ("r_nondecreasing", "r_subadditive"):
        check = next(c for c in rep.checks if c.name == name)
        assert check.passed and check.witness == (0.0, 0.0)
    assert not rep.passed


def test_pair_checks_keep_the_first_tied_block_and_take_a_later_nan():
    # 200 samples take five blocks of 40 rows.  Every r_nondecreasing cell
    # ties at 0; scale and growth reach 1 on the sum 45, in blocks 0 and
    # 1; growth is NaN on the sum 398, the last cell alone
    sub = np.arange(200.0)
    assert _PAIR_BLOCK_CELLS // len(sub) == 40
    scale = RadialFn(lambda s: np.where(s == 45.0, 1.0, 0.0), "spike")
    growth = RadialFn(lambda s: np.where(
        s == 398.0, np.nan, np.where(s == 45.0, 1.0, 0.0)), "spike_nan")
    zeros = np.zeros_like(sub)
    mono, r_add, R_add = _pair_checks(growth, scale, sub, zeros, zeros)
    assert (mono.margin, mono.witness) == (0.0, (0.0, 0.0))
    assert (r_add.margin, r_add.witness) == (1.0, (0.0, 45.0))
    assert np.isnan(R_add.margin) and R_add.witness == (199.0, 199.0)


def test_first_max_takes_the_first_nan_else_the_first_tie():
    nan = float("nan")
    assert _first_max([(1.0, "a"), (nan, "b"), (2.0, "c"), (nan, "d")]) \
        [1] == "b"
    assert _first_max([(1.0, "a"), (2.0, "b"), (2.0, "c")])[1] == "b"
    # each candidate keeps its own zero: -0.0 first stays -0.0
    value, name = _first_max([(-0.0, "a"), (0.0, "b")])
    assert name == "a" and math.copysign(1.0, value) == -1.0


def test_squared_scale_is_witnessed_at_its_largest_pair(half_dom, scheme,
                                                        table_caches):
    rep = assert_matches_dense(make_radial("linear_plus"),
                               RadialFn(squared, "square"),
                               CrossConstants(a=1.0, b=1.0), scheme)
    top = float(_u_samples(scheme)[-1])
    check = next(c for c in rep.checks if c.name == "r_subadditive")
    # (x + y)^2 - x^2 - y^2 = 2xy, largest at the last cell
    assert check.margin == (top + top) ** 2 - top ** 2 - top ** 2 > 0.0
    assert check.witness == (top, top)


def test_scale_pair_reports_are_cached_by_value(half_dom, scheme,
                                                table_caches):
    growth, r, cross, _ = builtin_triple("sqrt_plus", half_dom)
    first = assert_matches_dense(growth, r, cross, scheme)
    assert _scale_pair_report.cache_info().currsize == 1
    # a hit: equal inputs, built afresh, get the same report
    again = builtin_triple("sqrt_plus", half_dom)[:3]
    assert validate_scale_pair(*again, scheme) is first
    other = validate_scale_pair(growth, r, cross,
                                dataclasses.replace(scheme, seed=5))
    assert other is not first
    assert _scale_pair_report.cache_info().currsize == 2
    _scale_pair_report.cache_clear()
    rebuilt = validate_scale_pair(growth, r, cross, scheme)
    assert rebuilt is not first and rebuilt == first


@pytest.mark.parametrize("sampling", [
    {}, {"grid_points_per_axis": 300, "quasirandom_count": 600}])
def test_scale_pair_memory_stays_within_blocks(half_dom, sampling,
                                               table_caches):
    # the dense grid held about a dozen pair arrays of n * n floats, 2.8
    # MiB at the default scheme and 12.8 MiB at the larger one; the blocks
    # hold a few of _PAIR_BLOCK_CELLS floats each
    growth, r, cross, _ = builtin_triple("sqrt_plus", half_dom)
    scheme = SampleScheme(window_radius=8.0, **sampling)
    tracemalloc.start()
    try:
        rep = validate_scale_pair(growth, r, cross, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 2 ** 20


def test_strided_subset_keeps_at_most_cap_ordered_pairs():
    # the stride is ceil(n / isqrt(cap)), so at most isqrt(cap) items stay
    # and they make at most cap ordered pairs: a cap of 300 keeps 17 items
    # (272 pairs), not the 18 (306) that a stride of ceil(n / sqrt(cap))
    # kept.  On a square cap, as every shipped cap is, the two strides agree
    assert len(_strided_subset(2381, 300)) == 17
    for cap in [*range(1, 150), 300, 3888, 4142, 4246, 999_999, 1_000_000]:
        side = math.isqrt(cap)
        for n in [*range(1, 3 * side + 3), 10 * side + 1, 1001, 21_176]:
            kept = _strided_subset(n, cap)
            assert len(kept) ** 2 <= cap
            assert kept[0] == 0 and kept[-1] < n
            assert len(set(np.diff(kept).tolist())) <= 1
            if side * side == cap and n * n > cap:
                np.testing.assert_array_equal(
                    kept, np.arange(0, n, int(np.ceil(n / np.sqrt(cap)))))


def test_a_least_value_of_zero_fails_with_margin_plus_zero(half_dom,
                                                           table_caches):
    # r(u) = max(u - 1, 0) is exactly 0 on (0, 1], so r_positive_off_origin
    # fails with a least value of 0.  Its margin is +0.0: -min gave -0.0,
    # which reads equal to the 0.0 of a clean pass
    growth, _, cross, _ = builtin_triple("linear_plus", half_dom)
    r = RadialFn(eval=lambda u: np.maximum(np.asarray(u, float) - 1.0, 0.0))
    rep = validate_scale_pair(growth, r, cross, SampleScheme(window_radius=8.0))
    check = next(c for c in rep.checks if c.name == "r_positive_off_origin")
    assert not check.passed and check.witness is not None
    margins = [check.margin, rep.margin_of("r_positive_off_origin"),
               next(c["margin"] for c in rep.as_dict()["checks"]
                    if c["name"] == check.name)]
    assert [math.copysign(1.0, m) for m in margins] == [1.0] * 3
    assert margins == [0.0] * 3


@pytest.mark.parametrize("vals, passed, margin", [
    ([0.0, 1.0], False, 0.0), ([-0.0, 1.0], False, 0.0),
    ([-2.5, 1.0], False, 2.5), ([0.5, 1.0], True, 0.0),
    ([np.nan, 1.0], False, np.nan), ([], True, 0.0)])
def test_positive_check_margins(vals, passed, margin):
    # the margin is max(0, 0 - min): the bits of -min wherever min < 0 or
    # is -0.0 or NaN, and +0.0 both where min > 0 and where min is +0.0
    vals = np.array(vals)
    check = _positive_check("x", vals, np.arange(vals.size, dtype=float))
    assert check.passed is passed
    assert float(check.margin).hex() == float(margin).hex()
