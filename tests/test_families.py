"""Built-in map families and their invertibility guarantees."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homconj import (
    BumpSpec,
    Domain,
    SampleScheme,
    build_contraction_pair,
    build_lozi,
    build_perturbed_linear,
    build_pure_linear,
    build_translation,
    bump_eval,
    bump_lipschitz,
    compose,
    doubling_sample_sets,
    invert,
    roundtrip_error,
    sample_points,
)
from homconj import families
from homconj.families import BUMP_SLOPE_FACTOR, FAMILIES, damped_inverse

from conftest import bump_member


# ===================================================================
# the smooth bump profile
# ===================================================================

def test_bump_support_and_peak():
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.3)
    x = np.array([0.0, 0.99, 1.0, 2.0, 3.0, 3.01, 10.0])
    vals = bump_eval(spec, x)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert vals[2] == 0.0 and vals[4] == 0.0
    assert vals[5] == 0.0 and vals[6] == 0.0
    assert vals[3] == pytest.approx(0.3, abs=1e-15)
    assert np.all(vals >= 0.0)


@pytest.mark.parametrize("bad", [
    {"center": np.nan}, {"center": np.inf}, {"center": -np.inf},
    {"halfwidth": np.inf}, {"height": np.inf}])
def test_bump_spec_rejects_a_bump_without_compact_support(bad):
    # a NaN or infinite centre makes the bump NaN or 0 on every row, and an
    # infinite halfwidth or height gives no compact support, or NaN off it
    kwargs = {"center": 2.0, "halfwidth": 1.0, "height": 0.1, **bad}
    with pytest.raises(ValueError, match="finite"):
        BumpSpec(**kwargs)


def test_bump_slope_factor_is_sharp():
    # max slope of the quintic profile is 15/8 of height over halfwidth;
    # a dense difference quotient must approach it from below
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=1.0)
    x = np.linspace(1.0, 3.0, 20001)
    slopes = np.abs(np.diff(bump_eval(spec, x)) / np.diff(x))
    bound = bump_lipschitz(spec)
    assert bound == pytest.approx(BUMP_SLOPE_FACTOR, abs=1e-15)
    assert np.max(slopes) <= bound + 1e-6
    assert np.max(slopes) > 0.999 * bound


# ===================================================================
# the half-line contraction pair
# ===================================================================

@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5])
def test_contraction_pair_construction(eta):
    b = build_contraction_pair(eta)
    assert b.alpha == pytest.approx(0.5 * (1.0 + 1.0 / np.sqrt(eta)),
                                    abs=1e-12)
    assert b.alpha > 1.0
    assert b.bump.height > 0.0
    # slope budget keeps the composite rate under sqrt(eta)
    assert b.alpha * (eta + b.eps2) < np.sqrt(eta)

    pts = sample_points(b.domain, SampleScheme(window_radius=8.0))
    assert roundtrip_error(b.g, pts) < 1e-10
    assert roundtrip_error(b.f, pts) < 1e-12

    # g stays strictly below the identity away from the origin, so the
    # origin is its only fixed point
    x = np.linspace(0.01, 8.0, 400).reshape(-1, 1)
    assert np.all(b.g.forward(x) < x)


def test_contraction_pair_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_contraction_pair(1.0)
    with pytest.raises(ValueError):
        build_contraction_pair(0.0)
    with pytest.raises(ValueError):
        build_contraction_pair(0.5, bump_center=1.0, bump_halfwidth=1.0)


def test_contraction_pair_notes_flag_the_constant():
    b = build_contraction_pair(0.25)
    assert any("A = max(a*beta" in note for note in b.notes)


# ===================================================================
# planar families
# ===================================================================

def test_lozi_inverse_is_exact():
    mp = build_lozi(1.4, 0.3)
    pts = sample_points(mp.domain, SampleScheme(window_radius=4.0,
                                                grid_points_per_axis=13,
                                                quasirandom_count=16))
    assert roundtrip_error(mp, pts) < 1e-12
    assert compose(mp, invert(mp)).is_identity


def test_lozi_rejects_degenerate_b():
    with pytest.raises(ValueError):
        build_lozi(1.4, 0.0)


def test_damped_inverse_converges_quickly():
    T = np.diag([2.0, 3.0])
    spec = BumpSpec(center=1.0, halfwidth=0.5, height=0.2)

    def pert(p):
        out = np.zeros_like(p)
        out[:, 0] = bump_eval(spec, np.sqrt(np.sum(p * p, axis=1)))
        return out

    x = np.array([[1.3, 0.4], [0.0, 0.0], [-2.0, 1.0]])
    y, used = damped_inverse(np.linalg.inv(T), spec, x)
    assert used < 60
    assert float(np.max(np.abs(y @ T.T + pert(y) - x))) < 1e-12


def test_perturbed_linear_roundtrip():
    spec = BumpSpec(center=1.0, halfwidth=0.5, height=0.2)
    mp = build_perturbed_linear(np.diag([2.0, 3.0]), perturbation=spec)
    pts = sample_points(mp.domain, SampleScheme(window_radius=4.0,
                                                grid_points_per_axis=11,
                                                quasirandom_count=8))
    assert roundtrip_error(mp, pts) < 1e-10


def test_dim1_bump_is_the_radial_bump_on_one_axis():
    # in dimension 1 the bump acts at |x|: the scalar path computes the map
    # that the rank-one path computes on the first axis of the plane
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.2)
    line = build_perturbed_linear([[0.5]], spec)
    plane = build_perturbed_linear(0.5 * np.eye(2), spec)
    x = np.linspace(-4.0, 4.0, 161).reshape(-1, 1)
    on_axis = np.hstack([x, np.zeros_like(x)])
    assert np.array_equal(line.forward(x), plane.forward(on_axis)[:, :1])
    y, y_plane = line.inverse(x), plane.inverse(on_axis)
    assert np.all(y_plane[:, 1] == 0.0)
    assert np.all(np.abs(y - y_plane[:, :1]) <= 1e-13 * (1.0 + np.abs(x)))


def test_perturbed_linear_rejects_steep_perturbation():
    # smallest singular value of the identity is 1; a slope-2 bump breaks
    # global invertibility
    steep = BumpSpec(center=1.0, halfwidth=0.5, height=0.6)
    assert bump_lipschitz(steep) > 1.0
    with pytest.raises(ValueError):
        build_perturbed_linear(np.eye(2), perturbation=steep)


def test_pure_linear_and_translation_roundtrips():
    lin = build_pure_linear(0.5)
    tr = build_translation([1.0, -2.0])
    pts1 = np.linspace(-4, 4, 33).reshape(-1, 1)
    assert roundtrip_error(lin, pts1) == 0.0
    pts2 = np.stack([np.linspace(-4, 4, 33), np.linspace(2, -2, 33)], axis=1)
    assert roundtrip_error(tr, pts2) == 0.0
    with pytest.raises(ValueError):
        build_pure_linear(0.0)
    with pytest.raises(ValueError):
        build_translation([1.0, 2.0], domain=lin.domain)


# ===================================================================
# the row-wise inverse solver
# ===================================================================

def _bump_linear(lip: float, dim: int):
    """I x + bump along the first axis, the bump of Lipschitz constant lip."""
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=lip / BUMP_SLOPE_FACTOR)
    return build_perturbed_linear(np.eye(dim), perturbation=spec)


def _atom_closures():
    """Forward and inverse closures of every family member and of the maps
    the inverse solver serves, with a point range.  The non-diagonal T of
    dimensions 2 and 3 make a BLAS product show: ``scale * I`` would not."""
    bump = BumpSpec(center=2.0, halfwidth=1.0, height=0.3)
    maps = {f"g{eta}": (build_contraction_pair(eta).g, 0.0, 12.0)
            for eta in (0.1, 0.25, 0.5)}
    maps.update({
        "f0.25": (build_contraction_pair(0.25).f, 0.0, 12.0),
        "bump_member": (bump_member(Domain(dim=1, region="half_line"),
                                    2.0, 1.0, 0.3), 0.0, 6.0),
        "linear1": (_bump_linear(0.9, 1), -5.0, 5.0),
        "linear2": (_bump_linear(0.9, 2), -5.0, 5.0),
        "lozi": (build_lozi(1.7, 0.5), -3.0, 3.0),
        "perturbed_linear3": (FAMILIES["perturbed_linear"].builder(
            1.5, dim=3, bump_height=0.3), -5.0, 5.0),
        "pure_linear": (build_pure_linear(-0.7), -5.0, 5.0),
        "translation": (build_translation([1.0, -2.0]), -5.0, 5.0),
        "tilted2": (build_perturbed_linear(
            [[1.3, 0.4], [-0.5, 1.1]], bump), -5.0, 5.0),
        "tilted3": (build_perturbed_linear(
            [[1.2, 0.3, -0.2], [0.1, 1.4, 0.5], [-0.3, 0.2, 1.1]], bump),
            -5.0, 5.0),
    })
    atoms = {k: (mp.chain[0][0], mp.domain.dim, lo, hi)
             for k, (mp, lo, hi) in maps.items()}
    return {f"{k}.{way}": (getattr(atom, way), dim, lo, hi)
            for k, (atom, dim, lo, hi) in atoms.items()
            for way in ("fwd", "inv")}


ATOM_CLOSURES = _atom_closures()


@settings(max_examples=40, deadline=None)
@given(unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@example(unit=np.random.default_rng(2010).uniform(0.0, 1.0, 256).tolist())
def test_inverse_row_does_not_depend_on_its_batch(unit):
    # covers the forward of every atom too: the Picard driver reads a
    # compact's bounds off the rows of a larger table's images.  In the
    # 256-row example the bump reaches 47 to 109 rows of each bump map's
    # batch in dimensions 1 to 3, so in dimension 1 the batch starts in
    # numpy sweeps, while each row alone runs in Python floats; dimensions
    # 2 and 3 sweep in numpy either way
    flat = np.asarray(unit)
    for name, (closure, dim, lo, hi) in ATOM_CLOSURES.items():
        # axis k pairs each draw with the k-th one before it, cyclically
        pts = lo + (hi - lo) * np.stack(
            [np.roll(flat, k) for k in range(dim)], axis=1)
        batch = closure(pts)
        for i in range(pts.shape[0]):
            assert np.array_equal(closure(pts[i:i + 1]), batch[i:i + 1]), \
                name
        assert np.array_equal(closure(pts[::-1]), batch[::-1]), name


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5])
def test_g_inverse_solves_the_origin_ladder_exactly(eta):
    # far below the bump g is eta*x, so its inverse is x / eta to the bit,
    # alone or next to a point inside the bump
    g = build_contraction_pair(eta).g
    ladder = 8.0 * 2.0 ** -np.arange(40.0, 49.0).reshape(-1, 1)
    for pts in (ladder, np.vstack([ladder, [[2.0 * eta], [64.0]]])):
        y = g.chain[0][0].inv(pts)[:ladder.shape[0]]
        assert np.array_equal(y, ladder / eta)
        assert np.array_equal(g.forward(y), ladder)


@pytest.mark.parametrize("lip", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("dim", [1, 2])
def test_inverse_converges_on_steep_bumps(lip, dim, monkeypatch):
    mp = _bump_linear(lip, dim)
    rng = np.random.default_rng(5)
    x = rng.uniform(-4.0, 4.0, size=(400, dim))
    x[:50, 0] = np.linspace(0.9, 3.5, 50)      # across the bump's support
    # a full Newton step overshoots the inflection at y = 2.5 from here
    x[50] = 0.0
    x[50, 0] = 2.7662173535395764
    sweeps = []

    def counted(*args, **kwargs):
        out = damped_inverse(*args, **kwargs)
        sweeps.append(out[1])
        return out

    monkeypatch.setattr(families, "damped_inverse", counted)
    y = mp.chain[0][0].inv(x)
    scale = 1.0 + np.max(np.abs(x), axis=1)
    assert np.all(np.max(np.abs(mp.forward(y) - x), axis=1) <= 1e-13 * scale)
    assert sweeps and max(sweeps) <= 45


def test_capped_solve_returns_nan_rows_it_cannot_finish(monkeypatch):
    # rows the bump reaches need more than one sweep; with a one-sweep cap
    # they come back NaN, not a loose value, and rows off the bump are exact
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.99 / BUMP_SLOPE_FACTOR)

    def pert(p):
        return bump_eval(spec, p)

    steep = np.array([[1.5], [2.5]])
    x = np.vstack([[0.5], steep + pert(steep), [5.0]])
    monkeypatch.setattr(families, "_MAX_SWEEPS", 1)
    y, used = damped_inverse(np.eye(1), spec, x)
    assert used == 1
    assert np.array_equal(np.isnan(y[:, 0]), [False, True, True, False])
    assert np.array_equal(y[[0, 3]], x[[0, 3]])
    # within the sweep cap the same solve converges on every row, also
    # where the bump's slope peaks (y = 1.5 and 2.5)
    monkeypatch.undo()
    y = build_perturbed_linear([[1.0]], spec).inverse(x)
    assert np.all(np.abs(y + pert(y) - x) <= 1e-13 * (1.0 + np.abs(x)))


def test_inverse_gives_up_at_once_on_rows_that_overflow():
    # 1e308 / 0.25 is inf: that row is NaN after one sweep, not after the
    # sweep cap, and the rows beside it are solved as usual
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.1)

    def pert(p):
        return bump_eval(spec, p)

    x = np.array([[1e308], [1.0], [0.55]])
    with np.errstate(over="ignore", invalid="ignore"):
        y, used = damped_inverse(np.array([[4.0]]), spec, x)
    assert np.isnan(y[0, 0]) and y[1, 0] == 4.0
    assert abs(0.25 * y[2, 0] + pert(y[2:])[0, 0] - 0.55) <= 1e-13 * 1.55
    assert 1 < used < 200


@pytest.mark.parametrize("dim", [2, 3])
def test_huge_finite_rows_raise_no_warning_and_keep_their_bits(dim,
                                                               monkeypatch):
    # rows of norm 1e200, whose squares overflow, beside rows the bump
    # reaches: forward and inverse raise nothing, and every row equals the
    # squared radius's result, inf where it overflows (the bump is 0 at
    # 1e200 and at inf alike)
    rng = np.random.default_rng(dim)
    T = 0.5 * (np.eye(dim) + rng.uniform(-0.3, 0.3, (dim, dim)))
    mp = build_perturbed_linear(T, BumpSpec(center=2.0, halfwidth=1.0,
                                            height=0.1))
    unit = rng.standard_normal((40, dim))
    unit /= np.sqrt(np.sum(unit * unit, axis=1))[:, None]
    x = np.vstack([1e200 * unit, rng.uniform(0.5, 3.0, (40, 1)) * unit])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fx, y = mp.forward(x), mp.inverse(x)

    def squared(p):
        with np.errstate(over="ignore"):
            return np.abs(p[:, 0]) if p.shape[1] == 1 else \
                np.sqrt(np.add.reduce(p * p, axis=1))

    assert np.isinf(squared(x[:40])).all()
    monkeypatch.setattr(families, "_radial", squared)
    assert np.array_equal(_bits(fx), _bits(mp.forward(x)))
    with np.errstate(over="ignore"):
        assert np.array_equal(_bits(y), _bits(mp.inverse(x)))


def test_inverse_where_the_bump_covers_the_origin():
    # a bump whose support holds |y| = 0 meets y = 0 with a nonzero slope
    # and no direction; the solve takes no 0/0 there and raises no warning
    spec = BumpSpec(center=0.5, halfwidth=1.0, height=0.4)
    for T in ([[2.0]], np.diag([2.0, 3.0])):
        mp = build_perturbed_linear(T, spec)
        dim = mp.domain.dim
        x = np.zeros((3, dim))
        x[:, 0] = [bump_eval(spec, 0.0), 0.0, -0.3]
        with np.errstate(all="raise"):
            y = mp.inverse(x)
        assert float(np.max(np.abs(y[0]))) <= 1e-15
        assert float(np.max(np.abs(mp.forward(y) - x))) <= 1e-15


def test_no_bump_inverse_is_the_linear_inverse_bit_for_bit():
    # no bump, or one of height 0, gives z = T^-1 x after one sweep
    T = np.array([[0.7, 0.2], [-0.1, -1.9]])
    Tinv = np.linalg.inv(T)
    x = np.random.default_rng(3).uniform(-5.0, 5.0, size=(200, 2))
    # z = [-0, 0] and [0, -0]; c = T^-1 e_0 has a negative second entry
    x[:2] = [[-0.0, -0.0], [0.0, 0.0]]
    expect = families._rows_times(x, Tinv)
    flat = BumpSpec(center=2.0, halfwidth=1.0, height=0.0)
    y, used = damped_inverse(Tinv, flat, x)
    assert used == 1 and np.array_equal(_bits(y), _bits(expect))
    for bump in (None, flat):
        y = build_perturbed_linear(T, bump).inverse(x)
        assert np.array_equal(_bits(y), _bits(expect))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5])
def test_g_forward_is_eta_x_plus_bump(eta):
    b = build_contraction_pair(eta)
    grid = np.linspace(0.0, 12.0, 1201).reshape(-1, 1)
    top = doubling_sample_sets(b.domain, SampleScheme(window_radius=8.0))[-1][1]
    for pts in (grid, top):
        assert np.array_equal(_bits(b.g.forward(pts)),
                              _bits(eta * pts + bump_eval(b.bump, pts)))


def unscreened_bump_eval(spec, x):
    """bump_eval before it screened out the entries off the support,
    verbatim: the formula on every entry."""
    t = 1.0 - np.abs(np.asarray(x, dtype=float) - spec.center) / spec.halfwidth
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    return spec.height * (t * t * t * (10.0 + t * (-15.0 + 6.0 * t)))


def _unscreened_bump_cases():
    """(spec, x) over every input shape bump_eval takes: each spec's
    support edges center -+ halfwidth exactly and one ulp on either side,
    0, -0, +-inf, NaN, 1e308 and seeded rows on and off the support."""
    rng = np.random.default_rng(30)
    specs = [BumpSpec(center=2.0, halfwidth=1.0, height=0.3),
             BumpSpec(center=0.5, halfwidth=1.0, height=0.4),  # covers 0
             BumpSpec(center=rng.uniform(1.0, 4.0),
                      halfwidth=rng.uniform(0.3, 1.5),
                      height=rng.uniform(0.0, 0.5)),
             BumpSpec(center=2.0, halfwidth=1.0, height=0.0),
             # x - center overflows at x = 1e308, as before the screen
             BumpSpec(center=-1.5e308, halfwidth=1.0, height=0.2)]
    for spec in specs:
        c, w = spec.center, spec.halfwidth
        edges = [c - w, c + w]
        edges += [np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf)]
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]
        pool = np.concatenate([edges, special,
                               rng.uniform(c - w, c + w, 40),
                               rng.uniform(c - 4 * w, c + 4 * w, 40)])
        pool = pool[:pool.size // 2 * 2]
        yield spec, np.zeros(0)
        yield spec, np.zeros((0, 1))
        for v in special + edges:
            yield spec, np.float64(v)
            yield spec, np.array(v)
            yield spec, v
        yield spec, pool
        yield spec, pool[::7]                 # a few entries on the support
        yield spec, pool[:, None]
        yield spec, pool.reshape(-1, 2)


def test_bump_eval_matches_the_unscreened_formula_bit_for_bit(monkeypatch):
    # on numpy only, on floats only and as shipped, every entry, shape and
    # scalar type equals the formula evaluated everywhere, and the screen
    # raises no floating-point warning the formula did not raise
    for spec, x in _unscreened_bump_cases():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expect = unscreened_bump_eval(spec, x)
            warned_ref = {str(w.message) for w in caught}
            for rows in FLOAT_ROWS.values():
                monkeypatch.setattr(families, "_FLOAT_ROWS", rows)
                caught.clear()
                got = bump_eval(spec, x)
                assert {str(w.message) for w in caught} <= warned_ref
                assert type(got) is type(expect)
                assert np.shape(got) == np.shape(expect)
                assert np.array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(expect).view(np.int64))


@pytest.mark.parametrize("dim", [1, 2])
def test_negative_t_forward_of_zero_rows_reads_plus_zero(dim, monkeypatch):
    # T x is -0.0 on the +0.0 rows of a negative T, and the full-length bump
    # column, +0.0 off the support, turns its first axis into +0.0 as
    # before the screen
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.1)
    T = -0.5 * np.eye(dim)
    mp = build_perturbed_linear(T, spec)
    x = np.zeros((5, dim))
    x[3:, 0] = [2.0, 2.5]
    expect = families._rows_times(x, T)
    assert np.signbit(expect[:3]).all()
    expect[:, 0] += unscreened_bump_eval(spec, families._radial(x))
    for rows in FLOAT_ROWS.values():
        monkeypatch.setattr(families, "_FLOAT_ROWS", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mp.forward(x)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
        assert not np.signbit(got[:3, 0]).any()


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5])
def test_g_inverse_orbits_match_the_written_out_inverse_bit_for_bit(eta):
    # g is build_perturbed_linear's dim-1 case; from the top table on, its
    # 40-step inverse orbits are the bits of the half-line solve alone
    b = build_contraction_pair(eta)
    Tinv = np.linalg.inv([[eta]])
    top = doubling_sample_sets(b.domain, SampleScheme(window_radius=8.0))[-1][1]
    y, y_ref = top, top
    for _ in range(40):
        y, y_ref = b.g.inverse(y), damped_inverse(Tinv, b.bump, y_ref)[0]
        assert np.array_equal(_bits(y), _bits(y_ref))


# ===================================================================
# the inverse against its unscreened sweep loop
# ===================================================================

def unscreened_damped_inverse(Tinv, bump, x, max_sweeps=200):
    """damped_inverse before it screened out the rows the bump does not
    reach, verbatim: every finite row enters the sweep loop, and every
    sweep runs over the whole live batch."""
    def rows_times(x, M):
        out = x[:, :1] * M[:, 0]
        for k in range(1, M.shape[1]):
            out = out + x[:, k:k + 1] * M[:, k]
        return out

    def radial(p):
        return np.abs(p[:, 0]) if p.shape[1] == 1 else \
            np.sqrt(np.sum(p * p, axis=1))

    def bump_with_slope(spec, x):
        u = x - spec.center
        t = np.clip(1.0 - np.abs(u) / spec.halfwidth, 0.0, 1.0)
        w = t * (1.0 - t)
        return (spec.height * (t * t * t * (10.0 + t * (-15.0 + 6.0 * t))),
                (-30.0 * spec.height / spec.halfwidth) * np.sign(u) * (w * w))

    c = Tinv[:, 0]
    c_max = np.max(np.abs(c))
    z = rows_times(x, Tinv)
    out = np.full_like(z, np.nan)
    rows = np.flatnonzero(np.all(np.isfinite(z), axis=1))
    z = y = z[rows]
    s = lo = np.zeros(rows.shape[0])
    hi = np.full(rows.shape[0], np.inf)
    for sweeps in range(1, max_sweeps + 1):
        r = radial(y)
        b, slope = bump_with_slope(bump, r)
        F = s - b
        lo = np.where(F < 0.0, s, lo)
        hi = np.where(F > 0.0, s, hi)
        unit = np.divide(y, r[:, None], out=np.zeros_like(y),
                         where=r[:, None] > 0.0)
        step = np.minimum(
            s - F / (1.0 + slope * rows_times(unit, c[None, :])[:, 0]),
            bump.height)
        step = np.where(((lo < step) & (step < hi)) | (step == s), step,
                        0.5 * (lo + np.minimum(hi, bump.height)))
        moved = np.abs(step - s)
        y = np.where(moved[:, None] > 0.0, z - step[:, None] * c, y)
        done = moved * c_max <= 1e-14 * (1.0 + np.max(np.abs(y), axis=1))
        out[rows[done]] = y[done]
        live = ~done
        if sweeps == max_sweeps or not live.any():
            break
        rows, z, y, s, lo, hi = (a[live] for a in (rows, z, y, step, lo, hi))
    return out, sweeps


def _unscreened_cases():
    """Seeded (T, bump, x) cases in dimensions 1 to 3, for diagonal,
    negative and tilted T, each bump with its first-axis rows at
    |z| = center -+ halfwidth exactly and one ulp inside, of +-0, with a
    |z| too large to square, and x overflowing in T^-1 x."""
    rng = np.random.default_rng(2010)
    for dim in (1, 2, 3):
        diag = np.diag(2.0 ** rng.integers(-3, 0, dim))
        tilted = 0.5 * (np.eye(dim) + rng.uniform(-0.3, 0.3, (dim, dim)))
        for T in (diag, -diag, tilted):
            smin = float(np.linalg.svd(T, compute_uv=False)[-1])
            halfwidth = rng.uniform(0.3, 1.5)
            for center, width, lip in (
                    (2.0, 1.0, 0.9),
                    (rng.uniform(1.0, 4.0), halfwidth, rng.uniform(0.2, 0.99)),
                    (2.0, 1.0, 0.0),
                    (0.5, 1.0, 0.5)):        # the support covers |y| = 0
                spec = BumpSpec(center=center, halfwidth=width,
                                height=lip * smin * width / BUMP_SLOPE_FACTOR)
                reach = center + width + 0.5
                z = rng.uniform(-reach, reach, size=(200, dim))
                edges = [center - width, center + width]
                edges += [np.nextafter(e, center) for e in edges]
                axis = np.zeros((2 * len(edges), dim))
                axis[:, 0] = edges + [-e for e in edges]
                big = np.zeros((1, dim))
                big[0, 0] = big[0, -1] = 1e200
                x = np.vstack([z @ T.T, axis @ T.T,
                               np.zeros((1, dim)), np.full((1, dim), -0.0),
                               big @ T.T,
                               1.7e308 * np.sign(np.linalg.inv(T)[:1])])
                yield T, spec, x


# live rows at or below which damped_inverse sweeps in Python floats: numpy
# sweeps only, its own choice, and floats only
FLOAT_ROWS = {"numpy": 0, "shipped": families._FLOAT_ROWS,
              "floats": 10 ** 9}


@pytest.mark.parametrize("cap", [None, 1, 2])
def test_inverse_matches_its_unscreened_loop_bit_for_bit(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(families, "_MAX_SWEEPS", cap)
    # on numpy sweeps only, on floats only and as shipped; the screen
    # raises no floating-point warning the loop did not raise
    for T, spec, x in _unscreened_cases():
        Tinv = np.linalg.inv(T)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not np.all(np.isfinite(families._rows_times(x, Tinv)))
            caught.clear()
            y_ref, used_ref = unscreened_damped_inverse(
                Tinv, spec, x, cap or families._MAX_SWEEPS)
            warned_ref = {str(w.message) for w in caught}
            for rows in FLOAT_ROWS.values():
                monkeypatch.setattr(families, "_FLOAT_ROWS", rows)
                caught.clear()
                y, used = damped_inverse(Tinv, spec, x)
                assert {str(w.message) for w in caught} <= warned_ref
                assert used == used_ref
                assert np.array_equal(_bits(y), _bits(y_ref))


def test_the_sweep_loop_sees_only_the_rows_the_bump_reaches(monkeypatch):
    # g^-1 at eta 0.1 of the top table and of 64 points across the bump's
    # support (x / eta in [1, 3]): the rows with bump(|z|) = 0 return
    # z = x / eta and enter neither the numpy sweeps' bump evaluation nor
    # the float sweeps, on numpy sweeps only, on floats only and as
    # shipped, which takes both paths
    b = build_contraction_pair(0.1)
    top = doubling_sample_sets(b.domain, SampleScheme(window_radius=8.0))[-1][1]
    x = np.vstack([top, np.linspace(0.1, 0.3, 64)[:, None]])
    Tinv = np.linalg.inv([[0.1]])
    z = families._rows_times(x, Tinv)
    reached = bump_eval(b.bump, np.abs(z[:, 0])) > 0.0
    assert FLOAT_ROWS["shipped"] < np.count_nonzero(reached) < x.shape[0]
    seen, floats = [], []
    bump_with_slope = families._bump_with_slope
    float_sweeps = families._float_sweeps

    def recorded(spec, r):
        seen.append(r.copy())
        return bump_with_slope(spec, r)

    def recorded_floats(out, rows, bump, c, first, z, *state):
        last = float_sweeps(out, rows, bump, c, first, z, *state)
        floats.append((rows.copy(), z.copy(), first, last))
        return last

    monkeypatch.setattr(families, "_bump_with_slope", recorded)
    monkeypatch.setattr(families, "_float_sweeps", recorded_floats)
    for path, live in FLOAT_ROWS.items():
        monkeypatch.setattr(families, "_FLOAT_ROWS", live)
        seen.clear()
        floats.clear()
        y, used = damped_inverse(Tinv, b.bump, x)
        assert (path != "floats") == bool(seen)
        assert (path != "numpy") == bool(floats)
        # the numpy sweeps start on the reached rows, only drop rows, and
        # run while more than _FLOAT_ROWS rows are live
        if seen:
            assert np.array_equal(_bits(seen[0]),
                                  _bits(np.abs(z[reached, 0])))
        assert all(u.shape[0] >= v.shape[0] for u, v in zip(seen, seen[1:]))
        assert all(u.shape[0] > live for u in seen)
        # the float sweeps take over the reached rows still live, at most
        # _FLOAT_ROWS of them, from the next sweep on
        if floats:
            (rows, z_rows, first, last), = floats
            assert first == len(seen) + 1 and last == used
            assert reached[rows].all() and rows.shape[0] <= live
            if not seen:
                assert np.array_equal(rows, reached.nonzero()[0])
            assert np.array_equal(_bits(z_rows), _bits(z[rows, 0]))
        else:
            assert len(seen) == used
        assert np.array_equal(_bits(y[~reached]), _bits(z[~reached]))
        assert np.array_equal(_bits(y), _bits(b.g.inverse(x)))
        # a call with a bump that reaches none of its rows takes z as it is
        seen.clear()
        floats.clear()
        y, used = damped_inverse(Tinv, b.bump, x[~reached])
        assert used == 1 and not seen and not floats
        assert np.array_equal(_bits(y), _bits(z[~reached]))


# ===================================================================
# the inverse against the solver it replaced
# ===================================================================

def reference_damped_inverse(T, pert, q, x, tau=1e-14, max_iter=200,
                             newton=None):
    """The damped-map/Newton solver that the scalar solve replaced,
    verbatim: each row iterates y <- T^-1 (x - pert(y)), keeps a Newton
    step (or a halved one) that shrinks its residual by q, and stops on
    rho <= tau (1 + |phi|)."""
    def _row_norm(v):
        return np.max(np.abs(v), axis=1)

    Tinv = np.linalg.inv(T)
    y = families._rows_times(x, Tinv)
    phi = families._rows_times(x - pert(y), Tinv)
    out = np.full_like(phi, np.nan)
    rows = np.arange(phi.shape[0])
    for used in range(1, max_iter + 1):
        d = y - phi
        rho = _row_norm(d)
        done = rho <= tau * (1.0 + _row_norm(phi))
        out[rows[done]] = phi[done]
        live = ~(done | np.isnan(rho))
        if not live.any():
            return out, used
        if used == max_iter:
            break
        rows, x, y, phi, d, rho = (rows[live], x[live], y[live], phi[live],
                                   d[live], rho[live])
        y_next = phi
        damped = np.ones(rows.shape[0], dtype=bool)
        phi_next = np.empty_like(phi)
        if newton is not None:
            s = newton(y, d)
            trial = np.flatnonzero(np.any(s != d, axis=1))
            lam = 1.0
            while trial.size and lam >= 1.0 - q:
                cand = y[trial] - lam * s[trial]
                phi_cand = families._rows_times(x[trial] - pert(cand), Tinv)
                keep = _row_norm(phi_cand - cand) <= q * rho[trial]
                kept = trial[keep]
                y_next[kept] = cand[keep]
                phi_next[kept] = phi_cand[keep]
                damped[kept] = False
                trial = trial[~keep]
                lam *= 0.5
        if damped.any():
            phi_next[damped] = families._rows_times(
                x[damped] - pert(y_next[damped]), Tinv)
        y, phi = y_next, phi_next
    return out, max_iter


def _reference_bump_inverse(T, spec):
    """The replaced inverse of T x + e_0 bump(|x|): the scalar Newton step
    in dimension 1, the rank-one Sherman-Morrison step from 2 on."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    q = bump_lipschitz(spec) / float(np.linalg.svd(T, compute_uv=False)[-1])

    def slope(r):
        u = r - spec.center
        t = np.clip(1.0 - np.abs(u) / spec.halfwidth, 0.0, 1.0)
        w = t * (1.0 - t)
        return (-spec.height / spec.halfwidth) * np.sign(u) * (30.0 * w * w)

    if T.shape[0] == 1:
        def pert(p):
            return bump_eval(spec, np.abs(p))

        def newton(y, d):
            return d / (1.0 + np.sign(y) * slope(np.abs(y)) / T[0, 0])
    else:
        c = np.linalg.inv(T)[:, 0]

        def pert(p):
            out = np.zeros_like(p)
            out[:, 0] = bump_eval(spec, np.sqrt(np.sum(p * p, axis=1)))
            return out

        def newton(y, d):
            radial = np.sqrt(np.sum(y * y, axis=1))
            k = np.divide(slope(radial), radial, out=np.zeros_like(radial),
                          where=radial > 0)
            u = y * k[:, None]
            ratio = np.sum(u * d, axis=1) / (1.0 + np.sum(u * c, axis=1))
            return d - c * ratio[:, None]

    return lambda p: reference_damped_inverse(T, pert, q, p,
                                              newton=newton)[0]


def _ulps(a, b):
    """Distance in units in the last place, row-wise max (finite values)."""
    ia, ib = (_bits(v).astype(np.int64) for v in (a, b))
    ia = np.where(ia < 0, np.int64(-2**63) - ia, ia)
    ib = np.where(ib < 0, np.int64(-2**63) - ib, ib)
    return np.max(np.abs(ia - ib), axis=1)


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5])
def test_g_inverse_agrees_with_the_replaced_solver(eta):
    # one shot on a fine grid over and past the bump: within 8 ulp
    # (measured 7); 40-step orbits from the top table: within 1e-15
    # relative (measured 7.9e-16)
    b = build_contraction_pair(eta)
    ref = _reference_bump_inverse([[eta]], b.bump)
    grid = np.linspace(0.0, 12.0, 20001).reshape(-1, 1)
    assert int(np.max(_ulps(b.g.inverse(grid), ref(grid)))) <= 8
    top = doubling_sample_sets(b.domain, SampleScheme(window_radius=8.0))[-1][1]
    y, y_ref = top, top
    for _ in range(40):
        y, y_ref = b.g.inverse(y), ref(y_ref)
        assert np.all(np.abs(y - y_ref) <= 1e-15 * np.abs(y_ref))


def _check_against_reference(T, spec, x, res, res_ref, gap):
    """Forward residuals of the new and the replaced inverse of
    T x + e_0 bump(|x|) on x, and their distance, each within its bound
    times (1 + |x|)."""
    mp = build_perturbed_linear(T, spec)
    y, y_ref = mp.inverse(x), _reference_bump_inverse(T, spec)(x)
    scale = 1.0 + np.max(np.abs(x), axis=1)
    for value, bound in ((mp.forward(y) - x, res),
                         (mp.forward(y_ref) - x, res_ref), (y - y_ref, gap)):
        assert np.all(np.max(np.abs(value), axis=1) <= bound * scale)


def test_pool_members_agree_with_the_replaced_solver():
    # the premetric pool's bump members, I x + bump of slope 0.4: measured
    # worst residual 3.9e-16 (replaced: 4.1e-15), distance 6.8e-15
    rng = np.random.default_rng(11)
    x = np.linspace(-1.0, 8.0, 4001).reshape(-1, 1)
    for _ in range(20):
        halfwidth = rng.uniform(0.3, 1.5)
        spec = BumpSpec(center=rng.uniform(0.8, 5.0), halfwidth=halfwidth,
                        height=0.4 * halfwidth / BUMP_SLOPE_FACTOR)
        _check_against_reference([[1.0]], spec, x, 5e-16, 5e-15, 1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lip09_bumps_agree_with_the_replaced_solver(dim):
    # measured worst residual 6.0e-16 (replaced: 8.7e-15), distance 8.6e-14,
    # about the replaced residual over 1 - 0.9
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.9 / BUMP_SLOPE_FACTOR)
    x = np.random.default_rng(dim).uniform(-4.0, 4.0, size=(20000, dim))
    x[:2000, 0] = np.linspace(0.9, 3.5, 2000)
    _check_against_reference(np.eye(dim), spec, x, 1e-15, 1e-14, 1e-13)
