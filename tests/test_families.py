"""Built-in map families and their invertibility guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
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
    invert,
    roundtrip_error,
    sample_points,
)
from homconj import families
from homconj.families import (
    BUMP_SLOPE_FACTOR,
    _scaled_bump_inverse,
    damped_inverse,
)

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
    y, used = damped_inverse(T, pert, q=0.5, x=x)
    assert used < 60
    assert float(np.max(np.abs(y @ T.T + pert(y) - x))) < 1e-12


def test_perturbed_linear_roundtrip():
    spec = BumpSpec(center=1.0, halfwidth=0.5, height=0.2)
    mp = build_perturbed_linear(np.diag([2.0, 3.0]), perturbation=spec)
    pts = sample_points(mp.domain, SampleScheme(window_radius=4.0,
                                                grid_points_per_axis=11,
                                                quasirandom_count=8))
    assert roundtrip_error(mp, pts) < 1e-10


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


def _inverses():
    """Inverse closures of every map the solver serves, with a point range."""
    out = {f"g{eta}": (build_contraction_pair(eta).g, 0.0, 12.0)
           for eta in (0.1, 0.25, 0.5)}
    out["bump_member"] = (bump_member(Domain(dim=1, region="half_line"),
                                      2.0, 1.0, 0.3), 0.0, 6.0)
    out["linear1"] = (_bump_linear(0.9, 1), -5.0, 5.0)
    out["linear2"] = (_bump_linear(0.9, 2), -5.0, 5.0)
    return {k: (mp.chain[0][0].inv, mp.domain.dim, lo, hi)
            for k, (mp, lo, hi) in out.items()}


INVERSES = _inverses()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(INVERSES)),
       unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
def test_inverse_row_does_not_depend_on_its_batch(name, unit):
    inv, dim, lo, hi = INVERSES[name]
    flat = lo + (hi - lo) * np.asarray(unit)
    # a 2-d batch pairs consecutive draws (the last with the first)
    pts = flat.reshape(-1, 1) if dim == 1 else \
        np.stack([flat, np.roll(flat, 1)], axis=1)
    batch = inv(pts)
    for i in range(pts.shape[0]):
        assert np.array_equal(inv(pts[i:i + 1]), batch[i:i + 1])
    assert np.array_equal(inv(pts[::-1]), batch[::-1])


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
    # a full Newton step overshoots the inflection at y = 2.5 from here;
    # only a halved one passes the q-test while the damped step crawls
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


def test_damped_only_solve_returns_nan_rows_it_cannot_finish():
    # a slope-0.99 bump with no Newton step contracts too slowly for 200
    # sweeps where its slope peaks (y = 1.5 and 2.5); those rows come back
    # NaN, not a loose value, and rows off the bump are exact
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.99 / BUMP_SLOPE_FACTOR)

    def pert(p):
        return bump_eval(spec, p)

    steep = np.array([[1.5], [2.5]])
    x = np.vstack([[0.5], steep + pert(steep), [5.0]])
    y, used = damped_inverse(np.eye(1), pert, 0.99, x)
    assert used == 200
    assert np.array_equal(np.isnan(y[:, 0]), [False, True, True, False])
    assert np.array_equal(y[[0, 3]], x[[0, 3]])
    # the same solve with the bump's Newton step converges on every row
    y = _scaled_bump_inverse(1.0, spec)(x)
    assert np.all(np.abs(y + pert(y) - x) <= 1e-13 * (1.0 + np.abs(x)))


def test_inverse_gives_up_at_once_on_rows_that_overflow():
    # 1e308 / 0.25 is inf, and inf - inf leaves a NaN residual that no
    # sweep can shrink: that row is NaN after one sweep, not after
    # max_iter, and the rows beside it are solved as usual
    spec = BumpSpec(center=2.0, halfwidth=1.0, height=0.1)

    def pert(p):
        return bump_eval(spec, p)

    x = np.array([[1e308], [1.0], [0.55]])
    with np.errstate(over="ignore", invalid="ignore"):
        y, used = damped_inverse(np.array([[0.25]]), pert, 0.5, x)
    assert np.isnan(y[0, 0]) and y[1, 0] == 4.0
    assert abs(0.25 * y[2, 0] + pert(y[2:])[0, 0] - 0.55) <= 1e-13 * 1.55
    assert 1 < used < 200


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5])
def test_g_forward_is_eta_x_plus_bump(eta):
    b = build_contraction_pair(eta)
    pts = np.linspace(0.0, 12.0, 1201).reshape(-1, 1)
    assert np.array_equal(b.g.forward(pts), eta * pts + bump_eval(b.bump, pts))
