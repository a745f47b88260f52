"""Operator iteration: gates, envelope recurrence, and the Picard driver."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homconj import (
    Domain,
    DomainMismatchError,
    EstimateContext,
    GateConstants,
    PicardContext,
    PremetricEstimate,
    SampleScheme,
    Tolerances,
    build_contraction_pair,
    cauchy_envelope,
    check_p_alpha,
    compose,
    conjugacy_operator,
    conjugacy_residual,
    contraction_check,
    doubling_sample_sets,
    envelope_threshold,
    identity,
    invert,
    negative_iterates_bound,
    picard_solve,
    premetric,
    primitive,
    sample_points,
)

import homconj.conjugacy as conjugacy_module
from conftest import bump_member


def scaling(domain, c):
    return primitive(domain, lambda p: c * p, lambda p: p / c, f"{c:g}x")


def translation(domain, t):
    return primitive(domain, lambda p: p + t, lambda p: p - t, f"x+{t:g}")


def make_ctx(half_dom, sqrt_triple, scheme):
    _, r, cross, phi = sqrt_triple
    return EstimateContext(domain=half_dom, scheme=scheme, phi=phi, r=r,
                           cross=cross)


# ===================================================================
# gate constants
# ===================================================================

def test_gate_constant_frozen_value():
    gc = GateConstants(a=1.0, b=1.25, beta=2.0, gamma=0.5, m=1.0,
                       delta=0.01, C=0.5)
    assert gc.A == pytest.approx(6.5, abs=1e-12)
    assert gc.threshold == pytest.approx(1.0 / 6.5, abs=1e-12)
    assert gc.gate_passes
    tight = GateConstants(a=1.0, b=1.25, beta=2.0, gamma=0.5, m=1.0,
                          delta=0.2, C=0.5)
    assert not tight.gate_passes


# ===================================================================
# operator algebra
# ===================================================================

def test_operator_on_g_collapses_to_f(bundle_025):
    image = conjugacy_operator(bundle_025.f, bundle_025.g, bundle_025.g)
    assert image.chain == bundle_025.f.chain


def test_operator_contraction_on_sample_pairs(half_dom, sqrt_triple,
                                              scheme_fast, bundle_025):
    ctx = make_ctx(half_dom, sqrt_triple, scheme_fast)
    h1 = bundle_025.g
    h2 = bump_member(half_dom, 1.5, 0.8, 0.2)
    rep = contraction_check(bundle_025.f, bundle_025.g, h1, h2,
                            bundle_025.alpha, ctx)
    assert rep.passed, rep.witness


# ===================================================================
# envelope recurrence
# ===================================================================

def test_envelope_frozen_first_step():
    env = cauchy_envelope(m=4, n=3, epsilon=0.1, C=0.5, k_max=1)
    assert env.value_at(0) == 0.1
    assert env.value_at(1) == pytest.approx(0.16875, abs=1e-15)
    assert env.a_m == pytest.approx(0.84375, abs=1e-15)
    assert np.isfinite(env.tail)
    assert env.bound == pytest.approx(0.1 + env.tail, abs=1e-15)


def test_envelope_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cauchy_envelope(m=1, n=0, epsilon=0.1, C=1.0, k_max=1)
    with pytest.raises(ValueError):
        cauchy_envelope(m=1, n=0, epsilon=0.0, C=0.5, k_max=1)
    with pytest.raises(ValueError):
        cauchy_envelope(m=0, n=0, epsilon=0.1, C=0.5, k_max=1)


def test_envelope_values_increase():
    env = cauchy_envelope(m=3, n=2, epsilon=0.05, C=0.4, k_max=30)
    diffs = np.diff(env.values)
    assert np.all(diffs > 0)


@settings(max_examples=60, deadline=None)
@given(epsilon=st.floats(min_value=1e-4, max_value=0.5),
       C=st.floats(min_value=0.05, max_value=0.95),
       m=st.integers(min_value=1, max_value=40))
def test_envelope_bound_dominates_when_tamed(epsilon, C, m):
    env = cauchy_envelope(m=m, n=max(0, m - 1), epsilon=epsilon, C=C, k_max=60)
    assume(env.a_m < 1.0)
    assert max(env.values) <= env.bound * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(epsilon=st.floats(min_value=1e-4, max_value=0.5),
       C=st.floats(min_value=0.05, max_value=0.95))
def test_threshold_tames_the_envelope(epsilon, C):
    n = envelope_threshold(epsilon, C)
    env = cauchy_envelope(m=n + 1, n=n, epsilon=epsilon, C=C, k_max=200)
    assert env.a_m < 1.0
    assert env.tail <= epsilon * (1.0 + 1e-12)
    assert max(env.values) <= 2.0 * epsilon * (1.0 + 1e-12)


def test_threshold_is_minimal():
    for epsilon, C in ((0.1, 0.5), (0.01, 0.9), (0.3, 0.3)):
        n = envelope_threshold(epsilon, C)
        if n == 0:
            continue
        m_prev = n  # seed step one smaller
        a_prev = C ** (m_prev + 1) * (1.0 + 1.0 / epsilon) + C
        if a_prev < 1.0:
            tail_prev = C ** m_prev * (epsilon / (1.0 - a_prev)
                                       + 1.0 / (1.0 - C))
            assert tail_prev > epsilon


# ===================================================================
# boundedness probe
# ===================================================================

def test_bound_probe_flags_geometric_growth(half_dom):
    f = scaling(half_dom, 0.9)
    h0 = translation(half_dom, 1.0)
    pts = sample_points(half_dom, SampleScheme(window_radius=8.0))
    rep = negative_iterates_bound(f, f, h0, pts, n_bnd=32)
    assert rep.flagged
    assert rep.max_value == pytest.approx(8.0 + 0.9 ** -32, rel=1e-6)


def test_bound_probe_accepts_contraction_pair(bundle_025, scheme_fast):
    pts = sample_points(bundle_025.domain, scheme_fast)
    rep = negative_iterates_bound(bundle_025.f, bundle_025.g, bundle_025.g,
                                  pts, n_bnd=16)
    assert not rep.flagged
    assert set(rep.values) == set(range(-16, 17))


def test_bound_probe_flags_a_non_finite_iterate(half_dom, sqrt_triple,
                                                scheme):
    # at eta = 1e-10, g^-32 leaves the float range on the inner compact of
    # the default window and the probe value at n = 32 is NaN; it must flag
    # the probe and end the run, not drop out of the max as "converged"
    b = build_contraction_pair(1e-10)
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme),
                        alpha=b.alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        res = picard_solve(b.f, b.g, b.g, ctx)
    rep = res.trace.bound_pre
    assert np.isnan(rep.values[32])
    assert rep.flagged and np.isnan(rep.max_value)
    assert res.trace.verdict == "unbounded_on_compacts"
    assert res.trace.notes == ("boundedness probe: iterate n=32 is not finite",)


# ===================================================================
# the Picard driver
# ===================================================================

def test_picard_converges_on_contraction_pair(half_dom, sqrt_triple, scheme,
                                              bundle_025):
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme),
                        alpha=bundle_025.alpha)
    res = picard_solve(bundle_025.f, bundle_025.g, bundle_025.g, ctx)
    tr = res.trace
    assert res.converged
    assert tr.failed_gate is None
    assert res.residual < 1e-8
    assert tr.steps[-1].rho_increment < 1e-8
    assert tr.anchor is not None
    assert tr.incrementally_bounded is True
    assert not tr.bound_pre.flagged
    assert not tr.bound_post.flagged
    assert [s.n for s in tr.steps] == list(range(len(tr.steps)))
    # every anchored observation sits under its envelope value
    for _, observed, envelope in tr.anchored:
        assert observed <= envelope + 1e-9
    # the limit commutes with the pair on the top sample set
    assert conjugacy_residual(bundle_025.f, bundle_025.g, res.h,
                              ctx.est) < 1e-8


def test_picard_rejects_alpha_below_one(half_dom, sqrt_triple, scheme_fast):
    with pytest.raises(ValueError):
        PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                      alpha=0.9)


def test_picard_gate_failure_eigenvalue(half_dom, sqrt_triple, scheme_fast,
                                        bundle_025):
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=3.0)
    res = picard_solve(bundle_025.f, bundle_025.g, bundle_025.g, ctx)
    assert res.trace.verdict == "gate_failed"
    assert res.trace.failed_gate == "eigenvalue_gate"
    assert res.trace.steps == ()


def test_picard_gate_failure_initial_defect(half_dom, sqrt_triple,
                                            scheme_fast):
    # f = g = x/2 passes the eigenvalue gate at alpha = 1.05 but the seed
    # h0 = x+1 starts half a unit from its image, over the 1/A threshold
    f = scaling(half_dom, 0.5)
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=1.05)
    res = picard_solve(f, f, translation(half_dom, 1.0), ctx)
    assert res.trace.verdict == "gate_failed"
    assert res.trace.failed_gate == "initial_defect"
    assert res.trace.constants.delta == pytest.approx(0.5, abs=1e-9)
    assert res.trace.constants.delta > res.trace.constants.threshold


def test_picard_unbounded_negative_iterates(half_dom, sqrt_triple,
                                            scheme_fast):
    # x/0.9 pulls h0 = x+1 off every compact under backward iteration while
    # the initial defect 0.1 still clears the threshold
    f = scaling(half_dom, 0.9)
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=1.05, n_bnd=32)
    res = picard_solve(f, f, translation(half_dom, 1.0), ctx)
    assert res.trace.verdict == "unbounded_on_compacts"
    assert res.trace.bound_pre is not None and res.trace.bound_pre.flagged


def test_picard_budget_exhaustion(half_dom, sqrt_triple, scheme_fast,
                                  bundle_025):
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=bundle_025.alpha, n_max=3)
    res = picard_solve(bundle_025.f, bundle_025.g, bundle_025.g, ctx)
    assert res.trace.verdict == "budget_exhausted"
    assert len(res.trace.steps) == 3


def test_picard_limits_from_two_seeds_differ_by_g(half_dom, sqrt_triple,
                                                  scheme_fast, bundle_025):
    # the fixed point is unique only per contraction ball: the seed g yields
    # a solution h, the seed id yields h composed with the inverse of g
    # (right-composition with g preserves the intertwining property), and
    # the two limits must agree after undoing that shift
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=bundle_025.alpha)
    from_g = picard_solve(bundle_025.f, bundle_025.g, bundle_025.g, ctx)
    from_id = picard_solve(bundle_025.f, bundle_025.g, identity(half_dom), ctx)
    assert from_g.converged and from_id.converged
    assert from_id.residual < 1e-8
    _, r, _, phi = sqrt_triple
    shifted = compose(from_id.h, bundle_025.g)
    gap = premetric(shifted, from_g.h, phi, r, scheme_fast)
    assert gap.finite
    assert gap.rho < 1e-7


def test_picard_inverse_work_is_linear_in_steps():
    # criterion 11's sampling; tol_conj = 1e-300 is never met, so both runs
    # spend their whole budget
    b = build_contraction_pair(0.25)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                          quasirandom_count=8, exhaustion_levels=2, seed=7)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross, tol=Tolerances(tol_conj=1e-300))
    atom = b.g.chain[0][0]
    inverse, calls = atom.inv, []

    def counted(p):
        calls.append(p.shape[0])
        return inverse(p)

    atom.inv = counted
    used = {}
    for n_max in (20, 40):
        del calls[:]
        ctx = PicardContext(est=est, alpha=b.alpha, n_max=n_max,
                            verify_eigen=False)
        res = picard_solve(b.f, b.g, b.g, ctx)
        assert res.trace.verdict == "budget_exhausted"
        assert res.trace.n_steps == n_max
        used[n_max] = len(calls)
    # re-walking h_n = f^n∘h0∘g^-n on every use costs about 150 per step
    assert (used[40] - used[20]) / 20 <= 8


def test_picard_leaves_no_chain_memo_open(bundle_025, scheme_fast):
    f, g = bundle_025.f, bundle_025.g
    est = EstimateContext(domain=bundle_025.domain, scheme=scheme_fast,
                          phi=bundle_025.phi, r=bundle_025.r,
                          cross=bundle_025.cross)
    ctx = PicardContext(est=est, alpha=bundle_025.alpha, n_max=3,
                        verify_eigen=False)
    fg = compose(f, invert(g))
    pts = sample_points(bundle_025.domain, scheme_fast)

    def assert_closed():
        first, second = fg.forward(pts), fg.forward(pts)
        assert first is not second
        assert first.flags.writeable

    picard_solve(f, g, g, ctx)
    assert_closed()
    with pytest.raises(DomainMismatchError):
        picard_solve(f, g, identity(Domain(dim=1)), ctx)
    assert_closed()


def test_picard_stops_as_non_finite_when_iterates_overflow():
    # eta**-n leaves the float range near n = 103 for eta = 0.001; the run
    # must end with a verdict, not raise, and keep the steps before it
    b = build_contraction_pair(0.001)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                          quasirandom_count=8, exhaustion_levels=2, seed=7)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross, tol=Tolerances(tol_conj=1e-300))
    ctx = PicardContext(est=est, alpha=b.alpha, n_max=200, verify_eigen=False)
    with np.errstate(over="ignore", invalid="ignore"):
        res = picard_solve(b.f, b.g, b.g, ctx)
    trace = res.trace
    assert trace.verdict == "non_finite"
    assert not res.converged and res.membership is None
    n = trace.n_steps
    assert 0 < n < ctx.n_max
    assert [s.n for s in trace.steps] == list(range(n))
    assert all(a[0] < n for a in trace.anchored)
    assert len(trace.notes) == 1
    assert trace.notes[0].startswith(f"step {n} not evaluable: ")
    assert "not finite" in trace.notes[0]
    assert res.residual == trace.steps[-1].conj_residual
    assert np.isfinite(res.residual)


def test_picard_stops_as_undetermined_on_a_nan_increment(monkeypatch,
                                                         bundle_025,
                                                         scheme_fast):
    # a NaN increment fails both `< 1.0` and `< tol_conj`; it must end the
    # run with its own verdict, not look like slow convergence
    f, g = bundle_025.f, bundle_025.g
    est = EstimateContext(domain=bundle_025.domain, scheme=scheme_fast,
                          phi=bundle_025.phi, r=bundle_025.r,
                          cross=bundle_025.cross,
                          tol=Tolerances(tol_conj=1e-300))
    ctx = PicardContext(est=est, alpha=bundle_025.alpha, n_max=10,
                        verify_eigen=False)
    # picard_solve builds the operator image of h0 once for the defect
    # gate, then once per step: images[k + 1] is the iterate of step k
    images = []
    real_operator = conjugacy_module.conjugacy_operator
    real_premetric = conjugacy_module.premetric

    def recording_operator(*args):
        images.append(real_operator(*args))
        return images[-1]

    def premetric_undetermined_at_step_3(h1, *args):
        real = real_premetric(h1, *args)
        if len(images) > 4 and h1 is images[4]:
            return PremetricEstimate(np.nan, real.left, real.right,
                                     "undetermined")
        return real

    monkeypatch.setattr(conjugacy_module, "conjugacy_operator",
                        recording_operator)
    monkeypatch.setattr(conjugacy_module, "premetric",
                        premetric_undetermined_at_step_3)
    res = picard_solve(f, g, g, ctx)
    trace = res.trace
    assert trace.verdict == "undetermined"
    assert not res.converged and res.membership is None
    assert [s.n for s in trace.steps] == [0, 1, 2]
    assert len(trace.notes) == 1
    assert trace.notes[0].startswith("step 3 undetermined: increment nan, ")
    assert res.residual == trace.steps[-1].conj_residual
    assert np.isfinite(res.residual)


@pytest.mark.parametrize("eta", [0.25, 0.5])
@pytest.mark.parametrize("bump", [(2.0, 1.0, 0.05), (3.0, 0.5, 0.02)])
def test_picard_recovers_a_planted_conjugacy(half_dom, scheme_fast, eta,
                                             bump):
    # g = phi^-1∘f∘phi is conjugate to f by construction; from h0 = g the
    # iteration must land on phi∘g, the planted phi shifted by the
    # centralizer element g (see the two-seed test above)
    b = build_contraction_pair(eta)
    phi = bump_member(half_dom, *bump)
    g = compose(compose(invert(phi), b.f), phi)
    est = EstimateContext(domain=half_dom, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    eigen = check_p_alpha(b.f, g, b.phi, b.r, b.alpha, scheme_fast, est.tol)
    assert eigen.satisfied
    ctx = PicardContext(est=est, alpha=b.alpha, eigen_report=eigen)
    res = picard_solve(b.f, g, g, ctx)
    assert res.converged, res.trace.verdict
    pts = doubling_sample_sets(half_dom, scheme_fast)[-1][1]
    planted = compose(phi, g).forward(pts)
    gap = np.max(np.abs(res.h.forward(pts) - planted) / (1.0 + np.abs(pts)))
    assert gap <= 1e-8
