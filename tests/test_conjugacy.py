"""Operator iteration: gates, envelope recurrence, and the Picard driver."""

import dataclasses
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homconj import (
    BumpSpec,
    CrossConstants,
    Domain,
    DomainMismatchError,
    EstimateContext,
    GateConstants,
    Gauge,
    PicardContext,
    PremetricEstimate,
    SampleScheme,
    build_contraction_pair,
    build_lozi,
    build_perturbed_linear,
    build_pure_linear,
    build_translation,
    builtin_triple,
    bump_lipschitz,
    cauchy_envelope,
    check_p_alpha,
    compose,
    conjugacy_operator,
    conjugacy_residual,
    contraction_check,
    displacement,
    doubling_sample_sets,
    envelope_threshold,
    exhaustion_sets,
    identity,
    invert,
    negative_iterates_bound,
    picard_solve,
    premetric,
    primitive,
    sample_points,
)

import homconj.conjugacy as conjugacy_module
from homconj import homspace
from conftest import MissingEntries, bump_member, churn_tables
from homconj.homspace import _chain_memo, _gate_constant


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
    phi = Gauge(eval=lambda p: np.ones(len(p)), beta=2.0, gamma=0.5, m=1.0)
    A = _gate_constant(phi, CrossConstants(a=1.0, b=1.25))
    gc = GateConstants(A=A, delta=0.01, C=0.5)
    assert gc.A == pytest.approx(6.5, abs=1e-12)
    assert gc.threshold == pytest.approx(1.0 / 6.5, abs=1e-12)
    assert gc.gate_passes
    tight = GateConstants(A=A, delta=0.2, C=0.5)
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
    env = cauchy_envelope(m=4, epsilon=0.1, C=0.5, k_max=1)
    assert env.value_at(0) == 0.1
    assert env.value_at(1) == pytest.approx(0.16875, abs=1e-15)
    assert env.a_m == pytest.approx(0.84375, abs=1e-15)
    assert np.isfinite(env.tail)
    assert env.bound == pytest.approx(0.1 + env.tail, abs=1e-15)


def test_envelope_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cauchy_envelope(m=1, epsilon=0.1, C=1.0, k_max=1)
    with pytest.raises(ValueError):
        cauchy_envelope(m=1, epsilon=0.0, C=0.5, k_max=1)
    with pytest.raises(ValueError):
        cauchy_envelope(m=0, epsilon=0.1, C=0.5, k_max=1)


def test_envelope_values_increase():
    env = cauchy_envelope(m=3, epsilon=0.05, C=0.4, k_max=30)
    diffs = np.diff(env.values)
    assert np.all(diffs > 0)


@settings(max_examples=60, deadline=None)
@given(epsilon=st.floats(min_value=1e-4, max_value=0.5),
       C=st.floats(min_value=0.05, max_value=0.95),
       m=st.integers(min_value=1, max_value=40))
def test_envelope_bound_dominates_when_tamed(epsilon, C, m):
    env = cauchy_envelope(m=m, epsilon=epsilon, C=C, k_max=60)
    assume(env.a_m < 1.0)
    assert max(env.values) <= env.bound * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(epsilon=st.floats(min_value=1e-4, max_value=0.5),
       C=st.floats(min_value=0.05, max_value=0.95))
def test_threshold_tames_the_envelope(epsilon, C):
    n = envelope_threshold(epsilon, C)
    env = cauchy_envelope(m=n + 1, epsilon=epsilon, C=C, k_max=200)
    assert env.a_m < 1.0
    assert env.tail <= epsilon * (1.0 + 1e-12)
    assert max(env.values) <= 2.0 * epsilon * (1.0 + 1e-12)


def scan_threshold(epsilon, C):
    """Least n whose seed step m = n + 1 gives a_m < 1 and a tail of at
    most epsilon, by trying m = 1, 2, ... in turn."""
    m = 1
    while True:
        a_m = C ** (m + 1) * (1.0 + 1.0 / epsilon) + C
        if a_m < 1.0 and C ** m * (epsilon / (1.0 - a_m)
                                   + 1.0 / (1.0 - C)) <= epsilon:
            return m - 1
        m += 1


def test_threshold_is_the_linear_scan():
    # (0.1, 0.9999) needs a seed step past 100,000
    grid = [(eps, C) for eps in (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.0, 3.0)
            for C in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995)]
    for epsilon, C in grid + [(0.1, 0.9999)]:
        assert envelope_threshold(epsilon, C) == scan_threshold(epsilon, C)
    assert envelope_threshold(0.1, 0.9999) > 100_000


def test_threshold_raises_when_no_step_tames():
    # 1/epsilon overflows, so a_m is inf, then NaN once C^m underflows:
    # no seed step tames, and the search stops instead of doubling forever
    with pytest.raises(ValueError, match="no seed step tames"):
        envelope_threshold(1e-320, 0.5)


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


def _per_chain_rows(f, g, h0, pts, n_bnd):
    """The probe's rows as a walk of each iterate alone, without a memo,
    in the order 0, 1, -1, 2, -2, ..."""
    norm_of = h0.domain.norm_of
    rows = {0: norm_of(h0.forward(pts))}
    pos = neg = h0
    for n in range(1, n_bnd + 1):
        pos = compose(compose(f, pos), invert(g))
        neg = compose(compose(invert(f), neg), g)
        rows[n] = norm_of(pos.forward(pts))
        rows[-n] = norm_of(neg.forward(pts))
    return rows


def _probe_maps(case):
    """(f, g, writable sample points) on the half line or the 2-d box."""
    if case == "half_line":
        b = build_contraction_pair(0.25)
        pts = sample_points(b.domain, SampleScheme(window_radius=8.0))
        return b.f, b.g, np.array(pts)
    # a two-atom f, so a run is a run of blocks, and an f^-1 that solves
    g = build_lozi(1.4, 0.3)
    bump = BumpSpec(center=1.5, halfwidth=1.0, height=0.1)
    f = compose(build_perturbed_linear([[0.8, 0.2], [-0.1, 0.9]], bump),
                build_translation([0.25, -0.5]))
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=7,
                          quasirandom_count=8, exhaustion_levels=2)
    return f, g, np.array(sample_points(g.domain, scheme))


@pytest.mark.parametrize("n_bnd", [0, 1, 2, 32])
@pytest.mark.parametrize("h0_name", ["g", "id", "f", "f∘g", "f^-1∘g"])
@pytest.mark.parametrize("case", ["half_line", "box2"])
def test_lockstep_probe_rows_are_the_per_chain_walks(case, h0_name, n_bnd):
    # the probe applies each leading run of f or f^-1 to a stack of
    # chains at once; every atom is row-wise, so each row must carry the
    # bits of the iterate walked alone, and the keys keep their order
    f, g, pts = _probe_maps(case)
    h0 = {"g": g, "id": identity(g.domain), "f": f, "f∘g": compose(f, g),
          "f^-1∘g": compose(invert(f), g)}[h0_name]
    rep = negative_iterates_bound(f, g, h0, pts, n_bnd)
    ref = _per_chain_rows(f, g, h0, pts, n_bnd)
    assert list(rep.rows) == list(ref)
    for n, norms in ref.items():
        assert rep.rows[n].view(np.uint64).tobytes() \
            == norms.view(np.uint64).tobytes(), n


def _counting(domain, scale, calls):
    """x -> scale x whose forward and inverse calls land in ``calls``."""
    def fwd(p):
        calls.append(p.shape[0])
        return scale * p

    def inv(p):
        calls.append(p.shape[0])
        return p / scale

    return primitive(domain, fwd, inv, f"{scale:g}x counted")


@pytest.mark.parametrize("h0_name", ["g", "f∘g"])
def test_lockstep_probe_calls_f_linearly_in_n_bnd(h0_name):
    # chain +-n opens with n atoms f^+-1 that no other chain shares; walked
    # alone they cost n (n_bnd + 1) calls, in lockstep one call per round
    b = build_contraction_pair(0.25)
    calls = []
    f = _counting(b.domain, 0.25, calls)
    h0 = b.g if h0_name == "g" else compose(f, b.g)
    pts = np.array(sample_points(b.domain, SampleScheme(window_radius=8.0)))
    used = {}
    for n_bnd in (8, 16, 32):
        del calls[:]
        negative_iterates_bound(f, b.g, h0, pts, n_bnd)
        used[n_bnd] = len(calls)
        # f and f^-1 once per round, and h0 may add one run step
        assert used[n_bnd] <= 2 * (n_bnd + 1)
    assert used[32] - used[16] == 2 * (used[16] - used[8])


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
    assert tr.anchored[0][0] == 0
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


def _report_bits(rep):
    """Everything a BoundReport states, floats as their bits."""
    return (tuple(rep.values), np.array(list(rep.values.values())).tobytes(),
            rep.n_bnd, rep.flagged, np.float64(rep.max_value).tobytes(),
            rep.notes)


@pytest.mark.parametrize("case", ["eta0.1", "eta0.25", "eta0.5",
                                  "unbounded", "eta1e-10"])
def test_picard_probe_reports_are_walks_of_the_compacts(monkeypatch,
                                                        half_dom,
                                                        sqrt_triple,
                                                        scheme_fast, case):
    # the driver walks the top table once, cut to the outer compact, and
    # reads the inner compact's report and each step's compact bound off its
    # rows; every number must be what a walk of that compact's own array gives
    if case == "unbounded":
        f = g = scaling(half_dom, 0.9)
        h0, alpha = translation(half_dom, 1.0), 1.05
    else:
        b = build_contraction_pair(float(case[3:]))
        f, g, h0, alpha = b.f, b.g, b.g, b.alpha
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=alpha)
    levels = exhaustion_sets(half_dom, scheme_fast)
    inner, outer = levels[0], levels[-1]
    assert 0 < inner.shape[0] < outer.shape[0]
    walked = []
    real_bound = conjugacy_module.negative_iterates_bound

    def recording_bound(*args):
        walked.append(args[3])
        return real_bound(*args)

    monkeypatch.setattr(conjugacy_module, "negative_iterates_bound",
                        recording_bound)
    with np.errstate(over="ignore", invalid="ignore"):
        res = picard_solve(f, g, h0, ctx)
        pre = negative_iterates_bound(f, g, h0, inner, ctx.n_bnd)
        post = negative_iterates_bound(f, g, h0, outer, ctx.n_bnd)
        n = res.trace.n_steps
        steps = negative_iterates_bound(f, g, h0, inner, n + 1).values
    tr = res.trace
    top = doubling_sample_sets(half_dom, scheme_fast)[-1][1]
    assert len(walked) == 1 and walked[0] is top
    assert _report_bits(tr.bound_pre) == _report_bits(pre)
    if case.startswith("eta0"):
        assert res.converged and n > 0
        assert _report_bits(tr.bound_post) == _report_bits(post)
    else:
        assert tr.verdict == "unbounded_on_compacts" and tr.bound_pre.flagged
        assert n == 0 and tr.bound_post is None and res.membership is None
    for k, step in enumerate(tr.steps):
        expect = max(steps[k + 1], steps[-k - 1])
        assert np.float64(step.compact_bound).tobytes() \
            == np.float64(expect).tobytes()


@pytest.mark.parametrize("n_bnd", [4, 32])
def test_picard_compact_bounds_are_walks_of_the_outer_compact(
        half_dom, sqrt_triple, scheme_fast, bundle_025, n_bnd):
    # a step's compact bound is read off the probe's rows while n + 1 <=
    # n_bnd and walked beyond: both must be the bits of walking iterate
    # n + 1 on the outer compact and restricting it to the inner one
    b = bundle_025
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=b.alpha, n_bnd=n_bnd)
    res = picard_solve(b.f, b.g, b.g, ctx)
    assert res.converged and res.trace.n_steps > 4
    levels = exhaustion_sets(half_dom, scheme_fast)
    outer = np.array(levels[-1])
    norm_of = half_dom.norm_of
    in_inner = norm_of(outer) <= np.max(norm_of(levels[0]))
    pos = neg = b.g
    for step in res.trace.steps:
        pos = compose(compose(b.f, pos), invert(b.g))
        neg = compose(compose(invert(b.f), neg), b.g)
        old = max(float(np.max(norm_of(pos.forward(outer))[in_inner])),
                  float(np.max(norm_of(neg.forward(outer))[in_inner])))
        assert np.float64(step.compact_bound).tobytes() \
            == np.float64(old).tobytes(), step.n


def test_compact_bounds_past_the_probe_cost_no_extra_calls(monkeypatch,
                                                          scheme):
    # a run longer than n_bnd reads its later compact bounds off one more
    # lockstep probe, so a shorter probe never walks f or f^-1 more often;
    # walking each iterate past the probe on its own would call them once
    # per leading atom of every chain
    b = build_contraction_pair(0.5)
    atom = b.f.chain[0][0]
    calls = {}
    for name in ("fwd", "inv"):
        def counted(p, real=getattr(atom, name), name=name):
            calls[name] += 1
            return real(p)

        monkeypatch.setattr(atom, name, counted)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    used = {}
    for n_bnd in (0, 4, 32):
        calls.update(fwd=0, inv=0)
        res = picard_solve(b.f, b.g, b.g,
                           PicardContext(est=est, alpha=b.alpha, n_bnd=n_bnd))
        assert res.converged and 4 < res.trace.n_steps < 32
        used[n_bnd] = dict(calls)
    for n_bnd in (0, 4):
        for name in ("fwd", "inv"):
            assert used[n_bnd][name] <= used[32][name], (n_bnd, name)


@pytest.mark.parametrize("n_bnd, expected", [(32, 53), (4, 45)])
def test_picard_walks_one_g_inverse_orbit(monkeypatch, scheme, n_bnd,
                                          expected):
    # the orbit g^-k of the top table is walked once, by the probe to
    # k = n_bnd - 1 and by the observations to k = n_steps, so 31 calls at
    # n_bnd 32 and 23 at n_bnd 4, and every later walk of the run reuses
    # it; each increment 1..n_steps - 1 solves its own g^-1 on its root
    # f^-n of the table, 22 calls, so no call is stacked or made for a
    # step the run never takes.  Walking the orbit of the outer compact
    # too made 76 calls at n_bnd 32
    b = build_contraction_pair(0.5)
    atom = b.g.chain[0][0]
    inverse, calls = atom.inv, []

    def counted(p):
        calls.append(p.shape[0])
        return inverse(p)

    monkeypatch.setattr(atom, "inv", counted)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme)
    del calls[:]
    res = picard_solve(b.f, b.g, b.g, PicardContext(
        est=est, alpha=b.alpha, n_bnd=n_bnd, eigen_report=eigen))
    assert res.converged and res.trace.n_steps == 23
    assert calls == [607] * expected


@pytest.mark.parametrize("h0_name, expected", [
    ("g", {"f.fwd": (630, 475978), "f.inv": (99, 153661),
           "g.fwd": (561, 340527), "g.inv": (53, 32171)}),
    ("id", {"f.fwd": (560, 433488), "f.inv": (75, 139093),
            "g.fwd": (537, 325959), "g.inv": (53, 32171)}),
])
def test_picard_atom_calls_from_g_and_the_identity(monkeypatch, scheme,
                                                   h0_name, expected):
    # from h0 = g or the identity every image a run reads again is a
    # two-run word f^a∘g^b of the table, so filing only the first two runs
    # of each chain costs no atom call: the (calls, rows) per atom and
    # direction that filing every step image made
    b = build_contraction_pair(0.5)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme)
    used = {}
    for name, h in (("f", b.f), ("g", b.g)):
        atom = h.chain[0][0]
        for way in ("fwd", "inv"):
            def counted(p, real=getattr(atom, way), key=f"{name}.{way}"):
                calls, rows = used.get(key, (0, 0))
                used[key] = (calls + 1, rows + p.shape[0])
                return real(p)

            monkeypatch.setattr(atom, way, counted)
    h0 = b.g if h0_name == "g" else identity(b.domain)
    res = picard_solve(b.f, b.g, h0, PicardContext(est=est, alpha=b.alpha,
                                                   eigen_report=eigen))
    assert res.converged
    assert used == expected


def test_picard_memory_stays_below_the_filed_premetric_images(scheme,
                                                              table_caches):
    # filing every step image kept the third run of each increment and
    # observation, images no later walk reads: a traced peak of 7.6 MiB
    # for this solve, against 3.6 MiB with the first two runs filed
    b = build_contraction_pair(0.5)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    tracemalloc.start()
    try:
        res = picard_solve(b.f, b.g, b.g, PicardContext(est=est,
                                                        alpha=b.alpha))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.trace.n_steps == 23
    assert peak <= 5 * 2 ** 20


def test_picard_solves_file_the_pinned_images(monkeypatch, process_memo,
                                              table_caches):
    # the three solves of one seed-1 picard_eta pass of the benchmark, each
    # after its eigenvalue gate: the images their run memos and the process
    # memo file, and the memo lookups of their walks, one per filed run
    # walked.  Nothing is evicted: 4.3 MB is far below _MEMO_BYTES
    lookups, memos = [], [process_memo]

    class Counted(OrderedDict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    class Recorded(homspace._ChainMemo):
        def __init__(self):
            super().__init__()
            self.entries = Counted()
            memos.append(self)

    monkeypatch.setattr(process_memo, "entries", Counted())
    monkeypatch.setattr(homspace, "_ChainMemo", Recorded)
    scheme = SampleScheme(window_radius=8.0, seed=1)
    for eta in (0.1, 0.25, 0.5):
        b = build_contraction_pair(eta)
        est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi,
                              r=b.r, cross=b.cross)
        eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme)
        res = picard_solve(b.f, b.g, b.g, PicardContext(
            est=est, alpha=b.alpha, eigen_report=eigen))
        assert res.converged
    assert len(memos) == 4
    assert sum(memo.nbytes for memo in memos) == 4_287_848
    assert len(lookups) == 751


def test_picard_walks_one_g_inverse_orbit_after_table_churn(monkeypatch,
                                                            table_caches):
    # the probe and the residuals read the top table from one record, so a
    # cache churn that keeps only part of a key's data cannot make them walk
    # g^-k from two copies of the table: 31 orbit calls and 22 increment
    # calls, as in a fresh process, each on the 607 rows of the table
    b = build_contraction_pair(0.5)
    atom = b.g.chain[0][0]
    inverse, calls = atom.inv, []

    def counted(p):
        calls.append(p.shape[0])
        return inverse(p)

    monkeypatch.setattr(atom, "inv", counted)
    scheme = SampleScheme(window_radius=8.0, seed=1)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme)
    exhaustion_sets(b.domain, scheme)
    churn_tables(b.domain, lambda: displacement(b.f, b.phi, b.r, scheme))
    del calls[:]
    res = picard_solve(b.f, b.g, b.g, PicardContext(
        est=est, alpha=b.alpha, eigen_report=eigen))
    assert res.converged and res.trace.n_steps == 23
    assert calls == [607] * 53


def test_picard_converges_at_step_0_from_the_fixed_point(scheme_fast,
                                                         bundle_025):
    # g∘id∘g^-1 cancels to the identity, so the initial defect is exactly 0;
    # the envelope recurrence needs no 1/epsilon and seeds at 0
    b = bundle_025
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    res = picard_solve(b.g, b.g, identity(b.domain),
                       PicardContext(est=est, alpha=b.alpha))
    tr = res.trace
    assert tr.constants.delta == 0.0 and tr.verdict == "converged"
    assert [s.n for s in tr.steps] == [0]
    assert tr.steps[0].rho_increment == 0.0
    assert tr.steps[0].fk_envelope == 0.0
    assert tr.anchored == ((0, 0.0, 0.0),)
    assert res.residual == 0.0
    assert res.membership.verdict == "member"


def _solve_bits(res):
    """Everything a Picard result states, floats as their bits."""
    tr = res.trace
    bits = [tr.verdict, tr.failed_gate, tr.notes,
            tr.incrementally_bounded, [dataclasses.astuple(s) for s in tr.steps],
            tr.anchored, np.float64(res.residual).tobytes(),
            dataclasses.astuple(tr.constants)]
    for rep in (tr.bound_pre, tr.bound_post):
        bits.append(None if rep is None else (
            _report_bits(rep), [(n, r.tobytes()) for n, r in rep.rows.items()]))
    m = res.membership
    bits.append(None if m is None else (
        m.verdict, m.forward.value, m.forward.window_trace, m.inverse.value,
        m.inverse.window_trace))
    pts = np.array(doubling_sample_sets(res.h.domain, tr.eigen.inputs[4])[-1][1])
    bits.append(res.h.forward(pts).tobytes())
    return [repr(b) for b in bits]


@pytest.mark.parametrize("n_bnd", [4, 32])
@pytest.mark.parametrize("h0_name", ["g", "id"])
def test_picard_outputs_do_not_depend_on_memo_lookups(monkeypatch,
                                                      scheme_fast, h0_name,
                                                      n_bnd):
    # the probe's orbits are filed for the steps' walks to find; every
    # number must be the one those walks compute on their own
    b = build_contraction_pair(0.5)
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme_fast)
    ctx = PicardContext(est=est, alpha=b.alpha, n_bnd=n_bnd,
                        eigen_report=eigen)
    h0 = b.g if h0_name == "g" else identity(b.domain)
    res = picard_solve(b.f, b.g, h0, ctx)
    assert res.converged and res.trace.n_steps > n_bnd // 2
    memo_class = homspace._ChainMemo

    class Unread(memo_class):
        def __init__(self):
            super().__init__()
            self.entries = MissingEntries()

    monkeypatch.setattr(homspace, "_ChainMemo", Unread)
    assert _solve_bits(picard_solve(b.f, b.g, h0, ctx)) == _solve_bits(res)


@pytest.mark.parametrize("eta", [1.25e-10, 1.5e-10, 2e-10, 5e-10])
def test_picard_work_for_steps_never_taken_does_not_warn(eta):
    # at these rates f^-n of the top table leaves the float range for n
    # below n_bnd, and at 1.25e-10 so does the probe's g^-31 on rows of the
    # table outside the outer compact; the run converges in one step, so it
    # walks no root f^-n of an increment it never takes, and the probe
    # reads none of those rows, so nothing may warn
    b = build_contraction_pair(eta)
    scheme = SampleScheme(window_radius=8.0, seed=1)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = picard_solve(b.f, b.g, b.g, PicardContext(est=est,
                                                        alpha=b.alpha))
    assert res.converged and res.trace.n_steps == 1
    assert not res.trace.bound_pre.flagged


def test_every_measured_step_is_anchored_at_step_zero(scheme_fast,
                                                      monkeypatch):
    # the defect gate passes only with delta < min(1, 1/A) <= 1, so the
    # envelope is seeded at step 0 by delta and observes rho(h_{n+1}, h0)
    b = build_contraction_pair(0.25)
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    overflowing = build_contraction_pair(0.001)
    # the last two runs stop on no increment: tol_conj 1e-300
    tol_conj = conjugacy_module._TOL_CONJ
    runs = [
        (b, PicardContext(est=est, alpha=b.alpha), tol_conj),
        (b, PicardContext(est=est, alpha=b.alpha, n_bnd=4), tol_conj),
        (b, PicardContext(est=est, alpha=b.alpha, n_max=5), 1e-300),
        (overflowing, PicardContext(
            est=dataclasses.replace(est, phi=overflowing.phi,
                                    r=overflowing.r, cross=overflowing.cross),
            alpha=overflowing.alpha), 1e-300),
    ]
    traces = []
    for pair, ctx, tol in runs:
        monkeypatch.setattr(conjugacy_module, "_TOL_CONJ", tol)
        with np.errstate(over="ignore", invalid="ignore"):
            tr = picard_solve(pair.f, pair.g, pair.g, ctx).trace
        traces.append(tr)
        assert tr.n_steps > 0
        envelope = cauchy_envelope(1, tr.constants.delta, tr.constants.C,
                                   ctx.n_max)
        assert tr.anchored[0][1:] == (tr.constants.delta,) * 2
        assert [a[0] for a in tr.anchored] == [s.n for s in tr.steps]
        for (_, _, env), step in zip(tr.anchored, tr.steps):
            assert env == step.fk_envelope == envelope.value_at(step.n)
    assert [tr.verdict for tr in traces] == [
        "converged", "converged", "budget_exhausted", "non_finite"]
    # each observation is the premetric of the step's iterate to h0
    h = b.g
    for n, observed, _ in traces[0].anchored:
        h = conjugacy_operator(b.f, b.g, h)
        rho = premetric(h, b.g, b.phi, b.r, scheme_fast).rho
        assert np.float64(observed).tobytes() == np.float64(rho).tobytes()
    # a run that measures no step observes nothing
    f = scaling(b.domain, 0.9)
    failed = picard_solve(f, f, translation(b.domain, 1.0),
                          PicardContext(est=est, alpha=1.05))
    assert failed.trace.n_steps == 0
    assert failed.trace.anchored == ()
    assert failed.trace.incrementally_bounded is None


def test_residual_of_a_planted_affine_conjugacy_is_rounding(half_dom,
                                                            scheme_fast):
    # g = h^-1∘f∘h = 2x + 1 for f = 2x and h = x + 1, so f∘h and h∘g agree
    # up to rounding.  On x >= 0 with u the unit roundoff: fl(x + 1) times
    # 2 is off by at most 2u(x + 1), and fl(fl(2x + 1) + 1) by at most
    # u(2x + 1) + u(2x + 2) + u^2 (2x + 1), so their gap is at most
    # (2x + 2)(3u + u^2).  The gauge 1 + |g(x)| = 2x + 2 is computed at
    # most a factor (1 - u)^2 low, the gap and the quotient each round up
    # by at most (1 + u), so the residual is at most 3u(1 + 8u).
    growth, r, cross, phi = builtin_triple("linear_plus", half_dom)
    est = EstimateContext(domain=half_dom, scheme=scheme_fast, phi=phi, r=r,
                          cross=cross)
    f = scaling(half_dom, 2.0)
    h = translation(half_dom, 1.0)
    g = primitive(half_dom, lambda p: 2.0 * p + 1.0,
                  lambda p: (p - 1.0) / 2.0, "2x+1")
    u = np.finfo(float).eps / 2
    assert 0.0 <= conjugacy_residual(f, g, h, est) <= 3 * u * (1 + 8 * u)
    assert conjugacy_residual(f, f, identity(half_dom), est) == 0.0


def test_residuals_of_successive_iterates_extend_one_orbit(monkeypatch,
                                                            scheme_fast):
    # under one run memo, h_{n+1}∘g is the chain f∘h_n, so each residual
    # after the first walks only one new g^-1 step from the sample table;
    # walking h_{n+1} from the images g(x) started a second orbit there
    b = build_contraction_pair(0.25)
    atom = b.g.chain[0][0]
    inverse, calls = atom.inv, []

    def counted(p):
        calls.append(p.shape[0])
        return inverse(p)

    monkeypatch.setattr(atom, "inv", counted)
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    used = []
    with _chain_memo():
        h = b.g
        for _ in range(8):
            h = conjugacy_operator(b.f, b.g, h)
            del calls[:]
            conjugacy_residual(b.f, b.g, h, est)
            used.append(len(calls))
    # h_1 = f walks no g^-1; h_2 = f^2∘g^-1 walks one
    assert used[0] + used[1] <= 1
    assert all(n <= 1 for n in used)


def test_picard_rejects_alpha_below_one(half_dom, sqrt_triple, scheme_fast):
    with pytest.raises(ValueError):
        PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                      alpha=0.9)


def test_picard_rejects_an_eigen_report_for_another_alpha(scheme_fast,
                                                          bundle_025):
    b = bundle_025
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme_fast)
    assert PicardContext(est=est, alpha=b.alpha,
                         eigen_report=eigen).eigen_report is eigen
    with pytest.raises(ValueError, match="eigen_report was computed at"):
        PicardContext(est=est, alpha=b.alpha * 1.5, eigen_report=eigen)


def test_picard_rejects_an_eigen_report_for_another_pair(scheme_fast):
    # at alpha 1.5 the eta = 0.25 pair clears the gate and the eta = 0.5
    # pair does not; the first pair's report must not let the second run
    b25, b05 = build_contraction_pair(0.25), build_contraction_pair(0.5)
    other = check_p_alpha(b25.f, b25.g, b25.phi, b25.r, 1.5, scheme_fast)
    own = check_p_alpha(b05.f, b05.g, b05.phi, b05.r, 1.5, scheme_fast)
    assert other.satisfied and not own.satisfied
    est = EstimateContext(domain=b05.domain, scheme=scheme_fast, phi=b05.phi,
                          r=b05.r, cross=b05.cross)
    with pytest.raises(ValueError, match="computed on other maps"):
        picard_solve(b05.f, b05.g, b05.g,
                     PicardContext(est=est, alpha=1.5, eigen_report=other))
    res = picard_solve(b05.f, b05.g, b05.g,
                       PicardContext(est=est, alpha=1.5, eigen_report=own))
    assert res.trace.verdict == "gate_failed"
    assert res.trace.failed_gate == "eigenvalue_gate"


@pytest.mark.parametrize("change", ["g", "scheme"])
def test_picard_rejects_an_eigen_report_on_other_settings(scheme_fast,
                                                          bundle_025, change):
    # the report records its maps and scheme; a solve on any other one of
    # them refuses it before doing any work
    b = bundle_025
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    g = invert(b.f) if change == "g" else b.g
    scheme = SampleScheme(window_radius=2.0, grid_points_per_axis=7,
                          quasirandom_count=4, exhaustion_levels=1) \
        if change == "scheme" else scheme_fast
    eigen = check_p_alpha(b.f, g, b.phi, b.r, b.alpha, scheme)
    ctx = PicardContext(est=est, alpha=b.alpha, eigen_report=eigen)
    with pytest.raises(ValueError, match="computed on other maps"):
        picard_solve(b.f, b.g, b.g, ctx)


def test_picard_gate_failure_eigenvalue(half_dom, sqrt_triple, scheme_fast,
                                        bundle_025):
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=3.0)
    res = picard_solve(bundle_025.f, bundle_025.g, bundle_025.g, ctx)
    assert res.trace.verdict == "gate_failed"
    assert res.trace.failed_gate == "eigenvalue_gate"
    assert res.trace.steps == ()


@pytest.mark.parametrize("slacks", [(np.nan, -1.0), (-1.0, np.nan)],
                         ids=["f-nan", "g-nan"])
def test_picard_gate_margin_is_nan_when_either_slack_is(bundle_025,
                                                        scheme_fast, slacks):
    # an undefined slack leaves the margin undefined, whichever map it is
    b = bundle_025
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    eigen = check_p_alpha(b.f, b.g, b.phi, b.r, 3.0, scheme_fast)
    assert not eigen.satisfied
    eigen = dataclasses.replace(eigen, min_slack_f=slacks[0],
                                min_slack_g=slacks[1])
    res = picard_solve(b.f, b.g, b.g,
                       PicardContext(est=est, alpha=3.0, eigen_report=eigen))
    assert res.trace.failed_gate == "eigenvalue_gate"
    assert np.isnan(res.trace.gate_margin)


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


@pytest.mark.parametrize("spike", [1e6, np.inf])
def test_picard_converged_run_flagged_on_the_outer_compact(
        monkeypatch, half_dom, sqrt_triple, scheme_fast, bundle_025, spike):
    # the probe's report on the inner compact gates the run; a converged
    # run must also pass it on the outer compact.  The probe is stubbed to
    # grow (or leave the float range) at |n| = n_bnd on rows outside the
    # inner compact only, so the run converges as before and then takes the
    # verdict unbounded_on_compacts, with its note and its membership
    b = bundle_025
    ctx = PicardContext(est=make_ctx(half_dom, sqrt_triple, scheme_fast),
                        alpha=b.alpha)
    real = picard_solve(b.f, b.g, b.g, ctx)
    assert real.converged and not real.trace.bound_post.flagged
    inner = exhaustion_sets(half_dom, scheme_fast)[0]
    real_bound = conjugacy_module.negative_iterates_bound

    def outer_spike(f, g, h0, pts, n_bnd, rows):
        report = real_bound(f, g, h0, pts, n_bnd, rows)
        outside = half_dom.norm_of(pts[rows]) \
            > np.max(half_dom.norm_of(inner))
        spiked = {n: np.where(outside, spike, norms) if abs(n) == n_bnd
                  else norms for n, norms in report.rows.items()}
        return conjugacy_module._bound_report(spiked, n_bnd)

    monkeypatch.setattr(conjugacy_module, "negative_iterates_bound",
                        outer_spike)
    res = picard_solve(b.f, b.g, b.g, ctx)
    tr = res.trace
    assert tr.verdict == "unbounded_on_compacts" and not res.converged
    assert tr.failed_gate is None and tr.gate_margin is None
    assert _report_bits(tr.bound_pre) == _report_bits(real.trace.bound_pre)
    assert tr.bound_post.flagged and tr.bound_post.max_value == spike
    assert tr.steps == real.trace.steps and res.residual == real.residual
    assert tr.notes[0] == ("boundedness probe failed on the outer compact "
                           "after convergence")
    assert tr.notes[1:] == tr.bound_post.notes
    assert len(tr.notes) == (1 if np.isfinite(spike) else 2)
    assert res.membership is not None
    assert repr(res.membership) == repr(real.membership)


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


def test_picard_inverse_work_is_linear_in_steps(monkeypatch):
    # criterion 11's sampling; increment and residual first reach 0.0 at
    # step 24, so tol_conj = 1e-300 is not met within either budget and
    # both runs spend it whole
    monkeypatch.setattr(conjugacy_module, "_TOL_CONJ", 1e-300)
    b = build_contraction_pair(0.25)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                          quasirandom_count=8, exhaustion_levels=2, seed=7)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    atom = b.g.chain[0][0]
    inverse, calls = atom.inv, []

    def counted(p):
        calls.append(p.shape[0])
        return inverse(p)

    atom.inv = counted
    used = {}
    for n_max in (10, 20):
        del calls[:]
        ctx = PicardContext(est=est, alpha=b.alpha, n_max=n_max)
        res = picard_solve(b.f, b.g, b.g, ctx)
        assert res.trace.verdict == "budget_exhausted"
        assert res.trace.n_steps == n_max
        used[n_max] = len(calls)
    # re-walking h_n = f^n∘h0∘g^-n on every use costs about 150 per step
    assert (used[20] - used[10]) / 10 <= 8


def test_picard_leaves_no_chain_memo_open(bundle_025, scheme_fast):
    f, g = bundle_025.f, bundle_025.g
    est = EstimateContext(domain=bundle_025.domain, scheme=scheme_fast,
                          phi=bundle_025.phi, r=bundle_025.r,
                          cross=bundle_025.cross)
    ctx = PicardContext(est=est, alpha=bundle_025.alpha, n_max=3)
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


def test_picard_leaves_the_process_memo_as_it_was(bundle_025, scheme_fast,
                                                  process_memo):
    # the run memo holds every image of the run and drops it at the end;
    # none reaches the process memo, so a run pins nothing after it ends
    b = bundle_025
    eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, scheme_fast)
    entries, nbytes = dict(process_memo.entries), process_memo.nbytes
    assert entries
    est = EstimateContext(domain=b.domain, scheme=scheme_fast, phi=b.phi,
                          r=b.r, cross=b.cross)
    res = picard_solve(b.f, b.g, b.g, PicardContext(
        est=est, alpha=b.alpha, eigen_report=eigen))
    assert res.converged
    assert process_memo.entries == entries
    assert process_memo.nbytes == nbytes


def test_estimate_context_on_another_domain_is_rejected(bundle_025,
                                                       sqrt_triple,
                                                       scheme_fast):
    # the maps act on the half line; a box context would take the residual
    # and compact bounds down to x = -1, outside their domain
    b = bundle_025
    _, r, cross, phi = sqrt_triple
    est = EstimateContext(domain=Domain(dim=1, region="box"),
                          scheme=scheme_fast, phi=phi, r=r, cross=cross)
    ctx = PicardContext(est=est, alpha=b.alpha, n_max=3)
    with pytest.raises(DomainMismatchError):
        picard_solve(b.f, b.g, b.g, ctx)
    with pytest.raises(DomainMismatchError):
        conjugacy_residual(b.f, b.g, b.g, est)


def test_picard_stops_as_non_finite_when_iterates_overflow(monkeypatch):
    # eta**-n leaves the float range near n = 103 for eta = 0.001; the run
    # must end with a verdict, not raise, and keep the steps before it
    monkeypatch.setattr(conjugacy_module, "_TOL_CONJ", 1e-300)
    b = build_contraction_pair(0.001)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                          quasirandom_count=8, exhaustion_levels=2, seed=7)
    est = EstimateContext(domain=b.domain, scheme=scheme, phi=b.phi, r=b.r,
                          cross=b.cross)
    ctx = PicardContext(est=est, alpha=b.alpha, n_max=200)
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
    monkeypatch.setattr(conjugacy_module, "_TOL_CONJ", 1e-300)
    f, g = bundle_025.f, bundle_025.g
    est = EstimateContext(domain=bundle_025.domain, scheme=scheme_fast,
                          phi=bundle_025.phi, r=bundle_025.r,
                          cross=bundle_025.cross)
    ctx = PicardContext(est=est, alpha=bundle_025.alpha, n_max=10)
    # the boundedness probe walks the iterates of n > 0 and of n < 0
    # first, then the step loop: in the last walk, walks[-1][k] is the
    # iterate of step k
    walks = []
    real_iterates = conjugacy_module._iterates
    real_premetric = conjugacy_module.premetric

    def recording_iterates(*args):
        walks.append([])
        for h in real_iterates(*args):
            walks[-1].append(h)
            yield h

    def premetric_undetermined_at_step_3(h1, *args):
        real = real_premetric(h1, *args)
        if walks and len(walks[-1]) > 3 and h1 is walks[-1][3]:
            return PremetricEstimate(np.nan, real.left, real.right,
                                     "undetermined")
        return real

    monkeypatch.setattr(conjugacy_module, "_iterates", recording_iterates)
    monkeypatch.setattr(conjugacy_module, "premetric",
                        premetric_undetermined_at_step_3)
    res = picard_solve(f, g, g, ctx)
    assert len(walks) == 3
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
    eigen = check_p_alpha(b.f, g, b.phi, b.r, b.alpha, scheme_fast)
    assert eigen.satisfied
    ctx = PicardContext(est=est, alpha=b.alpha, eigen_report=eigen)
    res = picard_solve(b.f, g, g, ctx)
    assert res.converged, res.trace.verdict
    pts = doubling_sample_sets(half_dom, scheme_fast)[-1][1]
    planted = compose(phi, g).forward(pts)
    gap = np.max(np.abs(res.h.forward(pts) - planted) / (1.0 + np.abs(pts)))
    assert gap <= 1e-8


@pytest.mark.parametrize("eta", [0.25, 0.5])
@pytest.mark.parametrize("norm", ["euclidean", "sup"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_picard_recovers_a_planted_conjugacy_on_the_box(dim, norm, eta):
    # the planted pair above on the box of R^d: f = eta x and
    # g = phi^-1∘f∘phi, phi = x + e_0 bump(|x|) with the bump on the
    # euclidean |x| in every norm; g^-1 runs damped_inverse in dimension d
    domain = Domain(dim=dim, region="box", norm=norm)
    _, r, cross, gauge = builtin_triple("sqrt_plus", domain)
    bump = BumpSpec(center=2.0, halfwidth=1.0, height=0.05)
    f = build_pure_linear(eta, domain)
    phi = build_perturbed_linear(np.eye(dim), bump, domain=domain)
    g = compose(compose(invert(phi), f), phi)
    scheme = SampleScheme(window_radius=4.0,
                          grid_points_per_axis=7 if dim == 3 else 15,
                          quasirandom_count=16, seed=1)
    est = EstimateContext(domain=domain, scheme=scheme, phi=gauge, r=r,
                          cross=cross)
    alpha = build_contraction_pair(eta).alpha
    eigen = check_p_alpha(f, g, gauge, r, alpha, scheme)
    assert eigen.satisfied
    # Lip phi <= 1 + k and Lip phi^-1 <= 1 / (1 - k) in the euclidean
    # norm, k = Lip(bump); the sup norm pays sqrt(d) for reading |x|
    k = bump_lipschitz(bump)
    assert eigen.lambda_f == eta
    assert eigen.lambda_g <= eta * (1.0 + k) / (1.0 - k) \
        * (np.sqrt(dim) if norm == "sup" else 1.0)
    res = picard_solve(f, g, g, PicardContext(est=est, alpha=alpha,
                                              eigen_report=eigen))
    assert res.converged, res.trace.verdict
    pts = doubling_sample_sets(domain, scheme)[-1][1]
    planted = compose(phi, g).forward(pts)
    gap = np.max(np.abs(res.h.forward(pts) - planted)
                 / (1.0 + domain.norm_of(pts))[:, None])
    assert gap <= 1e-8
