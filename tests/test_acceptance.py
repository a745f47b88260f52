"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
then asserts the same condition, so the terse summary and the exit status
cannot disagree.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from homconj import (
    Domain,
    EstimateContext,
    PicardContext,
    SampleScheme,
    ball_inside_ball_radius,
    build_contraction_pair,
    build_perturbed_linear,
    build_pure_linear,
    builtin_triple,
    cauchy_envelope,
    check_p_alpha,
    check_relaxed_triangle,
    compose,
    conjugacy_operator,
    contraction_check,
    displacement,
    envelope_threshold,
    identity,
    koenigs_eigenfunction,
    koopman_lambda,
    periodic_obstruction,
    picard_solve,
    premetric,
    primitive,
    sample_points,
    validate_gauge,
    validate_scale_pair,
    wandering_check,
)
from homconj.cli import main
from homconj.funcspace import doubling_sample_sets

from conftest import seeded_members

ETAS = (0.1, 0.25, 0.5)

SCHEME_FULL = SampleScheme(window_radius=8.0)
SCHEME_MID = SampleScheme(window_radius=8.0, grid_points_per_axis=21,
                          quasirandom_count=16, exhaustion_levels=2)
SCHEME_LEAN = SampleScheme(window_radius=4.0, grid_points_per_axis=9,
                           quasirandom_count=8, exhaustion_levels=2)


def emit(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -------------------------------------------------------------------
# shared expensive artifacts
# -------------------------------------------------------------------

@pytest.fixture(scope="module")
def eta_runs():
    """Full pipeline per eta: validation reports, gate report, Picard run."""
    out = {}
    for eta in ETAS:
        t0 = time.perf_counter()
        b = build_contraction_pair(eta)
        pair_rep = validate_scale_pair(b.growth, b.r, b.cross, SCHEME_FULL)
        gauge_rep = validate_gauge(b.phi, b.growth, b.domain, SCHEME_FULL)
        eigen = check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha, SCHEME_FULL)
        est = EstimateContext(domain=b.domain, scheme=SCHEME_FULL, phi=b.phi,
                              r=b.r, cross=b.cross)
        ctx = PicardContext(est=est, alpha=b.alpha, eigen_report=eigen)
        res = picard_solve(b.f, b.g, b.g, ctx)
        elapsed = time.perf_counter() - t0
        out[eta] = {"bundle": b, "pair_rep": pair_rep, "gauge_rep": gauge_rep,
                    "eigen": eigen, "result": res, "elapsed": elapsed}
    return out


@pytest.fixture(scope="module")
def half_ctx(half_dom, sqrt_triple):
    _, r, cross, phi = sqrt_triple
    return EstimateContext(domain=half_dom, scheme=SCHEME_LEAN, phi=phi, r=r,
                           cross=cross)


@pytest.fixture(scope="module")
def pool(half_dom):
    return seeded_members(half_dom, 60, seed=29)


@pytest.fixture(scope="module")
def pool_rho(pool, half_ctx):
    # keyed by ordered pair: the premetric is not symmetric, so (i, j)
    # and (j, i) are distinct values
    cache = {}

    def rho(i, j):
        key = (i, j)
        if key not in cache:
            cache[key] = premetric(pool[i], pool[j], half_ctx.phi,
                                   half_ctx.r, half_ctx.scheme, half_ctx.tol)
        return cache[key]

    return rho


# -------------------------------------------------------------------
# 1. end-to-end on the eta grid
# -------------------------------------------------------------------

def test_criterion_01_end_to_end(eta_runs):
    details = []
    ok = True
    for eta in ETAS:
        run = eta_runs[eta]
        b = run["bundle"]
        constants_ok = (b.phi.beta == 2.0 and b.phi.gamma == 0.5
                        and b.phi.m == 1.0 and b.cross.a == 1.0
                        and b.cross.b == 1.25)
        gates_ok = (run["pair_rep"].passed and run["gauge_rep"].passed
                    and run["eigen"].satisfied
                    and run["eigen"].min_slack_f >= 0.0
                    and run["eigen"].min_slack_g >= 0.0)
        res = run["result"]
        solve_ok = (res.converged and res.residual < 1e-6
                    and len(res.trace.steps) <= 200)
        time_ok = run["elapsed"] < 60.0
        ok = ok and constants_ok and gates_ok and solve_ok and time_ok
        details.append(f"eta={eta:g}: {len(res.trace.steps)} steps, "
                       f"residual {res.residual:.2e}, {run['elapsed']:.1f}s")
    emit(1, ok, "; ".join(details))


# -------------------------------------------------------------------
# 2. exact zeros of the premetric
# -------------------------------------------------------------------

def test_criterion_02_premetric_identities(half_dom, sqrt_triple):
    _, r, _, phi = sqrt_triple
    id_est = displacement(identity(half_dom), phi, r, SCHEME_FULL)

    lin1 = primitive(half_dom, lambda p: 2.0 * p, lambda p: 0.5 * p, "2x")
    d1 = displacement(lin1, phi, r, SCHEME_FULL)
    p1 = premetric(lin1, lin1, phi, r, SCHEME_FULL)

    dom2 = Domain(dim=2)
    _, r2, _, phi2 = builtin_triple("sqrt_plus", dom2)
    lin2 = build_perturbed_linear(np.diag([2.0, 3.0]))
    d2 = displacement(lin2, phi2, r2, SCHEME_FULL)
    p2 = premetric(lin2, lin2, phi2, r2, SCHEME_FULL)

    ok = (id_est.value == 0.0 and id_est.finiteness == "finite"
          and d1.finiteness == "divergent" and p1.rho == 0.0
          and p1.finiteness == "finite"
          and d2.finiteness == "divergent" and p2.rho == 0.0
          and p2.finiteness == "finite")
    emit(2, ok, "displacement(id) = 0 exactly; rho(f,f) = 0 exactly for "
                "1-d and 2-d linear maps whose own displacement diverges")


# -------------------------------------------------------------------
# 3. pointwise composition-operator bound
# -------------------------------------------------------------------

def test_criterion_03_koopman_bound(half_dom, sqrt_triple):
    _, r, cross, phi = sqrt_triple
    members = seeded_members(half_dom, 200, seed=31)
    pts = doubling_sample_sets(half_dom, SCHEME_MID)[-1][1]
    worst = -np.inf
    finite_count = 0
    for m in members:
        est = displacement(m, phi, r, SCHEME_MID)
        if not est.finite:
            continue
        finite_count += 1
        lam = koopman_lambda(est.value, phi, cross)
        fx = m.forward(pts)
        keep = half_dom.contains(fx)
        excess = phi.eval(fx[keep]) - lam * phi.eval(pts[keep]) - 1e-12
        worst = max(worst, float(np.max(excess)))
    ok = finite_count == 200 and worst <= 0.0
    emit(3, ok, f"{finite_count}/200 members finite; worst pointwise excess "
                f"{worst:.3e} (must be <= 0)")


# -------------------------------------------------------------------
# 4. relaxed triangle inequality
# -------------------------------------------------------------------

def test_criterion_04_relaxed_triangle(pool, pool_rho, half_ctx):
    rng = np.random.default_rng(np.random.SeedSequence([4242, 4]))
    worst = np.inf
    passed = 0
    for _ in range(1000):
        i, j, k = (int(v) for v in rng.choice(len(pool), 3, replace=False))
        fg = pool_rho(i, j).rho
        fh = pool_rho(i, k).rho
        hg = pool_rho(k, j).rho
        rhs = (half_ctx.product_coeff * fh * hg
               + half_ctx.affine_coeff * fh + hg)
        slack = rhs - fg
        worst = min(worst, slack)
        if slack >= -1e-9:
            passed += 1
    ok = passed == 1000
    emit(4, ok, f"{passed}/1000 triples hold; worst slack {worst:.3e} "
                f"(threshold -1e-9)")


# -------------------------------------------------------------------
# 5. ball-inside-ball radius formula
# -------------------------------------------------------------------

def test_criterion_05_ball_inclusion(pool, pool_rho, half_ctx, half_dom):
    rng = np.random.default_rng(np.random.SeedSequence([4242, 5]))
    B = half_ctx.affine_coeff
    verified = 0
    for _ in range(200):
        i, j = (int(v) for v in rng.choice(len(pool), 2, replace=False))
        f_map, g_map = pool[i], pool[j]
        rho_fg = pool_rho(i, j).rho
        alpha_star = B * rho_fg + 0.3 * (1.0 + rng.random())
        alpha = ball_inside_ball_radius(rho_fg, alpha_star, half_ctx)
        # construct a member provably inside the inner ball: a small
        # left-translation of g has rho <= Lip(g^-1) * shift
        shift = 0.25 * alpha * (0.1 + 0.8 * rng.random())
        member = compose(primitive(half_dom, lambda p, s=shift: p + s,
                                   lambda p, s=shift: p - s, "t"), g_map)
        rho_gm = premetric(g_map, member, half_ctx.phi, half_ctx.r,
                           half_ctx.scheme, half_ctx.tol).rho
        if not rho_gm <= alpha:
            continue
        rho_fm = premetric(f_map, member, half_ctx.phi, half_ctx.r,
                           half_ctx.scheme, half_ctx.tol).rho
        if rho_fm <= alpha_star + 1e-9:
            verified += 1
    ok = verified == 200
    emit(5, ok, f"{verified}/200 instances: member of the inner ball lands "
                f"inside the outer ball at the constructed radius")


# -------------------------------------------------------------------
# 6. operator contraction under a satisfied gate
# -------------------------------------------------------------------

def test_criterion_06_contraction(eta_runs, pool, half_ctx):
    run = eta_runs[0.25]
    b = run["bundle"]
    assert run["eigen"].satisfied  # precondition of the criterion
    rng = np.random.default_rng(np.random.SeedSequence([4242, 6]))
    passed = 0
    worst = np.inf
    for _ in range(500):
        i, j = (int(v) for v in rng.choice(len(pool), 2, replace=False))
        rep = contraction_check(b.f, b.g, pool[i], pool[j], b.alpha, half_ctx)
        worst = min(worst, rep.rhs + 1e-9 - rep.lhs)
        if rep.passed:
            passed += 1
    ok = passed == 500
    emit(6, ok, f"{passed}/500 pairs contract by 1/alpha; worst slack "
                f"{worst:.3e}")


# -------------------------------------------------------------------
# 7. envelope recurrence vs telescoped bound
# -------------------------------------------------------------------

def test_criterion_07_envelope_grid():
    ok = True
    details = []
    for epsilon in (1e-3, 1e-2, 1e-1):
        for C in (0.3, 0.5, 0.9):
            n_thr = envelope_threshold(epsilon, C)
            for n in (n_thr, n_thr + 2):
                env = cauchy_envelope(m=n + 1, epsilon=epsilon, C=C,
                                      k_max=10_000)
                peak = max(env.values)
                cell_ok = (env.a_m < 1.0
                           and peak <= env.bound * (1.0 + 1e-12)
                           and peak <= 2.0 * epsilon * (1.0 + 1e-12))
                ok = ok and cell_ok
            details.append(f"eps={epsilon:g},C={C:g}:n>={n_thr}")
    emit(7, ok, "recurrence stays under the telescoped bound and under "
                "2*eps for k<=1e4 at " + " ".join(details))


# -------------------------------------------------------------------
# 8. observed increments vs envelope on converged runs
# -------------------------------------------------------------------

def test_criterion_08_observed_vs_envelope(eta_runs):
    ok = True
    details = []
    for eta in ETAS:
        tr = eta_runs[eta]["result"].trace
        anchored_ok = (len(tr.anchored) > 0
                       and all(obs <= env + 1e-9
                               for _, obs, env in tr.anchored)
                       and tr.incrementally_bounded is True)
        ok = ok and anchored_ok
        margin = min(env - obs for _, obs, env in tr.anchored)
        details.append(f"eta={eta:g}: {len(tr.anchored)} records, "
                       f"min margin {margin:.2e}")
    emit(8, ok, "; ".join(details))


# -------------------------------------------------------------------
# 9. functional-equation oracles
# -------------------------------------------------------------------

def test_criterion_09_linearization_oracles(eta_runs, half_dom):
    details = []
    ok = True
    pts = sample_points(half_dom, SCHEME_LEAN)
    for eta in ETAS:
        lin = primitive(half_dom, lambda p, c=eta: c * p,
                        lambda p, c=eta: p / c, "eta*x")
        psi, rep = koenigs_eigenfunction(lin, np.zeros(1), eta, SCHEME_LEAN)
        exact_ok = (rep.residual < 1e-12
                    and float(np.max(np.abs(psi(pts) - pts))) < 1e-12)

        dom = Domain(dim=1, region="box_minus_ball", inner_radius=0.125)
        contraction = build_pure_linear(eta, dom)
        log_eta = np.log(eta)

        def varphi(q, d=dom, le=log_eta):
            return np.log(d.norm_of(q)) / le

        from homconj import abel_check
        abel_ok = abel_check(contraction, varphi,
                             SCHEME_LEAN).residual < 1e-12

        g = eta_runs[eta]["bundle"].g
        _, srep = koenigs_eigenfunction(g, np.zeros(1), eta, SCHEME_LEAN,
                                        n_max=200)
        schroeder_ok = srep.residual < 1e-8

        ok = ok and exact_ok and abel_ok and schroeder_ok
        details.append(f"eta={eta:g}: schroeder residual {srep.residual:.1e}")
    emit(9, ok, "exact linear and shift solutions below 1e-12; " +
         "; ".join(details))


# -------------------------------------------------------------------
# 10. wandering vs obstruction consistency
# -------------------------------------------------------------------

def test_criterion_10_wandering_and_obstruction(eta_runs):
    half = Domain(dim=1, region="half_line")
    halving = build_pure_linear(0.5, half)
    cloud = np.linspace(1.0, 1.75, 16).reshape(-1, 1)
    wander_ok = all(
        wandering_check(halving, cloud, covering_radius=0.025, nu=nu,
                        n_max=40).verdict == "wandering"
        for nu in (1, 2, 5))

    # mutual exclusion over every case with a verified orbit: a satisfied
    # gate and an obstructed orbit may never coexist
    exclusion_ok = True
    origin = np.zeros((1, 1))
    for eta in ETAS:
        run = eta_runs[eta]
        b = run["bundle"]
        for mp, lam in ((b.f, run["eigen"].lambda_f),
                        (b.g, run["eigen"].lambda_g)):
            hit = periodic_obstruction(mp, b.alpha, lam, origin, p=1)
            exclusion_ok = exclusion_ok and not (
                run["eigen"].satisfied and hit.obstructed)
            exclusion_ok = exclusion_ok and not hit.obstructed

    # a map that is obstructed must also fail its gate
    box = Domain(dim=1)
    _, r_lin, _, phi_lin = builtin_triple("linear_plus", box)
    flip = primitive(box, lambda p: 1.0 - p, lambda p: 1.0 - p, "1-x")
    orbit = np.array([[0.3], [0.7]])
    hit = periodic_obstruction(flip, 1.2, 1.0, orbit, p=2)
    gate = check_p_alpha(flip, None, phi_lin, r_lin, 1.2, SCHEME_LEAN)
    exclusion_ok = exclusion_ok and hit.obstructed and not gate.satisfied

    ok = wander_ok and exclusion_ok
    emit(10, ok, "halving cloud wanders to n_max=40 for nu in {1,2,5}; no "
                 "built-in case pairs a satisfied gate with an obstructed "
                 "orbit (flip demo obstructed and gate-failed)")


# -------------------------------------------------------------------
# 11. bit-for-bit reproducibility of run records
# -------------------------------------------------------------------

def test_criterion_11_reproducibility(tmp_path):
    payload = {"schema": 1, "experiment": "picard",
               "family": {"name": "contraction_pair", "params": {"eta": 0.25}},
               "sampling": {"window_radius": 4.0, "grid_points_per_axis": 15,
                            "quasirandom_count": 8, "exhaustion_levels": 2,
                            "seed": 7},
               "options": {"h0": "g"}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))

    dirs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        assert main(["run", str(cfg), "--out", str(root)]) == 0
        sub = [p for p in root.iterdir() if p.is_dir()]
        assert len(sub) == 1
        dirs.append(sub[0])

    rec_a = json.loads((dirs[0] / "record.json").read_text())
    rec_b = json.loads((dirs[1] / "record.json").read_text())
    results_equal = rec_a["results"] == rec_b["results"]
    config_equal = rec_a["config"] == rec_b["config"]
    csv_equal = ((dirs[0] / "results.csv").read_bytes()
                 == (dirs[1] / "results.csv").read_bytes())
    trace_equal = ((dirs[0] / "trace.csv").read_bytes()
                   == (dirs[1] / "trace.csv").read_bytes())
    ok = results_equal and config_equal and csv_equal and trace_equal
    emit(11, ok, "two runs of one config+seed agree bit-for-bit on results, "
                 "results.csv, and trace.csv (meta timing excluded)")


# -------------------------------------------------------------------
# 12. chain evaluation vs independent nested loops
# -------------------------------------------------------------------

def test_criterion_12_oracle_equivalence(eta_runs, half_dom):
    b = eta_runs[0.25]["bundle"]
    f_fwd = b.f.chain[0][0].fwd
    g_fwd = b.g.chain[0][0].fwd
    g_inv = b.g.chain[0][0].inv

    pts = sample_points(half_dom, SCHEME_FULL)
    assert pts.shape[0] >= 100
    pts = pts[:100]

    def nested(h0_fwd, n):
        y = pts
        for _ in range(n):
            y = g_inv(y)
        y = h0_fwd(y)
        for _ in range(n):
            y = f_fwd(y)
        return y

    from conftest import bump_member
    member = bump_member(half_dom, 2.0, 1.0, 0.3)
    member_fwd = member.chain[0][0].fwd

    worst = 0.0
    for h0, h0_fwd in ((b.g, g_fwd), (member, member_fwd)):
        h = h0
        for n in range(1, 11):
            h = conjugacy_operator(b.f, b.g, h)
            diff = float(np.max(np.abs(h.forward(pts) - nested(h0_fwd, n))))
            worst = max(worst, diff)
    ok = worst <= 1e-12
    emit(12, ok, f"chain vs nested-loop images agree to {worst:.3e} "
                 f"for n <= 10 on 100 points (two seeds)")
