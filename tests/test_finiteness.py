"""One finiteness rule: no estimator turns a non-finite image into a verdict.

Every public estimator gets two broken maps, one NaN on an interval and one
that overflows to inf.  Each must raise EvaluationError; the boundedness
probe alone flags its report instead.
"""

import re

import numpy as np
import pytest

from homconj import (
    Domain,
    EstimateContext,
    EvaluationError,
    PicardContext,
    SampleScheme,
    abel_check,
    builtin_triple,
    check_p_alpha,
    compact_convergence_distance,
    conjugacy_residual,
    displacement,
    doubling_sample_sets,
    group_membership,
    identity,
    koenigs_eigenfunction,
    negative_iterates_bound,
    periodic_obstruction,
    picard_solve,
    premetric,
    primitive,
    r_lipschitz,
    roundtrip_error,
    schroeder_functional_check,
    wandering_check,
)

# the functional checks need the origin outside the domain
DOMAIN = Domain(dim=1, region="box_minus_ball", inner_radius=0.125)
SCHEME = SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                      quasirandom_count=8, exhaustion_levels=2)
ORBIT = np.array([[3.2], [3.3]])

BROKEN = {
    "nan_on_3_3.5": lambda p: np.where((p > 3.0) & (p < 3.5), np.nan, 0.5 * p),
    "inf_beyond_3": lambda p: np.where(np.abs(p) > 3.0, p * 1e308, 0.5 * p),
}


def _maps(name):
    bad = primitive(DOMAIN, BROKEN[name], lambda p: 2.0 * p, name)
    ok = primitive(DOMAIN, lambda p: 0.5 * p, lambda p: 2.0 * p, "x/2")
    return bad, ok


def _context():
    _, r, cross, phi = builtin_triple("sqrt_plus", DOMAIN)
    return EstimateContext(domain=DOMAIN, scheme=SCHEME, phi=phi, r=r,
                           cross=cross)


def _samples():
    return doubling_sample_sets(DOMAIN, SCHEME)[-1][1]


def _log_ratio(p):
    return np.log(DOMAIN.norm_of(p)) / np.log(0.5)


# estimator -> call on (bad map, a finite map, estimate context)
ESTIMATORS = {
    "displacement": lambda f, g, c: displacement(f, c.phi, c.r, SCHEME),
    "premetric": lambda f, g, c: premetric(f, g, c.phi, c.r, SCHEME),
    "group_membership": lambda f, g, c: group_membership(f, c.phi, c.r,
                                                         SCHEME),
    "r_lipschitz": lambda f, g, c: r_lipschitz(f, c.r, SCHEME),
    "check_p_alpha": lambda f, g, c: check_p_alpha(f, None, c.phi, c.r, 1.2,
                                                   SCHEME),
    "koenigs_eigenfunction": lambda f, g, c: koenigs_eigenfunction(
        f, np.zeros(1), 0.5, SCHEME),
    "abel_check": lambda f, g, c: abel_check(f, _log_ratio, SCHEME),
    "schroeder_functional_check": lambda f, g, c:
        schroeder_functional_check(f, SCHEME),
    "wandering_check": lambda f, g, c: wandering_check(
        f, ORBIT, covering_radius=0.01, nu=1, n_max=2),
    "periodic_obstruction": lambda f, g, c: periodic_obstruction(
        f, alpha=1.2, lambda_r=0.5, orbit=ORBIT, p=2),
    "compact_convergence_distance": lambda f, g, c:
        compact_convergence_distance(f, g, SCHEME),
    "roundtrip_error": lambda f, g, c: roundtrip_error(f, _samples()),
    "conjugacy_residual": lambda f, g, c: conjugacy_residual(
        f, g, identity(DOMAIN), c),
    "picard_solve": lambda f, g, c: picard_solve(
        f, g, g, PicardContext(est=c, alpha=1.2, n_max=3)),
}


@pytest.mark.parametrize("broken", sorted(BROKEN))
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_every_estimator_raises_on_a_non_finite_image(estimator, broken):
    # premetric names the composed map, whose label starts with the bad one
    message = f"map '{re.escape(broken)}[^']*' not finite on "
    bad, ok = _maps(broken)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(EvaluationError, match=message):
        ESTIMATORS[estimator](bad, ok, _context())


@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_the_boundedness_probe_flags_a_non_finite_image(broken):
    # the probe's answer is whether the iterates stay bounded, so an
    # iterate that leaves the float range flags it instead of raising
    bad, ok = _maps(broken)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = negative_iterates_bound(bad, ok, identity(DOMAIN), _samples(),
                                      n_bnd=4)
    assert rep.flagged
    assert rep.notes == ("boundedness probe: iterate n=1 is not finite",)
