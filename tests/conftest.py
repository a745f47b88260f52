"""Shared fixtures: domains, gauges, sample schemes, and seeded map pools."""

import dataclasses

import numpy as np
import pytest

from homconj import (
    BumpSpec,
    Domain,
    SampleScheme,
    build_contraction_pair,
    build_perturbed_linear,
    builtin_triple,
    primitive,
)
from homconj import funcspace, homspace, koopman


@pytest.fixture(scope="session")
def half_dom():
    return Domain(dim=1, region="half_line")


@pytest.fixture(scope="session")
def sqrt_triple(half_dom):
    return builtin_triple("sqrt_plus", half_dom)


@pytest.fixture(scope="session")
def scheme():
    return SampleScheme(window_radius=8.0)


@pytest.fixture(scope="session")
def scheme_fast():
    # light sampling for the bulk statistical checks
    return SampleScheme(window_radius=4.0, grid_points_per_axis=15,
                        quasirandom_count=8, exhaustion_levels=2)


@pytest.fixture
def process_memo(monkeypatch):
    """An empty process memo of homspace, in place for one test."""
    memo = homspace._ChainMemo()
    monkeypatch.setattr(homspace, "_PROCESS_MEMO", memo)
    return memo


@pytest.fixture
def table_caches():
    """The value-keyed caches of sample-table data, emptied before and
    after one test, as the triple (top table and geometry, gauge values,
    pair cloud)."""
    caches = (funcspace._top_table, funcspace._table_gauge,
              koopman._pair_cloud)
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()


@pytest.fixture(scope="session")
def bundle_025():
    return build_contraction_pair(0.25)


def bump_member(domain: Domain, center: float, halfwidth: float,
                height: float, label: str = "bump_member"):
    """x + bump(x) on a one-dimensional domain, the dim-1 case of
    ``families.build_perturbed_linear`` with T = [[1]]."""
    spec = BumpSpec(center=center, halfwidth=halfwidth, height=height)
    return dataclasses.replace(
        build_perturbed_linear([[1.0]], spec, domain=domain), label=label)


def seeded_members(domain: Domain, count: int, seed: int,
                   with_translations: bool = True):
    """Deterministic pool of finite-displacement members on a 1-d domain."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1311]))
    out = []
    for i in range(count):
        if with_translations and i % 2 == 1:
            t = float(rng.uniform(0.0, 2.0))
            out.append(primitive(domain,
                                 lambda p, t=t: np.asarray(p, float) + t,
                                 lambda p, t=t: np.asarray(p, float) - t,
                                 f"shift{i}"))
            continue
        center = float(rng.uniform(0.8, 6.0))
        halfwidth = float(rng.uniform(0.3, min(1.5, center - 0.05)))
        # slope factor 1.875 keeps the map strictly increasing
        height = float(rng.uniform(0.05, 0.8) * halfwidth / 1.875)
        out.append(bump_member(domain, center, halfwidth, height,
                               f"member{i}"))
    return out
