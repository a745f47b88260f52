"""Homeomorphism chains, displacement, the premetric, and its inequalities."""

import numpy as np
import pytest

from homconj import (
    Domain,
    DomainMismatchError,
    EstimateContext,
    EvaluationError,
    Gauge,
    Homeo,
    RadialFn,
    SampleScheme,
    ball_inside_ball_radius,
    builtin_triple,
    check_relaxed_triangle,
    compact_convergence_distance,
    compose,
    displacement,
    doubling_sample_sets,
    exhaustion_sets,
    group_membership,
    identity,
    invert,
    koopman_lambda,
    premetric,
    primitive,
    roundtrip_error,
    sample_points,
)
from homconj import (build_pure_linear, build_translation, funcspace,
                     homspace)
from homconj.homspace import _chain_memo, _walk

from conftest import MissingEntries, bump_member, seeded_members


def translation(domain, t, label=None):
    return primitive(domain, lambda p: p + t, lambda p: p - t,
                     label or f"x+{t:g}")


def scaling(domain, c, label=None):
    return primitive(domain, lambda p: c * p, lambda p: p / c,
                     label or f"{c:g}x")


# ===================================================================
# chain algebra
# ===================================================================

def test_identity_roundtrip(half_dom):
    e = identity(half_dom)
    assert e.is_identity
    pts = np.array([[0.0], [1.0], [7.5]])
    assert np.array_equal(e.forward(pts), pts)
    assert np.array_equal(e.inverse(pts), pts)


def test_compose_seam_cancellation(half_dom):
    f = translation(half_dom, 1.0)
    g = scaling(half_dom, 2.0)
    word = compose(compose(f, g), compose(invert(g), invert(f)))
    assert word.is_identity
    assert word.label == "id"


def test_compose_rightmost_acts_first(half_dom):
    f = translation(half_dom, 1.0)
    g = scaling(half_dom, 2.0)
    fg = compose(f, g)
    pts = np.array([[3.0]])
    assert float(fg.forward(pts)[0, 0]) == 7.0     # 2*3 + 1
    assert float(fg.inverse(pts)[0, 0]) == 1.0     # (3 - 1) / 2


def test_compose_rejects_domain_mismatch(half_dom):
    from homconj import Domain
    other = Domain(dim=1, region="box", bounds=((-1.0, 1.0),))
    with pytest.raises(DomainMismatchError):
        compose(translation(half_dom, 1.0), identity(other))


def test_roundtrip_error_exact_inverse(half_dom):
    f = scaling(half_dom, 3.0)
    pts = sample_points(half_dom, SampleScheme(window_radius=4.0))
    assert roundtrip_error(f, pts) < 1e-12


# ===================================================================
# chain memo
# ===================================================================

def _counted_g(half_dom):
    """A bump map g whose inverse logs the rows of each call."""
    g = bump_member(half_dom, 3.0, 0.5, 0.2, "g")
    atom = g.chain[0][0]
    inverse, calls = atom.inv, []

    def counted(p):
        calls.append(p.shape[0])
        return inverse(p)

    atom.inv = counted
    return g, calls


def _iterates(half_dom, n):
    """h_k = f^k∘h0∘g^-k for k = 1..n, with a call counter on g's inverse."""
    f = bump_member(half_dom, 2.0, 1.0, 0.3, "f")
    g, calls = _counted_g(half_dom)
    h, hs = bump_member(half_dom, 4.0, 1.0, 0.25, "h0"), []
    for _ in range(n):
        h = compose(compose(f, h), invert(g))
        hs.append(h)
    return hs, calls


def _filed(memo) -> list:
    """The images a chain memo holds, run by run, each run in step order."""
    return [image for run in memo.entries.values() for image in run[1:]]


def _same(xs, ys) -> bool:
    """Whether xs and ys hold the same objects in the same order."""
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_chain_memo_walks_each_suffix_once(half_dom):
    # h_k = f^k∘h0∘g^-k has three runs from its root: g^-k, h0 and f^k.
    # The images of the first two are filed and shared; the f^k run is
    # applied afresh on each walk, with the bits of the plain walk
    pts = sample_points(half_dom, SampleScheme(window_radius=4.0))
    hs, calls = _iterates(half_dom, 8)
    plain = [h.forward(pts) for h in hs]
    assert len(calls) == sum(range(1, 9))
    assert all(p.flags.writeable for p in plain)
    heads = [Homeo(half_dom, h.chain[k:]) for k, h in enumerate(hs, 1)]
    orbits = [Homeo(half_dom, head.chain[1:]) for head in heads]
    del calls[:]
    with _chain_memo():
        cached = [_walk(h, pts) for h in hs]
        with _chain_memo():     # a nested memo is the outer one
            again = [_walk(h, pts) for h in hs]
            shared = [_walk(head, pts) for head in heads]
            orbit = [_walk(g_k, pts) for g_k in orbits]
            assert all(_walk(head, pts) is s
                       for head, s in zip(heads, shared))
        memo = homspace._MEMO.get()
    assert len(calls) == 8      # g^-k(pts) once for each k
    # one entry per run: the orbit g^-k(pts) for k up to 8, whose images
    # are the orbit walks' own, and the h0 run on each of its images
    *h0_runs, orbit_run = memo.entries.values()
    assert orbit_run[0] is pts
    assert _same(orbit_run[1:], orbit)
    assert all(_same(run, (orbit_run[k], shared[k - 1]))
               for k, run in enumerate(h0_runs, 1))
    # g^-k(pts) and h0∘g^-k(pts) for each k, no image of an f^k run
    filed = _filed(memo)
    assert {id(x) for x in filed} == {id(x) for x in shared + orbit}
    assert len(filed) == 16
    for p, c, a, s in zip(plain, cached, again, shared):
        assert a is not c and c.flags.writeable
        assert a.tobytes() == c.tobytes() == p.tobytes()
        assert not s.flags.writeable
    assert hs[-1].forward(pts) is not hs[-1].forward(pts)


def test_chain_memo_files_the_first_two_runs_only(half_dom):
    # f∘g∘g∘h∘h∘h from its root: h^3, then g^2, then f.  The walk files
    # its first two runs, the five images of h^3 and g^2, as two entries,
    # walks f plainly, and a second walk calls only f again
    pts = sample_points(half_dom, SampleScheme(window_radius=4.0))
    calls = []

    def counted(name, c):
        def fwd(p):
            calls.append(name)
            return c * p
        return primitive(half_dom, fwd, lambda p: p / c, name)

    f, g, h = counted("f", 0.5), counted("g", 2.0), counted("h", 3.0)
    word = compose(f, compose(compose(g, g), compose(h, compose(h, h))))
    assert len(word.chain) == 6
    plain = word.forward(pts)
    del calls[:]
    with _chain_memo():
        memo = homspace._MEMO.get()
        first = _walk(word, pts)
        # the second run is renewed first, so it is the older entry
        g_run, h_run = memo.entries.values()
        assert h_run[0] is pts and len(h_run) == 4
        assert g_run[0] is h_run[3] and len(g_run) == 3
        assert memo.nbytes == 5 * pts.nbytes
        second = _walk(word, pts)
        assert _same(memo.entries.values(), (g_run, h_run))
        assert memo.nbytes == 5 * pts.nbytes
    assert calls == ["h", "h", "h", "g", "g", "f", "f"]
    assert first is not second
    assert first.tobytes() == second.tobytes() == plain.tobytes()
    # a two-run word is filed whole, and its image shared
    del calls[:]
    with _chain_memo():
        memo = homspace._MEMO.get()
        head = compose(compose(g, g), compose(h, h))
        assert _walk(head, pts) is _walk(head, pts)
        assert len(memo.entries) == 2 and calls == ["h", "h", "g", "g"]
        assert len(_filed(memo)) == 4


def test_chain_memo_reads_and_extends_a_filed_run(half_dom):
    # one entry holds the run g^-k(P) for k up to the deepest walk: after
    # g^-5(P) the shallower g^-3(P) is its filed image, read with no atom
    # call, and g^-7(P) extends it by the two images it is missing
    pts = sample_points(half_dom, SampleScheme(window_radius=4.0))
    g, calls = _counted_g(half_dom)

    def g_inv(k):
        return Homeo(half_dom, invert(g).chain * k)

    with _chain_memo():
        memo = homspace._MEMO.get()
        five = _walk(g_inv(5), pts)
        assert len(calls) == 5
        run, = memo.entries.values()
        assert run[0] is pts and run[5] is five
        assert _walk(g_inv(3), pts) is run[3]
        assert len(calls) == 5
        seven = _walk(g_inv(7), pts)
        assert len(calls) == 7
        longer, = memo.entries.values()
        assert _same(longer, run + (longer[6], seven))
        assert memo.nbytes == 7 * pts.nbytes
    assert seven.tobytes() == g_inv(7).forward(pts).tobytes()


def test_chain_memo_eviction_keeps_values_and_orbits(half_dom, monkeypatch):
    pts = sample_points(half_dom, SampleScheme(window_radius=4.0))
    hs, calls = _iterates(half_dom, 12)
    plain = [h.forward(pts) for h in hs]
    del calls[:]
    # room for 18 images: the longest walk files 13 (g^-k(pts) for k up to
    # 12 and h0∘g^-12(pts)), all twelve iterates together 24, so the h0
    # runs of old iterates are evicted
    cap = 18 * pts.nbytes
    monkeypatch.setattr(homspace, "_MEMO_BYTES", cap)
    with _chain_memo():
        memo = homspace._MEMO.get()
        for rep in range(2):
            for h, p in zip(hs, plain):
                assert _walk(h, pts).tobytes() == p.tobytes()
                assert memo.nbytes <= cap
            if rep == 0:
                # walked in Picard order, each iterate renews the orbit
                # run g^-k(pts) after its h0 run, so the orbit is the
                # newest entry and the oldest h0 runs go first, whole: none
                # of the orbit is recomputed
                assert len(calls) == 12
                *h0_runs, orbit = memo.entries.values()
                assert orbit[0] is pts and len(orbit) == 13
                assert _same((run[0] for run in h0_runs), orbit[7:])
                assert memo.nbytes == cap


def test_chain_memo_evicts_only_entries_no_other_entry_builds_on(
        half_dom, monkeypatch):
    # at 5 images the orbit run outgrows the bound and is evicted whole
    # with the h0 runs on it; at 14 it stays, and only h0 runs go
    pts = sample_points(half_dom, SampleScheme(window_radius=4.0))
    hs, calls = _iterates(half_dom, 12)
    for images in (5, 14):
        del calls[:]
        cap = images * pts.nbytes
        monkeypatch.setattr(homspace, "_MEMO_BYTES", cap)
        with _chain_memo():
            memo = homspace._MEMO.get()
            for _ in range(2):
                for h in hs:
                    _walk(h, pts)
                    live = memo.entries.values()
                    filed = {id(image) for image in _filed(memo)}
                    # every live entry can still be reached from the root
                    assert all(run[0] is pts or id(run[0]) in filed
                               for run in live)
                    assert memo.nbytes == sum(image.nbytes
                                              for image in _filed(memo))
                    assert memo.nbytes <= cap
        # at 14 images the orbit g^-k(pts) is walked once; at 5 it grows
        # step by step to g^-6 and is evicted, so each later iterate of a
        # pass walks its g^-k afresh
        assert len(calls) == (12 if images == 14
                              else 2 * (6 + sum(range(7, 13))))


def test_an_atom_walking_its_own_scratch_buffer_reads_no_stale_image(
        half_dom):
    # an atom that copies its input into one scratch buffer and walks an
    # inner map on it: under a run memo the inner walk is a plain walk, so
    # the second call reads the buffer's new values, not the first images
    inner = scaling(half_dom, 2.0)
    inner = compose(translation(half_dom, 1.0), inner)      # x -> 2x + 1
    scratch = np.empty((3, 1))

    def fwd(p):
        scratch[:] = p
        return inner.forward(scratch).copy()

    outer = primitive(half_dom, fwd, lambda p: (p - 1.0) / 2.0, "outer")
    with _chain_memo():
        walked = [_walk(outer, np.array([[1.0], [2.0], [3.0]])),
                  _walk(outer, np.array([[11.0], [12.0], [13.0]]))]
    assert [w.ravel().tolist() for w in walked] == [[3.0, 5.0, 7.0],
                                                   [23.0, 25.0, 27.0]]


def test_process_memo_caches_sample_tables_only(half_dom, sqrt_triple,
                                                scheme_fast, process_memo):
    # a plain walk caches nothing, whatever its input, so a writable array
    # or a read-only view of one is walked afresh after it changes; only
    # the walk of a map over the top table goes through the process memo
    _, r, _, phi = sqrt_triple
    f = bump_member(half_dom, 2.0, 1.0, 0.3, "f")
    base = sample_points(half_dom, scheme_fast)
    view = base.view()
    view.flags.writeable = False
    for pts in (base, view):
        before = f.forward(pts)
        base += 0.5         # moves the view's values too
        after = f.forward(pts)
        assert not process_memo.entries
        assert after.tobytes() == f.forward(base.copy()).tobytes()
        assert after.tobytes() != before.tobytes()
    table = doubling_sample_sets(half_dom, scheme_fast)[-1][1]
    assert f.forward(table) is not f.forward(table)
    assert not process_memo.entries
    # two displacements of f share f(P), the one image of a one-step run
    first = displacement(f, phi, r, scheme_fast)
    run, = process_memo.entries.values()
    assert run[0] is table and len(run) == 2
    assert homspace._on_table(f, phi, scheme_fast)[1] is run[1]
    assert not run[1].flags.writeable
    assert process_memo.nbytes == run[1].nbytes
    assert _bits(displacement(f, phi, r, scheme_fast)) == _bits(first)
    assert list(process_memo.entries.values()) == [run]


def _pool_premetrics(domain, triple, scheme):
    """rho(f, g) over a seeded pool of f, all against one bump map g whose
    atom counts the times it walks the top table, in either direction."""
    _, r, _, phi = triple
    g = bump_member(domain, 3.0, 0.5, 0.2, "g")
    table = doubling_sample_sets(domain, scheme)[-1][1]
    atom, calls = g.chain[0][0], []
    for name in ("fwd", "inv"):
        closure = getattr(atom, name)

        def counted(p, closure=closure, name=name):
            calls.extend([name] if p is table else [])
            return closure(p)
        setattr(atom, name, counted)
    pool = seeded_members(domain, 6, seed=5)
    return [premetric(f, g, phi, r, scheme) for f in pool], calls


def test_premetrics_sharing_g_walk_g_on_the_table_once(
        half_dom, sqrt_triple, scheme_fast, process_memo):
    rhos, calls = _pool_premetrics(half_dom, sqrt_triple, scheme_fast)
    assert all(est.finite for est in rhos)
    assert sorted(calls) == ["fwd", "inv"]      # g(P) and g^-1(P) once each


def test_process_memo_changes_no_rho(half_dom, sqrt_triple, scheme_fast,
                                     process_memo, monkeypatch):
    cached, _ = _pool_premetrics(half_dom, sqrt_triple, scheme_fast)
    assert process_memo.entries
    unread = homspace._ChainMemo()
    unread.entries = MissingEntries()
    monkeypatch.setattr(homspace, "_PROCESS_MEMO", unread)
    entries = dict(process_memo.entries)
    plain, _ = _pool_premetrics(half_dom, sqrt_triple, scheme_fast)
    assert process_memo.entries == entries
    for c, p in zip(cached, plain):
        assert repr((c.rho, c.left, c.right)) == repr((p.rho, p.left, p.right))
        for side in ("left", "right"):
            assert getattr(c, side).argmax_point.tobytes() \
                == getattr(p, side).argmax_point.tobytes()


def test_process_memo_stays_within_its_bound(half_dom, sqrt_triple,
                                             scheme_fast, process_memo,
                                             monkeypatch):
    _, r, _, phi = sqrt_triple
    cap = 5 * doubling_sample_sets(half_dom, scheme_fast)[-1][1].nbytes
    monkeypatch.setattr(homspace, "_MEMO_BYTES", cap)
    pool = seeded_members(half_dom, 6, seed=5)
    for f in pool:
        for g in pool:
            premetric(f, g, phi, r, scheme_fast)
            filed = _filed(process_memo)
            assert process_memo.nbytes == sum(im.nbytes for im in filed)
            assert process_memo.nbytes <= cap
            # each chain is two one-step runs, filed as two entries
            assert all(len(run) == 2 for run in process_memo.entries.values())
    # 30 pairs walk two chains of two steps each, so most images were evicted
    assert process_memo.nbytes == cap


# ===================================================================
# displacement
# ===================================================================

def test_identity_displacement_is_exact_zero(half_dom, sqrt_triple, scheme):
    _, r, _, phi = sqrt_triple
    est = displacement(identity(half_dom), phi, r, scheme)
    assert est.value == 0.0
    assert est.finiteness == "finite"
    assert all(v == 0.0 for _, v in est.window_trace)


def test_translation_displacement(half_dom, sqrt_triple, scheme):
    # sup r(1)/phi(x) is attained at the origin where phi = 1
    _, r, _, phi = sqrt_triple
    est = displacement(translation(half_dom, 1.0), phi, r, scheme)
    assert est.finiteness == "finite"
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_scaling_displacement_diverges_under_sqrt_gauge(half_dom, sqrt_triple,
                                                        scheme):
    # |2x - x| / (sqrt(x)+1) ~ sqrt(x): grows at every doubling
    _, r, _, phi = sqrt_triple
    est = displacement(scaling(half_dom, 2.0), phi, r, scheme)
    assert est.finiteness == "divergent"
    values = [v for _, v in est.window_trace]
    assert values == sorted(values)
    assert values[-1] > 1.5 * values[0]


def test_displacement_raises_on_nonfinite_map(half_dom, sqrt_triple, scheme):
    _, r, _, phi = sqrt_triple
    bad = primitive(half_dom, lambda p: np.full_like(p, np.inf),
                    lambda p: p, "blowup")
    with pytest.raises(EvaluationError, match="'blowup' not finite"):
        displacement(bad, phi, r, scheme)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_displacement_rejects_a_gauge_not_positive_and_finite(
        half_dom, scheme, table_caches, bad):
    # the verdict on the gauge is cached with its values on the table, so
    # every call raises, not only the first
    _, r, _, _ = builtin_triple("sqrt_plus", half_dom)
    phi = Gauge(eval=lambda p: np.where(p[:, 0] > 5.0, bad, 1.0), beta=2.0,
                gamma=0.5, m=1.0)
    for _ in range(2):
        with pytest.raises(EvaluationError, match="positive and finite"):
            displacement(translation(half_dom, 0.75), phi, r, scheme)
    assert table_caches[1].cache_info().currsize == 1


@pytest.mark.parametrize("shift", [1.0, 100.0])
def test_displacement_drops_images_outside_the_domain(shift):
    # x + shift on [-10, 10]: a sample whose image lies beyond 10 by more
    # than 1e-9 * (1 + the largest sample norm) is dropped and counted;
    # with every sample dropped the estimate is undetermined
    box = Domain(dim=1, region="box", bounds=((-10.0, 10.0),))
    _, r, _, phi = builtin_triple("sqrt_plus", box)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=11)
    top = doubling_sample_sets(box, scheme)[-1][1]
    slack = 1e-9 * (1.0 + np.max(np.abs(top)))
    est = displacement(translation(box, shift), phi, r, scheme)
    assert est.dropped == np.count_nonzero(top[:, 0] + shift > 10.0 + slack)
    if est.dropped == top.shape[0]:
        assert est.finiteness == "undetermined" and np.isnan(est.value)
        assert np.all(np.isnan([v for _, v in est.window_trace]))
    else:
        assert 0 < est.dropped and est.finite
        assert est.argmax_point[0] + shift <= 10.0


def _assert_writable_copy(point, domain, scheme):
    assert point.flags.writeable
    tables = [pts for _, pts in doubling_sample_sets(domain, scheme)]
    tables += list(exhaustion_sets(domain, scheme))
    assert not any(np.shares_memory(point, pts) for pts in tables)


def test_displacement_of_a_translation_keeping_every_row(half_dom,
                                                         sqrt_triple, scheme):
    # |f(x) - x| / (sqrt|x| + 1) for f = x + t is exactly t at the origin
    # anchor and below t elsewhere; on the half line no image is dropped
    _, r, _, phi = sqrt_triple
    est = displacement(translation(half_dom, 0.75), phi, r, scheme)
    assert est.value == 0.75 and est.finite and est.dropped == 0
    assert est.argmax_point.tolist() == [0.0]
    _assert_writable_copy(est.argmax_point, half_dom, scheme)


def test_displacement_of_a_translation_dropping_the_top_rows():
    box = Domain(dim=1, region="box", bounds=((-10.0, 10.0),))
    _, r, _, phi = builtin_triple("sqrt_plus", box)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=11)
    est = displacement(translation(box, 0.75), phi, r, scheme)
    assert est.value == 0.75 and est.finite and est.dropped > 0
    assert est.argmax_point.tolist() == [0.0]
    _assert_writable_copy(est.argmax_point, box, scheme)


def _bits(est):
    """Every number of a displacement estimate, exactly."""
    return (float(est.value).hex(), est.finiteness, est.dropped,
            [(float(a).hex(), float(b).hex()) for a, b in est.window_trace],
            None if est.argmax_point is None else est.argmax_point.tobytes())


def test_geometry_memo_changes_no_displacement(half_dom, sqrt_triple, scheme,
                                               table_caches, process_memo):
    _, r, _, phi = sqrt_triple
    f = bump_member(half_dom, 2.0, 1.0, 0.3, "f")
    cold = displacement(f, phi, r, scheme)
    tables, gauges, _ = table_caches
    assert tables.cache_info().currsize and gauges.cache_info().currsize
    warm = displacement(f, phi, r, scheme)
    for cache in table_caches:
        cache.cache_clear()
    process_memo.entries.clear()
    process_memo.nbytes = 0
    emptied = displacement(f, phi, r, scheme)
    assert _bits(cold) == _bits(warm) == _bits(emptied)


def test_equal_gauges_share_no_stale_values(half_dom, scheme, table_caches):
    # the CLI builds a new, equal gauge per run: each is its own cache key,
    # and the cache keeps at most _TABLE_CACHE_SIZE of them
    gauges = table_caches[1]
    f = bump_member(half_dom, 2.0, 1.0, 0.3, "f")
    triples = [builtin_triple("sqrt_plus", half_dom) for _ in range(200)]
    want = _bits(displacement(f, triples[0][3], triples[0][1], scheme))
    for _, r, _, phi in triples:
        assert _bits(displacement(f, phi, r, scheme)) == want
        assert gauges.cache_info().currsize <= funcspace._TABLE_CACHE_SIZE
    info = gauges.cache_info()
    assert (info.currsize, info.misses) == (funcspace._TABLE_CACHE_SIZE, 200)


def test_gauge_memo_keys_each_gauge(half_dom, sqrt_triple, scheme,
                                    table_caches):
    # one table under phi and under 2 phi: each gauge reads its own values
    _, r, _, phi = sqrt_triple
    double = Gauge(eval=lambda p: 2.0 * phi.eval(p), beta=4.0, gamma=1.0,
                   m=2.0)
    f = translation(half_dom, 0.75)
    assert displacement(f, phi, r, scheme).value == 0.75
    assert displacement(f, double, r, scheme).value == 0.375
    assert table_caches[1].cache_info().currsize == 2


def test_displacement_caches_no_scale_values(half_dom, sqrt_triple, scheme,
                                             table_caches):
    # one table and one gauge under two scales: r runs on every call
    _, r, _, phi = sqrt_triple
    f = translation(half_dom, 0.75)
    double = RadialFn(lambda u: 2.0 * np.asarray(u, dtype=float), "double")
    once = displacement(f, phi, r, scheme)
    twice = displacement(f, phi, double, scheme)
    assert twice.value == 1.5
    assert [v for _, v in twice.window_trace] \
        == [2.0 * v for _, v in once.window_trace]
    assert twice.window_trace != once.window_trace


# ===================================================================
# premetric
# ===================================================================

def test_premetric_cancels_identical_factors(half_dom, sqrt_triple, scheme):
    # displacement of 2x alone diverges, yet rho(f,f) composes to the
    # identity before any estimation happens
    _, r, _, phi = sqrt_triple
    f = scaling(half_dom, 2.0)
    est = premetric(f, f, phi, r, scheme)
    assert est.rho == 0.0
    assert est.finiteness == "finite"
    assert est.left.value == 0.0 and est.right.value == 0.0


def test_premetric_of_two_translations(half_dom, sqrt_triple, scheme):
    _, r, _, phi = sqrt_triple
    f = translation(half_dom, 1.0)
    g = translation(half_dom, 2.0)
    est = premetric(f, g, phi, r, scheme)
    assert est.rho == pytest.approx(1.0, abs=1e-12)
    assert est.finite


def test_premetric_symmetric_when_shift_clears_the_bump(half_dom, sqrt_triple,
                                                        scheme):
    # both orientations peak at the origin, and a 0.5-shift keeps that
    # witness below the bump support, so the two sups coincide
    _, r, _, phi = sqrt_triple
    f = bump_member(half_dom, 2.0, 1.0, 0.3)
    g = translation(half_dom, 0.5)
    ab = premetric(f, g, phi, r, scheme)
    ba = premetric(g, f, phi, r, scheme)
    assert ab.rho == pytest.approx(ba.rho, rel=1e-9)


def test_premetric_not_symmetric_in_general(half_dom, sqrt_triple, scheme):
    # swapping the arguments inverts both composed maps; with the shift
    # landing inside the bump support, one orientation reads the scale at
    # the full shift and the other at the shift minus the bump squeeze
    _, r, _, phi = sqrt_triple
    f = bump_member(half_dom, 2.0, 1.0, 0.3)
    g = translation(half_dom, 1.5)
    ab = premetric(f, g, phi, r, scheme)
    ba = premetric(g, f, phi, r, scheme)
    assert ba.rho > ab.rho + 1e-3


def test_koopman_lambda_frozen_values(half_dom, sqrt_triple):
    _, _, cross, phi = sqrt_triple
    assert koopman_lambda(0.0, phi, cross) == pytest.approx(6.5, abs=1e-12)
    assert koopman_lambda(1.0, phi, cross) == pytest.approx(8.5, abs=1e-12)
    with pytest.raises(ValueError):
        koopman_lambda(np.inf, phi, cross)


# ===================================================================
# inequalities
# ===================================================================

def _ctx(half_dom, sqrt_triple, scheme):
    _, r, cross, phi = sqrt_triple
    return EstimateContext(domain=half_dom, scheme=scheme, phi=phi, r=r,
                           cross=cross)


def test_relaxed_triangle_on_fixed_triples(half_dom, sqrt_triple, scheme):
    ctx = _ctx(half_dom, sqrt_triple, scheme)
    f = translation(half_dom, 1.0)
    g = translation(half_dom, 2.0)
    h = translation(half_dom, 1.5)
    rep = check_relaxed_triangle(f, g, h, ctx)
    assert rep.passed and rep.slack >= -1e-9

    maps = seeded_members(half_dom, 6, seed=17)
    for a, b, c in zip(maps[0::3], maps[1::3], maps[2::3]):
        rep = check_relaxed_triangle(a, b, c, ctx)
        assert rep.passed, rep.witness


def test_relaxed_triangle_with_a_zero_and_an_infinite_rho(half_dom,
                                                         sqrt_triple):
    # f = h, so rho(f, g) = rho(h, g) = inf and rho(f, h) = 0 exactly: the
    # product term is 0, not 0 * inf = NaN, and inf <= inf holds
    ctx = _ctx(half_dom, sqrt_triple, SampleScheme(window_radius=8.0))
    f = build_translation([0.5], half_dom)
    g = build_pure_linear(2.0, half_dom)
    rep = check_relaxed_triangle(f, g, f, ctx)
    assert rep.witness["rho_fh"] == 0.0
    assert rep.lhs == rep.rhs == rep.witness["rho_hg"] == np.inf
    assert rep.passed


def test_relaxed_triangle_fails_on_an_undetermined_rho():
    # every image of x + 100 leaves [-10, 10], so rho(f, g) and rho(h, g)
    # are undetermined (NaN); rho(f, h) = 0 must not rescue the check
    box = Domain(dim=1, region="box", bounds=((-10.0, 10.0),))
    _, r, cross, phi = builtin_triple("sqrt_plus", box)
    scheme = SampleScheme(window_radius=4.0, grid_points_per_axis=11)
    ctx = EstimateContext(domain=box, scheme=scheme, phi=phi, r=r,
                          cross=cross)
    f = identity(box)
    rep = check_relaxed_triangle(f, translation(box, 100.0), f, ctx)
    assert rep.witness["rho_fh"] == 0.0
    assert np.isnan(rep.lhs) and np.isnan(rep.rhs)
    assert not rep.passed


def test_ball_radius_formula(half_dom, sqrt_triple, scheme):
    ctx = _ctx(half_dom, sqrt_triple, scheme)
    # rho = 0 collapses the formula to alpha_star itself
    assert ball_inside_ball_radius(0.0, 0.25, ctx) == pytest.approx(0.25)
    B = ctx.affine_coeff
    with pytest.raises(ValueError):
        ball_inside_ball_radius(0.25 / B, 0.25, ctx)
    # shrinks as the centers move apart
    r1 = ball_inside_ball_radius(0.01, 0.25, ctx)
    r2 = ball_inside_ball_radius(0.02, 0.25, ctx)
    assert 0.0 < r2 < r1 < 0.25


# ===================================================================
# membership and compact-convergence distance
# ===================================================================

def test_membership_verdicts(half_dom, sqrt_triple, scheme):
    _, r, _, phi = sqrt_triple
    member = bump_member(half_dom, 2.0, 1.0, 0.4)
    assert group_membership(member, phi, r, scheme).verdict == "member"
    assert group_membership(translation(half_dom, 1.0), phi, r,
                            scheme).verdict == "member"
    # scaling diverges in at least one direction under the sqrt gauge
    assert group_membership(scaling(half_dom, 2.0), phi, r,
                            scheme).verdict == "non_member"


def test_compact_distance_frozen_translation_value(half_dom):
    # |f - id| = 1 on every compact, u/(1+u) = 1/2, four levels each way:
    # 2 * (1 + 1/2 + 1/4 + 1/8) / 2 = 1.875
    sch = SampleScheme(window_radius=8.0, exhaustion_levels=3)
    d = compact_convergence_distance(translation(half_dom, 1.0),
                                     identity(half_dom), sch)
    assert d == pytest.approx(1.875, abs=1e-12)


def test_compact_distance_zero_on_equal_maps(half_dom, scheme):
    f = translation(half_dom, 1.0)
    assert compact_convergence_distance(f, f, scheme) == 0.0


@pytest.mark.parametrize("values, label", [
    ([1.0, 1.0, 1.0, 1.0], "finite"),
    ([1.0, 2.0, 4.0, 8.0], "divergent"),
    ([1.0, 4.0, 4.0, 4.0], "finite"),       # a jump, then a flat tail
    ([1.0, 2.0, float("nan"), 8.0], "undetermined"),
    ([1.0, 2.0, 4.0, float("inf")], "undetermined"),
    ([float("-inf"), 2.0, 4.0, 8.0], "undetermined"),
    ([np.float64(1.0), np.float64(np.nan), 1.0, 1.0], "undetermined"),
    ([np.float64(1.0), np.float64(2.0), 4.0, 8.0], "divergent"),
])
def test_classify_labels_finite_nan_and_inf_traces(values, label):
    trace = tuple((2.0 ** k, v) for k, v in enumerate(values))
    assert homspace._classify(trace) == label
