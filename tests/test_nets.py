import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from labyrinths import nets
from labyrinths.config import DEFAULT_C
from labyrinths.nets import (
    _NET_CACHE,
    COVER_SAMPLES,
    HullCertificateError,
    NetBudgetError,
    build_separated_families,
    candidate_resolution,
    color_net,
    covering_radius,
    greedy_net,
    sampling_slack,
)
from labyrinths.sampling import ParkedSweep, circle_rows, sphere_candidates
from oracles import (
    brute_farthest_point_order,
    loop_color_net,
    sampled_covering_radius,
    stacked_sphere_candidates,
)


def min_pairwise(points):
    if len(points) < 2:
        return np.inf
    dd, _ = cKDTree(points).query(points, k=2)
    return float(dd[:, 1].min())


def brute_circle_covering(points, grid=100_000):
    theta = 2.0 * np.pi * np.arange(grid) / grid
    probes = np.column_stack([np.cos(theta), np.sin(theta)])
    dist, _ = cKDTree(points).query(probes, k=1)
    return float(dist.max())


def test_delta_two_gives_antipodal_pair():
    for d in (2, 3, 4):
        net = greedy_net(d, 2.0, seed=3)
        assert len(net) == 2
        assert np.allclose(net[0], -net[1])


def test_circle_sqrt2_net_is_a_square():
    net = greedy_net(2, np.sqrt(2.0), seed=5)
    assert len(net) == 4
    assert min_pairwise(net) >= np.sqrt(2.0) * (1 - 1e-12)
    cov = brute_circle_covering(net)
    assert cov == pytest.approx(2 * np.sin(np.pi / 8), abs=1e-3)


def test_sphere_delta_one_net():
    # farthest-point selection spreads points nearly octahedrally, giving a
    # 6-point maximal set (its covering radius ~0.92 < 1 certifies
    # maximality); verified by brute separation/covering checks
    net = greedy_net(3, 1.0, seed=0)
    assert len(net) == 6
    assert min_pairwise(net) >= 1.0
    assert covering_radius(net, 3) <= 1.0


def test_greedy_net_validation_and_budget():
    with pytest.raises(ValueError):
        greedy_net(2, 0.0)
    with pytest.raises(ValueError):
        greedy_net(2, 2.5)
    with pytest.raises(NetBudgetError):
        greedy_net(6, 0.01)


@pytest.mark.parametrize("delta, seed, size", [
    # the nets of steps 0, 11 and 23 of generate --domain ellipse --M 1.0
    (0.06424529998955918, 0, 64),
    (0.011846363377469513, 1111, 512),
    (0.007443665819274338, 2323, 512),
])
def test_greedy_net_matches_full_update_on_the_ellipse_patch_steps(
        delta, seed, size):
    cand = sphere_candidates(2, 131072)
    want = cand[brute_farthest_point_order(
        cand, start=seed, stop_dist=delta * (1.0 - 1e-12))]
    got = greedy_net(2, delta, seed=seed)
    assert len(got) == size
    assert np.array_equal(got, want)


def test_color_net_single_class_when_r_small():
    net = greedy_net(2, 0.5, seed=0)
    classes = color_net(net, min_pairwise(net) * 0.99)
    assert len(classes) == 1
    assert len(classes[0]) == len(net)


def test_color_net_square_two_classes():
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    classes = color_net(square, 1.5)
    assert len(classes) == 2
    for cls in classes:
        assert len(cls) == 2
        assert np.allclose(cls[0], -cls[1])  # antipodal pairs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.floats(0.3, 1.8))
def test_color_net_partition_and_separation(seed, r):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    classes = color_net(pts, r)
    stacked = np.vstack(classes)
    assert len(stacked) == len(pts)
    # partition: every input point appears exactly once
    key = np.lexsort(stacked.T)
    key0 = np.lexsort(pts.T)
    assert np.allclose(stacked[key], pts[key0])
    for cls in classes:
        assert min_pairwise(cls) >= r


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 10 ** 9),
       n=st.integers(1, 60), lattice=st.booleans())
def test_color_net_equals_the_adjacency_list_loop(d, seed, n, lattice):
    """Bit for bit the classes of the loop over per-point adjacency lists,
    on inputs with repeated points, ties of degree (small integer lattice
    points) and r equal to the distance of one of the pairs."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, (n, d)).astype(float) if lattice \
        else rng.standard_normal((n, d))
    pts = pts[rng.integers(0, n, n + n // 3)]
    i, j = rng.integers(0, len(pts), 2)
    r = float(np.linalg.norm(pts[i] - pts[j])) or 1.0
    want, got = loop_color_net(pts, r), color_net(pts, r)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_covering_radius_examples():
    p = np.array([[1.0, 0.0]])
    assert covering_radius(p, 2) == pytest.approx(2.0, abs=1e-15)
    pair = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert covering_radius(pair, 2) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert covering_radius(square, 2) == pytest.approx(
        2 * np.sin(np.pi / 8), abs=1e-15)
    # the octahedron: the farthest points are the face centres
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    assert covering_radius(octahedron, 3) == pytest.approx(
        np.sqrt(2.0 - 2.0 / np.sqrt(3.0)), abs=1e-15)


def test_covering_radius_validation():
    with pytest.raises(ValueError):
        covering_radius(np.empty((0, 2)), 2)
    with pytest.raises(HullCertificateError, match="qhull"):
        covering_radius(np.eye(3), 3)  # three points span no 3-d hull


@pytest.mark.parametrize("d, delta", [(2, 0.05), (2, 0.3), (3, 0.3),
                                      (3, 0.6), (4, 0.9)])
def test_exact_covering_lies_within_the_sampling_slack(d, delta):
    net = greedy_net(d, delta, seed=1)
    exact = covering_radius(net, d)
    sampled = sampled_covering_radius(net, d, 100_000, seed=4)
    assert sampled <= exact + 1e-12
    assert exact <= sampled + sampling_slack(d, 100_000)
    assert exact <= delta + candidate_resolution(d, delta)


def test_a_hemisphere_net_fails_the_hull_certificate():
    net = greedy_net(3, 0.3, seed=0)
    upper = net[net[:, 2] > 0.0]
    with pytest.raises(HullCertificateError, match="offset"):
        covering_radius(upper, 3)
    # the full net passes the certificate
    assert covering_radius(net, 3) <= 0.3 + candidate_resolution(3, 0.3)


def test_families_class_count_free_of_scale():
    # one class count serves every scale: padded to the largest count the
    # colourings need, the nets at all scales have it, and padding only
    # splits classes, so each stays r-separated and the union is the net
    scales = (0.1, 0.2, 0.4)
    for d in (2, 3):
        own = [build_separated_families(d, r, 0.45, seed=0) for r in scales]
        m = max(net.m for net in own)
        for r, net in zip(scales, own):
            padded = build_separated_families(d, r, 0.45, seed=0, target_m=m)
            assert padded.m == len(padded.classes) == m
            assert np.array_equal(np.unique(padded.points, axis=0),
                                  np.unique(net.points, axis=0))
            for cls in padded.classes:
                assert min_pairwise(cls) >= r


def test_families_separation_exact_and_covering():
    for d in (2, 3):
        for r in (0.2, 0.4):
            net = build_separated_families(d, r, 0.45, seed=0)
            for cls in net.classes:
                assert min_pairwise(cls) >= r  # exact, no tolerance
            cov = covering_radius(net.points, d)
            assert cov <= 0.45 * r + candidate_resolution(d, 0.45 * r)


def test_families_class_count_bound():
    for d in (2, 3):
        bound = (1 + 2 / 0.45) ** (d - 1) * 3 ** d
        net = build_separated_families(d, 0.3, 0.45, seed=0)
        assert net.m <= bound


def test_families_bitwise_determinism():
    a = build_separated_families(2, 0.25, 0.45, seed=9)
    _NET_CACHE.clear()  # force a genuine rebuild, not a cache hit
    b = build_separated_families(2, 0.25, 0.45, seed=9)
    assert a.m == b.m
    for x, y in zip(a.classes, b.classes):
        assert np.array_equal(x, y)


def test_families_validation():
    with pytest.raises(ValueError):
        build_separated_families(2, 0.2, 0.6)
    with pytest.raises(ValueError):
        build_separated_families(2, -1.0, 0.45)


def test_net_example_sizes_d2():
    net = build_separated_families(2, 0.4, 0.45, seed=0)
    assert 20 <= net.size <= 50  # ~35 circle points
    assert 3 <= net.m <= 7


# Scales that share one candidate set per dimension (the resolution is the
# sampling slack at all of them) and are coarse enough for the brute oracle.
NESTED_DELTAS = {2: (0.04, 0.09, 0.2, 0.5, 1.3), 3: (0.3, 0.42, 0.6, 0.9, 1.5)}
NESTED_SEEDS = (0, 3, 11)


def stop_dist(delta):
    return delta * (1.0 - 1e-12)


@functools.lru_cache(maxsize=None)
def oracle_net(d, delta, seed):
    """The net greedy_net promises, from the plain all-candidate traversal."""
    eps = min(delta / 2.0, sampling_slack(d, COVER_SAMPLES))
    cand = sphere_candidates(d, int(np.ceil((4.0 / eps) ** (d - 1))))
    return cand[brute_farthest_point_order(cand, start=seed % len(cand),
                                           stop_dist=stop_dist(delta))]


def delta_stopping_at(d2):
    """A delta whose squared stop distance is exactly `d2`, else None."""
    delta = np.sqrt(d2) / (1.0 - 1e-12)
    for _ in range(12):
        got = float(stop_dist(delta)) ** 2
        if got == d2:
            return float(delta)
        delta = np.nextafter(delta, np.inf if got < d2 else -np.inf)
    return None


@functools.lru_cache(maxsize=None)
def delta_pool(d, seed):
    """NESTED_DELTAS plus up to three deltas whose squared stop distance
    equals, to the bit, the squared distance of a pick of the finest net
    to the earlier picks: there a cut one pick early or late shows."""
    net = oracle_net(d, min(NESTED_DELTAS[d]), seed)
    ties = []
    for k in range(1, len(net)):
        diff = net[k] - net[:k]
        delta = delta_stopping_at(np.einsum("ij,ij->i", diff, diff).min())
        if delta is not None and delta <= 2.0 and delta not in ties:
            ties.append(delta)
        if len(ties) == 3:
            break
    assert ties, "no delta found that ties a pick distance"
    return NESTED_DELTAS[d] + tuple(ties)


def counting_picks(monkeypatch):
    """A list that gets, per sweep the nets run, the picks it computed and
    whether it started cold."""
    calls = []
    sweep = nets.farthest_point_order

    def counted(points, start=0, **kwargs):
        cold = not isinstance(start, ParkedSweep) or start.d2 is None
        before = 0 if cold else len(start.picks)
        idx = sweep(points, start=start, **kwargs)
        calls.append((len(idx) - before, cold))
        return idx

    monkeypatch.setattr(nets, "farthest_point_order", counted)
    return calls


def assert_warm_nets_are_cold_nets(d, seed, deltas):
    """Nets asked in the order of `deltas` from one cache are bitwise the
    nets of cold sweeps, and no pick is computed twice."""
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_picks(mp)
        _NET_CACHE.clear()
        warm = [greedy_net(d, delta, seed=seed) for delta in deltas]
    finest = warm[int(np.argmin(deltas))]
    assert sum(picks for picks, _ in calls) == (len(finest) if d > 2 else 0)
    assert [cold for _, cold in calls][:1] == ([True] if d > 2 else [])
    for delta, net in zip(deltas, warm):
        _NET_CACHE.clear()
        assert np.array_equal(net, greedy_net(d, delta, seed=seed))
        assert np.array_equal(net, oracle_net(d, delta, seed))
    _NET_CACHE.clear()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_coarser_nets_are_exact_prefixes_of_the_cached_sweep(data):
    d = data.draw(st.sampled_from([2, 3]))
    seed = data.draw(st.sampled_from(NESTED_SEEDS))
    deltas = data.draw(st.lists(st.sampled_from(delta_pool(d, seed)),
                                min_size=3, max_size=5, unique=True))
    assert_warm_nets_are_cold_nets(d, seed, deltas)


@pytest.mark.parametrize("seed", NESTED_SEEDS)
def test_a_finer_net_resumes_the_parked_sweep(seed):
    # coarse, then fine (a resume), then finer still, then coarser again
    assert_warm_nets_are_cold_nets(3, seed, (0.9, 0.42, 0.3, 0.6))


def test_a_cleared_cache_sweeps_cold_from_the_start(monkeypatch):
    calls = counting_picks(monkeypatch)
    _NET_CACHE.clear()
    greedy_net(3, 0.6, seed=11)
    _NET_CACHE.clear()
    net = greedy_net(3, 0.3, seed=11)
    assert calls[-1] == (len(net), True)
    assert np.array_equal(net, oracle_net(3, 0.3, 11))
    _NET_CACHE.clear()


def test_a_new_key_replaces_the_cached_net(monkeypatch):
    calls = counting_picks(monkeypatch)
    _NET_CACHE.clear()
    first = greedy_net(3, 0.6, seed=0)
    greedy_net(3, 0.6, seed=3)
    assert [seed for _, _, seed in _NET_CACHE] == [3]
    # the first key's net is gone, so asking for it again sweeps cold
    again = greedy_net(3, 0.6, seed=0)
    assert [cold for _, cold in calls] == [True, True, True]
    assert np.array_equal(again, first)
    assert [seed for _, _, seed in _NET_CACHE] == [0]
    _NET_CACHE.clear()


def test_coarser_net_is_cut_from_the_finer_sweep():
    _NET_CACHE.clear()
    fine = greedy_net(3, 0.3, seed=3)
    coarse = greedy_net(3, 0.6, seed=3)
    assert len(_NET_CACHE) == 1
    assert 1 < len(coarse) < len(fine)
    assert np.shares_memory(coarse, fine)
    assert np.array_equal(coarse, fine[:len(coarse)])
    assert not coarse.flags.writeable
    finer = greedy_net(3, 0.2, seed=3)  # the parked sweep goes on
    assert len(_NET_CACHE) == 1 and len(finer) > len(fine)
    assert np.array_equal(greedy_net(3, 0.3, seed=3), fine)
    _NET_CACHE.clear()


# The planar closed form against the plain traversal of the circle grid:
# the two coarsest nets, a ladder of separations, as given and times the
# default covering fraction, and the deltas of the ellipse patch steps,
# each from three random starts.
PLANAR_DELTAS = (2.0, np.sqrt(2.0), 0.1, 0.2, 0.4,
                 *(DEFAULT_C * r for r in (0.1, 0.2, 0.4)),
                 0.06424529998955918, 0.011846363377469513,
                 0.007443665819274338)
PLANAR_STARTS = tuple(int(s) for s in
                      np.random.default_rng(16).integers(0, 10 ** 7, size=3))


@pytest.mark.parametrize("delta", PLANAR_DELTAS)
def test_planar_net_is_the_traversal_of_the_circle_grid(delta):
    for seed in PLANAR_STARTS:
        assert np.array_equal(greedy_net(2, delta, seed=seed),
                              oracle_net(2, delta, seed))


@pytest.mark.parametrize("seed", [0, 5, 77])
def test_planar_net_cut_in_the_middle_of_a_level(seed):
    # Picks 2^a .. 2^(a+1) - 1 are level a.  Their squared distances to the
    # earlier picks differ only by rounding; a stop distance between two of
    # them keeps the level's larger ones and cuts the rest.
    fine = oracle_net(2, 0.02, seed)
    d2 = np.array([np.einsum("ij,ij->i", fine[k] - fine[:k],
                             fine[k] - fine[:k]).min()
                   for k in range(1, len(fine))])
    for a in range(2, 8):
        level = d2[2 ** a - 1:2 ** (a + 1) - 1]
        for cut in np.unique(level)[1:]:
            delta = delta_stopping_at(cut)
            if delta is None:
                continue
            net = greedy_net(2, delta, seed=seed)
            assert len(net) == 2 ** a + np.count_nonzero(level >= cut)
            assert len(net) & (len(net) - 1)  # not a whole number of levels
            assert np.array_equal(net, oracle_net(2, delta, seed))
            return
    pytest.fail("no delta cuts a level of the net in the middle")


@pytest.mark.parametrize("count", [100_000, 800_000])
def test_circle_rows_alone_are_the_full_builds_rows(count):
    # what the closed form rests on, at the sizes greedy_net(2, .) asks for,
    # held to the grid as first built: a power-of-two grid, row i + n/2 =
    # -row i, and every row made alone, or all at once, is the built row
    cand = stacked_sphere_candidates(2, count)
    n, k = len(cand), len(cand) // 2
    assert n & (n - 1) == 0
    bits = cand.view(np.uint64)
    assert np.array_equal(bits[k:], (-cand[:k]).view(np.uint64))
    assert np.array_equal(circle_rows(np.arange(n), n).view(np.uint64), bits)
    rng = np.random.default_rng(count)
    for i in [0, k - 1, k, n - 1, *rng.integers(0, n, size=200)]:
        assert np.array_equal(circle_rows(np.array([i]), n).view(np.uint64),
                              bits[i:i + 1])


def test_planar_nets_build_no_candidates_and_run_no_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a planar net built candidates or swept them")

    monkeypatch.setattr(nets, "sphere_candidates", refuse)
    monkeypatch.setattr(nets, "farthest_point_order", refuse)
    monkeypatch.setattr(nets, "_NET_CACHE", {})
    assert len(greedy_net(2, 2.0, seed=1)) == 2
    assert len(greedy_net(2, np.sqrt(2.0), seed=1)) == 4
    assert len(greedy_net(2, 0.007443665819274338, seed=1)) == 512
    assert nets._NET_CACHE == {}
