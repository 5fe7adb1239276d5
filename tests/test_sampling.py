import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial import cKDTree
from scipy.stats import qmc

from labyrinths import sampling
from labyrinths.sampling import (_BLOCK, ParkedSweep, farthest_point_order,
                                 sobol, sphere_candidates)
from oracles import brute_farthest_point_order, stacked_sphere_candidates


@pytest.mark.parametrize("d, count, start, stop_dist, stop_count", [
    # the dyadic circle grid, rich in exactly equal distances
    (2, 131072, 0, 0.045, None),
    (2, 131072, 0, 0.0077, None),
    (3, 100000, 0, 0.045, None),
    (3, 100000, 0, 0.18, None),
    (3, 100000, 7919, 0.18, None),
    (2, 131072, 100003, 0.045, None),
    # rim candidates of flat balls in d = 4 and d = 5, as flatball_rim_points
    (3, 2048, 0, None, 256),
    (4, 2560, 0, None, 320),
])
def test_traversal_matches_full_update_on_candidate_sets(
        d, count, start, stop_dist, stop_count):
    cand = sphere_candidates(d, count)
    got = farthest_point_order(cand, start=start, stop_dist=stop_dist,
                               stop_count=stop_count)
    want = brute_farthest_point_order(cand, start=start, stop_dist=stop_dist,
                                      stop_count=stop_count)
    assert got.dtype == np.intp
    assert np.array_equal(got, want)


def test_traversal_updates_a_block_just_within_reach():
    # After p1 is picked, the 600 copies of y (more than a block of them)
    # drop from 1 - 1e-8 to 1 - 3e-8, below w.  A block of copies lies only
    # 2e-8 (relative) inside reach of p1, so a skip test 1e-6 too eager
    # keeps their old value and picks a copy of y before w.
    u, v, w2 = 1.0 - 1e-8, 1.0 - 3e-8, 1.0 - 2e-8
    x = (1.0 + u - v) / 2.0
    pts = np.array([[0.0, 0.0], [1.0, 0.0]] + [[x, np.sqrt(u - x * x)]] * 600
                   + [[-np.sqrt(w2), 0.0]] * 3)
    want = brute_farthest_point_order(pts, stop_count=4)
    assert want.tolist() == [0, 1, 602, 2]
    assert np.array_equal(farthest_point_order(pts, stop_count=4), want)


@st.composite
def clouds(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    # one block of the traversal's partition, or several
    n = draw(st.one_of(st.integers(0, 40), st.integers(300, 1200)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # small integer lattice: many exactly equal distances
        pts = rng.integers(-3, 4, size=(n, d)).astype(float)
    else:
        pts = rng.standard_normal((n, d))
    if n and draw(st.booleans()):
        dup = rng.integers(0, n, size=draw(st.integers(1, n)))
        pts = np.vstack([pts, pts[dup]])
    start = draw(st.integers(-5, 100))
    if draw(st.booleans()):
        return pts, start, draw(st.floats(0.0, 6.0)), None
    return pts, start, None, draw(st.integers(0, 60))


@settings(max_examples=300, deadline=None)
@given(clouds())
def test_traversal_matches_full_update_on_random_clouds(cloud):
    pts, start, stop_dist, stop_count = cloud
    got = farthest_point_order(pts, start=start, stop_dist=stop_dist,
                               stop_count=stop_count)
    want = brute_farthest_point_order(pts, start=start, stop_dist=stop_dist,
                                      stop_count=stop_count)
    assert np.array_equal(got, want)


def test_traversal_of_empty_and_single_point_sets():
    assert len(farthest_point_order(np.empty((0, 3)))) == 0
    assert farthest_point_order(np.ones((1, 2)), start=4).tolist() == [0]
    # duplicates only: with no stop distance the traversal repeats index 0
    assert farthest_point_order(np.zeros((3, 2)), stop_count=5).tolist() == [0, 0, 0]


@pytest.mark.parametrize("n", [255, 256, 257, 511])
@pytest.mark.parametrize("stop_dist, stop_count", [
    (None, None), (0.5, None), (None, 40)])
def test_traversal_at_block_boundaries(n, stop_dist, stop_count):
    # one block short of full, exactly full, one row into a padded block,
    # and a last block one row short of full
    pts = np.random.default_rng(n).standard_normal((n, 3))
    got = farthest_point_order(pts, start=n // 3, stop_dist=stop_dist,
                               stop_count=stop_count)
    want = brute_farthest_point_order(pts, start=n // 3, stop_dist=stop_dist,
                                      stop_count=stop_count)
    assert np.array_equal(got, want)


def test_traversal_ties_in_the_padded_last_block():
    # 300 rows over the 3^d points of a lattice: the 44 real rows of the
    # padded last block (blocks run along the kd-tree leaves) are copies,
    # tied with rows of the full block; past the 3^d distinct points every
    # d2 is 0 and stop_count keeps picking.
    for d in (2, 3):
        pts = np.random.default_rng(4).integers(-1, 2, size=(300, d)).astype(float)
        last = cKDTree(pts, leafsize=_BLOCK).indices[_BLOCK:]
        assert len(last) == 300 - _BLOCK
        assert len(np.unique(pts[last], axis=0)) < len(last)
        distinct = 3 ** d
        for start in (0, 7, 299):
            for stop_count in (distinct, 20, 40, 400):
                got = farthest_point_order(pts, start=start,
                                           stop_count=stop_count)
                want = brute_farthest_point_order(pts, start=start,
                                                  stop_count=stop_count)
                assert np.array_equal(got, want)
            assert len(farthest_point_order(pts, start=start,
                                            stop_dist=0.5)) == distinct


def test_traversal_in_slabs_is_the_unslabbed_sweep_across_a_parked_resume(
        monkeypatch):
    # 100 000 d = 3 candidates are seven slabs of blocks, and the first
    # picks reach nearly every block: both the layout and the updates cross
    # slab boundaries.  One slab wide, the same sweep is the full-width pass.
    cand = sphere_candidates(3, 100_000)
    assert len(cand) > 6 * sampling._SLAB * _BLOCK
    with monkeypatch.context() as m:
        m.setattr(sampling, "_SLAB", len(cand))
        straight = ParkedSweep([7919])
        want = farthest_point_order(cand, start=straight, stop_dist=0.045)
    parked = ParkedSweep([7919])
    head = farthest_point_order(cand, start=parked, stop_dist=0.18)
    got = farthest_point_order(cand, start=parked, stop_dist=0.045)
    assert 0 < len(head) < len(got)
    assert np.array_equal(head, want[:len(head)])
    assert np.array_equal(got, want)
    assert np.array_equal(parked.order, straight.order)
    assert np.array_equal(parked.d2.view(np.uint64), straight.d2.view(np.uint64))
    assert np.array_equal(got[:48], brute_farthest_point_order(
        cand, start=7919, stop_count=48))


@pytest.mark.parametrize("d, count, stops", [
    (3, 20_000, (0.3, 0.12, 0.06)), (4, 20_000, (0.6, 0.35, 0.25))])
def test_sweep_records_each_pick_distance_across_a_parked_resume(d, count,
                                                                  stops):
    # one entry per pick after the start: its squared distance to the
    # earlier picks as the sweep formed it, never growing, and each stop's
    # picks exactly those recorded at or above its threshold
    cand = sphere_candidates(d, count)
    sweep = ParkedSweep([11])
    for stop in stops:
        got = farthest_point_order(cand, start=sweep, stop_dist=stop)
        tops = np.array(sweep.tops)
        assert len(tops) == len(got) - 1 == len(sweep.picks) - 1
        assert np.all(np.diff(tops) <= 0.0)
        assert np.count_nonzero(tops >= stop ** 2) == len(tops)
    assert np.array_equal(got, farthest_point_order(cand, start=11,
                                                    stop_dist=stops[-1]))
    pts = cand[got]
    for k in range(1, len(pts)):
        diff = pts[k] - pts[:k]
        assert tops[k - 1] == np.einsum("ij,ij->i", diff, diff).min()


@pytest.mark.parametrize("count", [8, 1000, 131072])
def test_circle_candidates_run_round_the_circle_by_angle(count):
    # the grid the closed-form planar nets walk: a power of two of rows in
    # angle order, with exact antipodes half a turn on
    cand = sphere_candidates(2, count)
    n = len(cand)
    assert n >= count and n & (n - 1) == 0
    angle = np.mod(np.arctan2(cand[:, 1], cand[:, 0]), 2.0 * np.pi)
    assert angle[0] == 0.0 and np.all(np.diff(angle) > 0.0)
    assert np.array_equal(cand[n // 2:], -cand[:n // 2])


@pytest.mark.parametrize("d, count", [
    (2, 8), (2, 100_000), (2, 131072), (3, 9), (3, 100_000), (3, 2048)])
def test_candidates_equal_the_stacked_build_bit_for_bit(d, count):
    got = sphere_candidates(d, count)
    want = stacked_sphere_candidates(d, count)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_candidates_in_higher_dimensions_are_antipodal_unit_rows():
    cand = sphere_candidates(5, 1000)
    k = len(cand) // 2
    assert cand.shape == (2 * k, 5) and k == 500
    assert np.array_equal(cand[k:], -cand[:k])
    assert np.allclose(np.linalg.norm(cand, axis=1), 1.0, atol=1e-15)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("d", range(2, 17))
def test_sobol_is_scipys_scrambled_stream_chunk_by_chunk(d):
    # roadmap seeds are seed * 1_000_003 + node budget; the roadmap draws
    # 16 384 points at a time and asks for the next chunk by its offset
    for seed in (0, 80_000, 1_008_003, 3_002_009):
        engine = qmc.Sobol(d, scramble=True, seed=seed)
        for drawn in range(0, 3 * 16384, 16384):
            assert same_bits(sobol(d, 16384, seed, skip=drawn),
                             engine.random(16384)), (seed, drawn)
    engine = qmc.Sobol(d, scramble=True, seed=7)
    engine.fast_forward(12345)
    assert same_bits(sobol(d, 777, 7, skip=12345), engine.random(777))


@pytest.mark.parametrize("d", range(2, 17))
def test_sobol_is_scipys_plain_stream_from_point_one(d):
    # the d >= 4 candidate sets skip the plain stream's point 0, the origin
    engine = qmc.Sobol(d, scramble=False)
    engine.fast_forward(1)
    assert same_bits(sobol(d, 5000, skip=1), engine.random(5000))
    assert not sobol(d, 1).any()


def test_sobol_names_its_dimension_limit():
    with pytest.raises(ValueError, match="dimensions 1 to 16, not 17"):
        sobol(17, 8)
    with pytest.raises(ValueError, match="2\\^30"):
        sobol(2, 8, skip=(1 << 30) - 4)
