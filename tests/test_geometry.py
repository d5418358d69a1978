import itertools
import math
import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import ref_assign_nearest, ref_kmeans_pp, ref_pairwise_distances

from cfglmm import bbox_diagonal, center_count, kernel_weight, place_centers
from cfglmm.geometry import _assign_nearest, _chunks, _kmeans_pp, _sq_dist_to, chunk_map, pairwise_distances

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestBboxDiagonal:
    def test_unit_square(self):
        assert bbox_diagonal([[0.0, 0.0], [1.0, 1.0]]) == pytest.approx(math.sqrt(2))

    def test_single_site(self):
        assert bbox_diagonal([[3.0, 4.0]]) == 0.0

    def test_3_4_5(self):
        assert bbox_diagonal([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)

    def test_empty_errors(self):
        with pytest.raises(Exception):
            bbox_diagonal(np.empty((0, 2)))


class TestCenterCount:
    def test_equal_diag_and_bandwidth(self):
        assert center_count(math.sqrt(2), math.sqrt(2), 1.5) == 2

    def test_fine_bandwidth(self):
        assert center_count(math.sqrt(2), 0.1, 1.5) == 300

    def test_degenerate_diag_floors_at_one(self):
        assert center_count(0.0, 1.0, 1.5) == 1

    def test_nonpositive_bandwidth_errors(self):
        with pytest.raises(ValueError):
            center_count(1.0, 0.0, 1.5)

    @given(
        diag=st.floats(min_value=0.1, max_value=100),
        h=st.floats(min_value=1e-3, max_value=100),
        decay=st.floats(min_value=0.1, max_value=0.99),
    )
    def test_counts_grow_as_scales_refine(self, diag, h, decay):
        assert center_count(diag, decay * h, 1.5) >= center_count(diag, h, 1.5)


class TestKernelWeight:
    def test_zero_distance(self):
        assert kernel_weight(0.0, 2.0) == 1.0

    def test_distance_equals_bandwidth(self):
        assert kernel_weight(1.7, 1.7) == pytest.approx(math.exp(-1))

    def test_far_distance(self):
        assert kernel_weight(10.0, 1.0) == pytest.approx(math.exp(-10), rel=1e-12)

    @given(
        d=st.floats(min_value=1e-6, max_value=50),
        h=st.floats(min_value=1e-3, max_value=50),
        bump=st.floats(min_value=1e-3, max_value=10),
    )
    def test_monotonicity(self, d, h, bump):
        # keep exp(-d/h) away from float underflow, where strictness is lost
        assume((d + bump) / h < 500)
        assert kernel_weight(d + bump, h) < kernel_weight(d, h)
        assert kernel_weight(d, h + bump) > kernel_weight(d, h)


def _brute_force_two_clusters(points):
    """Best 2-partition by within-cluster SSE, by exhaustive enumeration."""
    n = len(points)
    best = (np.inf, None)
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(subset)] = True
            sse = 0.0
            for side in (mask, ~mask):
                c = points[side].mean(axis=0)
                sse += ((points[side] - c) ** 2).sum()
            if sse < best[0]:
                best = (sse, mask)
    mask = best[1]
    return sorted([tuple(points[mask].mean(axis=0)), tuple(points[~mask].mean(axis=0))])


class TestPlaceCenters:
    def test_single_center_is_centroid(self):
        cs = place_centers(UNIT_SQUARE, 1, bandwidth=1.0, seed=0)
        np.testing.assert_allclose(cs.centers, [[0.5, 0.5]])

    def test_two_well_separated_clouds(self, rng):
        clouds = np.vstack(
            [
                rng.normal([0.0, 0.0], 0.05, size=(4, 2)),
                rng.normal([10.0, 10.0], 0.05, size=(4, 2)),
            ]
        )
        expected = _brute_force_two_clusters(clouds)
        cs = place_centers(clouds, 2, bandwidth=1.0, seed=5)
        got = sorted(tuple(c) for c in cs.centers)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_centers_equal_sites_when_c_matches(self):
        cs = place_centers(UNIT_SQUARE, 4, bandwidth=1.0, seed=1)
        got = sorted(tuple(c) for c in cs.centers)
        want = sorted(tuple(s) for s in UNIT_SQUARE)
        np.testing.assert_allclose(got, want)

    def test_c_beyond_distinct_sites(self):
        doubled = np.vstack([UNIT_SQUARE, UNIT_SQUARE])
        cs = place_centers(doubled, 7, bandwidth=1.0, seed=1)
        assert len(cs) == 4

    def test_deterministic(self, rng):
        pts = rng.random((40, 2))
        a = place_centers(pts, 6, bandwidth=0.5, seed=9)
        b = place_centers(pts, 6, bandwidth=0.5, seed=9)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_permutation_invariance(self, rng):
        pts = rng.random((30, 2))
        shuffled = pts[rng.permutation(30)]
        a = place_centers(pts, 5, bandwidth=0.5, seed=4)
        b = place_centers(shuffled, 5, bandwidth=0.5, seed=4)
        np.testing.assert_allclose(
            sorted(tuple(c) for c in a.centers), sorted(tuple(c) for c in b.centers)
        )

    def test_centers_inside_bounding_box(self, rng):
        pts = rng.random((60, 2)) * [3.0, 2.0]
        cs = place_centers(pts, 10, bandwidth=0.5, seed=2)
        assert (cs.centers >= pts.min(axis=0) - 1e-12).all()
        assert (cs.centers <= pts.max(axis=0) + 1e-12).all()


class TestPairwiseDistances:
    def test_exact_zero_for_coincident_points(self):
        pts = np.array([[0.3713, 0.9182]])
        assert pairwise_distances(pts, pts)[0, 0] == 0.0

    def test_matches_hypot(self, rng):
        a = rng.random((7, 2))
        b = rng.random((5, 2))
        want = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        np.testing.assert_allclose(pairwise_distances(a, b), want, rtol=1e-14)


# Sizes around the 256-center chunk of _assign_nearest: k = 1 (mod 256) leaves
# a 1-wide chunk, which BLAS runs as gemv and rounds differently from dgemm.
BITWISE_SIZES = (1, 2, 3, 255, 256, 257, 513, 3750)


def _points(n, seed):
    """Uniform points with repeated rows."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    pts[1::5] = pts[0]  # coincident with the first point
    pts[2::7] = pts[1::7][: len(pts[2::7])]  # duplicates of other rows
    return pts


class TestBitwiseReference:
    """The fast geometry kernels equal their numpy references bit for bit."""

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in BITWISE_SIZES for k in BITWISE_SIZES if min(n, k) <= 513]
    )
    def test_pairwise_distances(self, n, k):
        a = _points(n, n)
        b = np.random.default_rng(k).random((k, 2)) * 3.0 - 1.0
        b[: min(n, k) // 2] = a[: min(n, k) // 2]  # coincident pairs give exact zeros
        got = pairwise_distances(a, b)
        assert np.array_equal(got, ref_pairwise_distances(a, b))
        assert (got == 0.0).sum() >= min(n, k) // 2

    @pytest.mark.parametrize("n", BITWISE_SIZES)
    @pytest.mark.parametrize("k", BITWISE_SIZES)
    def test_assign_nearest(self, n, k):
        points = _points(n, 3 * n + 1)
        centers = np.random.default_rng(k).random((k, 2))
        centers[: min(n, k) // 3] = points[: min(n, k) // 3]  # centers on points
        centers[1::9] = centers[0]  # duplicate centers: argmin ties
        got_assign, got_d2 = _assign_nearest(points, centers)
        want_assign, want_d2 = ref_assign_nearest(points, centers)
        assert np.array_equal(got_assign, want_assign)
        assert np.array_equal(got_d2, want_d2)

    @pytest.mark.parametrize("n", BITWISE_SIZES)
    def test_kmeans_pp_squared_distances(self, n):
        points = _points(n, n + 5)
        x, y = np.ascontiguousarray(points.T)
        got, tmp = np.empty((2, n))
        for c in points[:: max(1, n // 17)]:
            _sq_dist_to(x, y, c, got, tmp)
            assert np.array_equal(got, ((points - c) ** 2).sum(1))

    @pytest.mark.parametrize("n", BITWISE_SIZES)
    @pytest.mark.parametrize("k", BITWISE_SIZES)
    def test_kmeans_pp(self, n, k):
        points = _points(n, n + 7)  # repeated rows included
        k = min(k, len(np.unique(points, axis=0)))
        weights = np.random.default_rng(n).integers(1, 4, n).astype(float)
        got = _kmeans_pp(points, weights, k, np.random.default_rng(k + n))
        want = ref_kmeans_pp(points, weights, k, np.random.default_rng(k + n))
        assert np.array_equal(got, want)


def _name_of_thread(_sl):
    return threading.current_thread().name


def _chunk_map_in_child():
    # exit code 0 only if the pool still runs work after the fork
    raise SystemExit(0 if chunk_map(_name_of_thread, _chunks(4, 1))[0].startswith("cfglmm-chunk") else 1)


class TestChunkMap:
    def test_results_in_chunk_order(self):
        slices = _chunks(10, 3)
        assert [s.stop - s.start for s in slices] == [3, 3, 3, 1]

        def slow_first(sl):
            time.sleep(0.02 * (len(slices) - sl.start // 3))
            return sl.start

        assert chunk_map(slow_first, slices) == [0, 3, 6, 9]

    def test_runs_on_named_pool_threads(self):
        names = chunk_map(_name_of_thread, _chunks(4, 1))
        assert all(n.startswith("cfglmm-chunk") for n in names)
        assert chunk_map(_name_of_thread, _chunks(4, 4)) == [threading.current_thread().name]

    def test_error_of_a_chunk_reaches_the_caller(self):
        def fail_at_two(sl):
            if sl.start == 2:
                raise KeyError(sl.start)
            return sl.start

        with pytest.raises(KeyError):
            chunk_map(fail_at_two, _chunks(4, 1))

    def test_pool_works_in_forked_child(self):
        chunk_map(_name_of_thread, _chunks(4, 1))  # start the parent's workers
        child = multiprocessing.get_context("fork").Process(target=_chunk_map_in_child)
        child.start()
        child.join(timeout=30)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        assert not alive, "chunk_map hung in a forked child"
        assert child.exitcode == 0
