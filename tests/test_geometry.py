import itertools
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import ref_lattice_means, ref_pairwise_distances

from cfglmm import ValidationError, bbox_diagonal, center_count, place_centers
from cfglmm import geometry
from cfglmm.data import round_half_away
from cfglmm.geometry import _assign_nearest, _chunks, _lattice_means, _map_kernel_blocks, _pin_worker, pairwise_distances

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_site_errors(self, bad):
        with pytest.raises(ValidationError, match="non-finite coordinate"):
            bbox_diagonal([[0.0, 0.0], [bad, 1.0]])


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

    @pytest.mark.parametrize("h", [1e-200, 1e-160, 5e-324])
    def test_quotient_past_the_floats_is_maxsize(self, h):
        """h^2 underflows to 0, or D^2/h^2 overflows: the count is finite."""
        assert center_count(1.0, h, 1.5) == sys.maxsize

    def test_huge_finite_quotient_keeps_the_formula(self):
        h = 1.0 / math.sqrt(1.5e300)
        assert center_count(1.0, h, 1.5) == round_half_away(1.5 / (h * h))

    @given(
        diag=st.floats(min_value=0.1, max_value=100),
        h=st.floats(min_value=1e-3, max_value=100),
        decay=st.floats(min_value=0.1, max_value=0.99),
    )
    def test_counts_grow_as_scales_refine(self, diag, h, decay):
        assert center_count(diag, decay * h, 1.5) >= center_count(diag, h, 1.5)


# Each guard rejects NaN: a type check, or ``not x > 0`` (``not x >= 0``), which NaN fails.
NAN_GUARDS = {
    "place_centers": lambda: place_centers(UNIT_SQUARE, math.nan),
    "center_count_bandwidth": lambda: center_count(1.0, math.nan, 1.5),
    "center_count_diagonal": lambda: center_count(math.nan, 1.0, 1.5),
    "center_count_inf_diagonal": lambda: center_count(math.inf, 1.0, 1.5),
}


@pytest.mark.parametrize("call", NAN_GUARDS.values(), ids=NAN_GUARDS.keys())
def test_nan_fails_the_guards(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def kernel_weight(distance: float, bandwidth: float) -> float:
    """``exp(-d/h)`` as the kernel engine builds it: the one entry of a
    one-by-one kernel whose points lie ``distance`` apart, times 1."""
    out = np.empty((1, 1))
    _map_kernel_blocks([(np.array([[distance, 0.0]]), np.zeros((1, 2)), -1 / bandwidth, np.ones((1, 1)), out)])
    return float(out[0, 0])


class TestKernelWeight:
    """The exponential kernel of every dense pass."""

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
        cen = place_centers(UNIT_SQUARE, 1)
        np.testing.assert_allclose(cen, [[0.5, 0.5]])

    def test_two_well_separated_clouds(self, rng):
        clouds = np.vstack(
            [
                rng.normal([0.0, 0.0], 0.05, size=(4, 2)),
                rng.normal([10.0, 10.0], 0.05, size=(4, 2)),
            ]
        )
        expected = _brute_force_two_clusters(clouds)
        cen = place_centers(clouds, 2)
        got = sorted(tuple(c) for c in cen)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_centers_equal_sites_when_c_matches(self):
        cen = place_centers(UNIT_SQUARE, 4)
        got = sorted(tuple(c) for c in cen)
        want = sorted(tuple(s) for s in UNIT_SQUARE)
        np.testing.assert_allclose(got, want)

    def test_c_beyond_distinct_sites(self):
        doubled = np.vstack([UNIT_SQUARE, UNIT_SQUARE])
        cen = place_centers(doubled, 7)
        assert len(cen) == 4

    def test_deterministic(self, rng):
        pts = rng.random((40, 2))
        a = place_centers(pts, 6)
        b = place_centers(pts, 6)
        np.testing.assert_array_equal(a, b)

    def test_permutation_invariance(self, rng):
        pts = rng.random((30, 2))
        shuffled = pts[rng.permutation(30)]
        a = place_centers(pts, 5)
        b = place_centers(shuffled, 5)
        np.testing.assert_allclose(
            sorted(tuple(c) for c in a), sorted(tuple(c) for c in b)
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_site_rejected(self, bad):
        """A NaN site used to fail with "cannot convert float NaN to integer"."""
        pts = UNIT_SQUARE.astype(float)
        pts[2, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            place_centers(pts, 2)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
    def test_non_integer_count_rejected(self, count):
        """2.5 used to fail inside numpy, and True to place one center."""
        with pytest.raises(ValueError, match="n_centers must be an integer"):
            place_centers(UNIT_SQUARE, count)

    def test_numpy_integer_count(self):
        np.testing.assert_array_equal(place_centers(UNIT_SQUARE, np.int64(2)), place_centers(UNIT_SQUARE, 2))

    def test_centers_inside_bounding_box(self, rng):
        pts = rng.random((60, 2)) * [3.0, 2.0]
        cen = place_centers(pts, 10)
        assert (cen >= pts.min(axis=0) - 1e-12).all()
        assert (cen <= pts.max(axis=0) + 1e-12).all()


def _disk(center, radius, n, rng):
    """``n`` points spread over a disk."""
    r = radius * np.sqrt(rng.random(n))
    a = 2.0 * np.pi * rng.random(n)
    return np.asarray(center) + np.column_stack([r * np.cos(a), r * np.sin(a)])


class TestLatticePlacement:
    """The lattice placement on hand-made layouts."""

    def test_clustered_sites_leave_gaps_empty(self, rng):
        hubs = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.1, 0.9]])
        pts = np.vstack([_disk(h, 0.05, 60, rng) for h in hubs])
        for k in (4, 9, 16, 40, 100):
            cen = place_centers(pts, k)
            to_hub = np.hypot(*(cen[:, None, :] - hubs[None, :, :]).transpose(2, 0, 1)).min(axis=1)
            assert (to_hub <= 0.05).all(), k  # no center in the empty space between clusters
            assert len(cen) >= min(k, len(hubs))

    def test_ten_to_one_domain(self, rng):
        pts = rng.random((4000, 2)) * [10.0, 1.0]
        cen = place_centers(pts, 40)
        assert len(cen) == 40
        # a 20 x 2 grid of 0.5 x 0.5 cells: no site is far from a center,
        # while a square grid of the same count (7 x 6 cells of 1.4 x 0.17)
        # would leave sites 0.7 away
        nearest = pairwise_distances(pts, cen).min(axis=1)
        assert nearest.max() < 0.45
        assert np.ptp(cen[:, 0]) > 9.0

    @pytest.mark.parametrize("axis", [0, 1])
    def test_collinear_sites(self, axis):
        line = np.zeros((101, 2))
        line[:, axis] = np.linspace(0.0, 1.0, 101)
        line[:, 1 - axis] = 0.3
        cen = place_centers(line, 5)
        assert len(cen) == 5
        np.testing.assert_allclose(cen[:, 1 - axis], 0.3, rtol=1e-12)
        np.testing.assert_allclose(np.sort(cen[:, axis]), [0.1, 0.3, 0.5, 0.7, 0.9], atol=0.01)

    def test_duplicate_rows_weigh_in(self):
        heavy = np.vstack([UNIT_SQUARE, [[1.0, 1.0]] * 3])
        # (1, 1) counts four times; without the copies the centroid is (0.5, 0.5)
        np.testing.assert_allclose(place_centers(heavy, 1), [[5.0 / 7.0, 5.0 / 7.0]])
        # two cells, one above the other: the top one is pulled toward its heavy corner
        cen = place_centers(heavy, 2)
        np.testing.assert_allclose(cen, [[0.5, 0.0], [0.8, 1.0]])

    def test_deterministic_and_order_free(self, rng):
        pts = np.vstack([rng.random((300, 2)), rng.random((20, 2))])
        pts = np.vstack([pts, pts[:50]])  # repeated rows
        for k in (1, 2, 7, 30, 150):
            want = place_centers(pts, k)
            for _ in range(3):
                got = place_centers(pts[rng.permutation(len(pts))], k)
                np.testing.assert_array_equal(got, want)

    @given(
        n=st.integers(min_value=2, max_value=300),
        k=st.integers(min_value=1, max_value=300),
        aspect=st.floats(min_value=0.01, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_center_count_bounded_by_the_grid(self, n, k, aspect, seed):
        pts = np.random.default_rng(seed).random((n, 2)) * [aspect, 1.0]
        n_distinct = len(np.unique(pts, axis=0))
        span = np.ptp(pts, axis=0)
        nx = min(k, max(1, math.floor(math.sqrt(k * span[0] / span[1]) + 0.5)))
        cen = place_centers(pts, k)
        assert 1 <= len(cen) <= min(n_distinct, nx * math.ceil(k / nx))
        assert len(cen) <= k + nx - 1  # the bound center_count documents
        assert len(np.unique(cen, axis=0)) == len(cen)

    @pytest.mark.parametrize("k", [1, 4, 9, 36, 100])
    def test_never_more_centers_than_asked_on_a_full_grid(self, k):
        # a square box and a square count: the grid has exactly k cells
        pts = np.random.default_rng(k).random((2000, 2))
        pts[:2] = [[0.0, 0.0], [1.0, 1.0]]
        cen = place_centers(pts, k)
        assert len(cen) == k


class TestPairwiseDistances:
    def test_exact_zero_for_coincident_points(self):
        pts = np.array([[0.3713, 0.9182]])
        assert pairwise_distances(pts, pts)[0, 0] == 0.0

    def test_matches_hypot(self, rng):
        a = rng.random((7, 2))
        b = rng.random((5, 2))
        want = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        np.testing.assert_allclose(pairwise_distances(a, b), want, rtol=1e-14)


# Small sizes, sizes around 256 and 513, and one large size.
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
        """The Lloyd step's assignment: each point joins a center at exactly its
        smallest distance, ties included."""
        points = _points(n, 3 * n + 1)
        centers = np.random.default_rng(k).random((k, 2))
        centers[: min(n, k) // 3] = points[: min(n, k) // 3]  # centers on points
        centers[1::9] = centers[0]  # duplicate centers: exact ties
        got = _assign_nearest(points, centers)
        assert got.shape == (n,)
        assert ((got >= 0) & (got < k)).all()
        for sl in _chunks(n, 256):
            d = ref_pairwise_distances(points[sl], centers)
            assert np.array_equal(d[np.arange(len(d)), got[sl]], d.min(axis=1))

    @pytest.mark.parametrize("n", BITWISE_SIZES)
    @pytest.mark.parametrize("k", BITWISE_SIZES)
    def test_kmeans_pp(self, n, k):
        """The seeding that place_centers refines with one Lloyd step (named
        for the k-means++ seeding it replaced): the vectorized lattice cell
        means equal the point-by-point reference."""
        points = _points(n, n + 7)  # repeated rows included
        k = min(k, len(np.unique(points, axis=0)))
        weights = np.random.default_rng(n).integers(1, 4, n).astype(float)
        got = _lattice_means(points, weights, k)
        want = ref_lattice_means(points, weights, k)
        assert np.array_equal(got, want)


@pytest.fixture
def two_workers(monkeypatch):
    """The library's pool made with two workers, whatever the CPU count, and
    kernels cut into one-row blocks (a kernel of ``rows`` by 1)."""
    monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 1)
    monkeypatch.setattr(geometry, "POOL_WORKERS", 2)
    monkeypatch.setattr(geometry, "_POOL", geometry._POOL)
    geometry._renew_pool()
    yield
    geometry._POOL.shutdown(wait=True)


def _map_with(block, rows: int) -> None:
    """``_map_kernel_blocks`` on a ``rows`` by 1 kernel with ``block(group,
    rows, cols)`` run before each of its tile runs, ``rows`` and ``cols`` the
    run's one tile."""
    real = geometry._tile_run

    def spy(group, pairs, sums):
        (sl, cols), = pairs
        block(group, sl, cols)
        real(group, pairs, sums)

    kernel = (np.zeros((rows, 2)), np.zeros((1, 2)), -1.0, np.ones((1, 1)), np.empty((rows, 1)))
    with mock.patch.object(geometry, "_tile_run", spy):
        geometry._map_kernel_blocks([kernel])


def _block_threads(rows: int) -> list[str]:
    """The thread that ran each one-row block of a ``rows`` by 1 kernel, in row order."""
    names = [""] * rows

    def record(group, sl, cols):
        assert (sl.stop - sl.start, cols) == (1, slice(0, 1))
        names[sl.start] = threading.current_thread().name

    _map_with(record, rows)
    return names


def _blocks_in_child():
    # exit code 0 only if the pool still runs blocks after the fork
    raise SystemExit(0 if all(n.startswith("cfglmm-chunk") for n in _block_threads(4)) else 1)


def _join_child(target) -> int:
    """Run ``target`` in a forked child, killed if it hangs; its exit code."""
    child = multiprocessing.get_context("fork").Process(target=target)
    child.start()
    child.join(timeout=30)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive, f"{target.__name__} hung"
    return child.exitcode


class TestChunkMap:
    """The worker pool behind ``_map_kernel_blocks``."""

    def test_runs_on_named_pool_threads(self, two_workers):
        assert all(n.startswith("cfglmm-chunk") for n in _block_threads(4))
        assert _block_threads(1) == [threading.current_thread().name]  # one block: the caller runs it

    @pytest.mark.skipif(geometry.POOL_WORKERS < 2 or not hasattr(os, "sched_setaffinity"), reason="one CPU")
    def test_each_worker_pinned_to_its_own_cpu(self, monkeypatch):
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 1)
        barrier = threading.Barrier(geometry.POOL_WORKERS)
        got = []

        def affinity(group, sl, cols):
            barrier.wait(timeout=30)  # every worker holds one block
            got.append(frozenset(os.sched_getaffinity(0)))

        _map_with(affinity, geometry.POOL_WORKERS)
        assert sorted(map(sorted, got)) == [[c] for c in sorted(os.sched_getaffinity(0))]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no thread affinity")
    def test_pin_worker(self):
        cpus = sorted(os.sched_getaffinity(0))
        got = []

        def pin_then_read(cpu_list, counter):
            _pin_worker(cpu_list, counter)
            got.append(os.sched_getaffinity(0))

        counter = itertools.count(len(cpus) + 1)  # wraps around the list
        for args in ((cpus, counter), ([10**6], itertools.count())):  # a CPU that does not exist: floats
            t = threading.Thread(target=pin_then_read, args=args)
            t.start()
            t.join()
        assert got == [{cpus[(len(cpus) + 1) % len(cpus)]}, set(cpus)]
        assert os.sched_getaffinity(0) == set(cpus)  # the caller is never pinned

    def test_error_of_a_chunk_reaches_the_caller(self, two_workers):
        def fail_at_two(group, sl, cols):
            if sl.start == 2:
                raise KeyError(sl.start)

        with pytest.raises(KeyError):
            _map_with(fail_at_two, 4)

    def test_pool_works_in_forked_child(self, two_workers):
        _block_threads(4)  # start the parent's workers
        assert _join_child(_blocks_in_child) == 0


def _symmetric_kernels(n: int, scales, seed: int = 0, cols: int = 3) -> list[tuple]:
    """Kernels of ``n`` points on themselves (``query is anchors``), one per
    scale, with positive right-hand sides, so every output entry is a sum of
    positive terms."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    return [(pts, pts, s, rng.uniform(0.5, 2.0, (n, cols)), np.full((n, cols), np.nan)) for s in scales]


def _tile_pairs(monkeypatch) -> list:
    """Record the tile pairs each ``_tile_run`` call is given."""
    runs = []
    real = geometry._tile_run

    def spy(group, pairs, sums):
        runs.append(list(pairs))
        real(group, pairs, sums)

    monkeypatch.setattr(geometry, "_tile_run", spy)
    return runs


class TestSymmetricTiles:
    """A kernel whose query is its anchors runs in square tiles, each pair
    ``I <= J`` once, in at most ``_SLOTS`` runs of partial sums."""

    @pytest.mark.parametrize("n", [1, 2, 40, 64, 300])
    def test_within_tolerance_of_dense(self, n, monkeypatch):
        """64-row tiles: one short tile, one full tile, and four full tiles
        and a remainder of 44; a group of three scales shares each tile's
        distances. Each output is within ``rtol=1e-12`` of the dense product
        over exact distances, and every pair ``I <= J`` runs once."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 64 * 64)
        runs = _tile_pairs(monkeypatch)
        kernels = _symmetric_kernels(n, (-2.0, -20.0, -200.0))
        _map_kernel_blocks(kernels)
        pts = kernels[0][0]
        for _, _, scale, rhs, out in kernels:
            want = np.exp(scale * ref_pairwise_distances(pts, pts)) @ rhs
            np.testing.assert_allclose(out, want, rtol=1e-12, atol=0.0)
        tiles = _chunks(n, 64)
        pairs = sorted((a.start, b.start) for run in runs for a, b in run)
        assert pairs == [(a.start, b.start) for i, a in enumerate(tiles) for b in tiles[i:]]
        assert len(runs) == min(geometry._SLOTS, len(pairs))

    def test_same_bits_on_any_number_of_workers(self, monkeypatch):
        """16-row tiles of 300 points: 190 tile pairs in eight runs. On 1, 2 and
        8 workers with a 1 µs switch interval, a group and a lone kernel have
        the same bits, and each kernel of the group those of a call alone."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 16 * 16)

        def run(workers):
            monkeypatch.setattr(geometry, "POOL_WORKERS", workers)
            pool = ThreadPoolExecutor(workers, "cfglmm-chunk")
            monkeypatch.setattr(geometry, "_POOL", pool)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                kernels = _symmetric_kernels(300, (-3.0, -30.0, -300.0), seed=5)
                kernels += _symmetric_kernels(300, (-7.0,), seed=6)
                _map_kernel_blocks(kernels)
                return [k[4] for k in kernels]
            finally:
                sys.setswitchinterval(interval)
                pool.shutdown(wait=True)

        want = run(1)
        for workers in (2, 8, 8):
            for got, w in zip(run(workers), want, strict=True):
                assert np.array_equal(got, w)
        monkeypatch.setattr(geometry, "POOL_WORKERS", 1)
        for kernel, w in zip(_symmetric_kernels(300, (-3.0, -30.0, -300.0), seed=5), want):
            _map_kernel_blocks([kernel])
            assert np.array_equal(kernel[4], w)

    def test_partials_stay_linear_in_n(self, monkeypatch):
        """6000 points in 32-row tiles make 17,766 tile pairs: one partial sum
        per pair would take 18 MB, the eight run partials take 1.5 MB. The
        traced peak of a second call stays within ten outputs and 4 MB of
        slack."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 32 * 32)
        kernel = _symmetric_kernels(6000, (-50.0,), cols=4)[0]
        _map_kernel_blocks([kernel])  # the pool's threads and buffers exist
        tracemalloc.start()
        try:
            _map_kernel_blocks([kernel])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (geometry._SLOTS + 2) * kernel[4].nbytes + 4 * 2**20, peak

    def test_a_copy_of_the_query_keeps_the_row_blocks(self, monkeypatch):
        """Anchors equal to the query but another object: 64-row blocks, each
        run one block against all the anchors. ``out``, filled with NaN
        beforehand, gets the bits of the rows computed one block at a time, so
        it was zero-filled and no transposed product added into it."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 64 * 300)
        runs = _tile_pairs(monkeypatch)
        (pts, _, scale, rhs, out), = _symmetric_kernels(300, (-20.0,))
        _map_kernel_blocks([(pts, pts.copy(), scale, rhs, out)])
        blocks = _chunks(300, 64)
        assert sorted(runs, key=lambda run: run[0][0].start) == [[(sl, slice(0, 300))] for sl in blocks]
        for sl in blocks:
            k = np.exp(scale * pairwise_distances(pts[sl], pts))
            assert np.array_equal(out[sl], np.column_stack([k @ rhs[:, :2], k @ rhs[:, 2:]]))


class TestKernelGroups:
    def test_each_kernel_compared_once(self, monkeypatch):
        """Only runs of consecutive kernels are grouped: each kernel is
        compared with the first of the group before it, so 43 kernels take at
        most 42 comparisons, and each has the bits of a call alone."""
        rng = np.random.default_rng(3)
        query = rng.random((50, 2))
        shared = rng.random((30, 2))
        anchors = [rng.random((30, 2)) for _ in range(30)] + [shared.copy() for _ in range(13)]
        kernels = [(query, a, -5.0, rng.normal(size=(30, 2)), np.empty((50, 2))) for a in anchors]
        real = np.array_equal
        calls = []

        def count(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(geometry.np, "array_equal", count)
        _map_kernel_blocks(kernels)
        monkeypatch.undo()
        assert 0 < len(calls) <= len(kernels) - 1
        for q, a, scale, rhs, out in kernels:
            alone = np.empty_like(out)
            _map_kernel_blocks([(q, a, scale, rhs, alone)])
            assert np.array_equal(out, alone)
