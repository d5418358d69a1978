import itertools
import math
import multiprocessing
import os
import sys
import threading
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
    sl, buf)`` run before each of its row blocks, ``buf`` the kernel's block."""
    real = geometry._kernel_block

    def spy(group, sl, d, k):
        block(group, sl, k)
        real(group, sl, d, k)

    kernel = (np.zeros((rows, 2)), np.zeros((1, 2)), -1.0, np.ones((1, 1)), np.empty((rows, 1)))
    with mock.patch.object(geometry, "_kernel_block", spy):
        geometry._map_kernel_blocks([kernel])


def _block_threads(rows: int) -> list[str]:
    """The thread that ran each one-row block of a ``rows`` by 1 kernel, in row order."""
    names = [""] * rows

    def record(group, sl, buf):
        assert buf.shape == (1, 1)
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

        def affinity(group, sl, buf):
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
        def fail_at_two(group, sl, buf):
            if sl.start == 2:
                raise KeyError(sl.start)

        with pytest.raises(KeyError):
            _map_with(fail_at_two, 4)

    def test_pool_works_in_forked_child(self, two_workers):
        _block_threads(4)  # start the parent's workers
        assert _join_child(_blocks_in_child) == 0
