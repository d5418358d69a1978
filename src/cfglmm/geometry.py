"""Planar geometry: bounding box, exponential kernel, and k-means center placement.

Also home of the worker pool that runs independent chunks of the fit's dense
passes and the layers of a small prediction batch (see :func:`chunk_map`).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import as_sites, round_half_away

_KMEANS_MAX_ITER = 100
_KMEANS_REL_TOL = 1e-6

# One pool worker per CPU this process may run on (its affinity mask, so
# ``taskset`` limits it), each pinned to its own CPU of that mask. Threads
# start on first use, not at import.
POOL_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pin_worker(cpus: list[int], counter) -> None:
    # Worker k runs only on the k-th CPU of the mask. Left to the scheduler,
    # both workers of a 2-vCPU VM were seen sharing one vCPU for up to 0.6 s
    # with the other idle, which made a small prediction batch as slow as the
    # serial loop. Pinning is a placement hint: if it fails the worker floats.
    try:
        os.sched_setaffinity(0, {cpus[next(counter) % len(cpus)]})
    except OSError:
        pass


def _renew_pool() -> None:
    # Also run in a forked child, which inherits the executor but none of its
    # threads, so work submitted to it would never run.
    global _POOL
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    _POOL = ThreadPoolExecutor(
        max_workers=POOL_WORKERS,
        thread_name_prefix="cfglmm-chunk",
        initializer=_pin_worker if len(cpus) > 1 else None,
        initargs=(cpus, itertools.count()),
    )


_renew_pool()
if hasattr(os, "register_at_fork"):  # POSIX; elsewhere there is no fork
    os.register_at_fork(after_in_child=_renew_pool)


def chunk_map(fn, slices) -> list:
    """``[fn(s) for s in slices]``, with the calls spread over the worker pool.

    The chunks must be independent: results come back in chunk order whatever
    order they finish in, so a caller that merges them in that order gets the
    serial result bit for bit. A single chunk runs on the calling thread. Never
    call this from inside ``fn``: a pool worker waiting on the pool can deadlock.
    """
    slices = list(slices)
    if len(slices) == 1:
        return [fn(slices[0])]
    return list(_POOL.map(fn, slices))


def _chunks(n: int, width: int) -> list[slice]:
    """Consecutive slices of at most ``width`` (at least 1) covering ``range(n)``."""
    width = max(1, width)
    return [slice(start, min(start + width, n)) for start in range(0, n, width)]


@dataclass(frozen=True)
class CenterSet:
    """Local-model centers sharing one bandwidth."""

    centers: np.ndarray
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "centers", as_sites(self.centers))
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")

    def __len__(self) -> int:
        return len(self.centers)


def bbox_diagonal(sites) -> float:
    """Diagonal length of the axis-aligned bounding box of the sites."""
    pts = as_sites(sites)
    if len(pts) == 0:
        raise ValueError("bbox_diagonal requires at least one site")
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def center_count(diagonal: float, bandwidth: float, density: float) -> int:
    """Number of local centers for one scale: ``round(density * (D/h)^2)``, at least 1."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if diagonal < 0.0:
        raise ValueError("diagonal must be nonnegative")
    return max(1, round_half_away(density * diagonal * diagonal / (bandwidth * bandwidth)))


def kernel_weight(distance, bandwidth: float):
    """Exponential distance decay ``exp(-d/h)``; scalar in, scalar out."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    d = np.asarray(distance, dtype=float)
    if (d < 0).any():
        raise ValueError("distance must be nonnegative")
    w = np.exp(-d / bandwidth)
    return float(w) if np.isscalar(distance) else w


def pairwise_distances(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Exact Euclidean distances between two point sets, shape (len(a), len(b)).

    Computed from coordinate differences, ``sqrt(dx*dx + dy*dy)`` (not the
    expanded-square identity), so that coincident points give exactly zero.
    Callers chunk for large products. ``out``, when given, is a C-contiguous
    float64 array of the result's shape that receives the distances.
    """
    return cdist(as_sites(a), as_sites(b), out=out)


def _assign_nearest(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center per point via the expanded-square identity, chunked over
    centers so no n x c matrix is materialized. Assignment-grade accuracy.

    Each chunk is 256 centers against every point: the chunk shapes fix the
    BLAS kernels (a 1-wide chunk runs gemv), and with them the last bit of
    ``best_d2``. The -2 factor is folded into the points, which is exact. The
    chunks run on the worker pool and are merged in chunk order, so ties still
    go to the earliest chunk.
    """
    n = len(points)
    p2 = (points * points).sum(1)
    c2 = (centers * centers).sum(1)
    m2p = -2.0 * points
    rows = np.arange(n)

    def nearest_in(sl: slice) -> tuple[np.ndarray, np.ndarray]:
        d2 = m2p @ centers[sl].T
        d2 += p2[:, None]
        d2 += c2[None, sl]
        local = d2.argmin(axis=1)
        return local, d2[rows, local]

    best_d2 = np.full(n, np.inf)
    assign = np.zeros(n, dtype=np.intp)
    blocks = _chunks(len(centers), 256)
    for sl, (local, local_d2) in zip(blocks, chunk_map(nearest_in, blocks)):
        better = local_d2 < best_d2
        assign[better] = local[better] + sl.start
        best_d2[better] = local_d2[better]
    np.maximum(best_d2, 0.0, out=best_d2)
    return assign, best_d2


def _weighted_pick(weights: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _sq_dist_to(x: np.ndarray, y: np.ndarray, c: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out = dx*dx + dy*dy``, bitwise equal to ``((points - c) ** 2).sum(1)``."""
    np.subtract(x, c[0], out=out)
    out *= out
    np.subtract(y, c[1], out=tmp)
    tmp *= tmp
    out += tmp


def _kmeans_pp(points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    x, y = np.ascontiguousarray(points.T)
    d2, new, buf = np.empty((3, len(points)))
    centers = np.empty((k, 2))
    centers[0] = points[_weighted_pick(weights, rng)]
    _sq_dist_to(x, y, centers[0], d2, buf)
    for j in range(1, k):
        np.multiply(weights, d2, out=buf)
        centers[j] = points[_weighted_pick(buf, rng)]
        _sq_dist_to(x, y, centers[j], new, buf)
        np.minimum(d2, new, out=d2)
    return centers


def _lloyd(points: np.ndarray, weights: np.ndarray, centers: np.ndarray) -> np.ndarray:
    k = len(centers)
    prev_sse = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        assign, nearest = _assign_nearest(points, centers)
        sse = float(weights @ nearest)
        wsum = np.bincount(assign, weights=weights, minlength=k)
        for j in np.flatnonzero(wsum == 0):
            # Empty cluster: seize the point currently worst served.
            idx = int(np.argmax(weights * nearest))
            assign[idx] = j
            nearest[idx] = 0.0
            wsum = np.bincount(assign, weights=weights, minlength=k)
        cx = np.bincount(assign, weights=weights * points[:, 0], minlength=k)
        cy = np.bincount(assign, weights=weights * points[:, 1], minlength=k)
        centers = np.column_stack([cx, cy]) / wsum[:, None]
        if abs(prev_sse - sse) <= _KMEANS_REL_TOL * max(sse, 1e-300):
            break
        prev_sse = sse
    return centers


def place_centers(sites, n_centers: int, bandwidth: float, seed: int) -> CenterSet:
    """Place local centers by seeded k-means on the given sites.

    Duplicate coordinates are collapsed to weighted points, which makes the
    result invariant to input ordering (unique rows are lexicographically
    sorted). When ``n_centers`` reaches the number of distinct sites the
    distinct sites themselves are returned.
    """
    pts = as_sites(sites)
    if len(pts) == 0:
        raise ValueError("place_centers requires at least one site")
    if n_centers < 1:
        raise ValueError("n_centers must be at least 1")
    uniq, counts = np.unique(pts, axis=0, return_counts=True)
    if n_centers >= len(uniq):
        return CenterSet(uniq.copy(), bandwidth)
    rng = np.random.default_rng(seed)
    weights = counts.astype(float)
    centers = _kmeans_pp(uniq, weights, n_centers, rng)
    centers = _lloyd(uniq, weights, centers)
    return CenterSet(centers, bandwidth)
