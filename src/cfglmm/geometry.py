"""Planar geometry: bounding box, center counts, and lattice center placement.

Placement returns the centers as a plain ``(k, 2)`` array; the bandwidth of
a scale is an argument of the layer fit, not of its centers.

Also home of the one engine of the dense kernel passes (local-expert fits,
layer evaluations, the simulator's smooth): callers hand
:func:`_map_kernel_blocks` their kernels as data, whose row blocks go into one
queue of the worker pool, each block one :func:`_kernel_block`. Kernels with
the same ``query`` object and equal ``anchors`` (layers with equal centers,
the bandwidth groups of a multiscale draw) share one distance pass per row
block, at the cost of one more block buffer per worker.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .data import as_int, as_sites, round_half_away

# One pool worker per CPU this process may run on (its affinity mask, so
# ``taskset`` limits it), each pinned to its own CPU of that mask. Threads
# start on first use, not at import.
POOL_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# ``buf``: the thread's kernel block buffer; ``dist``: its distance block
# buffer, made for the first shared block it runs
_THREAD = threading.local()

# A kernel is cut into row blocks of about _BLOCK_DOUBLES entries (2 MB, an
# L2 cache of the bench machine), from its shape alone: a block makes the same
# BLAS calls whichever thread runs it, so results do not depend on the number
# of workers.
_BLOCK_DOUBLES = 262_144


def _pin_worker(cpus: list[int], counter) -> None:
    # The pool's initializer: runs worker k only on the k-th CPU of the mask.
    # Left to the scheduler, both workers of a 2-vCPU VM were seen sharing one
    # vCPU for up to 0.6 s with the other idle, which made a small prediction
    # batch as slow as the serial loop. Pinning is a placement hint: if it
    # fails the worker floats.
    if len(cpus) > 1:
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
        initializer=_pin_worker,
        initargs=(cpus, itertools.count()),
    )


_renew_pool()
if hasattr(os, "register_at_fork"):  # POSIX; elsewhere there is no fork
    os.register_at_fork(after_in_child=_renew_pool)


def _chunks(n: int, width: int) -> list[slice]:
    """Consecutive slices of at most ``width`` (at least 1) covering ``range(n)``."""
    width = max(1, width)
    return [slice(start, min(start + width, n)) for start in range(0, n, width)]


def _map_kernel_blocks(kernels) -> None:
    """Set ``out = exp(scale * d) @ rhs`` for every ``(query, anchors, scale,
    rhs, out)`` kernel, ``d`` the exact distances between ``query`` and
    ``anchors``, in row blocks of about ``_BLOCK_DOUBLES`` entries of one
    kernel.

    Kernels with the same ``query`` object and equal ``anchors`` (same shape
    and values) form one group, whose row blocks compute their distances once
    for all its kernels. All blocks go into one queue, largest first (a block
    weighs its entries times its group's kernels; ties in group and row
    order), and one pool task per worker takes them until it is empty, so a
    worker that gets less CPU takes fewer blocks and the caller waits on one
    task per worker, not one per block. Each kernel is built in the running
    thread's buffer, kept between calls; a shared block keeps its distances
    in a second buffer of the same size. With one task, everything runs on
    the calling thread.
    """
    groups: list[list] = []
    for kernel in kernels:
        for group in groups:
            if group[0][0] is kernel[0] and np.array_equal(group[0][1], kernel[1]):
                group.append(kernel)
                break
        else:
            groups.append([kernel])
    blocks = [
        (group, sl)
        for group in groups
        for sl in _chunks(len(group[0][0]), _BLOCK_DOUBLES // max(len(group[0][1]), 1))
    ]
    todo = collections.deque(sorted(blocks, key=lambda b: (b[1].start - b[1].stop) * len(b[0][0][1]) * len(b[0])))

    def run(_) -> None:
        while True:
            try:
                group, sl = todo.popleft()  # thread-safe
            except IndexError:
                return
            shape = (sl.stop - sl.start, len(group[0][1]))
            k = _thread_buffer("buf", shape)
            _kernel_block(group, sl, k if len(group) == 1 else _thread_buffer("dist", shape), k)

    tasks = min(POOL_WORKERS, len(blocks))
    if tasks <= 1:
        run(None)
    else:
        list(_POOL.map(run, range(tasks)))


def _thread_buffer(name: str, shape: tuple[int, int]) -> np.ndarray:
    """The running thread's buffer ``name`` as an array of ``shape``, grown when too small."""
    size = shape[0] * shape[1]
    buf = getattr(_THREAD, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size)
        setattr(_THREAD, name, buf)
    return buf[:size].reshape(shape)


def _kernel_block(group, sl: slice, d: np.ndarray, k: np.ndarray) -> None:
    """Rows ``sl`` of the products of a group of kernels with one ``query``
    and ``anchors``: their distances into ``d`` once, then for each kernel
    ``k = exp(scale * d)`` and its product. A lone kernel passes ``k`` as
    ``d``, so its block is built in place. The product goes two columns at a
    time: OpenBLAS's SkylakeX kernels take a product of up to about 1e6
    multiply-adds through their small-matrix path, which a block of
    ``_BLOCK_DOUBLES`` entries times two columns is and times four is not."""
    pairwise_distances(group[0][0][sl], group[0][1], out=d)
    for _, _, scale, rhs, out in group:
        np.multiply(d, scale, out=k)
        np.exp(k, out=k)
        for j in range(0, rhs.shape[1], 2):
            np.matmul(k, rhs[:, j : j + 2], out=out[sl, j : j + 2])


def bbox_diagonal(sites) -> float:
    """Diagonal length of the axis-aligned bounding box of the sites. Raises
    :class:`~cfglmm.data.ValidationError` for a non-finite site."""
    pts = as_sites(sites)
    if len(pts) == 0:
        raise ValueError("bbox_diagonal requires at least one site")
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def center_count(diagonal: float, bandwidth: float, density: float) -> int:
    """Number of local centers asked for one scale: ``round(density * (D/h)^2)``, at least 1.

    A target, not an exact count: :func:`place_centers` may return fewer
    (lattice cells without sites) or up to ``nx - 1`` more (its lattice of
    ``nx`` columns has ``nx * ceil(count / nx)`` cells). Where ``(D/h)^2`` is
    past the floats (``h`` below about 1e-154 ``D``), the count is ``sys.maxsize``.
    """
    if not bandwidth > 0.0:  # so that NaN fails it
        raise ValueError("bandwidth must be positive")
    if not 0.0 <= diagonal < math.inf:
        raise ValueError("diagonal must be finite and nonnegative")
    h2 = bandwidth * bandwidth
    quotient = density * diagonal * diagonal / h2 if h2 > 0.0 else math.inf
    return max(1, round_half_away(quotient)) if quotient < math.inf else sys.maxsize


def pairwise_distances(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Exact Euclidean distances between two point sets, shape (len(a), len(b)).

    ``a`` and ``b`` are ``(n, 2)`` float arrays that the caller has checked
    (:func:`~cfglmm.data.as_sites`), used as given. Computed from coordinate
    differences, ``sqrt(dx*dx + dy*dy)``, so that coincident points give
    exactly zero. ``out``, when given, is a C-contiguous float64 array of the
    result's shape that receives the distances.
    """
    return cdist(a, b, out=out)


def _cell_means(pts: np.ndarray, weights: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Weighted mean of the points of each nonempty cell, in cell order."""
    wsum = np.bincount(cell, weights=weights)
    sx = np.bincount(cell, weights=weights * pts[:, 0])
    sy = np.bincount(cell, weights=weights * pts[:, 1])
    keep = wsum > 0
    return np.column_stack([sx[keep], sy[keep]]) / wsum[keep, None]


def _lattice_means(points: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Weighted means of the points in the occupied cells of a lattice of
    about ``k`` cells over their bounding box, in cell order (see
    :func:`place_centers`)."""
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    if span[1] == 0.0:
        nx = k
    else:
        nx = min(k, max(1, round_half_away(math.sqrt(k * span[0] / span[1]))))
    shape = np.array([nx, -(-k // nx)])
    with np.errstate(invalid="ignore", divide="ignore"):
        idx = np.where(span > 0.0, (points - lo) / span * shape, 0.0).astype(np.intp)
    np.minimum(idx, shape - 1, out=idx)  # points on the top edge join the last cell
    return _cell_means(points, weights, idx[:, 0] * shape[1] + idx[:, 1])


def _assign_nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center to each point, by exact distance (k-d tree)."""
    return cKDTree(centers).query(points)[1]


def place_centers(sites, n_centers: int) -> np.ndarray:
    """Place about ``n_centers`` local centers on a lattice over the sites,
    returned as a ``(k, 2)`` array.

    Duplicate coordinates are collapsed to distinct sites weighted by their
    counts; when ``n_centers`` reaches the number of distinct sites, the
    distinct sites themselves are returned. Otherwise a grid of ``nx`` by
    ``ny = ceil(n_centers / nx)`` cells covers the bounding box of the
    distinct sites, with ``nx = round(sqrt(n_centers * span_x / span_y))``
    (at least 1, at most ``n_centers``) so that the cells are about square;
    an axis without span gets a single row or column. Each occupied cell
    gives the weighted mean of its sites, so there are at most ``nx * ny <
    n_centers + nx`` centers. One exact Lloyd step follows:
    every site joins its nearest mean, the means are recomputed, and a mean
    left without sites is dropped. No randomness is involved, and the
    distinct sites are sorted first, so the result does not depend on the
    input order. For n sites the cost is O(n log n). Raises
    :class:`~cfglmm.data.ValidationError` for a non-finite site.
    """
    pts = as_sites(sites)
    if len(pts) == 0:
        raise ValueError("place_centers requires at least one site")
    as_int("n_centers", n_centers, 1)
    return _place_distinct(*np.unique(pts, axis=0, return_counts=True), n_centers)


def _place_distinct(uniq: np.ndarray, weights: np.ndarray, n_centers: int) -> np.ndarray:
    """:func:`place_centers` on the sorted distinct sites, weighted by their counts."""
    if n_centers >= len(uniq):
        return uniq
    seeds = _lattice_means(uniq, weights, n_centers)
    return _cell_means(uniq, weights, _assign_nearest(uniq, seeds))
