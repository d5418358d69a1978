"""One scale of the latent process: local moment fits and their Gaussian product.

A scale layer holds local experts, one per center. Each expert is fit against
a working target with effective precisions ``p_i = site_weight_i * k_i^2``
where ``k_i = exp(-d_i / h)`` is the kernel weight of training site ``i``:

    raw mean      m_c  = sum(p t) / sum(p)
    raw variance  s2_c = sum(p (t - m_c)^2) / sum(p)        (floored)
    shrunken mean mu_c = m_c * tau2 / (tau2 + s2_c / sum(k^2))

``tau2`` is the population variance of the raw means across active centers, so
the shrinkage realizes a zero-mean Gaussian prior on the local means shared by
the whole scale. Centers whose total effective precision falls below
``cfg.min_effective_weight`` are kept but marked inactive.

Evaluation combines the active experts as a weighted product of Gaussian
densities: precision ``q_c = k_c(s)^power / s2_c``, variance ``1 / sum(q)``,
mean ``sum(q mu) / sum(q)``.
"""

from __future__ import annotations

import queue
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import FitConfig, as_sites
from .geometry import POOL_WORKERS, CenterSet, _chunks, chunk_map, pairwise_distances

SIGMA2_FLOOR = 1e-10

_VARIANCE_CAP = 1e300

# Chunk kernel matrices to roughly 32 MB so n * c products stay in cache-friendly
# blocks without materializing the full matrix. The chunk boundaries also fix
# how BLAS gemv groups the rows of each ``k2 @ t`` / ``q @ mu`` product, so
# re-chunking changes results in the last bit.
_CHUNK_DOUBLES = 4_000_000


class LayerUnfittableError(RuntimeError):
    """Every center of a layer had insufficient effective weight."""


@dataclass(frozen=True)
class ScaleLayer:
    """All local experts sharing one bandwidth, stored as parallel arrays."""

    bandwidth: float
    centers: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    active: np.ndarray
    tau2: float
    weight_power: int = 1
    raw_mean: np.ndarray | None = None  # pre-shrinkage means; not persisted

    @property
    def n_experts(self) -> int:
        return len(self.mu)

    @property
    def n_active(self) -> int:
        return int(self.active.sum())


@dataclass(frozen=True)
class LayerEvaluation:
    """Per-site mean and variance of the aggregated single-scale process."""

    mean: np.ndarray
    variance: np.ndarray


def fit_layer(targets, site_weights, sites, centers: CenterSet, cfg: FitConfig) -> ScaleLayer:
    """Fit every local expert of one scale against a weighted working target."""
    t = np.asarray(targets, dtype=float).ravel()
    sw = np.asarray(site_weights, dtype=float).ravel()
    pts = as_sites(sites)
    if not len(t) == len(sw) == len(pts):
        raise ValueError("targets, site_weights, and sites must have equal length")
    if (sw < 0).any():
        raise ValueError("site_weights must be nonnegative")
    h = centers.bandwidth
    cen = centers.centers
    n_centers = len(cen)

    raw_mean = np.zeros(n_centers)
    raw_var = np.zeros(n_centers)
    sum_prec = np.zeros(n_centers)
    sum_sq_kernel = np.zeros(n_centers)
    t_sq = t * t
    width = max(1, _CHUNK_DOUBLES // max(len(pts), 1))
    slices = _chunks(n_centers, width)
    # One kernel buffer per chunk in flight, allocated on this thread as one
    # block: chunks allocated by pool threads, or 32 MB buffers allocated one
    # by one, stay in glibc's malloc arenas once freed and raise peak RSS,
    # while a block this large is unmapped when freed.
    free = queue.SimpleQueue()
    for buf in np.empty((min(len(slices), POOL_WORKERS), min(width, n_centers), len(pts))):
        free.put(buf)

    def fit_chunk(sl: slice) -> None:
        buf = free.get()
        try:
            k2 = pairwise_distances(cen[sl], pts, out=buf[: sl.stop - sl.start])
            k2 *= -2.0 / h
            np.exp(k2, out=k2)  # kernel squared in one pass: exp(-d/h)^2 = exp(-2d/h)
            sum_sq_kernel[sl] = k2.sum(axis=1)
            k2 *= sw[None, :]
            sp = k2.sum(axis=1)
            sum_prec[sl] = sp
            with np.errstate(invalid="ignore", divide="ignore"):
                m = (k2 @ t) / sp
                # weighted second moment minus squared mean; cancellation error is
                # far below sigma2_floor at working-target scales
                raw_var[sl] = np.maximum((k2 @ t_sq) / sp - m * m, 0.0)
            raw_mean[sl] = m
        finally:
            free.put(buf)

    chunk_map(fit_chunk, slices)

    active = sum_prec >= cfg.min_effective_weight
    if not active.any():
        raise LayerUnfittableError("layer unfittable at this bandwidth")
    raw_mean[~active] = 0.0
    sigma2 = np.maximum(np.where(active, raw_var, SIGMA2_FLOOR), SIGMA2_FLOOR)
    tau2 = max(float(np.var(raw_mean[active])), SIGMA2_FLOOR)
    with np.errstate(invalid="ignore", divide="ignore"):
        shrink = tau2 / (tau2 + sigma2 / sum_sq_kernel)
    mu = np.where(active & np.isfinite(shrink), raw_mean * shrink, 0.0)
    return ScaleLayer(
        bandwidth=h,
        centers=cen.copy(),
        mu=mu,
        sigma2=sigma2,
        active=active,
        tau2=tau2,
        weight_power=cfg.aggregation_weight_power,
        raw_mean=raw_mean,
    )


def evaluate_layer(layer: ScaleLayer, sites) -> LayerEvaluation:
    """Product-of-experts mean and variance of one layer at the query sites."""
    pts = as_sites(sites)
    act = layer.active
    if not act.any():
        raise ValueError("layer has no active expert")
    cen = layer.centers[act]
    mu = layer.mu[act]
    sigma2 = layer.sigma2[act]
    n = len(pts)
    mean = np.empty(n)
    variance = np.empty(n)
    for sl in _chunks(n, _CHUNK_DOUBLES // max(len(cen), 1)):
        k = pairwise_distances(pts[sl], cen)
        k *= -layer.weight_power / layer.bandwidth
        np.exp(k, out=k)
        q = k
        q /= sigma2[None, :]
        sq = q.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            mean[sl] = (q @ mu) / sq
            variance[sl] = 1.0 / sq
        # near-total kernel underflow: 1/sq overflows or loses all precision
        dead = np.flatnonzero(sq < 1e-280)
        for i in dead:
            # Kernel underflow at a far-away site: shift log precisions so the
            # dominant expert still contributes; variance is capped, not inf.
            site = pts[sl][i]
            di = np.hypot(site[0] - cen[:, 0], site[1] - cen[:, 1])
            logq = -di * (layer.weight_power / layer.bandwidth) - np.log(sigma2)
            top = logq.max()
            qs = np.exp(logq - top)
            ssq = qs.sum()
            mean[sl][i] = (qs @ mu) / ssq
            with np.errstate(over="ignore"):
                variance[sl][i] = min(np.exp(-top) / ssq, _VARIANCE_CAP)
    return LayerEvaluation(mean, variance)


def evaluate_stack(layers, sites) -> Iterator[LayerEvaluation]:
    """``evaluate_layer(layer, sites)`` for each layer, in layer order, whole layers on the pool.

    Layers are independent, so running several at once gives the serial
    results bit for bit, and each layer keeps its own row chunks. One pool
    task per worker takes the layers from a shared queue, largest ``n_active``
    first, so a worker that gets less CPU (a busy host) takes fewer layers and
    the workers still finish together; the caller waits on one task per
    worker, not one per layer (a wait per layer costs a thread wake-up per
    layer).

    The pool is used only while ``POOL_WORKERS * len(sites) * max(n_active) <=
    _CHUNK_DOUBLES``, so the kernels of the layers in flight fit in one serial
    chunk: small query batches are evaluated in parallel before this returns.
    Bulk calls get a generator that evaluates one layer per step, so they hold
    one layer's evaluation at a time, as a plain loop would.
    """
    pts = as_sites(sites)
    layers = list(layers)
    sizes = [layer.n_active for layer in layers]
    if POOL_WORKERS * len(pts) * max(sizes, default=0) > _CHUNK_DOUBLES:
        return (evaluate_layer(layer, pts) for layer in layers)
    todo = queue.SimpleQueue()
    for i in sorted(range(len(layers)), key=lambda i: -sizes[i]):
        todo.put(i)
    out = [None] * len(layers)

    def run(_) -> None:
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            out[i] = evaluate_layer(layers[i], pts)

    chunk_map(run, range(min(POOL_WORKERS, len(layers))))
    return iter(out)


def layer_basis_expansion(layer: ScaleLayer, sites) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite the layer as basis functions times coefficients.

    Returns ``(basis, coeffs)`` with one column per expert such that
    ``basis @ coeffs`` reproduces ``evaluate_layer(layer, sites).mean``. The
    basis is the kernel weight scaled by the aggregated variance at the site;
    the coefficient is ``mu_c / sigma2_c``. Inactive experts get zero columns.
    """
    pts = as_sites(sites)
    ev = evaluate_layer(layer, pts)
    d = pairwise_distances(pts, layer.centers)
    k = np.exp(-d / layer.bandwidth)
    if layer.weight_power == 2:
        np.square(k, out=k)
    basis = ev.variance[:, None] * k
    basis[:, ~layer.active] = 0.0
    coeffs = np.where(layer.active, layer.mu / layer.sigma2, 0.0)
    return basis, coeffs
