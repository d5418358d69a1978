"""Independent reference implementations and checks used by several test modules."""

import dataclasses
import math

import numpy as np

from cfglmm import FitConfig, coefficient_of_variation, geometry, make_split, place_centers, wls_beta
from cfglmm.data import Dataset, as_sites
from cfglmm.experts import (
    _VARIANCE_CAP,
    SIGMA2_FLOOR,
    LayerEvaluation,
    LayerUnfittableError,
    ScaleLayer,
    evaluate_layer,
    fit_layer,
)
from cfglmm.families import add_intercept
from cfglmm.geometry import bbox_diagonal, center_count, pairwise_distances
from cfglmm.prediction import Predictions, band_index

_CHUNK_DOUBLES = 4_000_000
_SMOOTH_CHUNK_DOUBLES = 8_000_000


def grid_poe_moments(mus, sigma2s, weights, n_grid=40001, span=14.0):
    """Brute-force oracle: weighted product of Gaussian pdfs on a fine grid.

    Multiplies the unnormalized expert densities raised to their kernel
    weights, renormalizes by quadrature, and reads off mean and variance.
    """
    prec = sum(w / s2 for w, s2 in zip(weights, sigma2s))
    center = sum(w * m / s2 for w, m, s2 in zip(weights, mus, sigma2s)) / prec
    sd = math.sqrt(1.0 / prec)
    z = np.linspace(center - span * sd, center + span * sd, n_grid)
    log_density = np.zeros_like(z)
    for w, m, s2 in zip(weights, mus, sigma2s):
        log_density += w * (-0.5 * (z - m) ** 2 / s2)
    density = np.exp(log_density - log_density.max())
    total = np.trapezoid(density, z)
    mean = np.trapezoid(density * z, z) / total
    var = np.trapezoid(density * (z - mean) ** 2, z) / total
    return mean, var


def direct_gaussian_cfsm(d: Dataset, cfg: FitConfig):
    """Squared-loss coarse-to-fine fit for Gaussian data, no IRLS machinery.

    Drives the same geometry and layer primitives as the full learner, but the
    loop works directly on raw residuals with unit weights and plain squared
    validation loss. Returns (beta, trace) where trace rows are
    (scale, bandwidth, n_centers, train_loss, valid_loss, accepted).
    """
    n = d.n_sites
    tr, va = make_split(n, cfg)
    design = add_intercept(d.covariates)
    y = d.response
    train_pts = d.sites[tr]
    diagonal = bbox_diagonal(train_pts)
    bandwidth = cfg.initial_bandwidth if cfg.initial_bandwidth is not None else diagonal

    beta = wls_beta(design[tr], (y - d.offset)[tr], np.ones(len(tr)))
    cum_offset = d.offset.copy()

    def sq_loss(b, extra=0.0):
        pred = design @ b + cum_offset + extra
        return (
            float(((y - pred)[va] ** 2).sum()),
            float(((y - pred)[tr] ** 2).sum()),
        )

    best, _ = sq_loss(beta)
    trace = []
    rejections = 0
    scale = 1
    while scale <= cfg.max_scales:
        resid = y - design @ beta - cum_offset
        n_centers = min(center_count(diagonal, bandwidth, cfg.center_density), len(tr))
        centers = place_centers(train_pts, n_centers)
        try:
            layer = fit_layer(resid[tr], np.ones(len(tr)), train_pts, centers, bandwidth, cfg)
        except LayerUnfittableError:
            trace.append((scale, bandwidth, len(centers), np.nan, np.nan, False))
            rejections += 1
            if rejections >= cfg.patience:
                break
            bandwidth *= cfg.bandwidth_decay
            scale += 1
            continue
        ev = evaluate_layer(layer, d.sites)
        beta_new = wls_beta(design[tr], (y - cum_offset - ev.mean)[tr], np.ones(len(tr)))
        valid_loss, train_loss = sq_loss(beta_new, ev.mean)
        accepted = valid_loss < best
        trace.append((scale, bandwidth, len(centers), train_loss, valid_loss, accepted))
        if accepted:
            beta = beta_new
            cum_offset = cum_offset + ev.mean
            best = valid_loss
            rejections = 0
        else:
            rejections += 1
            if rejections >= cfg.patience:
                break
        bandwidth *= cfg.bandwidth_decay
        scale += 1
    return beta, trace


def gaussian_spatial_dataset(n: int, seed: int, noise_sd: float = 0.5) -> tuple[Dataset, np.ndarray]:
    """Gaussian response with a unit-sd smoothed latent surface; returns (dataset, latent)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    x = rng.normal(size=(n, 2))
    u = rng.normal(0.0, 1.0, n)
    diff = pts[:, None, :] - pts[None, :, :]
    w = np.exp(-np.sqrt((diff**2).sum(-1)) / 0.15)
    z = (w @ u) / w.sum(axis=1)
    z /= z.std()
    y = 1.0 + x @ [2.0, -0.5] + z + rng.normal(0.0, noise_sd, n)
    return Dataset(pts, y, x, "gaussian"), z


# ---------------------------------------------------------------------------
# Reference versions of the geometry kernels: the pairwise distance kernel,
# kept verbatim from the implementation it was replaced by, and a loop over the
# points for the lattice seeding. The fast versions must equal them bit for bit
# (tests/test_geometry.py::TestBitwiseReference).


def ref_pairwise_distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    d = np.subtract.outer(pa[:, 0], pb[:, 0])
    d *= d
    dy = np.subtract.outer(pa[:, 1], pb[:, 1])
    dy *= dy
    d += dy
    np.sqrt(d, out=d)
    return d


def tile_in_own_buffers(group, rows: slice) -> bool:
    """Whether the running thread's kernel buffers hold the tile it built
    last, for ``rows`` of a dense group of ``(query, anchors, scale, rhs,
    out)`` kernels against all of their anchors: the last kernel's weights in
    ``buf`` and, for a group of several kernels, the distances in ``dist``."""
    d = pairwise_distances(group[0][0][rows], group[0][1])
    held = np.array_equal(geometry._THREAD.buf[: d.size].reshape(d.shape), np.exp(group[-1][2] * d))
    return held and (len(group) == 1 or np.array_equal(geometry._THREAD.dist[: d.size].reshape(d.shape), d))


def ref_lattice_means(points: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """The lattice seeding of ``place_centers``, one point at a time.

    A grid of ``nx`` by ``ceil(k / nx)`` cells over the bounding box, ``nx =
    round(sqrt(k * span_x / span_y))`` clamped to [1, k] (``k`` when the y span
    is zero); each occupied cell gives the weighted mean of its points, in
    cell order. Sums run in input order, as a sequential accumulation does.
    """
    lo_x, lo_y = points.min(axis=0).tolist()
    span_x = points[:, 0].max() - lo_x
    span_y = points[:, 1].max() - lo_y
    nx = k if span_y == 0.0 else min(k, max(1, math.floor(math.sqrt(k * span_x / span_y) + 0.5)))
    ny = -(-k // nx)
    sums = {}
    for (x, y), w in zip(points.tolist(), weights.tolist()):
        i = min(int((x - lo_x) / span_x * nx), nx - 1) if span_x > 0.0 else 0
        j = min(int((y - lo_y) / span_y * ny), ny - 1) if span_y > 0.0 else 0
        acc = sums.setdefault(i * ny + j, [0.0, 0.0, 0.0])
        acc[0] += w
        acc[1] += w * x
        acc[2] += w * y
    return np.array([[sx / sw, sy / sw] for _, (sw, sx, sy) in sorted(sums.items())]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Serial fit_layer and evaluate_layer, one kernel buffer per chunk, kept
# verbatim from before the chunks moved onto the worker pool and were cut into
# row blocks (only the chunk width became a parameter, so tests can force
# several chunks). The blocked, pooled versions must equal them bit for bit
# (tests/test_experts.py::TestFitLayerBitwise, TestKernelBlocks).


def _ref_chunks(n: int, width: int):
    width = max(1, width)
    for start in range(0, n, width):
        yield slice(start, min(start + width, n))


def ref_smooth(query, anchors, bandwidth, noise, chunk_doubles=_SMOOTH_CHUNK_DOUBLES) -> np.ndarray:
    """One group of ``simulate._smooth`` as a serial loop with one gemm per
    chunk of about ``chunk_doubles`` kernel entries and a new kernel per
    chunk, kept verbatim from before the kernel was built in row blocks on the
    pool (the chunk width is a parameter, as in ``ref_fit_layer``)."""
    cols = noise if noise.ndim == 2 else noise[:, None]
    out = np.empty((len(query), cols.shape[1]))
    a2 = (anchors * anchors).sum(axis=1)
    chunk = max(1, chunk_doubles // max(len(anchors), 1))
    for start in range(0, len(query), chunk):
        sl = slice(start, min(start + chunk, len(query)))
        q = query[sl]
        w = (q * q).sum(axis=1)[:, None] + a2[None, :] - 2.0 * (q @ anchors.T)
        np.maximum(w, 0.0, out=w)
        np.sqrt(w, out=w)
        w *= -1.0 / bandwidth
        np.exp(w, out=w)
        out[sl] = (w @ cols) / w.sum(axis=1)[:, None]
    return out if noise.ndim == 2 else out[:, 0]


def ref_fit_layer(targets, site_weights, sites, centers, bandwidth, cfg, chunk_doubles=_CHUNK_DOUBLES) -> ScaleLayer:
    t = np.asarray(targets, dtype=float).ravel()
    sw = np.asarray(site_weights, dtype=float).ravel()
    pts = as_sites(sites)
    if not len(t) == len(sw) == len(pts):
        raise ValueError("targets, site_weights, and sites must have equal length")
    if (sw < 0).any():
        raise ValueError("site_weights must be nonnegative")
    h = bandwidth
    cen = as_sites(centers)
    n_centers = len(cen)

    raw_mean = np.zeros(n_centers)
    raw_var = np.zeros(n_centers)
    sum_prec = np.zeros(n_centers)
    sum_sq_kernel = np.zeros(n_centers)
    t_sq = t * t
    for sl in _ref_chunks(n_centers, chunk_doubles // max(len(pts), 1)):
        k2 = pairwise_distances(cen[sl], pts)
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

    # the centers with enough weight, in placement order, get an expert
    keep = [c for c in range(n_centers) if sum_prec[c] >= cfg.min_effective_weight]
    if not keep:
        raise LayerUnfittableError("layer unfittable at this bandwidth")
    raw_mean = raw_mean[keep]
    sigma2 = np.maximum(raw_var[keep], SIGMA2_FLOOR)
    tau2 = max(float(np.var(raw_mean)), SIGMA2_FLOOR)
    with np.errstate(invalid="ignore", divide="ignore"):
        shrink = tau2 / (tau2 + sigma2 / sum_sq_kernel[keep])
    mu = np.where(np.isfinite(shrink), raw_mean * shrink, 0.0)
    return ScaleLayer(bandwidth=h, centers=cen[keep], mu=mu, sigma2=sigma2, tau2=tau2)


def ref_evaluate_layer(layer, sites, chunk_doubles=_CHUNK_DOUBLES) -> LayerEvaluation:
    """``evaluate_layer`` as a serial loop with one kernel buffer and one gemv
    per chunk of about ``chunk_doubles`` entries, kept verbatim from before the
    rows were cut into cache-sized blocks (the chunk width is a parameter, as
    in ``ref_fit_layer``)."""
    pts = as_sites(sites)
    cen, mu, sigma2 = layer.centers, layer.mu, layer.sigma2
    if not len(cen):
        raise ValueError("layer has no expert")
    n = len(pts)
    mean = np.empty(n)
    variance = np.empty(n)
    log_scale = 1.0 / layer.bandwidth
    for sl in _ref_chunks(n, chunk_doubles // max(len(cen), 1)):
        q = pairwise_distances(pts[sl], cen)
        q *= -log_scale
        np.exp(q, out=q)
        q /= sigma2[None, :]
        sq = q.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            mean[sl] = (q @ mu) / sq
            variance[sl] = 1.0 / sq
        # near-total kernel underflow: 1/sq overflows or loses all precision
        for i in np.flatnonzero(sq < 1e-280) + sl.start:
            # Kernel underflow at a far-away site: shift log precisions so the
            # dominant expert still contributes; variance is capped, not inf.
            di = np.hypot(pts[i, 0] - cen[:, 0], pts[i, 1] - cen[:, 1])
            logq = -di * log_scale - np.log(sigma2)
            top = logq.max()
            qs = np.exp(logq - top)
            ssq = qs.sum()
            mean[i] = (qs @ mu) / ssq
            with np.errstate(over="ignore"):
                variance[i] = min(np.exp(-top) / ssq, _VARIANCE_CAP)
    return LayerEvaluation(mean, variance)


# ---------------------------------------------------------------------------
# Serial layer loops of predict and decompose, kept verbatim from before the
# layers moved onto the worker pool (input checks left out). The pooled
# versions must equal them bit for bit (tests/test_prediction.py::TestEvaluateStack).


def ref_predict(model, sites, covariates, offset=None) -> Predictions:
    pts = as_sites(sites)
    x = np.asarray(covariates, dtype=float)
    off = np.zeros(len(pts)) if offset is None else np.asarray(offset, dtype=float).ravel()
    z_total = np.zeros(len(pts))
    var_z = np.zeros(len(pts))
    for layer in model.layers:
        ev = evaluate_layer(layer, pts)
        z_total += ev.mean
        var_z += ev.variance
    mu_lin = add_intercept(x) @ model.beta + off + z_total
    mu = model.family.clamp_mu(model.family.inv_link(mu_lin))
    cov = coefficient_of_variation(var_z, mu, model.family)
    return Predictions(mu_lin, mu, z_total, var_z, cov)


def ref_band_values(model, sites, band_edges) -> np.ndarray:
    """``decompose(model, sites, band_edges).band_values``."""
    edges = tuple(float(e) for e in band_edges)
    pts = as_sites(sites)
    values = np.zeros((len(pts), len(edges) + 1))
    for layer in model.layers:
        b = band_index(layer.bandwidth, edges)
        values[:, b] += evaluate_layer(layer, pts).mean
    return values


def ref_model_doc(model) -> dict:
    """The JSON document ``save_model`` writes for a model, built value by
    value with ``float()`` as the indented writer did; every expert row is
    flagged active."""

    def loss_doc(loss: float) -> float | None:
        return float(loss) if math.isfinite(loss) else None

    return {
        "format_version": 1,
        "family": model.family.tag,
        "config": dataclasses.asdict(model.config),
        "n_sites": model.n_sites,
        "n_covariates": model.n_covariates,
        "beta": [float(b) for b in model.beta],
        "initial_deviance": model.initial_deviance,
        "validation_deviance": model.validation_deviance,
        "layers": [
            {
                "bandwidth": layer.bandwidth,
                "tau2": layer.tau2,
                "experts": [
                    [float(cx), float(cy), float(m), float(s2), True]
                    for (cx, cy), m, s2 in zip(layer.centers, layer.mu, layer.sigma2)
                ],
            }
            for layer in model.layers
        ],
        "loss_trace": [
            [r.scale, r.bandwidth, r.n_centers, loss_doc(r.train_loss), loss_doc(r.valid_loss), r.accepted]
            for r in model.loss_trace
        ],
    }
