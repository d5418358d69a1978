"""Independent reference implementations used by several test modules."""

import math

import numpy as np

from cfglmm import FitConfig, coefficient_of_variation, make_split, place_centers, wls_beta
from cfglmm.data import Dataset, as_sites
from cfglmm.experts import _CHUNK_DOUBLES, SIGMA2_FLOOR, LayerUnfittableError, ScaleLayer, evaluate_layer, fit_layer
from cfglmm.families import add_intercept
from cfglmm.geometry import bbox_diagonal, center_count, pairwise_distances
from cfglmm.learner import layer_seed
from cfglmm.prediction import Predictions, band_index


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
    split = make_split(n, cfg)
    tr, va = split.train_idx, split.valid_idx
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
        try:
            centers = place_centers(train_pts, n_centers, bandwidth, layer_seed(cfg.rng_seed, scale))
            layer = fit_layer(resid[tr], np.ones(len(tr)), train_pts, centers, cfg)
        except LayerUnfittableError:
            trace.append((scale, bandwidth, n_centers, np.nan, np.nan, False))
            rejections += 1
            if rejections >= cfg.patience:
                break
            bandwidth *= cfg.bandwidth_decay
            scale += 1
            continue
        ev = evaluate_layer(layer, d.sites)
        beta_new = wls_beta(design, y - cum_offset - ev.mean, np.ones(n), subset=tr)
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
# Reference numpy versions of the geometry hot loops, kept verbatim from the
# implementation they were replaced by. The fast versions must equal them bit
# for bit (tests/test_geometry.py::TestBitwiseReference).


def ref_pairwise_distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    d = np.subtract.outer(pa[:, 0], pb[:, 0])
    d *= d
    dy = np.subtract.outer(pa[:, 1], pb[:, 1])
    dy *= dy
    d += dy
    np.sqrt(d, out=d)
    return d


def ref_assign_nearest(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(points)
    p2 = (points * points).sum(1)
    best_d2 = np.full(n, np.inf)
    assign = np.zeros(n, dtype=np.intp)
    chunk = 256
    for start in range(0, len(centers), chunk):
        cen = centers[start : start + chunk]
        d2 = points @ cen.T
        d2 *= -2.0
        d2 += p2[:, None]
        d2 += (cen * cen).sum(1)[None, :]
        local = d2.argmin(axis=1)
        local_d2 = d2[np.arange(n), local]
        better = local_d2 < best_d2
        assign[better] = local[better] + start
        best_d2[better] = local_d2[better]
    np.maximum(best_d2, 0.0, out=best_d2)
    return assign, best_d2


def _ref_weighted_pick(weights: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def ref_kmeans_pp(points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, 2))
    centers[0] = points[_ref_weighted_pick(weights, rng)]
    d2 = ((points - centers[0]) ** 2).sum(1)
    for j in range(1, k):
        centers[j] = points[_ref_weighted_pick(weights * d2, rng)]
        np.minimum(d2, ((points - centers[j]) ** 2).sum(1), out=d2)
    return centers


# ---------------------------------------------------------------------------
# Serial fit_layer, kept verbatim from before its chunks moved onto the worker
# pool (only the chunk width became a parameter, so tests can force several
# chunks). The pooled version must equal it bit for bit
# (tests/test_experts.py::TestFitLayerBitwise).


def _ref_chunks(n: int, width: int):
    width = max(1, width)
    for start in range(0, n, width):
        yield slice(start, min(start + width, n))


def ref_fit_layer(targets, site_weights, sites, centers, cfg, chunk_doubles=_CHUNK_DOUBLES) -> ScaleLayer:
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
