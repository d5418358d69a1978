"""One scale of the latent process: local moment fits and their Gaussian product.

A scale layer holds local experts, one per center, at the bandwidth ``h``
that :func:`fit_layer` is given for the scale's placed centers. Each expert is
fit against a working target with effective precisions
``p_i = site_weight_i * k_i^2`` where ``k_i = exp(-d_i / h)`` is the kernel
weight of training site ``i``:

    raw mean      m_c  = sum(p t) / sum(p)
    raw variance  s2_c = sum(p (t - m_c)^2) / sum(p)        (floored)
    shrunken mean mu_c = m_c * tau2 / (tau2 + s2_c / sum(k^2))

A center whose total effective precision ``sum(p)`` falls below
``cfg.min_effective_weight``, or is zero, gets no expert: the layer holds only
the experts it evaluates. ``tau2`` is the population variance of their raw
means, so the shrinkage realizes a zero-mean Gaussian prior on the local means
shared by the whole scale. The raw means are intermediate: a layer keeps only
``bandwidth``, ``centers``, ``mu``, ``sigma2`` and ``tau2``, as its model file does.

Evaluation combines the experts as a weighted product of Gaussian densities:
precision ``q_c = k_c(s) / s2_c``, variance ``1 / sum(q)``, mean
``sum(q mu) / sum(q)``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import FitConfig, ValidationError, as_sites, as_vector, freeze
from .geometry import _map_kernel_blocks, pairwise_distances

SIGMA2_FLOOR = 1e-10

_VARIANCE_CAP = 1e300

# The results of one group of ``evaluate_stack``, in doubles (32 MB).
_RESULTS_DOUBLES = 4_000_000


class LayerUnfittableError(RuntimeError):
    """Every center of a layer had insufficient effective weight."""


@dataclass(frozen=True)
class ScaleLayer:
    """All local experts sharing one bandwidth, stored as parallel arrays:
    the five values a model file holds per layer, copied and made read-only
    when built. A layer without an expert, with a non-finite center or mu, or
    without finite positive sigma2, bandwidth and tau2 raises ValidationError."""

    bandwidth: float
    centers: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    tau2: float

    def __post_init__(self):
        cen = as_sites(self.centers)
        if not len(cen):
            raise ValidationError("layer has no expert")
        mu = as_vector("mu", self.mu, len(cen), per="centers")
        sigma2 = as_vector("sigma2", self.sigma2, len(cen), per="centers")
        if not ((sigma2 > 0.0).all() and 0.0 < self.bandwidth < np.inf and 0.0 < self.tau2 < np.inf):
            raise ValidationError("layer sigma2, bandwidth and tau2 must be finite and positive")
        freeze(self, centers=cen, mu=mu, sigma2=sigma2)

    @property
    def n_active(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class LayerEvaluation:
    """Per-site mean and variance of the aggregated single-scale process."""

    mean: np.ndarray
    variance: np.ndarray


def fit_layer(targets, site_weights, sites, centers, bandwidth: float, cfg: FitConfig) -> ScaleLayer:
    """Fit the local experts at ``centers``, a ``(k, 2)`` array such as
    :func:`geometry.place_centers` returns, at one ``bandwidth`` against a
    weighted working target.

    When the centers are the distinct sites, sorted by x and then y (as
    placement returns them once a scale's center count reaches the distinct
    sites), the site rows are put in center order and the kernel of the
    centers on themselves is symmetric: it runs in tile pairs, half the
    distances and ``exp`` (see :func:`geometry._map_kernel_blocks`). Its sums
    are within ``rtol=1e-12`` of the dense pass and have the same bits on any
    number of CPUs; sites with duplicates keep the dense pass.

    Raises ``ValueError`` for a bandwidth that is not positive or a negative
    site weight, and :class:`~cfglmm.data.ValidationError` for a non-finite
    input or targets or site weights of another length than the sites.
    """
    if not bandwidth > 0.0:  # so that NaN fails it
        raise ValueError("bandwidth must be positive")
    pts = as_sites(sites)
    cen = as_sites(centers)
    t = as_vector("target", targets, len(pts))
    sw = as_vector("site weight", site_weights, len(pts))
    if (sw < 0).any():
        raise ValueError("site_weights must be nonnegative")

    rhs = np.column_stack([np.ones(len(t)), sw, sw * t, sw * t * t])
    sums = np.empty((len(cen), 4))
    anchors = pts
    if len(cen) == len(pts):
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        if np.array_equal(pts[order], cen):  # the centers are the distinct sites, sorted
            anchors, rhs = cen, rhs[order]
    # kernel squared in one pass: exp(-d/h)^2 = exp(-2d/h)
    _map_kernel_blocks([(cen, anchors, -2.0 / bandwidth, rhs, sums)])
    keep = np.flatnonzero((sums[:, 1] >= cfg.min_effective_weight) & (sums[:, 1] > 0.0))  # column 1: sum(p)
    if not len(keep):
        raise LayerUnfittableError("layer unfittable at this bandwidth")
    sum_sq_kernel, sum_prec, spt, spt2 = sums[keep].T  # sums of k^2, p, p t and p t^2
    with np.errstate(invalid="ignore", divide="ignore"):
        raw_mean = spt / sum_prec
        # weighted second moment minus squared mean; it cancels where few sites carry
        # a center's weight: 3.7e-11 relative at h = 0.01 with site weights spread
        # over 1e+-6, against the oracle tests' 1e-12 (ROADMAP item 7(b))
        sigma2 = np.maximum(spt2 / sum_prec - raw_mean * raw_mean, SIGMA2_FLOOR)
        tau2 = max(float(np.var(raw_mean)), SIGMA2_FLOOR)
        shrink = tau2 / (tau2 + sigma2 / sum_sq_kernel)
    mu = np.where(np.isfinite(shrink), raw_mean * shrink, 0.0)
    return ScaleLayer(bandwidth=bandwidth, centers=cen[keep], mu=mu, sigma2=sigma2, tau2=tau2)


def evaluate_layer(layer: ScaleLayer, sites) -> LayerEvaluation:
    """Product-of-experts mean and variance of one layer at the query sites.

    This is ``evaluate_stack([layer], sites)``: one kernel of the sites against
    the layer's experts (see :func:`_evaluate_group`), run in row blocks
    cut from the kernel's shape alone (see :func:`geometry._map_kernel_blocks`),
    so the result does not depend on the number of CPUs. Raises
    :class:`~cfglmm.data.ValidationError` for a non-finite site.
    """
    return next(evaluate_stack([layer], sites))


def evaluate_stack(layers, sites) -> Iterator[LayerEvaluation]:
    """``evaluate_layer(layer, sites)`` for each layer, in layer order.

    The layers go in groups: the longest runs of consecutive layers whose
    results, two doubles per site and layer, fit in ``_RESULTS_DOUBLES``
    doubles, at least one layer each. A group is evaluated when the caller
    reaches its first layer. Its layers' kernels go to one
    :func:`geometry._map_kernel_blocks` call, whose queue holds the row blocks
    of each layer evaluated alone, largest block first, so neither a small
    layer nor the tail of a layer leaves a worker idle. Layers of a group whose
    centers are equal share one distance pass per row block; each still
    gets the same distances, scale, ``exp`` and products, so every row has the
    bits of a one-layer group. Raises :class:`~cfglmm.data.ValidationError`
    for a non-finite site.
    """
    pts = as_sites(sites)
    layers = list(layers)
    per_group = max(1, _RESULTS_DOUBLES // max(2 * len(pts), 1))
    starts = range(0, len(layers), per_group)
    return (ev for i in starts for ev in _evaluate_group(layers[i : i + per_group], pts))


def _evaluate_group(layers: list[ScaleLayer], pts: np.ndarray) -> list[LayerEvaluation]:
    """The layers' evaluations, their row blocks in one queue of the pool.

    Each layer is one kernel: ``k`` of the sites against its experts, times
    ``[1/s2, mu/s2]``, gives ``sum(q)`` and ``sum(q mu)`` in an ``(n, 2)``
    array. That array becomes the evaluation in place: variance ``1 / sum(q)``
    over the first column, mean ``sum(q mu) / sum(q)`` over the second.
    """
    kernels = []
    for layer in layers:
        rhs = np.column_stack([1.0 / layer.sigma2, layer.mu / layer.sigma2])
        kernels.append((pts, layer.centers, -1 / layer.bandwidth, rhs, np.empty((len(pts), 2))))
    _map_kernel_blocks(kernels)
    evaluations = []
    for layer, (_, cen, scale, _, sums) in zip(layers, kernels):
        sq, sq_mu = sums.T
        # near-total kernel underflow: 1/sq overflows or loses all precision
        far = np.flatnonzero(sq < 1e-280)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            mean = np.divide(sq_mu, sq, out=sq_mu)
            variance = np.divide(1.0, sq, out=sq)
            for i in far:
                # Kernel underflow at a far-away site: shift log precisions so the
                # dominant expert still contributes; variance is capped, not inf.
                di = np.hypot(pts[i, 0] - cen[:, 0], pts[i, 1] - cen[:, 1])
                logq = di * scale - np.log(layer.sigma2)
                top = logq.max()
                qs = np.exp(logq - top)
                ssq = qs.sum()
                mean[i] = (qs @ layer.mu) / ssq
                variance[i] = min(np.exp(-top) / ssq, _VARIANCE_CAP)
        evaluations.append(LayerEvaluation(mean, variance))
    return evaluations


def layer_basis_expansion(layer: ScaleLayer, sites) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite the layer as basis functions times coefficients.

    Returns ``(basis, coeffs)`` with one column per expert such that
    ``basis @ coeffs`` reproduces ``evaluate_layer(layer, sites).mean``. The
    basis is the kernel weight scaled by the aggregated variance at the site;
    the coefficient is ``mu_c / sigma2_c``.
    """
    pts = as_sites(sites)
    ev = evaluate_layer(layer, pts)
    basis = ev.variance[:, None] * np.exp(-pairwise_distances(pts, layer.centers) / layer.bandwidth)
    return basis, layer.mu / layer.sigma2
