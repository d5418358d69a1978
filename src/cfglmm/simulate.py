"""Synthetic spatial data: smoothed-noise fields, covariates, count and binary responses.

A field is built by drawing iid Gaussian noise at the training sites and
smoothing it with a row-normalized exponential kernel; the smooth is evaluated
at train and test sites alike, so both samples share one latent surface. The
default bandwidth is the average distance to the 10 nearest neighbors, which
shrinks as site density grows and therefore yields finer-scale patterns at
larger n.

The smooth is dense, O(n_query * n_train), on the worker pool of
:mod:`cfglmm.geometry` (see :func:`_smooth`). At the training sites the kernel
is symmetric and each pair of sites is weighed once, which halves its cost;
those fields are within ``rtol=1e-12`` of the dense pass. The k-d tree of the
default bandwidth is queried on scipy's own workers. Neither depends on the
number of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .data import Dataset, as_int, as_sites
from . import geometry
from .geometry import _map_kernel_blocks

MU_CAP = 1e8  # Poisson sampling overflow guard

_DEFAULT_BETA = {"poisson": (2.0, -0.5), "bernoulli": (1.0, -0.5)}

# Substream labels for seed derivation; train and test never share a stream.
_S_TRAIN_SITES = 0
_S_FIELD = 1
_S_COV_FIELD = 2
_S_COV_NOISE_TRAIN = 3
_S_Y_TRAIN = 4
_S_TEST_SITES = 5
_S_COV_NOISE_TEST = 6
_S_Y_TEST = 7


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _smooth(query: np.ndarray, anchors: np.ndarray, groups) -> list[np.ndarray]:
    """Row-normalized kernel smooths of anchor noise, evaluated at query
    sites, one per ``(bandwidth, noise)`` group.

    ``noise`` may hold several columns; they share one kernel. The kernel
    weights ``exp(-d/h)`` of the query against the anchors go times
    ``[noise, 1]`` in tiles on the pool, and the smoothed columns are those
    products over the last, the row sums. All groups go to one
    :func:`geometry._map_kernel_blocks` call, so each tile computes its
    distances once for all of them. When ``query`` is ``anchors`` (the
    training field) the tiles are the symmetric pairs, each computed once for
    both of its row ranges. No kernel larger than a tile is allocated.
    """
    kernels = []
    for h, noise in groups:
        rhs = np.column_stack([noise, np.ones(len(anchors))])
        kernels.append((query, anchors, -1.0 / h, rhs, np.empty((len(query), rhs.shape[1]))))
    _map_kernel_blocks(kernels)
    out = [sums[:, :-1] / sums[:, -1:] for *_, sums in kernels]
    return [o if noise.ndim == 2 else o[:, 0] for o, (_, noise) in zip(out, groups)]


def knn_bandwidth(sites, k: int = 10) -> float:
    """Average (over sites) of the mean distance to the k nearest neighbors.

    The k-d tree is queried on ``geometry.POOL_WORKERS`` of scipy's workers; a
    site's neighbors do not depend on them, so neither does the value."""
    pts = as_sites(sites)
    if len(pts) < 2:
        return 1.0
    dist = cKDTree(pts).query(pts, k=min(k, len(pts) - 1) + 1, workers=geometry.POOL_WORKERS)[0]
    return float(dist[:, 1:].mean())


MULTISCALE_DOMAIN_SIDE = 10.0


@dataclass(frozen=True)
class SimScenario:
    """One Monte Carlo scenario: family, coefficients, sizes, latent-field shape.

    Single-scale scenarios live on the unit square. Multiscale scenarios keep
    their literal component bandwidths (e.g. 3.0/0.8/0.3) and therefore need a
    domain large enough to contain the coarsest one: a 10 x 10 square, on
    which the bounding-box diagonal exceeds every component scale.
    """

    family: str = "poisson"
    beta0: float = 0.5
    beta: tuple[float, float] | None = None
    n_train: int = 2000
    n_test: int = 2000
    multiscale: tuple[float, ...] | None = None
    field_noise_sd: float = 2.0

    def coefficients(self) -> np.ndarray:
        slope = self.beta if self.beta is not None else _DEFAULT_BETA[self.family]
        return np.array([self.beta0, *slope], dtype=float)


@dataclass(frozen=True)
class SimTruth:
    """Latent truth retained for scoring."""

    mu: np.ndarray
    z: np.ndarray
    components: np.ndarray | None = None


@dataclass(frozen=True)
class SimData:
    train: Dataset
    test: Dataset | None
    truth_train: SimTruth
    truth_test: SimTruth | None


def generate(scenario: SimScenario, seed: int) -> SimData:
    """Draw one seeded train/test realization of a Poisson or Bernoulli scenario.

    Every random draw comes from its own ``SeedSequence`` substream of ``seed``,
    so train and test never share a stream and the output is deterministic.
    """
    if scenario.family not in _DEFAULT_BETA:
        raise ValueError(f"unsupported simulation family {scenario.family!r}")
    if scenario.multiscale is not None and not all(0.0 < h < np.inf for h in scenario.multiscale):
        raise ValueError("multiscale bandwidths must be finite and positive")
    as_int("n_train", scenario.n_train, 1)
    as_int("n_test", scenario.n_test, 0)
    coef = scenario.coefficients()
    if not np.isfinite(coef).all():
        raise ValueError("beta0 and beta must be finite")
    if not 0.0 <= scenario.field_noise_sd < np.inf:
        raise ValueError("field_noise_sd must be finite and nonnegative")
    side = MULTISCALE_DOMAIN_SIDE if scenario.multiscale is not None else 1.0
    n = scenario.n_train
    train_pts = _rng(seed, _S_TRAIN_SITES).random((n, 2)) * side
    knn_h = knn_bandwidth(train_pts)

    # Noise columns grouped by bandwidth so each group shares one kernel pass,
    # and all groups one distance pass.
    # Covariate fields always use the knn bandwidth; the latent field either
    # does too (single-scale) or splits into fixed-bandwidth components.
    cov_u = np.column_stack([_rng(seed, _S_COV_FIELD, k).normal(0.0, 1.0, n) for k in range(2)])
    if scenario.multiscale is None:
        field_u = _rng(seed, _S_FIELD, 0).normal(0.0, scenario.field_noise_sd, n)[:, None]
        groups = [(knn_h, np.column_stack([cov_u, field_u]))]
    else:
        comp_u = np.column_stack(
            [_rng(seed, _S_FIELD, m).normal(0.0, 1.0, n) for m in range(len(scenario.multiscale))]
        )
        groups = [(knn_h, cov_u)]
        groups += [(float(h), comp_u[:, [m]]) for m, h in enumerate(scenario.multiscale)]

    def smooth_all(pts):
        return np.column_stack(_smooth(pts, train_pts, groups))

    train_smoothed = smooth_all(train_pts)
    # Row-normalized smoothing collapses the variance of coarse components to
    # near nothing; standardize each multiscale component over the training
    # realization so every scale carries a recoverable, comparable amplitude.
    # Smoothing is linear, so this is one scale factor per component field.
    comp_scale = np.ones(train_smoothed.shape[1] - 2)
    if scenario.multiscale is not None:
        sds = train_smoothed[:, 2:].std(axis=0)
        comp_scale = 1.0 / np.where(sds > 0, sds, 1.0)

    def build(pts, smoothed, cov_noise_stream, y_stream):
        zcov = smoothed[:, 0:2]
        parts = smoothed[:, 2:] * comp_scale[None, :]
        e = np.column_stack(
            [_rng(seed, cov_noise_stream, k).normal(0.0, 1.0, len(pts)) for k in range(2)]
        )
        x = 0.5 * zcov + 0.5 * e
        z = parts.sum(axis=1)
        eta = coef[0] + x @ coef[1:] + z
        if scenario.family == "poisson":
            mu = np.minimum(np.exp(eta), MU_CAP)
            y = _rng(seed, y_stream).poisson(mu)
        else:
            mu = 1.0 / (1.0 + np.exp(-eta))
            y = _rng(seed, y_stream).binomial(1, mu)
        dataset = Dataset(pts, y, x, scenario.family)
        comps = parts if scenario.multiscale is not None else None
        return dataset, SimTruth(mu, z, comps)

    train, truth_train = build(train_pts, train_smoothed, _S_COV_NOISE_TRAIN, _S_Y_TRAIN)
    test, truth_test = None, None
    if scenario.n_test > 0:
        test_pts = _rng(seed, _S_TEST_SITES).random((scenario.n_test, 2)) * side
        test, truth_test = build(test_pts, smooth_all(test_pts), _S_COV_NOISE_TEST, _S_Y_TEST)
    return SimData(train, test, truth_train, truth_test)


def gen_poisson(scenario: SimScenario, seed: int) -> SimData:
    """:func:`generate` for a Poisson scenario; any other family is rejected."""
    if scenario.family != "poisson":
        raise ValueError("scenario family must be poisson")
    return generate(scenario, seed)


def gen_binomial(scenario: SimScenario, seed: int) -> SimData:
    """:func:`generate` for a Bernoulli scenario; any other family is rejected."""
    if scenario.family != "bernoulli":
        raise ValueError("scenario family must be bernoulli")
    return generate(scenario, seed)
