"""Stagewise coarse-to-fine fitting with holdout-validated layer acceptance.

The fit starts from a plain GLM, then repeatedly proposes one scale layer at a
time on a geometrically shrinking bandwidth. Each proposal is fit to the
current working residuals on the training rows, the coefficients are refit
with the proposed layer folded into the offset, and the candidate is kept only
if it strictly lowers the validation deviance. Rejected proposals roll back
completely; after ``patience`` consecutive rejections the search stops. The
accepted layers form an additive multiscale process whose per-scale variances
sum site-wise into the predictive variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .data import Dataset, FitConfig, ValidationError, as_int, as_vector, freeze, make_split
from .experts import LayerUnfittableError, ScaleLayer, evaluate_layer, fit_layer
from .families import (
    Family,
    add_intercept,
    deviance,
    fit_glm,
    get_family,
    wls_beta,
    working_state,
)
from .geometry import _place_distinct, bbox_diagonal, center_count

MIN_FIT_SITES = 20


@dataclass(frozen=True)
class ScaleRecord:
    """One attempted scale: geometry, losses, and the accept/reject outcome.

    ``n_centers`` is the number of centers placed, which can differ from
    :func:`geometry.center_count` (see there).
    """

    scale: int
    bandwidth: float
    n_centers: int
    train_loss: float
    valid_loss: float
    accepted: bool


@dataclass(frozen=True)
class TrainCache:
    """Cumulative latent mean and variance at every site seen during fitting."""

    z: np.ndarray
    var: np.ndarray


@dataclass(frozen=True)
class CfModel:
    """Fitted coarse-to-fine model: coefficients plus ordered accepted layers.

    Checked when built (:class:`ValidationError`): the type of each field,
    nonnegative integer counts, finite deviances, and ``n_covariates + 1``
    finite ``beta`` values, copied and, like the ``train_fitted`` arrays,
    read-only. The holdout split is ``make_split(n_sites, config)``.
    """

    beta: np.ndarray
    layers: tuple[ScaleLayer, ...]
    family: Family
    loss_trace: tuple[ScaleRecord, ...]
    config: FitConfig
    initial_deviance: float
    validation_deviance: float
    n_sites: int
    n_covariates: int
    train_fitted: TrainCache | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "loss_trace", tuple(self.loss_trace))
        typed = {
            "family": (Family, [self.family]),
            "config": (FitConfig, [self.config]),
            "train_fitted": (TrainCache, [] if self.train_fitted is None else [self.train_fitted]),
            "layers": (ScaleLayer, self.layers),
            "loss_trace": (ScaleRecord, self.loss_trace),
        }
        for name, (kind, values) in typed.items():
            for value in values:
                if not isinstance(value, kind):
                    raise ValidationError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
        for name in ("n_sites", "n_covariates"):
            object.__setattr__(self, name, as_int(name, getattr(self, name), 0))
        for name in ("initial_deviance", "validation_deviance"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.train_fitted is not None:
            freeze(self.train_fitted, z=self.train_fitted.z, var=self.train_fitted.var)
        freeze(self, beta=as_vector("beta", self.beta, self.n_covariates + 1, per="coefficients"))

    @property
    def split(self) -> SimpleNamespace:
        """``make_split(n_sites, config)`` by name, as ``bench/workloads.py`` reads it."""
        train_idx, valid_idx = make_split(self.n_sites, self.config)
        return SimpleNamespace(train_idx=train_idx, valid_idx=valid_idx)


def accepted_scale_count(model: CfModel) -> int:
    """Number of layers that survived validation."""
    return len(model.layers)


def fit_cf(
    d: Dataset,
    cfg: FitConfig = FitConfig(),
    progress: Callable[[ScaleRecord], None] | None = None,
) -> CfModel:
    """Fit the coarse-to-fine spatial model.

    Per scale:

    1. recompute the working response and weights at the current fit,
    2. fit one layer of local experts to the training-row working residuals,
       then refit the coefficients with the layer folded into the offset,
    3. accept the scale only if the validation deviance strictly drops;
       otherwise discard it and count toward patience,
    4. shrink the bandwidth by ``cfg.bandwidth_decay`` and repeat.

    ``progress``, when given, receives one :class:`ScaleRecord` per attempted
    scale. The fit is deterministic for a fixed ``cfg.rng_seed``, which draws
    the holdout split; center placement has no randomness. The dense passes of
    ``fit_layer`` and ``evaluate_layer`` run in row blocks on the worker pool
    (:func:`geometry._map_kernel_blocks`); the results are the same bit for bit
    on any number of CPUs.
    """
    n = d.n_sites
    if n < MIN_FIT_SITES:
        raise ValidationError(f"dataset too small for coarse-to-fine fitting (need {MIN_FIT_SITES} sites)")
    family = get_family(d.family_tag)
    tr, va = make_split(n, cfg)

    design = add_intercept(d.covariates)
    y = d.response
    train_pts = d.sites[tr]
    uniq, counts = np.unique(train_pts, axis=0, return_counts=True)  # placement input at every scale
    diagonal = bbox_diagonal(train_pts)
    bandwidth = cfg.initial_bandwidth if cfg.initial_bandwidth is not None else diagonal
    if bandwidth <= 0.0:
        raise ValidationError("degenerate geometry: initial bandwidth is zero")

    glm = fit_glm(Dataset(train_pts, y[tr], d.covariates[tr], d.family_tag, d.offset[tr]), cfg)
    beta = glm.beta
    cum_offset = d.offset.copy()

    def valid_dev(b: np.ndarray, extra: np.ndarray | float = 0.0) -> tuple[float, float]:
        mu_lin = design @ b + cum_offset + extra
        mu = family.clamp_mu(family.inv_link(mu_lin))
        return (
            deviance(family, y[va], mu[va]),
            deviance(family, y[tr], mu[tr]),
        )

    best_loss, _ = valid_dev(beta)
    initial_dev = best_loss

    layers: list[ScaleLayer] = []
    trace: list[ScaleRecord] = []
    z_cache = np.zeros(n)
    var_cache = np.zeros(n)
    rejections = 0
    for scale in range(1, cfg.max_scales + 1):
        xb = design @ beta
        ws = working_state(family, y, xb + cum_offset)
        resid = ws.eta_hat - xb - cum_offset
        centers = _place_distinct(uniq, counts, center_count(diagonal, bandwidth, cfg.center_density))
        try:
            layer = fit_layer(resid[tr], ws.weights[tr], train_pts, centers, bandwidth, cfg)
        except LayerUnfittableError:
            record = ScaleRecord(scale, bandwidth, len(centers), math.nan, math.nan, False)
        else:
            ev = evaluate_layer(layer, d.sites)
            beta_new = wls_beta(design[tr], (ws.eta_hat - cum_offset - ev.mean)[tr], ws.weights[tr])
            cand_loss, cand_train = valid_dev(beta_new, ev.mean)
            accepted = bool(np.isfinite(cand_loss) and cand_loss < best_loss)
            record = ScaleRecord(scale, bandwidth, len(centers), cand_train, cand_loss, accepted)
            if accepted:
                layers.append(layer)
                beta = beta_new
                cum_offset = cum_offset + ev.mean
                z_cache += ev.mean
                var_cache += ev.variance
                best_loss = cand_loss
        rejections = 0 if record.accepted else rejections + 1
        trace.append(record)
        if progress is not None:
            progress(record)
        if rejections >= cfg.patience:
            break
        bandwidth *= cfg.bandwidth_decay

    return CfModel(
        beta=beta,
        layers=layers,
        family=family,
        loss_trace=trace,
        config=cfg,
        initial_deviance=initial_dev,
        validation_deviance=best_loss,
        n_sites=n,
        n_covariates=d.n_covariates,
        train_fitted=TrainCache(z_cache, var_cache),
    )
