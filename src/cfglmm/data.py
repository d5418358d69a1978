"""Core data containers, each checked once when built, fit configuration, and the holdout split."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILY_TAGS = ("gaussian", "poisson", "bernoulli")

_SPLIT_STREAM = 0


class ValidationError(ValueError):
    """A dataset (or derived input) violates a structural or family invariant."""


def as_sites(sites) -> np.ndarray:
    """Coerce planar coordinates to a float (n, 2) array."""
    pts = np.asarray(sites, dtype=float)
    if pts.ndim == 1 and pts.shape == (2,):
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"sites must be an (n, 2) array, got shape {pts.shape}")
    return pts


def round_half_away(x: float) -> int:
    """Round half away from zero (``round(1.5) == 2``, ``round(-1.5) == -2``)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def as_int(name: str, value) -> int:
    """``value`` as a plain int (model files hold plain JSON ints); a bool or a
    non-integer raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_design_inputs(covariates, offset, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of the covariates, ``(rows, k)``, and of the offset, a vector
    (``n`` zeros when ``None``); an empty 1-D covariate vector is ``(n, 0)``."""
    x = np.array(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if x.size else x.reshape(n, 0)
    if x.ndim != 2:
        raise ValidationError(f"covariates must be a 1-D or 2-D array, got shape {x.shape}")
    off = np.zeros(n) if offset is None else np.array(offset, dtype=float).ravel()
    return x, off


@dataclass(frozen=True)
class Dataset:
    """Spatial regression dataset, copied, checked and made read-only when built.

    A malformed dataset raises :class:`ValidationError` here, so code that
    takes a ``Dataset`` does not check it again. ``covariates`` carries no
    intercept column; ``offset`` is on the linear-predictor scale, all zeros
    by default.
    """

    sites: np.ndarray
    response: np.ndarray
    covariates: np.ndarray
    family_tag: str
    offset: np.ndarray = None

    def __post_init__(self):
        pts = as_sites(np.array(self.sites, dtype=float))
        y = np.array(self.response, dtype=float).ravel()
        n = len(y)
        x, off = as_design_inputs(self.covariates, self.offset, n)
        if n < 1:
            raise ValidationError("dataset is empty")
        if len(pts) != n:
            raise ValidationError(f"length mismatch: {len(pts)} sites vs {n} responses")
        if len(x) != n:
            raise ValidationError(f"length mismatch: {len(x)} covariate rows vs {n} responses")
        if len(off) != n:
            raise ValidationError(f"length mismatch: {len(off)} offset values vs {n} responses")
        check_finite_inputs(pts, x, off)
        if not np.isfinite(y).all():
            raise ValidationError("non-finite response")
        if self.family_tag not in FAMILY_TAGS:
            raise ValidationError(f"unknown family tag {self.family_tag!r}")
        if self.family_tag == "poisson" and ((y < 0).any() or (y != np.floor(y)).any()):
            raise ValidationError("poisson response must be nonnegative integers")
        if self.family_tag == "bernoulli" and not np.isin(y, (0.0, 1.0)).all():
            raise ValidationError("response outside {0,1}")
        for name, value in (("sites", pts), ("response", y), ("covariates", x), ("offset", off)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_sites(self) -> int:
        return len(self.response)

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Tuning knobs for the coarse-to-fine fit.

    Defaults follow the reference setup: 75/25 holdout split, bandwidth decay
    0.9 per scale, patience of 5 consecutive non-improving scales, and center
    density 1.5 (centers per squared bandwidth-normalized diagonal; a target
    that the lattice placement meets only approximately, see
    :func:`geometry.center_count`).
    ``initial_bandwidth=None`` starts at the training bounding-box diagonal.
    A center whose effective weight falls below ``min_effective_weight`` gets
    no expert. Experts are combined by the paper's one aggregation rule, a
    product of Gaussians with precision ``k / s2`` (see :mod:`experts`).
    """

    train_fraction: float = 0.75
    bandwidth_decay: float = 0.9
    patience: int = 5
    center_density: float = 1.5
    initial_bandwidth: float | None = None
    rng_seed: int = 0
    max_scales: int = 200
    min_effective_weight: float = 1e-8
    irls_max_iter: int = 50
    irls_tol: float = 1e-8

    def __post_init__(self):
        for name in ("patience", "rng_seed", "max_scales", "irls_max_iter"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        # the float checks read ``not x > 0`` so that NaN fails them
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0.0 < self.bandwidth_decay < 1.0:
            raise ValueError("bandwidth_decay must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be a positive integer")
        if not 0.0 < self.center_density < math.inf:
            raise ValueError("center_density must be finite and positive")
        if self.initial_bandwidth is not None and not 0.0 < self.initial_bandwidth < math.inf:
            raise ValueError("initial_bandwidth must be finite and positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a nonnegative integer")
        if self.max_scales < 1:
            raise ValueError("max_scales must be a positive integer")
        if not self.min_effective_weight >= 0.0:
            raise ValueError("min_effective_weight must be nonnegative")
        if self.irls_max_iter < 1:
            raise ValueError("irls_max_iter must be a positive integer")
        if not self.irls_tol > 0.0:
            raise ValueError("irls_tol must be positive")


@dataclass(frozen=True)
class HvSplit:
    """Disjoint train/validation index sets covering 0..n-1."""

    train_idx: np.ndarray
    valid_idx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train_idx", np.asarray(self.train_idx, dtype=np.intp))
        object.__setattr__(self, "valid_idx", np.asarray(self.valid_idx, dtype=np.intp))


def make_split(n: int, cfg: FitConfig) -> HvSplit:
    """Draw the seeded uniform holdout split.

    The training size is ``round(train_fraction * n)`` with half rounded away
    from zero, clamped so both sides stay nonempty. Deterministic for a fixed
    ``cfg.rng_seed``.
    """
    if n < 4:
        raise ValidationError("dataset too small to split")
    n_train = round_half_away(cfg.train_fraction * n)
    n_train = min(max(n_train, 1), n - 1)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(_SPLIT_STREAM,)))
    perm = rng.permutation(n)
    return HvSplit(np.sort(perm[:n_train]), np.sort(perm[n_train:]))


def check_finite_inputs(sites, covariates=None, offset=None) -> None:
    """Reject non-finite sites, covariates or offset (datasets and prediction inputs)."""
    if not np.isfinite(sites).all():
        raise ValidationError("non-finite coordinate")
    if covariates is not None and not np.isfinite(covariates).all():
        raise ValidationError("non-finite covariate")
    if offset is not None and not np.isfinite(offset).all():
        raise ValidationError("non-finite offset")
