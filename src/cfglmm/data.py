"""Core data containers, each checked once when built, fit configuration, and the holdout split."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

FAMILY_TAGS = ("gaussian", "poisson", "bernoulli")

_SPLIT_STREAM = 0


class ValidationError(ValueError):
    """A dataset (or derived input) violates a structural or family invariant."""


def as_sites(sites) -> np.ndarray:
    """A float ``(n, 2)`` copy of planar coordinates (or of one pair); raises
    :class:`ValidationError` for another shape or a non-finite coordinate."""
    pts = np.array(sites, dtype=float)
    if pts.shape == (2,):
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"sites must be an (n, 2) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("non-finite coordinate")
    return pts


def as_vector(what: str, values, n: int, per: str = "sites") -> np.ndarray:
    """A raveled float copy of ``n`` values, one per site (or per ``per``);
    raises :class:`ValidationError` for another length or a non-finite value."""
    v = np.array(values, dtype=float).ravel()
    if len(v) != n:
        raise ValidationError(f"length mismatch: {len(v)} {what} values vs {n} {per}")
    if not np.isfinite(v).all():
        raise ValidationError(f"non-finite {what}")
    return v


def freeze(obj, **arrays) -> None:
    """Make each array read-only and set it as a field of the frozen dataclass ``obj``."""
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(obj, name, value)


def round_half_away(x: float) -> int:
    """Round half away from zero (``round(1.5) == 2``, ``round(-1.5) == -2``)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def as_int(name: str, value, low: int) -> int:
    """``value`` as a plain int (model files hold plain JSON ints) of at least
    ``low``; a bool, a non-integer or a smaller value raises :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")
    return int(value)


def as_real(name: str, value) -> float:
    """``value`` as a plain float; a bool or a value that is not a real number
    raises :class:`ValidationError`. Its range is the caller's to check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_design_inputs(covariates, offset, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of the ``(n, k)`` covariates (an empty 1-D vector is ``(n, 0)``)
    and the offset (zeros for ``None``) of ``n`` sites, checked like :func:`as_vector`."""
    x = np.array(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if x.size else x.reshape(n, 0)
    if x.ndim != 2:
        raise ValidationError(f"covariates must be a 1-D or 2-D array, got shape {x.shape}")
    if len(x) != n:
        raise ValidationError(f"length mismatch: {len(x)} covariate rows vs {n} sites")
    if not np.isfinite(x).all():
        raise ValidationError("non-finite covariate")
    return x, np.zeros(n) if offset is None else as_vector("offset", offset, n)


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
        pts = as_sites(self.sites)
        if not len(pts):
            raise ValidationError("dataset is empty")
        y = as_vector("response", self.response, len(pts))
        x, off = as_design_inputs(self.covariates, self.offset, len(pts))
        if self.family_tag not in FAMILY_TAGS:
            raise ValidationError(f"unknown family tag {self.family_tag!r}")
        if self.family_tag == "poisson" and ((y < 0).any() or (y != np.floor(y)).any()):
            raise ValidationError("poisson response must be nonnegative integers")
        if self.family_tag == "bernoulli" and not np.isin(y, (0.0, 1.0)).all():
            raise ValidationError("response outside {0,1}")
        freeze(self, sites=pts, response=y, covariates=x, offset=off)

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
    A center whose effective weight falls below ``min_effective_weight``, or
    is zero (which a ``min_effective_weight`` of 0 would admit), gets no
    expert. Experts are combined by the paper's one aggregation rule, a
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
        for name, low in (("patience", 1), ("rng_seed", 0), ("max_scales", 1), ("irls_max_iter", 1)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), low))
        for name in ("train_fraction", "bandwidth_decay", "center_density", "min_effective_weight", "irls_tol"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.initial_bandwidth is not None:
            object.__setattr__(self, "initial_bandwidth", as_real("initial_bandwidth", self.initial_bandwidth))
        # the float checks read ``not x > 0`` so that NaN fails them
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0.0 < self.bandwidth_decay < 1.0:
            raise ValueError("bandwidth_decay must be in (0, 1)")
        if not 0.0 < self.center_density < math.inf:
            raise ValueError("center_density must be finite and positive")
        if self.initial_bandwidth is not None and not 0.0 < self.initial_bandwidth < math.inf:
            raise ValueError("initial_bandwidth must be finite and positive")
        if not 0.0 <= self.min_effective_weight < math.inf:
            raise ValueError("min_effective_weight must be finite and nonnegative")
        if not 0.0 < self.irls_tol < math.inf:
            raise ValueError("irls_tol must be finite and positive")


def make_split(n: int, cfg: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw the seeded uniform holdout split: sorted ``intp`` arrays
    ``(train_idx, valid_idx)``, disjoint and covering ``0..n-1``.

    The training size is ``round(train_fraction * n)`` with half rounded away
    from zero, clamped so both sides stay nonempty. Deterministic for a fixed
    ``cfg.rng_seed``, so a model's split is ``make_split(n_sites, config)``.
    """
    if n < 4:
        raise ValidationError("dataset too small to split")
    n_train = round_half_away(cfg.train_fraction * n)
    n_train = min(max(n_train, 1), n - 1)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(_SPLIT_STREAM,)))
    perm = rng.permutation(n).astype(np.intp, copy=False)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
