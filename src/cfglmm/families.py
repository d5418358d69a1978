"""Exponential-family machinery: links, deviances, working responses, and IRLS.

Supported response families and their canonical links:

    gaussian   identity link, V(mu) = 1,          unit deviance (y - mu)^2
    poisson    log link,      V(mu) = mu,         unit deviance 2[y log(y/mu) - (y - mu)]
    bernoulli  logit link,    V(mu) = mu(1 - mu), unit deviance -2[y log mu + (1-y) log(1-mu)]

Poisson means are clamped to [1e-10, 1e10] and Bernoulli means to
[1e-6, 1 - 1e-6] before any log or reciprocal, the usual IRLS safeguard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import expit, xlogy

from .data import Dataset, FitConfig

POISSON_MU_RANGE = (1e-10, 1e10)
BERNOULLI_MU_RANGE = (1e-6, 1.0 - 1e-6)

_RIDGE_SCALE = 1e-8


class CollinearityError(RuntimeError):
    """Weighted Gram matrix is singular even after the ridge fallback."""


@dataclass(frozen=True)
class Family:
    """Response-distribution descriptor bundling inverse-link, variance and deviance callables."""

    tag: str
    inv_link: Callable
    link_deriv: Callable
    variance_fn: Callable
    unit_deviance: Callable
    mu_range: tuple[float, float] | None = None

    def clamp_mu(self, mu):
        if self.mu_range is None:
            return mu
        return np.clip(mu, self.mu_range[0], self.mu_range[1])


def _gaussian_unit_dev(y, mu):
    return (y - mu) ** 2


def _poisson_unit_dev(y, mu):
    return 2.0 * (xlogy(y, y / mu) - (y - mu))


def _bernoulli_unit_dev(y, mu):
    return -2.0 * (xlogy(y, mu) + xlogy(1.0 - y, 1.0 - mu))


GAUSSIAN = Family(
    tag="gaussian",
    inv_link=lambda eta: eta,
    link_deriv=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
    variance_fn=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
    unit_deviance=_gaussian_unit_dev,
)

POISSON = Family(
    tag="poisson",
    inv_link=lambda eta: np.exp(np.minimum(eta, 709.0)),  # overflow-safe; clamped after
    link_deriv=lambda mu: 1.0 / mu,
    variance_fn=lambda mu: mu,
    unit_deviance=_poisson_unit_dev,
    mu_range=POISSON_MU_RANGE,
)

BERNOULLI = Family(
    tag="bernoulli",
    inv_link=expit,
    link_deriv=lambda mu: 1.0 / (mu * (1.0 - mu)),
    variance_fn=lambda mu: mu * (1.0 - mu),
    unit_deviance=_bernoulli_unit_dev,
    mu_range=BERNOULLI_MU_RANGE,
)

_FAMILIES = {f.tag: f for f in (GAUSSIAN, POISSON, BERNOULLI)}


def get_family(tag: str) -> Family:
    """The family of a tag: ``"gaussian"``, ``"poisson"`` or ``"bernoulli"``."""
    try:
        return _FAMILIES[tag]
    except KeyError:
        raise ValueError(f"unknown family tag {tag!r}") from None


def deviance(family: Family, y, mu) -> float:
    """Total deviance of ``mu`` against ``y``."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return float(family.unit_deviance(y, mu).sum())


@dataclass(frozen=True)
class WorkingState:
    """Second-order linearization of the deviance around a current fit."""

    eta_hat: np.ndarray
    weights: np.ndarray
    mu: np.ndarray


def working_state(family: Family, y, mu_lin) -> WorkingState:
    """Working response ``eta_hat = mu_lin + (y - mu) g'(mu)`` and weight ``1/(V(mu) g'(mu)^2)``.

    The Gaussian branch is exact (weights all one, working response equal to
    ``y``), so the weighted path collapses to plain least squares.
    """
    y = np.asarray(y, dtype=float)
    mu_lin = np.asarray(mu_lin, dtype=float)
    if family.tag == "gaussian":
        return WorkingState(y.copy(), np.ones_like(y), mu_lin.copy())
    mu = family.clamp_mu(family.inv_link(mu_lin))
    gprime = family.link_deriv(mu)
    eta_hat = mu_lin + (y - mu) * gprime
    weights = 1.0 / (family.variance_fn(mu) * gprime * gprime)
    return WorkingState(eta_hat, weights, mu)


def add_intercept(covariates: np.ndarray) -> np.ndarray:
    """Prepend the implicit intercept column."""
    x = np.asarray(covariates, dtype=float)
    return np.column_stack([np.ones(len(x)), x])


def wls_beta(design, target, weights) -> np.ndarray:
    """Weighted least squares via the normal equations with a Cholesky solve.

    On a singular Gram matrix, retries once with ``1e-8 * trace / p`` added to
    the diagonal; a second failure raises :class:`CollinearityError`.
    """
    x = np.asarray(design, dtype=float)
    t = np.asarray(target, dtype=float)
    w = np.asarray(weights, dtype=float)
    xw = x * w[:, None]
    gram = x.T @ xw
    rhs = xw.T @ t
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)
    except scipy.linalg.LinAlgError:
        ridge = _RIDGE_SCALE * np.trace(gram) / gram.shape[0]
        try:
            return scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(gram + ridge * np.eye(gram.shape[0])), rhs
            )
        except scipy.linalg.LinAlgError:
            raise CollinearityError("collinear covariates") from None


@dataclass(frozen=True)
class GlmFit:
    """IRLS result: coefficients (intercept first), deviance, and convergence info."""

    beta: np.ndarray
    deviance: float
    converged: bool
    deviance_trace: tuple[float, ...]


def _initial_mu_lin(family: Family, y: np.ndarray) -> np.ndarray:
    if family.tag == "gaussian":
        return y.copy()
    if family.tag == "poisson":
        return np.log(family.clamp_mu(y + 0.5))
    mu = (y + 0.5) / 2.0
    return np.log(mu / (1.0 - mu))


def fit_glm(d: Dataset, cfg: FitConfig = FitConfig()) -> GlmFit:
    """Fit the plain (non-spatial) GLM by IRLS.

    Iterates working-response WLS until ``max |dbeta| < cfg.irls_tol`` or
    ``cfg.irls_max_iter`` iterations, with step halving (up to 10) whenever a
    step increases the deviance. Non-convergence is not an error; the best
    iterate is returned with ``converged=False``. ``d`` is not checked here:
    a :class:`~cfglmm.data.Dataset` was checked when it was built.
    """
    family = get_family(d.family_tag)
    design = add_intercept(d.covariates)
    y = d.response
    off = d.offset

    def dev_at(b: np.ndarray) -> float:
        mu = family.clamp_mu(family.inv_link(design @ b + off))
        return deviance(family, y, mu)

    mu_lin = _initial_mu_lin(family, y)
    beta = None
    dev = np.inf
    converged = False
    trace = []
    for _ in range(cfg.irls_max_iter):
        ws = working_state(family, y, mu_lin)
        candidate = wls_beta(design, ws.eta_hat - off, ws.weights)
        new_dev = dev_at(candidate)
        halvings = 0
        while new_dev > dev and halvings < 10:  # never at the first step, where dev is inf
            candidate = 0.5 * (candidate + beta)
            new_dev = dev_at(candidate)
            halvings += 1
        trace.append(new_dev)
        if beta is not None and np.max(np.abs(candidate - beta)) < cfg.irls_tol:
            beta, dev = candidate, new_dev
            converged = True
            break
        beta, dev = candidate, new_dev
        mu_lin = design @ beta + off
    return GlmFit(beta, dev, converged, tuple(trace))
