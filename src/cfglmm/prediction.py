"""Out-of-sample prediction, predictive uncertainty, and scale-band decomposition."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ValidationError, as_design_inputs, as_sites, check_finite_inputs
from .experts import evaluate_stack
from .families import Family, add_intercept
from .learner import CfModel


@dataclass(frozen=True)
class Predictions:
    """Site-wise predictions: linear predictor, response mean, latent process, uncertainty."""

    mu_lin: np.ndarray
    mu: np.ndarray
    z_total: np.ndarray
    var_z: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class ScaleBandDecomposition:
    """Accepted layers grouped into bandwidth bands.

    ``band_values[i, b]`` is the summed layer mean of band ``b`` at site ``i``;
    bands partition the bandwidth axis into ``[edge_k, edge_{k-1})`` intervals
    (descending edges), so the rows sum to the total latent process.
    """

    band_edges: tuple[float, ...]
    band_values: np.ndarray
    band_sds: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.band_values.shape[1]


def coefficient_of_variation(var_z, mu, family: Family):
    """Predictive standard deviation over predictive mean, per link.

    Log link has the exact lognormal form ``sqrt(exp(var) - 1)``; identity is
    ``sd / |mu|``; logit uses the delta method, ``sqrt(var) * (1 - mu)``.
    Under the log link a variance above about 709.78 gives ``inf``, without a
    warning: the lognormal CoV diverges. Far from every expert the layer
    variance is capped at 1e300, so such sites read ``cov = inf``.
    """
    v = np.asarray(var_z, dtype=float)
    m = np.asarray(mu, dtype=float)
    if family.tag == "poisson":
        with np.errstate(over="ignore"):
            out = np.sqrt(np.expm1(v))
    elif family.tag == "bernoulli":
        out = np.sqrt(v) * (1.0 - m)
    else:
        if np.any(m == 0.0):
            raise ValueError("CoV undefined at zero mean")
        out = np.sqrt(v) / np.abs(m)
    return float(out) if out.ndim == 0 else out


def predict(model: CfModel, sites, covariates, offset=None) -> Predictions:
    """Predict at new sites: covariate effect plus every accepted layer.

    Layer variances are summed site-wise (layers are treated as independent);
    the uncertainty covers the latent process only, not the coefficients.
    Raises :class:`ValidationError` for an offset whose length differs from
    the number of sites and for non-finite sites, covariates or offset.
    """
    pts = as_sites(sites)
    x, off = as_design_inputs(covariates, offset, len(pts))
    if x.shape[1] != model.n_covariates:
        raise ValueError(
            f"covariate column mismatch: model expects {model.n_covariates}, got {x.shape[1]}"
        )
    if len(x) != len(pts):
        raise ValueError("covariates and sites must have equal length")
    if len(off) != len(pts):
        raise ValidationError(f"length mismatch: {len(off)} offset values vs {len(pts)} sites")
    check_finite_inputs(pts, x, off)

    z_total = np.zeros(len(pts))
    var_z = np.zeros(len(pts))
    for ev in evaluate_stack(model.layers, pts):
        z_total += ev.mean
        var_z += ev.variance
    mu_lin = add_intercept(x) @ model.beta + off + z_total
    mu = model.family.clamp_mu(model.family.inv_link(mu_lin))
    cov = coefficient_of_variation(var_z, mu, model.family)
    return Predictions(mu_lin, mu, z_total, var_z, cov)


def band_index(bandwidth: float, band_edges) -> int:
    """Band of a bandwidth under descending edges; band b covers [edge_b, edge_{b-1})."""
    return int(sum(bandwidth < e for e in band_edges))


def decompose(model: CfModel, sites, band_edges) -> ScaleBandDecomposition:
    """Split the latent process into bandwidth bands at the query sites.

    Raises :class:`ValidationError` for non-finite sites.
    """
    edges = tuple(float(e) for e in band_edges)
    if any(not e > 0 for e in edges):  # NaN fails too
        raise ValueError("band edges must be positive")
    if any(a <= b for a, b in zip(edges, edges[1:])):
        raise ValueError("band edges must be strictly descending")
    pts = as_sites(sites)
    n_bands = len(edges) + 1
    values = np.zeros((len(pts), n_bands))
    occupied = np.zeros(n_bands, dtype=bool)
    for layer, ev in zip(model.layers, evaluate_stack(model.layers, pts)):
        b = band_index(layer.bandwidth, edges)
        values[:, b] += ev.mean
        occupied[b] = True
    for b in np.flatnonzero(~occupied):
        warnings.warn(f"band {b} contains no accepted layer; its component is zero", stacklevel=2)
    return ScaleBandDecomposition(edges, values, values.std(axis=0))
