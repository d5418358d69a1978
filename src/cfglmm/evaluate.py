"""Metrics and Monte Carlo drivers: RMSE, pseudo-R2, scale recovery, scaling curves."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, FitConfig
from .families import add_intercept, fit_glm, get_family
from .learner import CfModel, accepted_scale_count, fit_cf
from .prediction import decompose, predict
from .simulate import SimScenario, generate

_S_TRIAL = 11
_S_TIMING = 12

QUANTILE_LABELS = ("min", "q25", "median", "q75", "max")


def rmse(truth, estimate) -> float:
    """Root mean squared error between two equal-length vectors."""
    a = np.asarray(truth, dtype=float).ravel()
    b = np.asarray(estimate, dtype=float).ravel()
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("rmse requires at least one element")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def pseudo_r2(dev_model: float, dev_null: float) -> float:
    """Deviance-based pseudo R-squared against an intercept-only baseline."""
    if dev_null <= 0.0:
        raise ValueError("null deviance must be positive")
    return 1.0 - dev_model / dev_null


def pearson(a, b) -> float:
    """Pearson correlation; zero-variance input yields 0 with a warning."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    sa = a.std()
    sb = b.std()
    if sa == 0.0 or sb == 0.0:
        warnings.warn("zero-variance input; correlation reported as 0", stacklevel=2)
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def scale_correlations(model: CfModel, sites, truth_components, band_edges) -> list[float]:
    """Correlation of each decomposed band against its true component."""
    comps = [np.asarray(c, dtype=float).ravel() for c in truth_components]
    if len(comps) != len(band_edges) + 1:
        raise ValueError("band count must equal truth component count")
    bands = decompose(model, sites, band_edges)
    return [pearson(bands.band_values[:, b], comps[b]) for b in range(bands.n_bands)]


@dataclass(frozen=True)
class TrialResult:
    """One Monte Carlo trial: model and baseline scores against retained truth."""

    trial: int
    seed: int
    rmse_in: float = np.nan
    rmse_out: float = np.nan
    rmse_in_glm: float = np.nan
    rmse_out_glm: float = np.nan
    beta_hat: tuple[float, ...] = ()
    beta_hat_glm: tuple[float, ...] = ()
    fit_seconds: float = np.nan
    accepted_scales: int = 0
    scale_correlations: tuple[float, ...] | None = None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """The trials of one scenario and, per metric column of their rows (see
    :func:`trial_row`), its quantiles at ``QUANTILE_LABELS``."""

    scenario: SimScenario
    trials: tuple[TrialResult, ...]
    quantiles: dict


def trial_row(trial: TrialResult) -> dict:
    """The columns of one trial: its scalar fields as they are, its tuple
    fields spread over ``beta{j}``, ``beta{j}_glm`` and ``corr_band_{b}``.
    The int and float columns but ``trial`` and ``seed`` are its metrics."""
    row = dict(vars(trial))
    row.update((f"beta{j}", b) for j, b in enumerate(row.pop("beta_hat")))
    row.update((f"beta{j}_glm", b) for j, b in enumerate(row.pop("beta_hat_glm")))
    row.update((f"corr_band_{b}", c) for b, c in enumerate(row.pop("scale_correlations") or ()))
    return row


def _midpoint_edges(bandwidths) -> tuple[float, ...]:
    hs = sorted(bandwidths, reverse=True)
    return tuple((a + b) / 2.0 for a, b in zip(hs, hs[1:]))


def trial_seed(base_seed: int, trial: int) -> int:
    ss = np.random.SeedSequence(base_seed, spawn_key=(_S_TRIAL, trial))
    return int(ss.generate_state(1)[0])


def run_trial(
    scenario: SimScenario,
    seed: int,
    config: FitConfig | None = None,
    band_edges=None,
    trial: int = 0,
) -> TrialResult:
    """Generate, fit model and baseline, and score one trial."""
    cfg = replace(config, rng_seed=seed) if config is not None else FitConfig(rng_seed=seed)
    sim = generate(scenario, seed)
    train = sim.train

    start = time.perf_counter()
    model = fit_cf(train, cfg)
    fit_seconds = time.perf_counter() - start

    glm = fit_glm(train, cfg)
    family = get_family(train.family_tag)

    def glm_mu(dataset: Dataset) -> np.ndarray:
        eta = add_intercept(dataset.covariates) @ glm.beta + dataset.offset
        return family.clamp_mu(family.inv_link(eta))

    # the fit's cached layer sum at the training sites is predict()'s z_total there, bit for bit
    eta_in = add_intercept(train.covariates) @ model.beta + train.offset + model.train_fitted.z
    result = dict(
        trial=trial,
        seed=seed,
        rmse_in=rmse(sim.truth_train.mu, family.clamp_mu(family.inv_link(eta_in))),
        rmse_in_glm=rmse(sim.truth_train.mu, glm_mu(train)),
        beta_hat=tuple(model.beta),
        beta_hat_glm=tuple(glm.beta),
        fit_seconds=fit_seconds,
        accepted_scales=accepted_scale_count(model),
    )
    if sim.test is not None:
        pred_out = predict(model, sim.test.sites, sim.test.covariates, sim.test.offset)
        result["rmse_out"] = rmse(sim.truth_test.mu, pred_out.mu)
        result["rmse_out_glm"] = rmse(sim.truth_test.mu, glm_mu(sim.test))
    if scenario.multiscale is not None:
        edges = tuple(band_edges) if band_edges is not None else _midpoint_edges(scenario.multiscale)
        comps = [sim.truth_train.components[:, m] for m in range(len(scenario.multiscale))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result["scale_correlations"] = tuple(
                scale_correlations(model, train.sites, comps, edges)
            )
    return TrialResult(**result)


def _quantiles(values) -> tuple[float, ...]:
    v = np.asarray([x for x in values if np.isfinite(x)], dtype=float)
    if len(v) == 0:
        return (np.nan,) * len(QUANTILE_LABELS)
    return tuple(float(q) for q in np.quantile(v, [0.0, 0.25, 0.5, 0.75, 1.0]))


def run_experiment(
    scenario: SimScenario,
    n_trials: int,
    seed: int,
    config: FitConfig | None = None,
    band_edges=None,
) -> ExperimentReport:
    """Run seeded Monte Carlo trials; individual failures are recorded, not fatal."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    trials = []
    for i in range(n_trials):
        s = trial_seed(seed, i)
        try:
            trials.append(run_trial(scenario, s, config=config, band_edges=band_edges, trial=i))
        except Exception as exc:  # noqa: BLE001 - trial isolation is the contract
            trials.append(TrialResult(trial=i, seed=s, error=f"{type(exc).__name__}: {exc}"))
    ok = [trial_row(t) for t in trials if t.error is None]
    columns = ok[0] if ok else trial_row(trials[0])  # with no success, the TrialResult defaults
    quantiles = {
        name: _quantiles([row[name] for row in ok])
        for name, value in columns.items()
        if name not in ("trial", "seed") and isinstance(value, (int, float))
    }
    return ExperimentReport(scenario, tuple(trials), quantiles)


def timing_curve(ns, scenario: SimScenario, seed: int = 0, repeats: int = 3) -> list[tuple[int, float]]:
    """Median fit seconds per training size (test generation excluded)."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    sizes = [int(n) for n in ns]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be ascending")
    out = []
    for n in sizes:
        sized = replace(scenario, n_train=n, n_test=0)
        times = []
        for r in range(repeats):
            s = int(np.random.SeedSequence(seed, spawn_key=(_S_TIMING, n, r)).generate_state(1)[0])
            sim = generate(sized, s)
            cfg = FitConfig(rng_seed=s)
            start = time.perf_counter()
            fit_cf(sim.train, cfg)
            times.append(time.perf_counter() - start)
        out.append((n, float(np.median(times))))
    return out
