"""The benchmark workloads: closed loop, one caller, one process.

Every workload makes its inputs from a base seed. Trial ``i`` uses
``trial_seed(base, i)``, the same consecutive per-trial seeds as the
package's Monte Carlo drivers. The library only ever sees the generated
datasets.

``fit_poisson_5k``  simulate -> fit_cf -> two passes of: predict at the 2000
                    test sites in batches of 256, then decompose (0.5/0.2) at
                    the same sites; plus the GLM baseline for scoring.
``predict_grid``    set-up fits ten Poisson n=2000 models and round-trips
                    each through save_model/load_model. Each timed pass
                    predicts a regular 64 x 64 grid in batches of 256 sites
                    with one loaded model, then decomposes the whole grid in
                    one call.

Each operation checks its output; checks are counted, never fatal. A trial
that raises counts as one failed operation.

Prediction times are reported per kernel entry: seconds divided by query
sites times the model's active experts summed over its layers (the entries
of one dense evaluation of every layer, computed from the model's shapes).
How many experts a fit keeps varies by 1.5x from seed to seed, and raw
prediction seconds vary with it; per entry they do not, so a run's figures
depend on the code and not on which seeds it drew. An implementation that
skips entries (neighbour truncation) still divides by the dense count.

Each model is measured over several passes and keeps its fastest predict and
its fastest decompose: interference from the host only ever adds time. The
run's figure is then work-weighted over its models: total seconds over total
entries, and batch percentiles weighted by each batch's entries. A model that
stopped on the plateau has few experts, so it counts for little.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import cfglmm as cf
from cfglmm import evaluate as cf_evaluate
from cfglmm import families as cf_families

import tracing

BATCH = 256
ROW_RTOL = 1e-9  # decompose rows vs z_total, relative to max |z_total|
# A run's value is the median over its trials. About one seed in eight stops
# on the coarse-scale plateau (ROADMAP item 2): a near-GLM fit, far cheaper
# than a full one. A fit run goes on until full-cost trials outnumber the short
# ones by two, so the median lies on full fits while every trial still counts.
MIN_TRIALS = 3
PASSES = 2  # predict + decompose passes per fit_poisson_5k trial

now = time.perf_counter

# end-to-end metrics sampled once per trial
E2E_SAMPLED = ("setup_s", "fit_s")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: cf.SimScenario
    edges: tuple[float, ...]
    # Cap on attempted scales, set just below the depth at which patience ends
    # most full fits at this size: the stopping rule still runs, but every full
    # fit does about the same work, so a run's figures do not hinge on where
    # patience happens to fire for its seeds.
    max_scales: int
    grid_side: int = 0  # > 0: the predict_grid workload
    grid_models: int = 0

    def fit_config(self, seed: int):
        return cf.FitConfig(rng_seed=seed, max_scales=self.max_scales)


WORKLOADS = {
    # capped regime from scale 39; full fits attempt 47-51 scales
    "fit_poisson_5k": Workload(
        "fit_poisson_5k", cf.SimScenario(n_train=5000, n_test=2000), (0.5, 0.2), max_scales=46
    ),
    # full fits attempt 43-48 scales; about one model in six stops on the
    # plateau. Many small models per run keep the mix of model shapes, and so
    # the work-weighted cost per entry, close to the same in every run.
    "predict_grid": Workload(
        "predict_grid", cf.SimScenario(n_train=2000, n_test=2000), (0.5, 0.2), max_scales=36,
        grid_side=64, grid_models=10,
    ),
}


def sized(w: Workload, size: str) -> Workload:
    """``tiny`` shrinks every input for the self-test; ``full`` is the benchmark."""
    if size == "full":
        return w
    sc = replace(w.scenario, n_train=300, n_test=200)
    return replace(w, scenario=sc, grid_side=24 if w.grid_side else 0, grid_models=min(w.grid_models, 2))


@dataclass
class Pass:
    """One batched predict and one bulk decompose with one model."""

    predict_s: float
    decompose_s: float
    entries: int  # query sites x active experts: one evaluation of every layer
    batches: list[tuple[float, int]]  # (seconds, entries) per predict batch


class Run:
    """Samples, check counts and per-trial records of one benchmark run.

    ``setup_s`` and ``fit_s`` are medians of one value per trial (per model
    for ``predict_grid``). The prediction metrics come from ``passes``, see
    the module docstring.
    """

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.samples: dict[str, list[float]] = {k: [] for k in E2E_SAMPLED}
        self.passes: dict[int, list[Pass]] = {}  # per model
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.trials: list[dict] = []
        self.layer: list[dict] = []  # traced runs: per-layer metrics per trial
        self.spans: list[dict] = []  # traced runs: per-scale table and spans per trial

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add_trial(self, q: dict, model, train, path: Path, nonfinite_cov: int, tracer) -> None:
        """Record one trial's quality and, when traced, its per-layer metrics."""
        self.trials.append(q)
        if tracer is None:
            return
        n_uniq = len(np.unique(train.sites[model.split.train_idx], axis=0))
        metrics = tracing.layer_metrics(tracer.spans, n_uniq)
        metrics.update({
            "model_io.model_mb": path.stat().st_size / 2**20,
            "prediction.nonfinite_cov_sites": nonfinite_cov,
            "quality.rmse_out_rel_glm": q["rmse_out_rel_glm"],
            "quality.latent_corr": q["latent_corr"],
        })
        self.layer.append(metrics)
        self.spans.append({
            "seed": q["seed"],
            "scales": tracing.scale_table(tracer.spans, n_uniq),
            "wrapped": tracer.wrapped,
            "spans": tracer.to_json(),
        })

    def end_to_end(self) -> dict[str, float]:
        out = {k: statistics.median(v) for k, v in self.samples.items()}
        best_predict = [min(ps, key=lambda p: p.predict_s) for ps in self.passes.values()]
        best_decompose = [min(ps, key=lambda p: p.decompose_s) for ps in self.passes.values()]
        out["predict_ns_per_entry"] = 1e9 * sum(p.predict_s for p in best_predict) / sum(
            p.entries for p in best_predict)
        out["decompose_ns_per_entry"] = 1e9 * sum(p.decompose_s for p in best_decompose) / sum(
            p.entries for p in best_decompose)
        batches = [b for p in best_predict for b in p.batches]
        for q in (50, 90):
            out[f"predict_batch_p{q}_ns_per_entry"] = weighted_percentile(
                [1e9 * s / e for s, e in batches], [e for _, e in batches], q)
        out["peak_rss_mb"] = peak_rss_mb()
        out["ok_ratio"] = (self.attempted - self.failed) / self.attempted
        return out


def weighted_percentile(values: list[float], weights: list[int], q: float) -> float:
    """Smallest value at which the cumulative weight reaches q% of the total."""
    order = np.argsort(values)
    cum = np.cumsum(np.asarray(weights, dtype=float)[order])
    return float(np.asarray(values)[order][np.searchsorted(cum, q / 100.0 * cum[-1])])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_digest(model) -> str:
    """Digest of the accept/reject trace, losses included bit for bit."""
    h = hashlib.sha256()
    for r in model.loss_trace:
        h.update(repr((r.scale, r.bandwidth, r.n_centers, r.train_loss, r.valid_loss, r.accepted)).encode())
    return h.hexdigest()[:16]


def stop_reason(model) -> str:
    """Why the search stopped, inferred from the loss trace."""
    trailing = 0
    for r in reversed(model.loss_trace):
        if r.accepted:
            break
        trailing += 1
    return "patience" if trailing >= model.config.patience else "max_scales"


def glm_rmse_out(train, test, truth_mu, cfg) -> float:
    glm = cf.fit_glm(train, cfg)
    family = cf.get_family(train.family_tag)
    eta = cf_families.add_intercept(test.covariates) @ glm.beta + test.offset
    return cf.rmse(truth_mu, family.clamp_mu(family.inv_link(eta)))


def active_experts(model) -> int:
    """Kernel entries per query site of one evaluation of every layer; at
    least 1, so a model without layers is timed per site."""
    return max(1, sum(layer.n_active for layer in model.layers))


def predict_batches(run: Run, model, sites, covariates, offset):
    """Predict in fixed batches; returns (mu, z_total, sites with non-finite
    CoV, (seconds, entries) per batch)."""
    mus, zs, batches = [], [], []
    nonfinite_cov = 0
    for start in range(0, len(sites), BATCH):
        sl = slice(start, start + BATCH)
        t0 = now()
        p = cf.predict(model, sites[sl], covariates[sl], offset[sl])
        batches.append((now() - t0, len(p.mu) * active_experts(model)))
        finite = bool(np.isfinite(p.mu).all() and np.isfinite(p.z_total).all())
        run.check(finite, "predict: non-finite mu or z_total")
        nonfinite_cov += int((~np.isfinite(p.cov)).sum())
        mus.append(p.mu)
        zs.append(p.z_total)
    return np.concatenate(mus), np.concatenate(zs), nonfinite_cov, batches


def timed_decompose(run: Run, model, sites, edges, z_ref) -> float:
    """One bulk decompose, checked against z_total; returns its seconds."""
    t0 = now()
    bands = cf.decompose(model, sites, edges)
    seconds = now() - t0
    tol = ROW_RTOL * max(1.0, float(np.abs(z_ref).max(initial=0.0)))
    run.check(bool(np.allclose(bands.band_values.sum(axis=1), z_ref, rtol=0.0, atol=tol)),
              "decompose: band rows do not sum to z_total")
    return seconds


def measure_pass(run: Run, key: int, model, sites, covariates, offset, edges):
    """Batched predict then bulk decompose, recorded as one pass of model
    ``key``; returns (mu, z_total, sites with non-finite CoV)."""
    mu, z, nonfinite_cov, batches = predict_batches(run, model, sites, covariates, offset)
    decompose_s = timed_decompose(run, model, sites, edges, z)
    run.passes.setdefault(key, []).append(Pass(
        sum(s for s, _ in batches), decompose_s, len(sites) * active_experts(model), batches))
    return mu, z, nonfinite_cov


def check_bit_exact(run: Run, model, loaded, sites, covariates) -> None:
    """The loaded model must predict exactly what the fitted one does."""
    a = cf.predict(model, sites, covariates)
    b = cf.predict(loaded, sites, covariates)
    run.check(all(np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
                  for f in ("mu_lin", "mu", "z_total", "var_z", "cov")),
              "model_io: save -> load -> predict is not bit-exact")


def quality(model, seed: int, fit_s: float, rmse_out: float, rmse_out_glm: float, latent_corr: float) -> dict:
    """Per-trial record: the fit's outcome beside its time."""
    return {
        "seed": seed,
        "fit_s": fit_s,
        "digest": trace_digest(model),
        "scales_attempted": len(model.loss_trace),
        "accepted_scales": cf.accepted_scale_count(model),
        # no accepted layer: the first (coarsest) attempted bandwidth
        "finest_bandwidth": min((l.bandwidth for l in model.layers), default=model.loss_trace[0].bandwidth),
        "stop_reason": stop_reason(model),
        "rmse_out": rmse_out,
        "rmse_out_glm": rmse_out_glm,
        "rmse_out_rel_glm": rmse_out / rmse_out_glm,
        "latent_corr": latent_corr,
    }


def attempt(run: Run, what: str, fn, *args):
    """Run one trial; an exception is a failed operation, traceback on stderr."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - one failing trial must not end the run
        traceback.print_exc()
        run.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


def more_trials(durations: list[float], elapsed: float, seconds: float) -> bool:
    """Whether a fit run starts another trial: while the budget lasts, and
    past it until at least MIN_TRIALS full-cost trials outnumber the short
    (plateau) ones by two, but never past three budgets."""
    if not durations:
        return True
    full = sum(d >= 0.5 * max(durations) for d in durations)
    if full < max(MIN_TRIALS, len(durations) - full + 2):
        return elapsed < 3 * seconds
    return elapsed + max(durations) <= seconds


def traced(tracer):
    return tracer if tracer is not None else contextlib.nullcontext()


# -- fit_poisson_5k ----------------------------------------------------------------


def fit_trial(run: Run, w: Workload, seed: int, path: Path) -> None:
    """simulate -> fit -> save/load -> batched predict -> decompose, then the
    untimed, untraced checks and scoring."""
    tracer = tracing.Tracer() if run.trace else None
    with traced(tracer):
        t0 = now()
        sim = cf.gen_poisson(w.scenario, seed)
        t1 = now()
        model = cf.fit_cf(sim.train, w.fit_config(seed), progress=tracer and tracer.progress)
        t2 = now()
        cf.save_model(model, path)
        loaded = cf.load_model(path)
        test = sim.test
        passes = [measure_pass(run, seed, model, test.sites, test.covariates, test.offset, w.edges)
                  for _ in range(1 if run.trace else PASSES)]
        mu, z, nonfinite_cov = passes[0]
    run.samples["setup_s"].append(t1 - t0)
    run.samples["fit_s"].append(t2 - t1)
    run.check(bool(np.isfinite(model.beta).all()), "fit: non-finite coefficients")
    check_bit_exact(run, model, loaded, test.sites[:BATCH], test.covariates[:BATCH])
    glm = glm_rmse_out(sim.train, test, sim.truth_test.mu, w.fit_config(seed))
    q = quality(model, seed, t2 - t1, cf.rmse(sim.truth_test.mu, mu), glm, cf.pearson(z, sim.truth_test.z))
    run.add_trial(q, model, sim.train, path, nonfinite_cov, tracer)


def run_fit(run: Run, w: Workload, base: int, seconds: float, out_dir: Path) -> None:
    durations: list[float] = []
    t_start = now()
    while more_trials(durations, now() - t_start, seconds):
        t0 = now()
        seed = cf_evaluate.trial_seed(base, len(durations))
        path = out_dir / f"model_{w.name}_{base}.json"
        attempt(run, f"trial seed {seed}", fit_trial, run, w, seed, path)
        path.unlink(missing_ok=True)
        durations.append(now() - t0)


# -- predict_grid ------------------------------------------------------------------


def grid_sites(side: int) -> np.ndarray:
    g = (np.arange(side) + 0.5) / side
    return np.column_stack([np.repeat(g, side), np.tile(g, side)])


def grid_setup(run: Run, w: Workload, seed: int, path: Path, sites, covariates, tracer):
    """simulate -> fit -> save -> load, then the untimed, untraced round-trip
    check and scoring on the test set."""
    with traced(tracer):
        t0 = now()
        sim = cf.gen_poisson(w.scenario, seed)
        t1 = now()
        model = cf.fit_cf(sim.train, w.fit_config(seed), progress=tracer and tracer.progress)
        t2 = now()
        cf.save_model(model, path)
        loaded = cf.load_model(path)
        t3 = now()
    run.samples["fit_s"].append(t2 - t1)
    run.samples["setup_s"].append(t3 - t0)
    run.check(bool(np.isfinite(model.beta).all()), "fit: non-finite coefficients")
    check_bit_exact(run, model, loaded, sites[:BATCH], covariates[:BATCH])
    test = sim.test
    pred = cf.predict(model, test.sites, test.covariates, test.offset)
    glm = glm_rmse_out(sim.train, test, sim.truth_test.mu, w.fit_config(seed))
    rmse_out = cf.rmse(sim.truth_test.mu, pred.mu)
    q = quality(model, seed, t2 - t1, rmse_out, glm, cf.pearson(pred.z_total, sim.truth_test.z))
    return q, model, sim.train, loaded


def grid_pass(run: Run, w: Workload, key: int, model, sites, covariates, offset) -> int:
    """Batched predict over the grid, then one bulk decompose; returns the
    number of sites with a non-finite CoV."""
    return measure_pass(run, key, model, sites, covariates, offset, w.edges)[2]


def grid_inputs(w: Workload):
    sites = grid_sites(w.grid_side)
    # covariates held at zero: the map shows the latent surface
    return sites, np.zeros((len(sites), w.scenario.coefficients().size - 1)), np.zeros(len(sites))


@dataclass
class GridModel:
    """One set-up model of ``predict_grid`` and what its passes record."""

    quality: dict
    model: object
    train: object
    loaded: object
    path: Path
    tracer: tracing.Tracer | None
    nonfinite_cov: int = 0


def run_grid(run: Run, w: Workload, base: int, seconds: float, out_dir: Path) -> None:
    """Set up every model, then run rounds of one pass per model while the
    budget lasts. A traced run makes one round."""
    sites, covariates, offset = grid_inputs(w)
    models: list[GridModel] = []
    for i in range(w.grid_models):
        seed = cf_evaluate.trial_seed(base, i)
        path = out_dir / f"model_{w.name}_{base}_{i}.json"
        tracer = tracing.Tracer() if run.trace else None
        made = attempt(run, f"set-up seed {seed}", grid_setup, run, w, seed, path, sites, covariates, tracer)
        if made is None:
            path.unlink(missing_ok=True)
        else:
            models.append(GridModel(*made, path, tracer))
    if not models:
        raise RuntimeError("no grid model could be set up")
    rounds: list[float] = []
    t_start = now()
    while not rounds or (not run.trace and now() - t_start + max(rounds) <= seconds):
        t0 = now()
        for key, g in enumerate(models):
            with traced(g.tracer):
                counted = attempt(run, "grid pass", grid_pass, run, w, key, g.loaded, sites, covariates, offset)
            g.nonfinite_cov += counted or 0
        rounds.append(now() - t0)
    for g in models:
        run.add_trial(g.quality, g.model, g.train, g.path, g.nonfinite_cov, g.tracer)
        g.path.unlink()


# -- entry points ------------------------------------------------------------------


def run_workload(name: str, size: str, base: int, seconds: float, trace: bool, out_dir: Path) -> Run:
    w = sized(WORKLOADS[name], size)
    run = Run(trace)
    if w.grid_side:
        run_grid(run, w, base, seconds, out_dir)
    else:
        run_fit(run, w, base, seconds, out_dir)
    return run


def plain_fit(w: Workload, seed: int):
    sim = cf.gen_poisson(w.scenario, seed)
    t0 = now()
    model = cf.fit_cf(sim.train, w.fit_config(seed))
    return model, now() - t0


def run_traced(name: str, size: str, base: int, seconds: float, out_dir: Path):
    """The workload with every trial traced; per-layer metrics are medians
    over trials, like the end-to-end ones.

    Afterwards each trial's fit runs again untraced in the same, warm process:
    the accept/reject digests must agree, and the median of the time
    differences is ``trace.overhead_s``. Returns (run, per-layer metrics).
    """
    w = sized(WORKLOADS[name], size)
    run = run_workload(name, size, base, seconds, True, out_dir)
    overheads, matches = [], 0
    for q in run.trials:
        plain, plain_s = plain_fit(w, q["seed"])
        same = trace_digest(plain) == q["digest"]
        run.check(same, f"trace: seed {q['seed']}: traced and untraced accept/reject digests differ")
        matches += same
        overheads.append(q["fit_s"] - plain_s)
    metrics = {k: statistics.median(t[k] for t in run.layer) for k in run.layer[0]}
    metrics.update({
        "trace.fit_s": statistics.median(q["fit_s"] for q in run.trials),
        "trace.overhead_s": statistics.median(overheads),
        "trace.digest_match": matches / len(run.trials),
    })
    return run, metrics
