import math

import numpy as np
import pytest

import cfglmm.evaluate as evaluate_mod
from cfglmm import (
    FitConfig,
    SimScenario,
    deviance,
    fit_cf,
    fit_glm,
    get_family,
    pearson,
    predict,
    pseudo_r2,
    rmse,
    run_experiment,
    scale_correlations,
    timing_curve,
)
from cfglmm.evaluate import QUANTILE_LABELS, TrialResult, run_trial, trial_row, trial_seed
from cfglmm.families import add_intercept
from cfglmm.simulate import gen_poisson, generate


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(25.0 / 2.0))

    def test_matches_scalar_loop(self, rng):
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        want = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / 100)
        assert rmse(a, b) == pytest.approx(want, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            rmse([1.0], [1.0, 2.0])


class TestPseudoR2:
    def test_no_improvement_is_zero(self):
        assert pseudo_r2(10.0, 10.0) == 0.0

    def test_perfect_fit_is_one(self):
        assert pseudo_r2(0.0, 10.0) == 1.0

    def test_half(self):
        assert pseudo_r2(5.0, 10.0) == 0.5

    def test_zero_null_errors(self):
        with pytest.raises(ValueError):
            pseudo_r2(1.0, 0.0)

    def test_cf_model_not_below_nested_glm(self):
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=500, n_test=0), seed=17)
        d = sim.train
        family = get_family(d.family_tag)
        design = add_intercept(d.covariates)
        null_fit = fit_glm(
            type(d)(d.sites, d.response, np.empty((d.n_sites, 0)), d.family_tag, d.offset)
        )
        dev_null = deviance(family, d.response, family.clamp_mu(family.inv_link(np.full(d.n_sites, null_fit.beta[0]) + d.offset)))
        glm = fit_glm(d)
        dev_glm = deviance(family, d.response, family.clamp_mu(family.inv_link(design @ glm.beta + d.offset)))
        model = fit_cf(d, FitConfig(rng_seed=17))
        pred = predict(model, d.sites, d.covariates, d.offset)
        dev_cf = deviance(family, d.response, pred.mu)
        assert pseudo_r2(dev_cf, dev_null) >= pseudo_r2(dev_glm, dev_null)


class TestPearson:
    def test_identity(self, rng):
        a = rng.normal(size=50)
        assert pearson(a, a) == pytest.approx(1.0)

    def test_negation(self, rng):
        a = rng.normal(size=50)
        assert pearson(a, -a) == pytest.approx(-1.0)

    def test_zero_variance_flagged(self):
        with pytest.warns(UserWarning, match="zero-variance"):
            assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    def test_matches_numpy(self, rng):
        a = rng.normal(size=80)
        b = 0.3 * a + rng.normal(size=80)
        assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], rel=1e-10)


class TestScaleCorrelations:
    def test_band_count_mismatch(self):
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=300, n_test=0), seed=1)
        model = fit_cf(sim.train, FitConfig(rng_seed=1))
        with pytest.raises(ValueError, match="band count"):
            scale_correlations(model, sim.train.sites, [sim.truth_train.z], (1.9, 0.5))


@pytest.fixture(scope="module")
def small_report():
    scn = SimScenario(beta0=0.5, n_train=150, n_test=100)
    return scn, run_experiment(scn, 3, seed=77)


class TestRunExperiment:

    def test_reproducible(self, small_report):
        scn, report = small_report
        again = run_experiment(scn, 3, seed=77)
        for a, b in zip(report.trials, again.trials):
            # everything except wall time must be bit-identical
            assert a.seed == b.seed
            assert a.rmse_in == b.rmse_in
            assert a.rmse_out == b.rmse_out
            assert a.rmse_out_glm == b.rmse_out_glm
            assert a.beta_hat == b.beta_hat
            assert a.accepted_scales == b.accepted_scales
            assert a.fit_seconds > 0 and b.fit_seconds > 0

    def test_glm_rmse_present_for_every_trial(self, small_report):
        _, report = small_report
        for t in (t for t in report.trials if t.error is None):
            assert np.isfinite(t.rmse_out_glm)
            assert np.isfinite(t.rmse_in_glm)

    def test_quantiles_consistent_with_trials(self, small_report):
        _, report = small_report
        outs = [t.rmse_out for t in report.trials if t.error is None]
        assert report.quantiles["rmse_out"][2] == pytest.approx(float(np.median(outs)))
        assert report.quantiles["rmse_out"][0] == pytest.approx(min(outs))
        assert report.quantiles["rmse_out"][4] == pytest.approx(max(outs))

    def test_quantiles_of_every_metric_column(self, small_report):
        """One quantile entry per metric column of the trial rows, in row
        order, each the quantiles of that column over the successful trials."""
        _, report = small_report
        rows = [trial_row(t) for t in report.trials if t.error is None]
        assert len(rows) >= 2
        assert list(report.quantiles) == [
            "rmse_in", "rmse_out", "rmse_in_glm", "rmse_out_glm", "fit_seconds", "accepted_scales",
            "beta0", "beta1", "beta2", "beta0_glm", "beta1_glm", "beta2_glm",
        ]
        for name, qs in report.quantiles.items():
            want = np.quantile([row[name] for row in rows], [0.0, 0.25, 0.5, 0.75, 1.0])
            assert len(qs) == len(QUANTILE_LABELS)
            np.testing.assert_array_equal(qs, want)

    def test_all_failed_keeps_nan_rows(self, monkeypatch):
        """With no successful trial, each metric of the ``TrialResult``
        defaults keeps a row of NaN quantiles."""

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(evaluate_mod, "fit_cf", broken)
        report = run_experiment(SimScenario(beta0=0.5, n_train=150, n_test=50), 2, seed=77)
        assert all(t.error for t in report.trials)
        assert list(report.quantiles) == [
            "rmse_in", "rmse_out", "rmse_in_glm", "rmse_out_glm", "fit_seconds", "accepted_scales",
        ]
        assert all(len(qs) == len(QUANTILE_LABELS) and np.isnan(qs).all() for qs in report.quantiles.values())

    def test_trial_failure_recorded_not_fatal(self, monkeypatch):
        scn = SimScenario(beta0=0.5, n_train=150, n_test=50)
        real = evaluate_mod.fit_cf
        bad_seed = trial_seed(77, 1)

        def flaky(dataset, cfg, *args, **kwargs):
            if cfg.rng_seed == bad_seed:
                raise RuntimeError("boom")
            return real(dataset, cfg, *args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "fit_cf", flaky)
        report = run_experiment(scn, 3, seed=77)
        errors = [t for t in report.trials if t.error]
        assert len(errors) == 1
        assert "boom" in errors[0].error
        assert sum(t.error is None for t in report.trials) == 2

    def test_multiscale_correlations_attached(self):
        scn = SimScenario(beta0=0.5, n_train=300, n_test=0, multiscale=(3.0, 0.8, 0.3))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_trial(scn, seed=5)
        assert result.scale_correlations is not None
        assert len(result.scale_correlations) == 3
        assert all(-1.0 <= c <= 1.0 for c in result.scale_correlations)


class TestTrialRow:
    def test_spreads_tuple_fields_keeps_scalars(self):
        t = TrialResult(
            trial=3, seed=9, rmse_in=0.5, rmse_out=0.25, rmse_in_glm=0.75, rmse_out_glm=1.5,
            beta_hat=(1.0, 2.0), beta_hat_glm=(3.0, 4.0), fit_seconds=0.125, accepted_scales=2,
            scale_correlations=(0.1, 0.2, 0.3),
        )
        assert trial_row(t) == {
            "trial": 3, "seed": 9, "rmse_in": 0.5, "rmse_out": 0.25, "rmse_in_glm": 0.75,
            "rmse_out_glm": 1.5, "fit_seconds": 0.125, "accepted_scales": 2, "error": None,
            "beta0": 1.0, "beta1": 2.0, "beta0_glm": 3.0, "beta1_glm": 4.0,
            "corr_band_0": 0.1, "corr_band_1": 0.2, "corr_band_2": 0.3,
        }
        assert t.beta_hat == (1.0, 2.0) and t.scale_correlations == (0.1, 0.2, 0.3)  # not consumed

    def test_failed_trial_has_only_scalars(self):
        row = trial_row(TrialResult(trial=1, seed=4, error="RuntimeError: boom"))
        assert list(row) == [
            "trial", "seed", "rmse_in", "rmse_out", "rmse_in_glm", "rmse_out_glm", "fit_seconds",
            "accepted_scales", "error",
        ]
        assert row["error"] == "RuntimeError: boom" and math.isnan(row["rmse_out"])


class TestInSampleFromCache:
    """``run_trial`` reads the in-sample fit from ``train_fitted`` instead of a
    second ``predict`` at the training sites; the two agree bit for bit."""

    @pytest.mark.parametrize("family", ["poisson", "bernoulli", "gaussian"])
    @pytest.mark.parametrize("chunk_doubles", [None, 20_000], ids=["default_chunks", "many_chunks"])
    def test_predict_at_training_sites_is_the_cache(self, family, chunk_doubles, monkeypatch):
        from cfglmm import experts, geometry

        if chunk_doubles is not None:  # small stack groups and small row blocks
            monkeypatch.setattr(experts, "_RESULTS_DOUBLES", chunk_doubles)
            monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", chunk_doubles)
        if family == "gaussian":
            from oracles import gaussian_spatial_dataset

            d, _ = gaussian_spatial_dataset(400, seed=31)
        else:
            d = generate(SimScenario(family=family, beta0=0.5, n_train=600, n_test=0), 3).train
        model = fit_cf(d, FitConfig(rng_seed=3))
        assert len(model.layers) >= 1
        pred = predict(model, d.sites, d.covariates, d.offset)
        np.testing.assert_array_equal(pred.z_total, model.train_fitted.z)
        np.testing.assert_array_equal(pred.var_z, model.train_fitted.var)

    def test_rmse_in_equals_predict(self, monkeypatch):
        scn = SimScenario(beta0=0.5, n_train=400, n_test=100)
        fits = []
        real = evaluate_mod.fit_cf

        def keep(dataset, cfg):
            fits.append((dataset, real(dataset, cfg)))
            return fits[-1][1]

        monkeypatch.setattr(evaluate_mod, "fit_cf", keep)
        result = run_trial(scn, seed=21)
        (train, model), = fits
        sim = generate(scn, 21)
        want = rmse(sim.truth_train.mu, predict(model, train.sites, train.covariates, train.offset).mu)
        assert result.rmse_in == want


class TestTimingCurve:
    def test_positive_and_monotone(self):
        scn = SimScenario(beta0=0.5, n_train=0, n_test=0)
        curve = timing_curve([150, 1200], scn, seed=1, repeats=1)
        assert len(curve) == 2
        assert all(seconds > 0 for _, seconds in curve)
        assert curve[1][1] > curve[0][1]

    def test_rejects_no_repeats(self):
        """repeats=0 used to return a NaN time with a "Mean of empty slice" warning."""
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            timing_curve([100], SimScenario(), seed=0, repeats=0)

    def test_rejects_unordered_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            timing_curve([500, 500], SimScenario(), seed=0)
