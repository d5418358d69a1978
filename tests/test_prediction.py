import math

import numpy as np
import pytest
from oracles import gaussian_spatial_dataset

from cfglmm import (
    FitConfig,
    GAUSSIAN,
    POISSON,
    BERNOULLI,
    coefficient_of_variation,
    decompose,
    fit_cf,
    fit_glm,
    predict,
)
from cfglmm.data import ValidationError
from cfglmm.experts import ScaleLayer
from cfglmm.learner import CfModel
from cfglmm.simulate import SimScenario, gen_poisson


def _bare_model(family, beta, layers=(), n_cov=None):
    return CfModel(
        beta=np.asarray(beta, dtype=float),
        layers=tuple(layers),
        family=family,
        split=None,
        loss_trace=(),
        config=FitConfig(),
        initial_deviance=1.0,
        validation_deviance=1.0,
        n_sites=0,
        n_covariates=len(beta) - 1 if n_cov is None else n_cov,
    )


def _toy_layer(bandwidth, centers, mu, sigma2):
    mu = np.asarray(mu, dtype=float)
    return ScaleLayer(
        bandwidth=bandwidth,
        centers=np.asarray(centers, dtype=float),
        mu=mu,
        sigma2=np.asarray(sigma2, dtype=float),
        active=np.ones(len(mu), dtype=bool),
        tau2=1.0,
    )


@pytest.fixture(scope="module")
def poisson_model():
    sim = gen_poisson(SimScenario(beta0=0.5, n_train=500, n_test=200), seed=5)
    model = fit_cf(sim.train, FitConfig(rng_seed=5))
    return model, sim


class TestPredict:
    def test_zero_layers_equals_glm(self, rng):
        x = rng.normal(size=(200, 2))
        mu = np.exp(0.3 + x @ [0.8, -0.3])
        y = rng.poisson(mu).astype(float)
        from cfglmm import Dataset

        d = Dataset(rng.random((200, 2)), y, x, "poisson")
        glm = fit_glm(d)
        model = _bare_model(POISSON, glm.beta)
        pred = predict(model, d.sites, x)
        np.testing.assert_allclose(pred.mu, np.exp(np.column_stack([np.ones(200), x]) @ glm.beta))
        assert np.all(pred.var_z == 0.0)
        assert np.all(pred.z_total == 0.0)

    def test_training_site_prediction_matches_cache(self):
        d, _ = gaussian_spatial_dataset(300, seed=12)
        model = fit_cf(d, FitConfig(rng_seed=12))
        pred = predict(model, d.sites, d.covariates, d.offset)
        np.testing.assert_array_equal(pred.z_total, model.train_fitted.z)
        np.testing.assert_array_equal(pred.var_z, model.train_fitted.var)

    def test_var_z_is_sum_of_layer_variances(self, poisson_model):
        model, sim = poisson_model
        sites = sim.test.sites[:50]
        pred = predict(model, sites, sim.test.covariates[:50])
        from cfglmm.experts import evaluate_layer

        total = np.zeros(len(sites))
        for layer in model.layers:
            total += evaluate_layer(layer, sites).variance
        np.testing.assert_allclose(pred.var_z, total, rtol=1e-12)

    def test_column_mismatch_raises(self, poisson_model):
        model, sim = poisson_model
        with pytest.raises(ValueError, match="column mismatch"):
            predict(model, sim.test.sites, sim.test.covariates[:, :1])

    def test_offset_shifts_linear_predictor(self, poisson_model):
        model, sim = poisson_model
        sites = sim.test.sites[:20]
        x = sim.test.covariates[:20]
        base = predict(model, sites, x)
        shifted = predict(model, sites, x, offset=np.full(20, 0.7))
        np.testing.assert_allclose(shifted.mu_lin, base.mu_lin + 0.7, rtol=1e-12)

    def test_offset_length_mismatch_raises(self, poisson_model):
        model, sim = poisson_model
        with pytest.raises(ValidationError, match="length mismatch: 1 offset values vs 3 sites"):
            predict(model, sim.test.sites[:3], sim.test.covariates[:3], offset=[0.5])

    @pytest.mark.parametrize(
        "field,message", [("sites", "non-finite coordinate"), ("covariates", "non-finite covariate"),
                          ("offset", "non-finite offset")]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, poisson_model, field, message, bad):
        model, sim = poisson_model
        args = {"sites": sim.test.sites[:3].copy(), "covariates": sim.test.covariates[:3].copy(),
                "offset": np.zeros(3)}
        args[field][1] = bad
        with pytest.raises(ValidationError, match=message):
            predict(model, **args)

    def test_deterministic(self, poisson_model):
        model, sim = poisson_model
        a = predict(model, sim.test.sites, sim.test.covariates)
        b = predict(model, sim.test.sites, sim.test.covariates)
        np.testing.assert_array_equal(a.mu, b.mu)


class TestCoefficientOfVariation:
    def test_zero_variance_gives_zero_for_every_link(self):
        for family in (GAUSSIAN, POISSON, BERNOULLI):
            assert coefficient_of_variation(0.0, 0.4, family) == 0.0

    def test_log_link_lognormal_form(self):
        assert coefficient_of_variation(1.0, 5.0, POISSON) == pytest.approx(
            math.sqrt(math.e - 1.0)
        )

    def test_log_link_independent_of_mean(self):
        a = coefficient_of_variation(0.3, 1.0, POISSON)
        b = coefficient_of_variation(0.3, 100.0, POISSON)
        assert a == b

    def test_identity_link(self):
        assert coefficient_of_variation(0.25, -2.0, GAUSSIAN) == pytest.approx(0.25)

    def test_identity_link_zero_mean_errors(self):
        with pytest.raises(ValueError, match="zero mean"):
            coefficient_of_variation(0.5, 0.0, GAUSSIAN)

    def test_logit_delta_method(self):
        assert coefficient_of_variation(0.04, 0.25, BERNOULLI) == pytest.approx(0.2 * 0.75)

    @pytest.mark.parametrize("family", [GAUSSIAN, POISSON, BERNOULLI])
    def test_monotone_in_variance(self, family):
        mu = 0.3
        values = [coefficient_of_variation(v, mu, family) for v in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDecompose:
    def test_single_band_is_total(self, poisson_model):
        model, sim = poisson_model
        sites = sim.test.sites[:40]
        bands = decompose(model, sites, ())
        pred = predict(model, sites, sim.test.covariates[:40])
        np.testing.assert_allclose(bands.band_values[:, 0], pred.z_total, rtol=1e-12)

    def test_paper_thresholds_three_layers_three_bands(self):
        layers = [
            _toy_layer(3.0, [[0.0, 0.0]], [1.0], [0.5]),
            _toy_layer(0.8, [[0.5, 0.5]], [2.0], [0.5]),
            _toy_layer(0.3, [[1.0, 1.0]], [3.0], [0.5]),
        ]
        model = _bare_model(GAUSSIAN, [0.0], layers, n_cov=0)
        bands = decompose(model, [[0.2, 0.2]], (1.9, 0.5))
        assert bands.n_bands == 3
        # one layer per band: each band value equals that layer alone
        from cfglmm.experts import evaluate_layer

        for b, layer in enumerate(layers):
            ev = evaluate_layer(layer, [[0.2, 0.2]])
            assert bands.band_values[0, b] == pytest.approx(ev.mean[0], rel=1e-12)

    def test_band_edge_assignment_half_open(self):
        layers = [_toy_layer(1.9, [[0.0, 0.0]], [1.0], [0.5])]
        model = _bare_model(GAUSSIAN, [0.0], layers, n_cov=0)
        with pytest.warns(UserWarning):
            bands = decompose(model, [[0.0, 0.0]], (1.9, 0.5))
        assert bands.band_values[0, 0] != 0.0  # h == upper edge falls in the coarse band
        assert bands.band_values[0, 1] == 0.0

    def test_band_sums_reconstruct_total(self, poisson_model, rng):
        model, sim = poisson_model
        sites = rng.random((200, 2))
        edges = (0.5, 0.2, 0.05)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bands = decompose(model, sites, edges)
        pred = predict(model, sites, np.zeros((200, model.n_covariates)))
        np.testing.assert_allclose(bands.band_values.sum(axis=1), pred.z_total, atol=1e-12)

    def test_empty_band_warns(self, poisson_model):
        model, sim = poisson_model
        with pytest.warns(UserWarning, match="no accepted layer"):
            decompose(model, sim.test.sites[:5], (1e6,))

    def test_non_descending_edges_error(self, poisson_model):
        model, _ = poisson_model
        with pytest.raises(ValueError, match="descending"):
            decompose(model, [[0.0, 0.0]], (0.5, 1.9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_site_raises(self, poisson_model, bad):
        model, sim = poisson_model
        sites = sim.test.sites[:3].copy()
        sites[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite coordinate"):
            decompose(model, sites, (0.5, 0.2))

    def test_band_sds_are_site_sds(self, poisson_model, rng):
        model, _ = poisson_model
        sites = rng.random((100, 2))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bands = decompose(model, sites, (0.5,))
        np.testing.assert_allclose(bands.band_sds, bands.band_values.std(axis=0), rtol=1e-12)


class TestGaussianCoverage:
    def test_intervals_are_valid_for_latent_surface(self):
        # Summing per-layer product-of-experts variances across scales counts
        # overlapping residual spread repeatedly, so the intervals are
        # conservative rather than tightly calibrated; they must at least be
        # valid (>= nominal coverage) for the noise-free latent mean.
        d, z = gaussian_spatial_dataset(2000, seed=21, noise_sd=0.5)
        model = fit_cf(d, FitConfig(rng_seed=21))
        pred = predict(model, d.sites, d.covariates)
        latent = 1.0 + d.covariates @ [2.0, -0.5] + z
        half = 1.96 * np.sqrt(pred.var_z)
        covered = np.abs(latent - pred.mu) <= half
        assert covered.mean() >= 0.90
        # the fit itself must be accurate; conservatism must come from the
        # variance, not from a poor mean surface
        assert np.sqrt(np.mean((latent - pred.mu) ** 2)) < 0.3 * latent.std()
