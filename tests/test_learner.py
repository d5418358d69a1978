import dataclasses
import threading

import numpy as np
import pytest
from oracles import direct_gaussian_cfsm, gaussian_spatial_dataset

from cfglmm import POISSON, Dataset, FitConfig, ValidationError, accepted_scale_count, fit_cf, make_split
from cfglmm.learner import CfModel, TrainCache
from cfglmm.simulate import SimScenario, gen_poisson


@pytest.fixture(scope="module")
def poisson_fit():
    sim = gen_poisson(SimScenario(beta0=0.5, n_train=600, n_test=0), seed=42)
    cfg = FitConfig(rng_seed=42)
    return fit_cf(sim.train, cfg), sim


class TestFitCf:
    def test_too_small_dataset(self, rng):
        d = Dataset(rng.random((10, 2)), rng.poisson(1.0, 10).astype(float), rng.normal(size=(10, 1)), "poisson")
        with pytest.raises(ValidationError, match="too small"):
            fit_cf(d)

    def test_accepted_losses_strictly_decreasing(self, poisson_fit):
        model, _ = poisson_fit
        accepted = [r.valid_loss for r in model.loss_trace if r.accepted]
        assert len(accepted) >= 1
        assert all(b < a for a, b in zip(accepted, accepted[1:]))
        assert accepted[0] < model.initial_deviance

    def test_final_deviance_not_above_initial(self, poisson_fit):
        model, _ = poisson_fit
        assert model.validation_deviance <= model.initial_deviance

    def test_bandwidths_geometric(self, poisson_fit):
        model, _ = poisson_fit
        h = np.array([r.bandwidth for r in model.loss_trace])
        np.testing.assert_allclose(h[1:] / h[:-1], model.config.bandwidth_decay, rtol=1e-12)

    def test_accepted_count_matches_trace(self, poisson_fit):
        model, _ = poisson_fit
        assert accepted_scale_count(model) == sum(r.accepted for r in model.loss_trace)
        assert accepted_scale_count(model) == len(model.layers)

    def test_deterministic(self, poisson_fit):
        model, sim = poisson_fit
        again = fit_cf(sim.train, FitConfig(rng_seed=42))
        np.testing.assert_array_equal(model.beta, again.beta)
        assert model.loss_trace == again.loss_trace

    def test_train_cache_additive(self, poisson_fit):
        model, sim = poisson_fit
        from cfglmm.experts import evaluate_layer

        z = np.zeros(sim.train.n_sites)
        var = np.zeros(sim.train.n_sites)
        for layer in model.layers:
            ev = evaluate_layer(layer, sim.train.sites)
            z += ev.mean
            var += ev.variance
        np.testing.assert_allclose(model.train_fitted.z, z, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(model.train_fitted.var, var, rtol=1e-10, atol=1e-12)

    def test_progress_sink_sees_trace(self, poisson_fit):
        _, sim = poisson_fit
        seen = []
        model = fit_cf(sim.train, FitConfig(rng_seed=42), progress=seen.append)
        assert tuple(seen) == model.loss_trace

    def test_rejected_scales_roll_back(self, poisson_fit):
        model, sim = poisson_fit
        rejected = [r.scale for r in model.loss_trace if not r.accepted]
        assert rejected, "fixture fit should contain at least one rejection"
        r = rejected[0]
        with_rejected = fit_cf(sim.train, FitConfig(rng_seed=42, max_scales=r))
        without = fit_cf(sim.train, FitConfig(rng_seed=42, max_scales=r - 1))
        np.testing.assert_array_equal(with_rejected.beta, without.beta)
        assert len(with_rejected.layers) == len(without.layers)
        np.testing.assert_array_equal(with_rejected.train_fitted.z, without.train_fitted.z)

    def test_pure_noise_gaussian_accepts_nothing(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=400)
        d = Dataset(rng.random((400, 2)), y, np.empty((400, 0)), "gaussian")
        model = fit_cf(d, FitConfig(rng_seed=3))
        assert accepted_scale_count(model) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_noise_gaussian_stays_near_glm(self, seed):
        # strict-improvement holdout acceptance can wave through no-op layers
        # on chance-level wiggles, so the count varies by seed; the model must
        # stay essentially the plain GLM regardless.
        rng = np.random.default_rng(seed)
        y = rng.normal(size=400)
        d = Dataset(rng.random((400, 2)), y, np.empty((400, 0)), "gaussian")
        model = fit_cf(d, FitConfig(rng_seed=seed))
        assert model.validation_deviance >= 0.97 * model.initial_deviance
        assert model.validation_deviance <= model.initial_deviance

    def test_n_centers_is_the_count_placed(self, monkeypatch):
        """Every trace row records the number of centers placement returned,
        for an unfittable scale too."""
        from cfglmm import learner

        placed = []
        real = learner._place_distinct

        def spy(*args):
            placed.append(len(real(*args)))
            return real(*args)

        monkeypatch.setattr(learner, "_place_distinct", spy)
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=200, n_test=10), seed=8)
        model = fit_cf(sim.train, FitConfig(rng_seed=8, min_effective_weight=50.0))
        assert any(np.isnan(r.valid_loss) for r in model.loss_trace)
        assert [r.n_centers for r in model.loss_trace] == placed

    def test_patience_bounds_trailing_rejections(self, poisson_fit):
        model, _ = poisson_fit
        trailing = 0
        for r in reversed(model.loss_trace):
            if r.accepted:
                break
            trailing += 1
        assert trailing <= model.config.patience

    def test_bandwidth_past_the_float_range(self):
        """Below h ~ 1e-154 D the center count's (D/h)^2 overflows; such
        scales place the distinct training sites instead of raising."""
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=30, n_test=0), seed=4)
        model = fit_cf(sim.train, FitConfig(rng_seed=4, max_scales=4000, patience=4000))
        assert len(model.loss_trace) == 4000
        assert model.loss_trace[-1].bandwidth < 1e-180
        train_idx, _ = make_split(model.n_sites, model.config)
        n_distinct = len(np.unique(sim.train.sites[train_idx], axis=0))
        assert all(r.n_centers == n_distinct for r in model.loss_trace[-100:])


def _model(**fields):
    """A hand-built Poisson model with one covariate, with ``fields`` replaced."""
    base = dict(
        beta=np.array([0.3, -0.2]),
        layers=(),
        family=POISSON,
        loss_trace=(),
        config=FitConfig(),
        initial_deviance=10.0,
        validation_deviance=9.0,
        n_sites=40,
        n_covariates=1,
    )
    return CfModel(**{**base, **fields})


class TestCfModel:
    """A model checks its fields when built, as a model file's reader does."""

    @pytest.mark.parametrize("beta", [[0.3], [0.3, -0.2, 0.1], []])
    def test_beta_length(self, beta):
        with pytest.raises(ValidationError, match=f"length mismatch: {len(beta)} beta values vs 2"):
            _model(beta=np.array(beta))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta(self, bad):
        with pytest.raises(ValidationError, match="non-finite beta"):
            _model(beta=np.array([0.3, bad]))

    @pytest.mark.parametrize("field", ["initial_deviance", "validation_deviance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_deviance(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            _model(**{field: bad})

    @pytest.mark.parametrize("field", ["n_sites", "n_covariates"])
    @pytest.mark.parametrize("bad", [-1, True, False, 2.0, 40.5])
    def test_counts_are_nonnegative_integers(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            _model(**{field: bad})

    def test_numpy_counts_stored_as_int(self):
        model = _model(n_sites=np.int64(40), n_covariates=np.int32(1))
        assert type(model.n_sites) is int and type(model.n_covariates) is int

    def test_beta_copied_and_read_only(self):
        beta = np.array([0.3, -0.2])
        model = _model(beta=beta)
        beta[0] = 5.0
        assert model.beta[0] == 0.3
        with pytest.raises(ValueError, match="read-only"):
            model.beta[0] = 5.0
        assert model.beta.tolist() == [0.3, -0.2]

    def test_fitted_arrays_read_only(self, poisson_fit):
        model, _ = poisson_fit
        for array in (model.beta, model.train_fitted.z, model.train_fitted.var):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_train_cache_frozen(self):
        cache = TrainCache(np.zeros(3), np.ones(3))
        model = _model(train_fitted=cache)
        assert not (model.train_fitted.z.flags.writeable or model.train_fitted.var.flags.writeable)

    def test_sequences_become_tuples(self):
        model = _model(layers=[], loss_trace=[])
        assert model.layers == () and model.loss_trace == ()

    @pytest.mark.parametrize(
        "field,bad,kind",
        [
            ("family", "poisson", "Family"),
            ("config", {"rng_seed": 0}, "FitConfig"),
            ("train_fitted", "cache", "TrainCache"),
            ("layers", ("x",), "ScaleLayer"),
            ("loss_trace", [(1, 0.5, 3, 1.0, 1.0, True)], "ScaleRecord"),
        ],
    )
    def test_field_types(self, field, bad, kind):
        """A field of the wrong type is refused when the model is built, not
        met later as an ``AttributeError`` inside ``predict``."""
        with pytest.raises(ValidationError, match=f"{field}: expected {kind}, got"):
            _model(**{field: bad})

    def test_wrong_layer_among_good_ones(self, poisson_fit):
        model, _ = poisson_fit
        with pytest.raises(ValidationError, match="layers: expected ScaleLayer, got str"):
            dataclasses.replace(model, layers=(*model.layers, "x"))


class TestThreads:
    def test_fit_starts_no_thread_but_the_pool(self, poisson_fit, monkeypatch):
        _, sim = poisson_fit
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        fit_cf(sim.train, FitConfig(rng_seed=42))
        assert all(name.startswith("cfglmm-chunk") for name in started)
        others = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
        assert all(name.startswith("cfglmm-chunk") for name in others)


class TestGaussianReduction:
    def test_trace_identical_to_direct_squared_loss_path(self):
        d, _ = gaussian_spatial_dataset(400, seed=31)
        cfg = FitConfig(rng_seed=31)
        model = fit_cf(d, cfg)
        beta, trace = direct_gaussian_cfsm(d, cfg)
        assert len(trace) == len(model.loss_trace)
        for got, want in zip(model.loss_trace, trace):
            assert got.scale == want[0]
            assert got.bandwidth == want[1]
            assert got.n_centers == want[2]
            assert got.train_loss == want[3] or (np.isnan(got.train_loss) and np.isnan(want[3]))
            assert got.valid_loss == want[4] or (np.isnan(got.valid_loss) and np.isnan(want[4]))
            assert got.accepted == want[5]
        np.testing.assert_array_equal(model.beta, beta)

    def test_gaussian_fit_improves_on_noise_free_surface(self):
        d, z = gaussian_spatial_dataset(500, seed=8, noise_sd=0.25)
        model = fit_cf(d, FitConfig(rng_seed=8))
        assert accepted_scale_count(model) >= 1
        assert model.validation_deviance < model.initial_deviance
