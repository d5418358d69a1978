import numpy as np
import pytest
from scipy.spatial import cKDTree

from cfglmm import SimScenario, gen_binomial, gen_poisson, generate, validate_dataset
from cfglmm.simulate import _S_FIELD, _rng, knn_bandwidth


def _latent(seed, **scenario):
    return generate(SimScenario(**scenario), seed)


class TestSmoothedField:
    def test_zero_noise_gives_zero_field(self):
        sim = _latent(1, n_train=50, n_test=20, field_noise_sd=0.0)
        assert np.all(sim.truth_train.z == 0.0)
        assert np.all(sim.truth_test.z == 0.0)

    def test_single_site_equals_own_noise(self):
        # one anchor: its self weight normalizes to one, so the field is the
        # raw draw everywhere, test sites included
        sim = _latent(3, n_train=1, n_test=1, field_noise_sd=2.0)
        raw = _rng(3, _S_FIELD, 0).normal(0.0, 2.0, 1)
        assert sim.truth_train.z.shape == (1,)
        np.testing.assert_allclose(sim.truth_train.z, raw, rtol=1e-15)
        np.testing.assert_allclose(sim.truth_test.z, raw, rtol=1e-15)

    def test_smoothing_shrinks_variance(self):
        shrunk = 0
        for seed in range(20):
            z = _latent(seed, n_train=500, n_test=0, field_noise_sd=1.0).truth_train.z
            if z.var() < 1.0:
                shrunk += 1
        assert shrunk == 20

    def test_deterministic_per_seed(self):
        a = _latent(9, n_train=40, n_test=10, field_noise_sd=1.0)
        b = _latent(9, n_train=40, n_test=10, field_noise_sd=1.0)
        np.testing.assert_array_equal(a.truth_train.z, b.truth_train.z)
        np.testing.assert_array_equal(a.truth_test.z, b.truth_test.z)

    def test_fixed_bandwidth_respected(self):
        # multiscale components use their literal bandwidth; both are
        # standardized, so compare roughness: the squared step to the nearest site
        def roughness(h):
            sim = _latent(2, n_train=300, n_test=0, multiscale=(h,))
            _, nearest = cKDTree(sim.train.sites).query(sim.train.sites, k=2)
            z = sim.truth_train.z
            return np.mean((z - z[nearest[:, 1]]) ** 2)

        assert roughness(5.0) < roughness(0.01)


class TestKnnBandwidth:
    def test_two_points(self):
        assert knn_bandwidth([[0.0, 0.0], [0.0, 3.0]], k=10) == pytest.approx(3.0)

    def test_shrinks_with_density(self):
        smaller = 0
        for seed in range(20):
            r = np.random.default_rng(seed)
            h_sparse = knn_bandwidth(r.random((500, 2)))
            h_dense = knn_bandwidth(r.random((4000, 2)))
            if h_dense < h_sparse:
                smaller += 1
        assert smaller == 20

    def test_matches_brute_force(self, rng):
        sites = rng.random((40, 2))
        d = np.sqrt(((sites[:, None, :] - sites[None, :, :]) ** 2).sum(-1))
        d.sort(axis=1)
        want = d[:, 1:11].mean()
        assert knn_bandwidth(sites) == pytest.approx(want, rel=1e-12)


class TestGenCovariates:
    def test_column_means_near_zero(self):
        for seed in (0, 1, 2):
            x = _latent(seed, n_train=1500, n_test=0).train.covariates
            assert np.abs(x.mean(axis=0)).max() < 4.0 / np.sqrt(1500)

    def test_column_variance_below_half(self):
        for seed in (0, 1, 2):
            x = _latent(seed, n_train=1500, n_test=0).train.covariates
            assert (x.var(axis=0) < 0.5).all()

    def test_columns_nearly_uncorrelated(self):
        x = _latent(7, n_train=2000, n_test=0).train.covariates
        r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(r) < 0.1


class TestGenPoisson:
    def test_valid_datasets(self):
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=300, n_test=100), seed=4)
        validate_dataset(sim.train)
        validate_dataset(sim.test)
        assert sim.train.n_sites == 300
        assert sim.test.n_sites == 100
        assert sim.truth_train.mu.shape == (300,)

    def test_deterministic(self):
        scn = SimScenario(beta0=-1.5, n_train=200, n_test=50)
        a = gen_poisson(scn, seed=11)
        b = gen_poisson(scn, seed=11)
        np.testing.assert_array_equal(a.train.response, b.train.response)
        np.testing.assert_array_equal(a.test.sites, b.test.sites)
        np.testing.assert_array_equal(a.truth_test.z, b.truth_test.z)

    def test_train_test_streams_disjoint(self):
        scn = SimScenario(beta0=0.5, n_train=100, n_test=100)
        sim = gen_poisson(scn, seed=11)
        assert not np.array_equal(sim.train.sites, sim.test.sites)
        assert not np.array_equal(sim.train.response, sim.test.response)

    def test_degenerate_generator_is_unit_poisson(self):
        scn = SimScenario(beta0=0.0, beta=(0.0, 0.0), n_train=20000, n_test=0, field_noise_sd=0.0)
        sim = gen_poisson(scn, seed=13)
        assert np.all(sim.truth_train.mu == 1.0)
        assert sim.train.response.mean() == pytest.approx(1.0, abs=0.03)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError, match="must be poisson"):
            gen_poisson(SimScenario(family="bernoulli"), seed=0)

    def test_is_generate(self):
        scn = SimScenario(beta0=0.5, n_train=200, n_test=50)
        a, b = gen_poisson(scn, seed=8), generate(scn, seed=8)
        np.testing.assert_array_equal(a.train.response, b.train.response)
        np.testing.assert_array_equal(a.truth_test.mu, b.truth_test.mu)

    def test_test_surface_shared_with_train(self):
        # latent field at test sites comes from the train-anchored noise, so a
        # test site placed on top of a train site sees nearly the same z
        scn = SimScenario(beta0=0.5, n_train=400, n_test=400)
        sim = gen_poisson(scn, seed=3)
        d = np.sqrt(((sim.test.sites[:, None] - sim.train.sites[None]) ** 2).sum(-1))
        pairs = np.argwhere(d < 0.004)
        assert len(pairs) > 3
        for i, j in pairs:
            assert abs(sim.truth_test.z[i] - sim.truth_train.z[j]) < 0.2


class TestGenBinomial:
    def test_valid_and_binary(self):
        sim = gen_binomial(SimScenario(family="bernoulli", beta0=0.5, n_train=300, n_test=0), seed=4)
        validate_dataset(sim.train)
        assert set(np.unique(sim.train.response)) <= {0.0, 1.0}

    def test_half_probability_at_origin(self):
        scn = SimScenario(
            family="bernoulli", beta0=0.0, beta=(0.0, 0.0), n_train=20000, n_test=0,
            field_noise_sd=0.0,
        )
        sim = gen_binomial(scn, seed=5)
        assert sim.train.response.mean() == pytest.approx(0.5, abs=0.02)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError, match="must be bernoulli"):
            gen_binomial(SimScenario(family="poisson"), seed=0)


class TestGenerate:
    def test_unsupported_family_rejected(self):
        with pytest.raises(ValueError, match="unsupported simulation family"):
            generate(SimScenario(family="gaussian"), seed=0)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_bad_multiscale_bandwidth_rejected(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            generate(SimScenario(n_train=50, n_test=0, multiscale=(3.0, h)), seed=0)


class TestMultiscale:
    def test_field_is_sum_of_components(self):
        scn = SimScenario(beta0=0.5, n_train=300, n_test=100, multiscale=(3.0, 0.8, 0.3))
        sim = gen_poisson(scn, seed=6)
        assert sim.truth_train.components.shape == (300, 3)
        np.testing.assert_array_equal(sim.truth_train.components.sum(axis=1), sim.truth_train.z)
        np.testing.assert_array_equal(sim.truth_test.components.sum(axis=1), sim.truth_test.z)

    def test_components_standardized_on_train(self):
        scn = SimScenario(beta0=0.5, n_train=500, n_test=0, multiscale=(3.0, 0.8, 0.3))
        sim = gen_poisson(scn, seed=6)
        np.testing.assert_allclose(sim.truth_train.components.std(axis=0), 1.0, rtol=1e-12)

    def test_multiscale_domain_is_larger(self):
        scn = SimScenario(beta0=0.5, n_train=300, n_test=0, multiscale=(3.0, 0.8, 0.3))
        sim = gen_poisson(scn, seed=6)
        assert sim.train.sites.max() > 5.0  # 10 x 10 square
        single = gen_poisson(SimScenario(beta0=0.5, n_train=300, n_test=0), seed=6)
        assert single.train.sites.max() <= 1.0
