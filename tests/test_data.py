import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfglmm import Dataset, FitConfig, ValidationError, make_split
from cfglmm.data import round_half_away


def _poisson_dataset(n=10, family="poisson"):
    rng = np.random.default_rng(0)
    return Dataset(
        sites=rng.random((n, 2)),
        response=rng.poisson(2.0, n).astype(float),
        covariates=rng.normal(size=(n, 2)),
        family_tag=family,
    )


class TestMakeSplit:
    def test_sizes_n100(self):
        train_idx, valid_idx = make_split(100, FitConfig(rng_seed=3))
        assert len(train_idx) == 75
        assert len(valid_idx) == 25

    def test_sizes_boundary_n4(self):
        train_idx, valid_idx = make_split(4, FitConfig(rng_seed=3))
        assert len(train_idx) == 3
        assert len(valid_idx) == 1

    def test_same_seed_identical(self):
        a_train, a_valid = make_split(57, FitConfig(rng_seed=11))
        b_train, b_valid = make_split(57, FitConfig(rng_seed=11))
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_valid, b_valid)

    def test_too_small(self):
        with pytest.raises(ValidationError, match="too small to split"):
            make_split(3, FitConfig())

    @given(
        n=st.integers(min_value=4, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_partition_property(self, n, seed, frac):
        train_idx, valid_idx = make_split(n, FitConfig(rng_seed=seed, train_fraction=frac))
        merged = np.concatenate([train_idx, valid_idx])
        assert sorted(merged) == list(range(n))
        assert len(train_idx) >= 1 and len(valid_idx) >= 1
        expected = min(max(round_half_away(frac * n), 1), n - 1)
        assert len(train_idx) == expected
        for idx in (train_idx, valid_idx):
            assert idx.dtype == np.intp and (np.diff(idx) > 0).all()


class TestRounding:
    @pytest.mark.parametrize(
        "x,expected", [(1.5, 2), (2.5, 3), (0.5, 1), (-1.5, -2), (0.49, 0), (3.0, 3)]
    )
    def test_half_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected


class TestValidateDataset:
    """Building a Dataset is its one check."""

    def test_well_formed_poisson_ok(self):
        assert _poisson_dataset().n_sites == 10

    def test_bernoulli_response_outside_01(self):
        d = _poisson_dataset()
        with pytest.raises(ValidationError, match=r"outside \{0,1\}"):
            Dataset(d.sites, np.full(d.n_sites, 2.0), d.covariates, "bernoulli")

    def test_nan_coordinate(self):
        d = _poisson_dataset()
        sites = d.sites.copy()
        sites[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite coordinate"):
            Dataset(sites, d.response, d.covariates, d.family_tag)

    def test_negative_poisson_response(self):
        d = _poisson_dataset()
        with pytest.raises(ValidationError, match="nonnegative integers"):
            Dataset(d.sites, d.response - 5, d.covariates, "poisson")

    def test_non_integer_poisson_response(self):
        d = _poisson_dataset()
        with pytest.raises(ValidationError, match="nonnegative integers"):
            Dataset(d.sites, d.response + 0.25, d.covariates, "poisson")

    def test_nan_covariate(self):
        d = _poisson_dataset()
        cov = d.covariates.copy()
        cov[3, 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite covariate"):
            Dataset(d.sites, d.response, cov, d.family_tag)

    def test_unknown_family(self):
        d = _poisson_dataset()
        with pytest.raises(ValidationError, match="unknown family"):
            Dataset(d.sites, d.response, d.covariates, "gamma")

    def test_offset_defaults_to_zero(self):
        d = _poisson_dataset()
        assert np.all(d.offset == 0.0)
        assert len(d.offset) == d.n_sites

    def test_inputs_are_copied(self):
        rng = np.random.default_rng(1)
        sites, y, x, off = rng.random((10, 2)), np.ones(10), rng.normal(size=(10, 2)), np.zeros(10)
        d = Dataset(sites, y, x, "poisson", off)
        sites[1, 0], y[0], x[2, 1], off[3] = np.nan, 7.5, np.inf, 1.0
        assert np.isfinite(d.sites).all() and np.isfinite(d.covariates).all()
        assert np.all(d.response == 1.0) and np.all(d.offset == 0.0)

    def test_arrays_are_read_only(self):
        d = _poisson_dataset()
        for name in ("sites", "response", "covariates", "offset"):
            array = getattr(d, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = -1.0

    def test_three_d_covariates(self):
        d = _poisson_dataset()
        with pytest.raises(ValidationError, match="1-D or 2-D"):
            Dataset(d.sites, d.response, d.covariates[:, :, None], d.family_tag)

    def test_empty_covariate_vector_is_no_column(self):
        d = _poisson_dataset()
        assert Dataset(d.sites, d.response, np.empty(0), d.family_tag).covariates.shape == (10, 0)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("sites", np.zeros((11, 2)), "10 response values vs 11 sites"),
            ("covariates", np.zeros((9, 2)), "9 covariate rows vs 10"),
            ("offset", np.zeros(3), "3 offset values vs 10"),
        ],
        ids=["sites", "covariates", "offset"],
    )
    def test_length_mismatch(self, field, value, message):
        d = _poisson_dataset()
        parts = dict(sites=d.sites, response=d.response, covariates=d.covariates, offset=d.offset)
        with pytest.raises(ValidationError, match=message):
            Dataset(family_tag=d.family_tag, **{**parts, field: value})

    def test_empty(self):
        with pytest.raises(ValidationError, match="dataset is empty"):
            Dataset(np.empty((0, 2)), np.empty(0), np.empty((0, 1)), "poisson")


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.train_fraction == 0.75
        assert cfg.bandwidth_decay == 0.9
        assert cfg.patience == 5
        assert cfg.center_density == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_fraction": 0.0},
            {"train_fraction": 1.0},
            {"bandwidth_decay": 1.0},
            {"patience": 0},
            {"initial_bandwidth": -1.0},
            {"max_scales": 0},
            {"irls_tol": 0.0},
            {"irls_max_iter": 0},
            {"rng_seed": 1.5},
            {"patience": True},
            {"max_scales": 2.5},
            {"irls_max_iter": 10.0},
            {"min_effective_weight": -1.0},
            {"center_density": math.nan},
            {"min_effective_weight": math.nan},
            {"irls_tol": math.nan},
            {"initial_bandwidth": math.nan},
            {"train_fraction": math.nan},
            {"bandwidth_decay": math.nan},
            {"initial_bandwidth": math.inf},
            {"center_density": math.inf},
            {"min_effective_weight": math.inf},
            {"irls_tol": math.inf},
            {"center_density": True},
            {"initial_bandwidth": True},
            {"irls_tol": True},
            {"min_effective_weight": False},
            {"center_density": "2"},
            {"train_fraction": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    @pytest.mark.parametrize("field,what", [("min_effective_weight", "nonnegative"), ("irls_tol", "positive")])
    def test_infinite_tolerances_name_the_field(self, field, what):
        """An infinite value would make a model whose config is not strict JSON."""
        with pytest.raises(ValueError, match=f"{field} must be finite and {what}"):
            FitConfig(**{field: math.inf})

    @pytest.mark.parametrize("field,value", [("center_density", True), ("irls_tol", "2"), ("initial_bandwidth", [1.0])])
    def test_non_real_values_name_the_field(self, field, value):
        """A bool would be saved as ``true``; a string or a list used to escape as a bare TypeError."""
        with pytest.raises(ValidationError, match=f"{field} must be a real number"):
            FitConfig(**{field: value})

    def test_numpy_integers_stored_as_int(self):
        cfg = FitConfig(rng_seed=np.int64(3), patience=np.int32(2))
        assert type(cfg.rng_seed) is int and cfg.rng_seed == 3
        assert type(cfg.patience) is int and cfg.patience == 2
