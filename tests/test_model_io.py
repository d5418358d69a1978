import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfglmm import (
    BERNOULLI,
    POISSON,
    FitConfig,
    fit_cf,
    load_model,
    predict,
    read_dataset_csv,
    save_model,
    validate_dataset,
    write_dataset_csv,
)
from cfglmm.model_io import CsvFormatError, ModelFormatError, read_sites_csv
from cfglmm.data import ValidationError
from cfglmm.experts import ScaleLayer
from cfglmm.learner import CfModel, ScaleRecord
from cfglmm.simulate import SimScenario, gen_poisson


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    sim = gen_poisson(SimScenario(beta0=0.5, n_train=400, n_test=100), seed=8)
    model = fit_cf(sim.train, FitConfig(rng_seed=8))
    return model, sim


class TestModelRoundTrip:
    def test_predictions_bit_identical(self, fitted, tmp_path, rng):
        model, _ = fitted
        path = tmp_path / "model.cfg.json"
        save_model(model, path)
        loaded = load_model(path)
        sites = rng.random((1000, 2))
        x = rng.normal(size=(1000, 2))
        a = predict(model, sites, x)
        b = predict(loaded, sites, x)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.var_z, b.var_z)
        np.testing.assert_array_equal(a.cov, b.cov)

    def test_metadata_preserved(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "model.cfg.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.family.tag == model.family.tag
        assert loaded.config == model.config
        assert loaded.n_sites == model.n_sites
        assert loaded.loss_trace == model.loss_trace
        np.testing.assert_array_equal(loaded.beta, model.beta)
        assert len(loaded.layers) == len(model.layers)

    def test_split_rebuilt_from_seed(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.split.train_idx, model.split.train_idx)

    def test_version_check(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_missing_field_rejected(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["beta"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="beta"):
            load_model(path)

    def test_unfittable_scale_round_trips_as_strict_json(self, tmp_path):
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=200, n_test=10), seed=8)
        model = fit_cf(sim.train, FitConfig(rng_seed=8, min_effective_weight=50.0))
        unfittable = [i for i, r in enumerate(model.loss_trace) if math.isnan(r.valid_loss)]
        assert unfittable and model.layers
        path = tmp_path / "m.json"
        save_model(model, path)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["loss_trace"][unfittable[0]][3:5] == [None, None]
        loaded = load_model(path)
        for a, b in zip(loaded.loss_trace, model.loss_trace, strict=True):
            assert repr(a) == repr(b)  # NaN-aware, bit-exact for finite losses
        sites = sim.test.sites
        np.testing.assert_array_equal(
            predict(loaded, sites, sim.test.covariates).mu, predict(model, sites, sim.test.covariates).mu
        )

    @pytest.mark.parametrize("key", ["experts", "bandwidth", "tau2"])
    def test_layer_missing_field_rejected(self, fitted, tmp_path, key):
        model, _ = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["layers"][0][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=key):
            load_model(path)

    @pytest.mark.parametrize(
        "path,value,match",
        [
            (("loss_trace", 0, 0), None, "scale"),
            (("loss_trace", 0, 1), "wide", "bandwidth"),
            (("loss_trace", 0, 3), [1.0], "loss"),
            (("loss_trace", 0, 5), 1, "accepted"),
            (("loss_trace", 0), [1, 0.5], "loss_trace rows"),
            (("loss_trace", 0), None, "loss_trace rows"),
            (("layers", 0, "experts", 0, 2), None, "finite"),
            (("layers", 0, "experts", 0, 3), 0.0, "sigma2"),
            (("layers", 0, "experts", 0, 3), -1.0, "sigma2"),
            (("layers", 0, "experts", 0, 4), 2, "active"),
            (("layers", 0, "experts", 0), [0.5, 0.5], "rows of"),
            (("layers", 0, "experts", 0, 0), {"x": 1}, "rows of"),
            (("layers", 0, "bandwidth"), -0.5, "bandwidth"),
            (("layers", 0, "tau2"), None, "tau2"),
            (("layers", 0, "weight_power"), 3, "weight_power"),
            (("beta",), [0.1], "beta"),
            (("beta", 0), None, "beta"),
            (("n_covariates",), True, "n_covariates"),
        ],
    )
    def test_schema_fault_rejected(self, fitted, tmp_path, path, value, match):
        model, _ = fitted
        file = tmp_path / "m.json"
        save_model(model, file)
        doc = json.loads(file.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        file.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=match):
            load_model(file)


@st.composite
def scale_layers(draw):
    """A layer of 1-6 experts with arbitrary doubles, at least one active."""
    k = draw(st.integers(1, 6))

    def column(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))

    active = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    active[draw(st.integers(0, k - 1))] = True
    return ScaleLayer(
        bandwidth=draw(st.floats(1e-3, 10.0)),
        centers=np.column_stack([column(-2.0, 2.0), column(-2.0, 2.0)]),
        mu=column(-50.0, 50.0),
        sigma2=column(1e-10, 1e3),
        active=active,
        tau2=draw(st.floats(1e-10, 1e3)),
        weight_power=draw(st.sampled_from([1, 2])),
    )


# NaN is an unfittable scale's loss; the file holds it as null
_losses = st.one_of(st.floats(0.0, 1e6), st.just(math.nan))
_trace_rows = st.tuples(st.floats(1e-3, 10.0), st.integers(1, 500), _losses, _losses, st.booleans())


class TestRoundTripProperty:
    """save -> load -> predict reproduces every prediction bit for bit."""

    @given(
        layers=st.lists(scale_layers(), max_size=4),
        rows=st.lists(_trace_rows, max_size=5),
        family=st.sampled_from([POISSON, BERNOULLI]),
        beta=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    )
    def test_predict_bit_exact(self, layers, rows, family, beta):
        model = CfModel(
            beta=np.array(beta),
            layers=tuple(layers),
            family=family,
            split=None,
            loss_trace=tuple(ScaleRecord(i + 1, *row) for i, row in enumerate(rows)),
            config=FitConfig(),
            initial_deviance=1.0,
            validation_deviance=1.0,
            n_sites=0,
            n_covariates=len(beta) - 1,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            save_model(model, path)
            json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))
            loaded = load_model(path)
        assert [repr(r) for r in loaded.loss_trace] == [repr(r) for r in model.loss_trace]
        np.testing.assert_array_equal(loaded.beta, model.beta)
        assert len(loaded.layers) == len(model.layers)
        for a, b in zip(loaded.layers, model.layers):
            assert (a.bandwidth, a.tau2, a.weight_power) == (b.bandwidth, b.tau2, b.weight_power)
            for f in ("centers", "mu", "sigma2", "active"):
                np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
        rng = np.random.default_rng(len(layers))
        sites = np.vstack([rng.uniform(-2.0, 2.0, (40, 2)), [[50.0, 50.0]]])
        x = rng.normal(size=(41, len(beta) - 1))
        with np.errstate(all="ignore"):
            want = predict(model, sites, x)
            got = predict(loaded, sites, x)
        for f in ("mu_lin", "mu", "z_total", "var_z", "cov"):
            np.testing.assert_array_equal(getattr(got, f), getattr(want, f), err_msg=f)


class TestDatasetCsv:
    def test_round_trip(self, fitted, tmp_path):
        _, sim = fitted
        path = tmp_path / "d.csv"
        write_dataset_csv(path, sim.train)
        back = read_dataset_csv(path, "poisson")
        validate_dataset(back)
        np.testing.assert_allclose(back.sites, sim.train.sites, rtol=1e-11)
        np.testing.assert_array_equal(back.response, sim.train.response)
        np.testing.assert_allclose(back.covariates, sim.train.covariates, rtol=1e-11)

    def test_offset_round_trip(self, tmp_path, rng):
        from cfglmm import Dataset

        d = Dataset(
            rng.random((30, 2)),
            rng.poisson(1.0, 30).astype(float),
            rng.normal(size=(30, 1)),
            "poisson",
            offset=rng.uniform(0.1, 1.0, 30),
        )
        path = tmp_path / "d.csv"
        write_dataset_csv(path, d)
        header = path.read_text().splitlines()[0]
        assert header == "x,y,response,offset,cov_1"
        back = read_dataset_csv(path, "poisson")
        np.testing.assert_allclose(back.offset, d.offset, rtol=1e-11)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lon,lat,response\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            read_dataset_csv(path, "poisson")

    def test_unparseable_number_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,response\n0.1,0.2,3\n0.3,oops,1\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_dataset_csv(path, "poisson")

    def test_wrong_field_count_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,response\n0.1,0.2\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_dataset_csv(path, "poisson")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_dataset_csv(path, "poisson")

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,cov_1\n0.1,0.2,1.5\n")
        with pytest.raises(CsvFormatError, match="response"):
            read_dataset_csv(path, "poisson")

    def test_out_of_order_covariates(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,response,cov_2,cov_1\n0.1,0.2,1,0.5,0.6\n")
        with pytest.raises(CsvFormatError, match="cov_1..cov_K"):
            read_dataset_csv(path, "poisson")


class TestSitesCsv:
    def test_sites_without_response(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,cov_1,cov_2\n0.1,0.2,1.0,2.0\n0.3,0.4,3.0,4.0\n")
        sites, cov, off = read_sites_csv(path, 2)
        assert sites.shape == (2, 2)
        assert cov.shape == (2, 2)
        assert off is None

    def test_sites_with_response_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,response,cov_1\n0.1,0.2,9.0,1.0\n")
        sites, cov, _ = read_sites_csv(path, 1)
        assert cov[0, 0] == 1.0

    def test_missing_covariate_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,cov_1\n0.1,0.2,1.0\n")
        with pytest.raises(ValidationError, match="missing covariate column"):
            read_sites_csv(path, 2)
