import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import ref_model_doc, ref_predict

from cfglmm import (
    BERNOULLI,
    POISSON,
    FitConfig,
    fit_cf,
    load_model,
    make_split,
    predict,
    read_dataset_csv,
    save_model,
    write_dataset_csv,
)
from cfglmm import model_io
from cfglmm.model_io import _TRACE_COLUMNS, CsvFormatError, ModelFormatError, read_sites_csv, write_trace_csv
from cfglmm.data import ValidationError
from cfglmm.experts import ScaleLayer
from cfglmm.learner import CfModel, ScaleRecord
from cfglmm.simulate import SimScenario, gen_poisson

# A model file of an earlier writer whose layers still held inactive experts,
# with that writer's predictions; its "about" field says how it was made.
OLDER_WRITER_FIXTURE = Path(__file__).parent / "data" / "format1_inactive_experts.json"


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    sim = gen_poisson(SimScenario(beta0=0.5, n_train=400, n_test=100), seed=8)
    model = fit_cf(sim.train, FitConfig(rng_seed=8))
    return model, sim


def _assert_fit_split(loaded, sim):
    """The loaded model's split is the one its fit drew, ``FitConfig(rng_seed=8)`` on the training sites."""
    got = make_split(loaded.n_sites, loaded.config)
    for a, b in zip(got, make_split(sim.train.n_sites, FitConfig(rng_seed=8)), strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


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

    def test_layers_equal_loaded_copy(self, fitted, tmp_path):
        """A fitted layer holds exactly what its model file holds: each field
        of each layer equals the loaded copy's, type and bits."""
        model, _ = fitted
        path = tmp_path / "model.cfg.json"
        save_model(model, path)
        loaded = load_model(path)
        assert len(model.layers) >= 1
        for fit, back in zip(model.layers, loaded.layers, strict=True):
            for field in dataclasses.fields(ScaleLayer):
                a, b = getattr(fit, field.name), getattr(back, field.name)
                assert type(a) is type(b), field.name
                np.testing.assert_array_equal(a, b, err_msg=field.name, strict=True)

    def test_split_rebuilt_from_seed(self, fitted, tmp_path):
        model, sim = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        _assert_fit_split(loaded, sim)

    def test_old_file_with_split_seed_loads(self, fitted, tmp_path):
        # files written before ``split_seed`` was dropped carry it beside the
        # config's ``rng_seed``; it was never read
        model, sim = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "split_seed" not in doc
        doc["split_seed"] = model.config.rng_seed
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.loss_trace == model.loss_trace
        _assert_fit_split(loaded, sim)

    def test_older_document_drops_inactive_rows(self, tmp_path, rng):
        """A hand-built format-1 document as earlier writers wrote it: a row
        flagged 0, a layer ``weight_power`` of 1 and a config
        ``aggregation_weight_power`` of 1. It loads and predicts bit for bit
        like the same model without the flagged row."""
        rows = [[0.2, 0.3, 0.5, 0.8, True], [0.9, 0.1, -40.0, 0.3, False], [0.6, 0.7, 0.25, 1.5, True]]
        doc = {
            "format_version": 1,
            "family": "poisson",
            "config": {**dataclasses.asdict(FitConfig()), "aggregation_weight_power": 1},
            "n_sites": 0,
            "n_covariates": 1,
            "beta": [0.3, -0.2],
            "initial_deviance": 10.0,
            "validation_deviance": 9.0,
            "layers": [{"bandwidth": 0.4, "tau2": 0.5, "weight_power": 1, "experts": rows}],
            "loss_trace": [[1, 0.4, 3, 8.0, 9.0, True]],
        }
        older, newer = tmp_path / "older.json", tmp_path / "newer.json"
        older.write_text(json.dumps(doc))
        del doc["config"]["aggregation_weight_power"], doc["layers"][0]["weight_power"], rows[1]
        newer.write_text(json.dumps(doc))
        got, want = load_model(older), load_model(newer)
        assert got.config == want.config == FitConfig()
        np.testing.assert_array_equal(got.layers[0].centers, [[0.2, 0.3], [0.6, 0.7]])
        for f in ("centers", "mu", "sigma2"):
            np.testing.assert_array_equal(getattr(got.layers[0], f), getattr(want.layers[0], f), err_msg=f)
        sites, x = np.vstack([rng.random((30, 2)), [[0.9, 0.1]]]), rng.normal(size=(31, 1))
        a, b = predict(got, sites, x), predict(want, sites, x)
        for f in ("mu_lin", "mu", "z_total", "var_z", "cov"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f), err_msg=f)

    def test_older_writer_fixture_loads(self, tmp_path):
        """The committed file of the earlier writer loads with exactly its rows
        flagged active, and predicts what that writer predicted: within 1e-12
        relative (and 1e-12 of the field's largest value), since other BLAS
        kernels sum in other orders."""
        fixture = json.loads(OLDER_WRITER_FIXTURE.read_text(), parse_constant=pytest.fail)
        entries = fixture["model"]["layers"]
        assert sum(not row[4] for entry in entries for row in entry["experts"]) >= 3
        path = tmp_path / "m.json"
        path.write_text(json.dumps(fixture["model"]))
        model = load_model(path)
        for layer, entry in zip(model.layers, entries, strict=True):
            active = np.array([row[:4] for row in entry["experts"] if row[4]])
            np.testing.assert_array_equal(layer.centers, active[:, 0:2])
            np.testing.assert_array_equal(layer.mu, active[:, 2])
            np.testing.assert_array_equal(layer.sigma2, active[:, 3])
            assert (layer.bandwidth, layer.tau2) == (entry["bandwidth"], entry["tau2"])
        got = predict(model, fixture["sites"], fixture["covariates"])
        for f, want in fixture["predict"].items():
            want = np.array(want)
            np.testing.assert_allclose(getattr(got, f), want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=f)

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
        trace_csv = tmp_path / "trace.csv"
        write_trace_csv(trace_csv, loaded.loss_trace)
        row = trace_csv.read_text().splitlines()[1 + unfittable[0]].split(",")
        assert row[3:5] == ["nan", "nan"]
        sites = sim.test.sites
        np.testing.assert_array_equal(
            predict(loaded, sites, sim.test.covariates).mu, predict(model, sites, sim.test.covariates).mu
        )
        assert doc == ref_model_doc(model)

    def test_document_unchanged(self, fitted, tmp_path):
        """The file holds the document of the value-by-value builder, on one line."""
        model, _ = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        text = path.read_text()
        assert json.loads(text) == ref_model_doc(model)
        assert text.endswith("}\n") and text.count("\n") == 1

    def test_indented_file_loads_bit_exact(self, fitted, tmp_path, rng):
        """A file in the earlier indented layout loads and predicts bit for bit."""
        model, sim = fitted
        path = tmp_path / "m.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref_model_doc(model), fh, indent=1, allow_nan=False)
            fh.write("\n")
        loaded = load_model(path)
        sites = np.vstack([sim.test.sites, rng.random((50, 2))])
        x = rng.normal(size=(len(sites), model.n_covariates))
        got, want = predict(loaded, sites, x), predict(model, sites, x)
        for f in ("mu_lin", "mu", "z_total", "var_z", "cov"):
            np.testing.assert_array_equal(getattr(got, f), getattr(want, f), err_msg=f)
        assert loaded.loss_trace == model.loss_trace and loaded.config == model.config

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
            (("n_sites",), True, "n_sites"),
            (("n_sites",), -5, "n_sites"),
            (("n_sites",), 40.0, "n_sites"),
            (("config", "rng_seed"), 1.5, "rng_seed"),
            (("config", "patience"), True, "patience"),
            (("config", "max_scales"), 2.5, "max_scales"),
            (("config", "irls_tol"), "small", "config"),
            (("n_covariates",), False, "n_covariates"),
            (("n_covariates",), -1, "n_covariates"),
            (("initial_deviance",), True, "initial_deviance"),
            (("validation_deviance",), False, "validation_deviance"),
            (("initial_deviance",), math.nan, "initial_deviance"),
            (("validation_deviance",), math.nan, "validation_deviance"),
            (("layers", 2, "experts"), [[0.5, 0.5, 1.0, 1.0, 0]], "model layer 2 has no active expert"),
            (("layers", 0, "weight_power"), 2.0, "weight_power"),
            (("format_version",), True, "format_version"),
            (("family",), "gamma", "family"),
            (("layers", 0, "weight_power"), 2, "layer weight_power must be 1"),
            (("config", "aggregation_weight_power"), 2, "config aggregation_weight_power must be 1"),
            (("layers", 1, "experts", 0, 3), math.nan, "model layer 1: non-finite sigma2"),
            (("layers", 1, "experts", 0, 0), math.inf, "model layer 1: non-finite coordinate"),
            (("layers", 0, "bandwidth"), math.nan, "model layer 0: .*bandwidth"),
            (("layers", 0, "tau2"), 0.0, "model layer 0: .*tau2"),
            (("config", "center_density"), True, "center_density must be a real number"),
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

    def test_capped_layers_round_trip_bit_exact(self, tmp_path):
        """A fit whose finest layers all place every training site: their
        evaluations share one distance pass, before and after a round trip,
        and predict bit for bit like the serial layer loop."""
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=500, n_test=200), seed=5)
        model = fit_cf(sim.train, FitConfig(rng_seed=5))
        n_train = len(make_split(model.n_sites, model.config)[0])
        capped = [layer for layer in model.layers if layer.n_active == n_train]
        assert len(capped) >= 3
        assert all(np.array_equal(layer.centers, capped[0].centers) for layer in capped)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        sites = np.vstack([sim.test.sites, [[50.0, 50.0]]])
        x = np.vstack([sim.test.covariates, [[0.0, 0.0]]])
        want = ref_predict(model, sites, x)
        for m in (model, loaded):
            got = predict(m, sites, x)
            for f in ("mu_lin", "mu", "z_total", "var_z", "cov"):
                np.testing.assert_array_equal(getattr(got, f), getattr(want, f), err_msg=f)

    def test_trace_columns_follow_scale_record(self, fitted, tmp_path):
        """One trace column per ``ScaleRecord`` field; the ``--trace`` CSV
        header is the table's names."""
        model, _ = fitted
        assert len(_TRACE_COLUMNS) == len(dataclasses.fields(ScaleRecord))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, model.loss_trace)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == [name for name, _ in _TRACE_COLUMNS]
        assert len(lines) == 1 + len(model.loss_trace)

    def test_failed_save_leaves_file_unchanged(self, fitted, tmp_path, monkeypatch):
        """A model whose encoding fails raises before the path is opened, so
        an earlier model there stays as it was. A checked model always
        encodes, so the encoder is made to fail."""
        model, _ = fitted
        file = tmp_path / "m.json"
        save_model(model, file)
        before = file.read_bytes()

        def fail(*args, **kwargs):
            raise ValueError("Out of range float values are not JSON compliant")

        monkeypatch.setattr(model_io.json, "dumps", fail)
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(model, file)
        assert file.read_bytes() == before

    def test_negative_n_covariates_rejected(self, fitted, tmp_path):
        """``"n_covariates": -1`` with an empty ``beta`` would load a model
        without an intercept."""
        model, _ = fitted
        file = tmp_path / "m.json"
        save_model(model, file)
        doc = json.loads(file.read_text())
        doc["n_covariates"], doc["beta"] = -1, []
        file.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="n_covariates"):
            load_model(file)


@st.composite
def scale_layers(draw):
    """A layer of 1-6 experts with arbitrary doubles."""
    k = draw(st.integers(1, 6))

    def column(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))

    return ScaleLayer(
        bandwidth=draw(st.floats(1e-3, 10.0)),
        centers=np.column_stack([column(-2.0, 2.0), column(-2.0, 2.0)]),
        mu=column(-50.0, 50.0),
        sigma2=column(1e-10, 1e3),
        tau2=draw(st.floats(1e-10, 1e3)),
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
            assert (a.bandwidth, a.tau2) == (b.bandwidth, b.tau2)
            for f in ("centers", "mu", "sigma2"):
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
        back = read_dataset_csv(path, "poisson")  # building the Dataset checked it
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

    @pytest.mark.parametrize("header", ["x,y,offset,response", "x,y,response,response", "x,y,cov_1,offset"])
    def test_header_outside_grammar(self, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_text(f"{header}\n0.1,0.2,1,0.5\n")
        with pytest.raises(CsvFormatError, match=r"line 1: .*cov_1\.\.cov_K"):
            read_dataset_csv(path, "poisson")

    def test_header_spaces_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(" x , y ,response\n0.1,0.2,3\n")
        back = read_dataset_csv(path, "poisson")
        np.testing.assert_array_equal(back.sites, [[0.1, 0.2]])
        np.testing.assert_array_equal(back.response, [3.0])


class TestSitesCsv:
    def test_sites_without_response(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,cov_1,cov_2\n0.1,0.2,1.0,2.0\n0.3,0.4,3.0,4.0\n")
        sites, cov, off = read_sites_csv(path)
        assert sites.shape == (2, 2)
        assert cov.shape == (2, 2)
        assert off is None

    def test_sites_only_has_no_covariates(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        sites, cov, off = read_sites_csv(path)
        np.testing.assert_array_equal(sites, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        assert cov.shape == (3, 0)
        assert off is None

    def test_sites_with_response_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y,response,cov_1\n0.1,0.2,9.0,1.0\n")
        sites, cov, _ = read_sites_csv(path)
        assert cov[0, 0] == 1.0

    def test_missing_covariate_column(self, fitted, tmp_path):
        """The reader returns the file's one column; ``predict`` refuses it for
        a model of two."""
        model, _ = fitted
        path = tmp_path / "s.csv"
        path.write_text("x,y,cov_1\n0.1,0.2,1.0\n")
        sites, cov, off = read_sites_csv(path)
        assert cov.shape == (1, 1)
        with pytest.raises(ValueError, match="model expects 2, got 1"):
            predict(model, sites, cov, off)

    def test_every_covariate_column_returned(self, fitted, tmp_path):
        """An extra ``cov_3`` is returned, and ``predict`` refuses it for a
        model of two."""
        model, _ = fitted
        path = tmp_path / "s.csv"
        path.write_text("x,y,cov_1,cov_2,cov_3\n0.1,0.2,1.0,2.0,123.0\n")
        sites, cov, off = read_sites_csv(path)
        np.testing.assert_array_equal(cov, [[1.0, 2.0, 123.0]])
        with pytest.raises(ValueError, match="model expects 2, got 3"):
            predict(model, sites, cov, off)

    @pytest.mark.parametrize("column,what", [("cov_1", "covariate"), ("offset", "offset")], ids=["cov_1", "offset"])
    def test_non_finite_value_rejected(self, fitted, tmp_path, column, what):
        """The reader returns a ``nan`` as it is (``decompose`` reads no
        covariate or offset); ``predict`` refuses it."""
        model, _ = fitted
        values = {"cov_1": "1.0", "cov_2": "2.0", "offset": "0.5", column: "nan"}
        path = tmp_path / "s.csv"
        path.write_text("x,y,offset,cov_1,cov_2\n0.1,0.2,0.5,1.0,2.0\n0.3,0.4,{offset},{cov_1},{cov_2}\n".format(**values))
        sites, cov, off = read_sites_csv(path)
        assert np.isnan(cov[1, 0] if column == "cov_1" else off[1])
        with pytest.raises(ValidationError, match=f"non-finite {what}"):
            predict(model, sites, cov, off)
