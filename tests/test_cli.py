import csv
import dataclasses
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from cfglmm.cli import main
from cfglmm import FitConfig, SimScenario, decompose, generate, load_model, predict, run_experiment
from cfglmm.model_io import read_sites_csv


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def _header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def _assert_written(path, columns):
    """The CSV holds exactly ``columns``, in order, each with the library's
    values: strings as they are, numbers at the 12 significant digits written."""
    rows = _read_csv(path)
    assert _header(path) == list(columns)
    for name, want in columns.items():
        written = [r[name] for r in rows]
        assert written == [v if isinstance(v, str) else "%.12g" % v for v in want], name


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")
    prefix = str(base / "toy")
    code = main(
        ["simulate", "--family", "poisson", "--n", "400", "--beta0", "0.5",
         "--test", "100", "--seed", "3", "--out", prefix]
    )
    assert code == 0
    return prefix


def _nan_covariate_sites(sim_prefix, tmp_path) -> str:
    """The test sites CSV with ``nan`` in ``cov_1`` of its first row."""
    header, first, *rest = Path(f"{sim_prefix}_test.csv").read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[header.split(",").index("cov_1")] = "nan"
    path = tmp_path / "nan_cov.csv"
    path.write_text("".join([header, ",".join(cells), *rest]))
    return str(path)


@pytest.fixture(scope="module")
def fitted_files(sim_files, tmp_path_factory):
    base = tmp_path_factory.mktemp("fit")
    model_path = str(base / "model.cfg.json")
    trace_path = str(base / "trace.csv")
    code = main(
        ["fit", "--data", f"{sim_files}_train.csv", "--family", "poisson",
         "--seed", "5", "--out", model_path, "--trace", trace_path]
    )
    assert code == 0
    return sim_files, model_path, trace_path


class TestSimulateCommand:
    def test_writes_train_test_truth(self, sim_files):
        for suffix in ("_train.csv", "_test.csv", "_truth.csv"):
            assert Path(sim_files + suffix).exists()

    def test_same_seed_identical_files(self, sim_files, tmp_path):
        prefix = str(tmp_path / "again")
        main(["simulate", "--family", "poisson", "--n", "400", "--beta0", "0.5",
              "--test", "100", "--seed", "3", "--out", prefix])
        assert filecmp.cmp(f"{sim_files}_train.csv", f"{prefix}_train.csv", shallow=False)
        assert filecmp.cmp(f"{sim_files}_truth.csv", f"{prefix}_truth.csv", shallow=False)

    def test_multiscale_truth_columns(self, tmp_path):
        prefix = str(tmp_path / "ms")
        code = main(["simulate", "--family", "poisson", "--n", "200", "--test", "0",
                     "--multiscale", "3.0,0.8,0.3", "--seed", "1", "--out", prefix])
        assert code == 0
        rows = _read_csv(f"{prefix}_truth.csv")
        assert {"Z1", "Z2", "Z3"} <= set(rows[0])
        z = [float(r["z"]) for r in rows]
        parts = [float(r["Z1"]) + float(r["Z2"]) + float(r["Z3"]) for r in rows]
        np.testing.assert_allclose(z, parts, rtol=1e-9)

    @pytest.mark.parametrize("multiscale", [None, (3.0, 0.8, 0.3)], ids=["single", "multiscale"])
    def test_csvs_hold_generated_draw(self, tmp_path, multiscale):
        """Train rows then test rows of the truth file, then Z1..Z3 for a
        multiscale draw, and both datasets, as ``generate`` returns them."""
        prefix = str(tmp_path / "draw")
        args = ["simulate", "--family", "poisson", "--n", "200", "--beta0", "0.5", "--test", "50",
                "--seed", "4", "--out", prefix]
        assert main(args + (["--multiscale", "3.0,0.8,0.3"] if multiscale else [])) == 0
        sim = generate(SimScenario(family="poisson", beta0=0.5, n_train=200, n_test=50,
                                   multiscale=multiscale), 4)
        parts = ((sim.train, sim.truth_train), (sim.test, sim.truth_test))

        def stacked(column):
            return np.concatenate([column(d, truth) for d, truth in parts])

        truth = {
            "dataset": ["train"] * 200 + ["test"] * 50,
            "x": stacked(lambda d, t: d.sites[:, 0]),
            "y": stacked(lambda d, t: d.sites[:, 1]),
            "mu": stacked(lambda d, t: t.mu),
            "z": stacked(lambda d, t: t.z),
        }
        for m in range(len(multiscale or ())):
            truth[f"Z{m + 1}"] = stacked(lambda d, t: t.components[:, m])
        _assert_written(f"{prefix}_truth.csv", truth)
        for label, d in (("train", sim.train), ("test", sim.test)):
            columns = {"x": d.sites[:, 0], "y": d.sites[:, 1], "response": d.response}
            columns.update((f"cov_{k + 1}", d.covariates[:, k]) for k in range(d.n_covariates))
            _assert_written(f"{prefix}_{label}.csv", columns)

    @pytest.mark.parametrize("args,field", [
        (["--n", "0"], "n_train"), (["--test", "-1"], "n_test"), (["--beta0", "nan"], "beta0"),
    ])
    def test_unusable_scenario_exit_3(self, tmp_path, capsys, args, field):
        code = main(["simulate", "--n", "50", "--test", "10", *args, "--out", str(tmp_path / "bad")])
        assert code == 3
        assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # nothing written

    @pytest.mark.parametrize("bands", ["0", "-1", "nan"])
    def test_bad_multiscale_bandwidth_exit_3(self, tmp_path, capsys, bands):
        code = main(["simulate", "--n", "50", "--test", "0", f"--multiscale={bands}",
                     "--out", str(tmp_path / "bad")])
        assert code == 3
        assert "finite and positive" in capsys.readouterr().err


class TestFitCommand:
    def test_model_file_written(self, fitted_files):
        _, model_path, _ = fitted_files
        model = load_model(model_path)
        assert model.family.tag == "poisson"
        assert len(model.layers) >= 1

    def test_trace_accepted_losses_strictly_decreasing(self, fitted_files):
        _, _, trace_path = fitted_files
        rows = _read_csv(trace_path)
        accepted = [float(r["valid_loss"]) for r in rows if r["accepted"] == "True"]
        assert len(accepted) >= 1
        assert all(b < a for a, b in zip(accepted, accepted[1:]))

    def test_unknown_family_exit_2(self, sim_files, capsys):
        code = main(["fit", "--data", f"{sim_files}_train.csv", "--family", "tweedie"])
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"), "--family", "poisson",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_response_for_family_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = ["x,y,response"] + [f"0.{i}1,0.{i}3,1.5" for i in range(1, 9)] * 4
        path.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--data", str(path), "--family", "poisson",
                     "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "nonnegative integers" in capsys.readouterr().err

    def test_infinite_initial_bandwidth_exit_3(self, sim_files, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["fit", "--data", f"{sim_files}_train.csv", "--family", "poisson",
                     "--initial-bandwidth", "inf", "--out", str(out)])
        assert code == 3
        assert "initial_bandwidth" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_are_fit_config_defaults(self, sim_files, tmp_path):
        out = tmp_path / "m.json"
        assert main(["fit", "--data", f"{sim_files}_train.csv", "--family", "poisson", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == dataclasses.asdict(FitConfig())

    def test_deterministic_model_file(self, sim_files, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["fit", "--data", f"{sim_files}_train.csv", "--family", "poisson",
                         "--seed", "5", "--out", out]) == 0
        assert filecmp.cmp(a, b, shallow=False)


class TestPredictCommand:
    def test_gaussian_zero_mean_writes_nan_cov(self, tmp_path):
        """An all-zero Gaussian response fits beta = 0 and no layer; predict
        writes its rows, cov NaN (0 / 0), where it used to exit 3."""
        rng = np.random.default_rng(2)
        data = tmp_path / "zeros.csv"
        data.write_text("x,y,response\n" + "".join(f"{x:.17g},{y:.17g},0\n" for x, y in rng.random((100, 2))))
        model_path, out = str(tmp_path / "m.json"), str(tmp_path / "pred.csv")
        assert main(["fit", "--data", str(data), "--family", "gaussian", "--out", model_path]) == 0
        assert main(["predict", "--model", model_path, "--sites", str(data), "--out", out]) == 0
        rows = _read_csv(out)
        assert len(rows) == 100
        assert all(r["mu"] == "0" and r["var_z"] == "0" and r["cov"] == "nan" for r in rows)

    def test_output_columns_and_variance(self, fitted_files, tmp_path):
        sim_prefix, model_path, _ = fitted_files
        out = str(tmp_path / "pred.csv")
        code = main(["predict", "--model", model_path, "--sites", f"{sim_prefix}_test.csv",
                     "--out", out])
        assert code == 0
        rows = _read_csv(out)
        assert list(rows[0]) == ["x", "y", "mu_lin", "mu", "z_total", "var_z", "cov"]
        assert all(float(r["var_z"]) >= 0 for r in rows)
        assert all(float(r["cov"]) >= 0 for r in rows)

    def test_csv_holds_library_predictions(self, fitted_files, tmp_path):
        sim_prefix, model_path, _ = fitted_files
        out = str(tmp_path / "pred.csv")
        assert main(["predict", "--model", model_path, "--sites", f"{sim_prefix}_test.csv",
                     "--out", out]) == 0
        model = load_model(model_path)
        sites, covariates, offset = read_sites_csv(f"{sim_prefix}_test.csv")
        pred = predict(model, sites, covariates, offset)
        _assert_written(out, {
            "x": sites[:, 0], "y": sites[:, 1], "mu_lin": pred.mu_lin, "mu": pred.mu,
            "z_total": pred.z_total, "var_z": pred.var_z, "cov": pred.cov,
        })

    def test_predict_at_training_sites_matches_cache(self, tmp_path):
        # gaussian model: mu at the training sites equals the cached train fit.
        # The reference is fit on the CSV the CLI reads (12 significant digits),
        # so the two differ only by the rounding of the predictions written out.
        from oracles import gaussian_spatial_dataset
        from cfglmm import FitConfig, fit_cf, read_dataset_csv, write_dataset_csv
        from cfglmm.families import add_intercept

        data_path = str(tmp_path / "g.csv")
        model_path = str(tmp_path / "g.json")
        out = str(tmp_path / "gp.csv")
        write_dataset_csv(data_path, gaussian_spatial_dataset(200, seed=2)[0])
        d = read_dataset_csv(data_path, "gaussian")
        model = fit_cf(d, FitConfig(rng_seed=2))
        assert main(["fit", "--data", data_path, "--family", "gaussian", "--seed", "2",
                     "--out", model_path]) == 0
        assert main(["predict", "--model", model_path, "--sites", data_path, "--out", out]) == 0
        rows = _read_csv(out)
        want = add_intercept(d.covariates) @ model.beta + model.train_fitted.z
        got = np.array([float(r["mu"]) for r in rows])
        np.testing.assert_allclose(got, want, rtol=1e-11)  # 12 digits round by at most 5e-12

    def test_missing_covariate_column_exit_3(self, fitted_files, tmp_path, capsys):
        _, model_path, _ = fitted_files
        sites = tmp_path / "sites.csv"
        sites.write_text("x,y,cov_1\n0.5,0.5,1.0\n")
        code = main(["predict", "--model", model_path, "--sites", str(sites), "--out",
                     str(tmp_path / "p.csv")])
        assert code == 3
        assert "covariate column mismatch: model expects 2, got 1" in capsys.readouterr().err

    def test_extra_covariate_column_exit_3(self, fitted_files, tmp_path, capsys):
        """A sites file with a column the model does not have is refused, not
        predicted without it."""
        sim_prefix, model_path, _ = fitted_files
        rows = _read_csv(f"{sim_prefix}_test.csv")
        sites = tmp_path / "sites.csv"
        sites.write_text("x,y,cov_1,cov_2,cov_3\n" + "".join(
            f"{r['x']},{r['y']},{r['cov_1']},{r['cov_2']},123.0\n" for r in rows
        ))
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", model_path, "--sites", str(sites), "--out", str(out)])
        assert code == 3
        assert "covariate column mismatch: model expects 2, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_covariate_exit_3(self, fitted_files, tmp_path, capsys):
        sim_prefix, model_path, _ = fitted_files
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", model_path, "--sites", _nan_covariate_sites(sim_prefix, tmp_path),
                     "--out", str(out)])
        assert code == 3
        assert "error: non-finite covariate" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_model_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["predict", "--model", str(bad), "--sites", str(bad), "--out",
                     str(tmp_path / "p.csv")])
        assert code == 2

    def test_layer_without_experts_exit_3(self, fitted_files, tmp_path, capsys):
        sim_prefix, model_path, _ = fitted_files
        doc = json.loads(Path(model_path).read_text())
        assert doc["layers"]
        del doc["layers"][0]["experts"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(bad), "--sites", f"{sim_prefix}_test.csv", "--out",
                     str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "experts" in err
        assert "Traceback" not in err

    def test_layer_without_active_expert_exit_3(self, fitted_files, tmp_path, capsys):
        sim_prefix, model_path, _ = fitted_files
        doc = json.loads(Path(model_path).read_text())
        for row in doc["layers"][0]["experts"]:
            row[4] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for cmd in ("predict", "decompose"):
            code = main([cmd, "--model", str(bad), "--sites", f"{sim_prefix}_test.csv", "--out",
                         str(tmp_path / "p.csv")])
            err = capsys.readouterr().err
            assert code == 3
            assert "model layer 0 has no active expert" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["loss_trace"][0].__setitem__(0, None),
            lambda doc: doc["layers"][0]["experts"][0].__setitem__(2, None),
            lambda doc: doc["layers"][0]["experts"][0].__setitem__(3, 0.0),
            lambda doc: doc["layers"][0]["experts"][0].__setitem__(3, float("nan")),
            lambda doc: doc["layers"][0]["experts"][0].__setitem__(4, 2),
            lambda doc: doc["config"].__setitem__("rng_seed", 1.5),
            lambda doc: doc["config"].__setitem__("patience", True),
            lambda doc: doc.__setitem__("n_sites", -5),
            lambda doc: doc.update(n_covariates=-1, beta=[]),
            lambda doc: doc.__setitem__("n_covariates", True),
            lambda doc: doc["layers"][0].__setitem__("weight_power", 2.0),
            lambda doc: doc["layers"][0].__setitem__("weight_power", 2),
            lambda doc: doc["config"].__setitem__("aggregation_weight_power", 2),
        ],
        ids=["null_trace_scale", "null_expert_mu", "zero_sigma2", "nan_sigma2", "active_2",
             "float_rng_seed", "bool_patience", "negative_n_sites", "negative_n_covariates",
             "bool_n_covariates", "float_weight_power", "weight_power_2", "aggregation_weight_power_2"],
    )
    def test_schema_fault_exit_3(self, fitted_files, tmp_path, capsys, corrupt):
        sim_prefix, model_path, _ = fitted_files
        doc = json.loads(Path(model_path).read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(bad), "--sites", f"{sim_prefix}_test.csv", "--out",
                     str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestDecomposeCommand:
    def test_bands_sum_to_total(self, fitted_files, tmp_path):
        sim_prefix, model_path, _ = fitted_files
        out = str(tmp_path / "bands.csv")
        code = main(["decompose", "--model", model_path, "--sites", f"{sim_prefix}_test.csv",
                     "--bands", "0.5,0.2", "--out", out])
        assert code == 0
        rows = _read_csv(out)
        for r in rows:
            parts = sum(float(v) for k, v in r.items() if k.startswith("band_"))
            assert parts == pytest.approx(float(r["z_total"]), abs=1e-9)

    def test_csvs_hold_library_bands(self, fitted_files, tmp_path):
        sim_prefix, model_path, _ = fitted_files
        out = str(tmp_path / "bands.csv")
        assert main(["decompose", "--model", model_path, "--sites", f"{sim_prefix}_test.csv",
                     "--bands", "0.5,0.2", "--out", out]) == 0
        sites, _, _ = read_sites_csv(f"{sim_prefix}_test.csv")
        bands = decompose(load_model(model_path), sites, (0.5, 0.2))
        names = ["band_h_ge_0.5", "band_h_0.2_to_0.5", "band_h_lt_0.2"]
        values = bands.band_values
        columns = {"x": sites[:, 0], "y": sites[:, 1]}
        columns.update((name, values[:, b]) for b, name in enumerate(names))
        columns["z_total"] = values.sum(axis=1)
        _assert_written(out, columns)
        _assert_written(str(tmp_path / "bands_band_sds.csv"), {"band": names, "sd": bands.band_sds})

    def test_unread_covariate_may_be_nan(self, fitted_files, tmp_path):
        """``decompose`` reads no covariate: a ``nan`` in ``cov_1`` gives the
        bands of the clean file."""
        sim_prefix, model_path, _ = fitted_files
        for name, sites in (("clean", f"{sim_prefix}_test.csv"), ("nan", _nan_covariate_sites(sim_prefix, tmp_path))):
            assert main(["decompose", "--model", model_path, "--sites", sites, "--bands", "0.5,0.2",
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        for suffix in (".csv", "_band_sds.csv"):
            assert filecmp.cmp(tmp_path / f"clean{suffix}", tmp_path / f"nan{suffix}", shallow=False)

    def test_band_sd_side_file(self, fitted_files, tmp_path):
        sim_prefix, model_path, _ = fitted_files
        out = str(tmp_path / "bands.csv")
        main(["decompose", "--model", model_path, "--sites", f"{sim_prefix}_test.csv",
              "--bands", "0.5,0.2", "--out", out])
        side = _read_csv(str(tmp_path / "bands_band_sds.csv"))
        assert len(side) == 3
        assert all(float(r["sd"]) >= 0 for r in side)

    def test_default_bands_are_paper_thresholds(self, fitted_files, tmp_path):
        sim_prefix, model_path, _ = fitted_files
        out = str(tmp_path / "default.csv")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["decompose", "--model", model_path, "--sites",
                         f"{sim_prefix}_test.csv", "--out", out])
        assert code == 0
        header = _read_csv(out)[0]
        assert "band_h_ge_1.9" in header
        assert "band_h_lt_0.5" in header

    def test_empty_band_zero_column(self, fitted_files, tmp_path):
        sim_prefix, model_path, _ = fitted_files
        out = str(tmp_path / "empty.csv")
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["decompose", "--model", model_path, "--sites",
                         f"{sim_prefix}_test.csv", "--bands", "1e6", "--out", out])
        assert code == 0
        assert any("no accepted layer" in str(w.message) for w in caught)
        rows = _read_csv(out)
        assert all(float(r["band_h_ge_1e+06"]) == 0.0 for r in rows)

    def test_bad_bands_exit_3(self, fitted_files, tmp_path, capsys):
        sim_prefix, model_path, _ = fitted_files
        code = main(["decompose", "--model", model_path, "--sites",
                     f"{sim_prefix}_test.csv", "--bands", "0.2,0.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_nan_band_exit_3(self, fitted_files, tmp_path, capsys):
        sim_prefix, model_path, _ = fitted_files
        code = main(["decompose", "--model", model_path, "--sites",
                     f"{sim_prefix}_test.csv", "--bands", "nan",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "positive" in capsys.readouterr().err


class TestBenchmarkCommand:
    @pytest.mark.parametrize("suite", ["prediction", "binomial", "multiscale", "timing"])
    @pytest.mark.parametrize("sizes", ["100.5", "0", "-5"])
    def test_unusable_sizes_exit_2_and_write_nothing(self, tmp_path, capsys, suite, sizes):
        """``100.5`` used to run n=100, and ``0`` and ``-5`` to write CSVs of failed trials."""
        out = tmp_path / "bench"
        code = main(["benchmark", "--suite", suite, "--trials", "1", f"--sizes={sizes}", "--out", str(out)])
        assert code == 2
        assert "--sizes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-1", "2.5", "x"])
    def test_unusable_trials_exit_2_and_write_nothing(self, tmp_path, capsys, trials):
        out = tmp_path / "bench"
        code = main(["benchmark", "--suite", "prediction", f"--trials={trials}", "--sizes", "100", "--out", str(out)])
        assert code == 2
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["200,100", "100,100"])
    def test_timing_sizes_not_ascending_exit_3_and_write_nothing(self, tmp_path, capsys, sizes):
        out = tmp_path / "bench"
        code = main(["benchmark", "--suite", "timing", "--sizes", sizes, "--out", str(out)])
        assert code == 3
        assert "ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_timing_suite(self, tmp_path):
        out = str(tmp_path / "bench")
        code = main(["benchmark", "--suite", "timing", "--sizes", "100,200", "--seed", "0",
                     "--out", out])
        assert code == 0
        rows = _read_csv(str(Path(out) / "timing.csv"))
        assert [r["n"] for r in rows] == ["100", "200"]
        assert all(float(r["seconds"]) > 0 for r in rows)

    def test_prediction_suite_columns(self, tmp_path):
        out = str(tmp_path / "bench")
        code = main(["benchmark", "--suite", "prediction", "--trials", "2",
                     "--sizes", "150", "--seed", "1", "--out", out])
        assert code == 0
        rows = _read_csv(str(Path(out) / "prediction_trials.csv"))
        assert {"rmse_out", "rmse_out_glm", "beta1", "beta1_glm"} <= set(rows[0])
        assert len(rows) == 2
        assert Path(out, "prediction_summary.csv").exists()
        assert Path(out, "prediction_long.csv").exists()

    def test_multiscale_suite_correlation_columns(self, tmp_path):
        out = str(tmp_path / "bench")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["benchmark", "--suite", "multiscale", "--trials", "2",
                         "--sizes", "250", "--seed", "1", "--out", out])
        assert code == 0
        assert _header(Path(out) / "multiscale_trials.csv") == [
            "n", "trial", "seed", "error", "accepted_scales", "beta0", "beta0_glm", "beta1",
            "beta1_glm", "beta2", "beta2_glm", "corr_band_0", "corr_band_1", "corr_band_2",
            "fit_seconds", "rmse_in", "rmse_in_glm", "rmse_out", "rmse_out_glm",
        ]

    def test_multiscale_summary_scores_a_test_set(self, tmp_path):
        """The multiscale suite draws a test set like the other suites, so its
        out-of-sample summary rows are finite and the long CSV has every
        summary metric (they used to be all NaN, with no long rows)."""
        out = tmp_path / "bench"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["benchmark", "--suite", "multiscale", "--trials", "1", "--sizes", "150",
                         "--seed", "1", "--out", str(out)]) == 0
        summary = {row["metric"]: row for row in _read_csv(out / "multiscale_summary.csv")}
        assert np.isfinite(float(summary["rmse_out"]["median"]))
        assert np.isfinite(float(summary["rmse_out_glm"]["median"]))
        assert {row["metric"] for row in _read_csv(out / "multiscale_long.csv")} == set(summary)

    def test_binomial_suite_rows(self, tmp_path):
        """The trials CSV holds every field of ``run_experiment``'s trials
        (its tuple fields spread over columns) but the wall-clock time."""
        out = str(tmp_path / "bench")
        assert main(["benchmark", "--suite", "binomial", "--trials", "2", "--sizes", "150",
                     "--seed", "1", "--out", out]) == 0
        path = Path(out) / "binomial_trials.csv"
        assert _header(path) == [
            "n", "trial", "seed", "error", "accepted_scales", "beta0", "beta0_glm", "beta1",
            "beta1_glm", "beta2", "beta2_glm", "fit_seconds", "rmse_in", "rmse_in_glm",
            "rmse_out", "rmse_out_glm",
        ]
        scenario = SimScenario(family="bernoulli", beta0=0.5, n_train=150, n_test=2000)
        trials = run_experiment(scenario, 2, 1).trials
        rows = _read_csv(path)
        for row, t in zip(rows, trials, strict=True):
            want = {"n": 150, "trial": t.trial, "seed": t.seed, "error": t.error or "",
                    "accepted_scales": t.accepted_scales, "rmse_in": t.rmse_in,
                    "rmse_in_glm": t.rmse_in_glm, "rmse_out": t.rmse_out, "rmse_out_glm": t.rmse_out_glm}
            for j, (b, b_glm) in enumerate(zip(t.beta_hat, t.beta_hat_glm, strict=True)):
                want[f"beta{j}"], want[f"beta{j}_glm"] = b, b_glm
            assert {k: row[k] for k in want} == {
                k: "%.12g" % v if isinstance(v, float) else str(v) for k, v in want.items()
            }

    @pytest.mark.parametrize("suite", ["prediction", "binomial", "multiscale"])
    def test_summary_and_long_read_the_trial_metrics(self, tmp_path, suite):
        """The summary has one row per metric column of the trials CSV (each
        column but ``n``, ``trial``, ``seed`` and ``error``); the long CSV
        holds each column's finite values, and both give the same quantiles."""
        out = tmp_path / "bench"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["benchmark", "--suite", suite, "--trials", "2", "--sizes", "150",
                         "--seed", "1", "--out", str(out)]) == 0
        trials = _read_csv(out / f"{suite}_trials.csv")
        summary = {row["metric"]: row for row in _read_csv(out / f"{suite}_summary.csv")}
        long_rows = _read_csv(out / f"{suite}_long.csv")
        metrics = set(trials[0]) - {"n", "trial", "seed", "error"}
        assert set(summary) == metrics
        assert {"accepted_scales", "beta0", "beta2_glm"} <= metrics
        assert {row["metric"] for row in long_rows} == {
            m for m, row in summary.items() if row["median"] != "nan"
        }
        for metric in metrics:
            column = [float(row[metric]) for row in trials if row[metric] not in ("", "nan")]
            assert [float(row["value"]) for row in long_rows if row["metric"] == metric] == column
            median = float(summary[metric]["median"])
            if column:
                assert median == pytest.approx(float(np.median(column)), rel=1e-11, abs=1e-11)
            else:
                assert np.isnan(median)


class TestArgumentParsing:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_bad_band_list_exit_2(self, fitted_files, tmp_path, capsys):
        sim_prefix, model_path, _ = fitted_files
        code = main(["decompose", "--model", model_path, "--sites",
                     f"{sim_prefix}_test.csv", "--bands", "a,b",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
