"""Command-line interface: fit, predict, decompose, simulate, benchmark.

Exit codes: 0 success, 2 argument/CSV parse error or a file that cannot be
read or written, 3 validation error, 4 fit error. All paths are
deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import FAMILY_TAGS, FitConfig, ValidationError
from .evaluate import QUANTILE_LABELS, run_experiment, timing_curve, trial_row
from .experts import LayerUnfittableError
from .families import CollinearityError
from .learner import fit_cf
from .model_io import (
    CsvFormatError,
    ModelFormatError,
    load_model,
    read_dataset_csv,
    read_sites_csv,
    save_model,
    write_dataset_csv,
    write_rows_csv,
    write_trace_csv,
)
from .prediction import decompose, predict
from .simulate import SimScenario, generate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_FIT = 4

DEFAULT_BANDS = (1.9, 0.5)

# the scenario of each trial suite of ``benchmark``, minus its size and ``beta0``
_SUITES = {
    "prediction": dict(family="poisson", n_test=2000),
    "binomial": dict(family="bernoulli", n_test=2000),
    "multiscale": dict(family="poisson", n_test=2000, multiscale=(3.0, 0.8, 0.3)),
}


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise CsvFormatError(f"{flag}: could not parse {text!r} as comma-separated numbers") from None
    if not values:
        raise CsvFormatError(f"{flag}: empty list")
    return values


def _sizes(text: str) -> list[int]:
    """``--sizes``: comma-separated integers of at least 1, checked before a suite writes anything."""
    sizes = [part.strip() for part in text.split(",") if part.strip()]
    if not sizes or not all(size.isdecimal() and int(size) >= 1 for size in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be integers of at least 1, got {text!r}")
    return [int(size) for size in sizes]


def _trials(text: str) -> int:
    """``--trials``: an integer of at least 1, checked the same way."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"trials must be an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfglmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a dataset CSV")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p_fit.add_argument("--seed", type=int, default=FitConfig.rng_seed)
    p_fit.add_argument("--train-frac", type=float, default=FitConfig.train_fraction)
    p_fit.add_argument("--decay", type=float, default=FitConfig.bandwidth_decay)
    p_fit.add_argument("--patience", type=int, default=FitConfig.patience)
    p_fit.add_argument("--initial-bandwidth", type=float, default=FitConfig.initial_bandwidth)
    p_fit.add_argument("--out", default="model.cfg.json")
    p_fit.add_argument("--trace", default=None)

    p_pred = sub.add_parser("predict", help="predict at sites from a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--sites", required=True)
    p_pred.add_argument("--out", required=True)

    p_dec = sub.add_parser("decompose", help="split the latent process into bandwidth bands")
    p_dec.add_argument("--model", required=True)
    p_dec.add_argument("--sites", required=True)
    p_dec.add_argument("--bands", default=",".join(str(b) for b in DEFAULT_BANDS))
    p_dec.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="write synthetic train/test/truth CSVs")
    p_sim.add_argument("--family", default="poisson", choices=("poisson", "bernoulli"))
    p_sim.add_argument("--n", type=int, default=SimScenario.n_train)
    p_sim.add_argument("--beta0", type=float, default=SimScenario.beta0)
    p_sim.add_argument("--multiscale", default=None)
    p_sim.add_argument("--test", type=int, default=SimScenario.n_test)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output file prefix")

    p_bench = sub.add_parser("benchmark", help="run a Monte Carlo suite")
    p_bench.add_argument("--suite", required=True, choices=(*_SUITES, "timing"))
    p_bench.add_argument("--trials", type=_trials, default=20)
    p_bench.add_argument("--sizes", type=_sizes, default="500,1000,2000")
    p_bench.add_argument("--beta0", type=float, default=SimScenario.beta0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_fit(args) -> int:
    dataset = read_dataset_csv(args.data, args.family)
    cfg = FitConfig(
        train_fraction=args.train_frac,
        bandwidth_decay=args.decay,
        patience=args.patience,
        initial_bandwidth=args.initial_bandwidth,
        rng_seed=args.seed,
    )
    model = fit_cf(dataset, cfg)
    save_model(model, args.out)
    if args.trace:
        write_trace_csv(args.trace, model.loss_trace)
    print(
        f"fit: {len(model.layers)} accepted scales, validation deviance "
        f"{model.validation_deviance:.6g} (initial {model.initial_deviance:.6g})"
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    sites, covariates, offset = read_sites_csv(args.sites)
    pred = predict(model, sites, covariates, offset)
    rows = np.column_stack([sites, pred.mu_lin, pred.mu, pred.z_total, pred.var_z, pred.cov]).tolist()
    write_rows_csv(args.out, ["x", "y", "mu_lin", "mu", "z_total", "var_z", "cov"], rows)
    return EXIT_OK


def _band_names(edges: tuple[float, ...]) -> list[str]:
    inner = [f"band_h_{lo:g}_to_{hi:g}" for hi, lo in zip(edges, edges[1:])]
    return [f"band_h_ge_{edges[0]:g}", *inner, f"band_h_lt_{edges[-1]:g}"]


def _cmd_decompose(args) -> int:
    model = load_model(args.model)
    sites, _, _ = read_sites_csv(args.sites)
    edges = _parse_floats(args.bands, "--bands")
    bands = decompose(model, sites, edges)
    names = _band_names(bands.band_edges)
    values = bands.band_values
    rows = np.column_stack([sites, values, values.sum(axis=1)]).tolist()
    write_rows_csv(args.out, ["x", "y", *names, "z_total"], rows)
    sd_path = str(Path(args.out).with_suffix("")) + "_band_sds.csv"
    write_rows_csv(sd_path, ["band", "sd"], zip(names, bands.band_sds.tolist()))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    multiscale = _parse_floats(args.multiscale, "--multiscale") if args.multiscale else None
    scenario = SimScenario(
        family=args.family,
        beta0=args.beta0,
        n_train=args.n,
        n_test=args.test,
        multiscale=multiscale,
    )
    sim = generate(scenario, args.seed)
    write_dataset_csv(f"{args.out}_train.csv", sim.train)
    if sim.test is not None:
        write_dataset_csv(f"{args.out}_test.csv", sim.test)

    comp_names = [f"Z{m + 1}" for m in range(len(multiscale))] if multiscale else []
    truth_rows = []
    for label, dataset, truth in (
        ("train", sim.train, sim.truth_train),
        ("test", sim.test, sim.truth_test),
    ):
        if dataset is None:
            continue
        columns = [dataset.sites, truth.mu, truth.z]
        if multiscale:
            columns.append(truth.components)
        truth_rows += [[label, *row] for row in np.column_stack(columns).tolist()]
    write_rows_csv(f"{args.out}_truth.csv", ["dataset", "x", "y", "mu", "z", *comp_names], truth_rows)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    if args.suite == "timing" and any(b <= a for a, b in zip(args.sizes, args.sizes[1:])):
        raise ValidationError("sizes must be ascending")  # timing_curve's check, before the directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.suite == "timing":
        scenario = SimScenario(family="poisson", beta0=args.beta0)
        curve = timing_curve(args.sizes, scenario, seed=args.seed)
        write_rows_csv(out_dir / "timing.csv", ["n", "seconds"], [[n, s] for n, s in curve])
        for n, s in curve:
            print(f"n={n}: {s:.2f} s")
        return EXIT_OK

    # one row per trial; the summary and long tables read its metric columns
    rows, summary, long_rows = [], [], []
    for size in args.sizes:
        scenario = SimScenario(beta0=args.beta0, n_train=size, **_SUITES[args.suite])
        report = run_experiment(scenario, args.trials, args.seed, band_edges=DEFAULT_BANDS)
        size_rows = [{"n": size, **trial_row(t)} for t in report.trials]
        rows += size_rows
        summary += [[size, metric, *qs] for metric, qs in report.quantiles.items()]
        long_rows += [
            [size, row["trial"], metric, value]
            for row in size_rows
            for metric, value in row.items()
            if metric in report.quantiles and np.isfinite(value)
        ]
    lead = ["n", "trial", "seed", "error"]  # every row has them; the rest sorted
    header = lead + sorted({k for row in rows for k in row} - set(lead))
    write_rows_csv(out_dir / f"{args.suite}_trials.csv", header, [[row.get(c, "") for c in header] for row in rows])
    write_rows_csv(out_dir / f"{args.suite}_summary.csv", ["n", "metric", *QUANTILE_LABELS], summary)
    write_rows_csv(out_dir / f"{args.suite}_long.csv", ["n", "trial", "metric", "value"], long_rows)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "decompose": _cmd_decompose,
    "simulate": _cmd_simulate,
    "benchmark": _cmd_benchmark,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (CsvFormatError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # a file that cannot be read or written, named as _read_table names a CSV
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, ModelFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LayerUnfittableError, CollinearityError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
