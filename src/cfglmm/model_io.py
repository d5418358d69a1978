"""File formats: versioned JSON model persistence and the CSV dataset layout.

CSV header grammar: ``x,y[,response][,offset][,cov_1..cov_K]``. ``response``
is required for a dataset CSV (``fit``) and ignored in a sites CSV
(``predict``, ``decompose``). Numeric output uses
12 significant digits; model JSON keeps full float precision so that a
save/load round trip reproduces predictions bit-exactly. Model files are strict
JSON: a non-finite loss in the trace (an unfittable scale) is written as
``null`` and read back as NaN.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

from .data import Dataset, FitConfig, HvSplit, make_split
from .experts import ScaleLayer
from .learner import CfModel, ScaleRecord
from .families import get_family

MODEL_FORMAT_VERSION = 1

_NUM_FMT = "%.12g"


class CsvFormatError(ValueError):
    """Structurally malformed CSV (bad header, bad row, unparseable number)."""


class ModelFormatError(ValueError):
    """Model JSON does not match the expected schema."""


# ---------------------------------------------------------------------------
# model persistence


def save_model(model: CfModel, path) -> None:
    """Write a model as one line of strict JSON that :func:`load_model` reads back bit for bit."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "family": model.family.tag,
        "config": dataclasses.asdict(model.config),
        "n_sites": model.n_sites,
        "n_covariates": model.n_covariates,
        "beta": [float(b) for b in model.beta],
        "initial_deviance": model.initial_deviance,
        "validation_deviance": model.validation_deviance,
        "layers": [
            {
                "bandwidth": layer.bandwidth,
                "tau2": layer.tau2,
                "experts": [
                    [*c, m, s2, True]
                    for c, m, s2 in zip(*(v.tolist() for v in (layer.centers, layer.mu, layer.sigma2)))
                ],
            }
            for layer in model.layers
        ],
        "loss_trace": [
            [None if isinstance(v, float) and not math.isfinite(v) else v for v in dataclasses.astuple(r)]
            for r in model.loss_trace
        ],
    }
    text = json.dumps(doc, allow_nan=False) + "\n"  # one line (json's C encoder), before the path opens
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _number(value, what: str) -> float:
    """A JSON number (``NaN`` and ``Infinity`` tokens of old files included)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _positive(value, what: str) -> float:
    x = _number(value, what)
    if not (math.isfinite(x) and x > 0.0):
        raise ModelFormatError(f"{what} must be finite and positive, got {value!r}")
    return x


def _finite(value, what: str) -> float:
    x = _number(value, what)
    if not math.isfinite(x):
        raise ModelFormatError(f"{what} must be finite, got {value!r}")
    return x


def _integer(value, what: str) -> int:
    """A count: a nonnegative JSON integer, never ``true`` or ``false``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ModelFormatError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _loss(value, what: str) -> float:
    """A loss; ``null`` is an unfittable scale's NaN."""
    return math.nan if value is None else _number(value, what)


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ModelFormatError(f"{what} must be true or false, got {value!r}")
    return value


# One column per ``ScaleRecord`` field, in field order: the ``--trace`` CSV
# header name and the model-file reader of the value.
_TRACE_COLUMNS = (
    ("scale", _integer),
    ("bandwidth", _positive),
    ("centers", _integer),
    ("train_loss", _loss),
    ("valid_loss", _loss),
    ("accepted", _flag),
)


def _trace_record(row) -> ScaleRecord:
    if not isinstance(row, list) or len(row) != len(_TRACE_COLUMNS):
        raise ModelFormatError(f"loss_trace rows must be [{', '.join(n for n, _ in _TRACE_COLUMNS)}]")
    return ScaleRecord(*(read(v, f"loss_trace {name}") for (name, read), v in zip(_TRACE_COLUMNS, row)))


def _power_one(value, what: str) -> None:
    """Older files hold the kernel power of the aggregation rule; only 1 remains."""
    if type(value) is not int or value != 1:
        raise ModelFormatError(f"{what} must be 1, got {value!r}")


def _layer(entry, index: int) -> ScaleLayer:
    """A layer of the rows flagged active; older files may hold rows flagged 0."""
    if not isinstance(entry, dict):
        raise ModelFormatError("model layer is not a JSON object")
    shape_error = "layer experts must be rows of [x, y, mu, sigma2, active]"
    try:
        experts = np.asarray(_require(entry, "experts", list), dtype=float)
    except (TypeError, ValueError):
        raise ModelFormatError(shape_error) from None
    if experts.ndim != 2 or experts.shape[1] != 5:
        raise ModelFormatError(shape_error)
    if not np.isfinite(experts).all():
        raise ModelFormatError("layer experts must be finite")
    if not (experts[:, 3] > 0.0).all():
        raise ModelFormatError("expert sigma2 must be positive")
    if not np.isin(experts[:, 4], (0.0, 1.0)).all():
        raise ModelFormatError("expert active flag must be 0 or 1")
    if not experts[:, 4].any():
        raise ModelFormatError(f"model layer {index} has no active expert")
    _power_one(entry.get("weight_power", 1), "layer weight_power")
    experts = experts[experts[:, 4] != 0.0]
    return ScaleLayer(
        bandwidth=_positive(_require(entry, "bandwidth", None), "layer bandwidth"),
        centers=experts[:, 0:2].copy(),
        mu=experts[:, 2].copy(),
        sigma2=experts[:, 3].copy(),
        tau2=_positive(_require(entry, "tau2", None), "layer tau2"),
    )


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise ModelFormatError(f"model file missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ModelFormatError(f"model field {key!r} has unexpected type {type(value).__name__}")
    return value


def load_model(path) -> CfModel:
    """Read a model file; a schema fault raises :class:`ModelFormatError`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = _integer(_require(doc, "format_version", None), "format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    try:
        family = get_family(_require(doc, "family", str))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    cfg_doc = _require(doc, "config", dict)
    _power_one(cfg_doc.pop("aggregation_weight_power", 1), "config aggregation_weight_power")
    try:
        config = FitConfig(**cfg_doc)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad config block: {exc}") from None
    layers = tuple(_layer(entry, i) for i, entry in enumerate(_require(doc, "layers", list)))
    trace = tuple(_trace_record(row) for row in _require(doc, "loss_trace", list))
    n_sites = _integer(_require(doc, "n_sites", None), "n_sites")
    split: HvSplit | None = None
    if n_sites >= 4:
        split = make_split(n_sites, config)
    n_covariates = _integer(_require(doc, "n_covariates", None), "n_covariates")
    beta = np.array([_number(b, "beta") for b in _require(doc, "beta", list)])
    if len(beta) != n_covariates + 1 or not np.isfinite(beta).all():
        raise ModelFormatError(f"beta must hold {n_covariates + 1} finite coefficients")
    return CfModel(
        beta=beta,
        layers=layers,
        family=family,
        split=split,
        loss_trace=trace,
        config=config,
        initial_deviance=_finite(_require(doc, "initial_deviance", None), "initial_deviance"),
        validation_deviance=_finite(_require(doc, "validation_deviance", None), "validation_deviance"),
        n_sites=n_sites,
        n_covariates=n_covariates,
        train_fitted=None,
    )


# ---------------------------------------------------------------------------
# CSV formats

def _read_table(path) -> dict[str, np.ndarray]:
    """The CSV's columns by name: ``sites``, ``covariates`` (``(n, 0)`` when
    there are none), and ``response`` and ``offset`` when the header has them."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                names = [h.strip() for h in next(reader)]
            except StopIteration:
                raise CsvFormatError(f"{path}: file is empty") from None
            optional = [c for c in ("response", "offset") if c in names]
            n_cov = len(names) - 2 - len(optional)
            if names != ["x", "y", *optional, *(f"cov_{k}" for k in range(1, n_cov + 1))]:
                raise CsvFormatError(
                    f"{path}: line 1: header must be x,y[,response][,offset][,cov_1..cov_K],"
                    f" got {','.join(names)!r}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(names):
                    raise CsvFormatError(
                        f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}"
                    )
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    raise CsvFormatError(f"{path}: line {lineno}: unparseable number") from None
    except OSError as exc:
        raise CsvFormatError(f"{path}: {exc.strerror or exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    columns = {name: table[:, j] for j, name in enumerate(optional, start=2)}
    return {"sites": table[:, 0:2], "covariates": table[:, 2 + len(optional) :], **columns}


def read_dataset_csv(path, family_tag: str) -> Dataset:
    """Parse a dataset CSV; the response column is required."""
    columns = _read_table(path)
    if "response" not in columns:
        raise CsvFormatError(f"{path}: line 1: missing 'response' column")
    return Dataset(
        columns["sites"], columns["response"], columns["covariates"], family_tag, columns.get("offset")
    )


def read_sites_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Parse a prediction-sites CSV: sites, every covariate column, and the
    offset or ``None``, unchecked: :func:`~cfglmm.prediction.predict` and
    :func:`~cfglmm.prediction.decompose` check the values they read. A
    ``response`` column, if present, is ignored.
    """
    columns = _read_table(path)
    return columns["sites"], columns["covariates"], columns.get("offset")


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Write a dataset CSV that :func:`read_dataset_csv` reads; an all-zero offset is left out."""
    header = ["x", "y", "response"]
    columns = [dataset.sites, dataset.response]
    if np.any(dataset.offset != 0.0):
        header.append("offset")
        columns.append(dataset.offset)
    header += [f"cov_{k + 1}" for k in range(dataset.n_covariates)]
    write_rows_csv(path, header, np.column_stack([*columns, dataset.covariates]).tolist())


def write_rows_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed values: floats get 12 significant digits, ``None``
    is an empty cell, and any other value is written as its ``str``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_NUM_FMT % v if isinstance(v, float) else v for v in row])


def write_trace_csv(path, trace) -> None:
    write_rows_csv(path, [name for name, _ in _TRACE_COLUMNS], map(dataclasses.astuple, trace))
