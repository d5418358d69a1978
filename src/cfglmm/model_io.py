"""File formats: versioned JSON model persistence and the CSV dataset layout.

CSV header grammar: ``x,y[,response][,offset][,cov_1..cov_K]``. ``response``
is required for a dataset CSV (``fit``) and ignored in a sites CSV
(``predict``, ``decompose``). Numeric output uses 12 significant digits.

Model files are one line of strict JSON. Format 2, the one written, stores
each layer's arrays as base64 strings of their float64 bytes, little-endian
(``<f8``) on every machine, so a save/load round trip reproduces predictions
bit-exactly, ``-0.0`` and subnormals included. Each distinct center set is
stored once, in the top-level ``center_sets`` list as row-major ``x, y``
pairs; a layer is ``{"bandwidth", "tau2", "centers": <index into
center_sets>, "mu", "sigma2"}``, so the capped layers of a fit, which place
every training site, share one entry. Format 1, whose layers hold expert rows
``[x, y, mu, sigma2, active]`` as JSON numbers, still loads. A non-finite loss
in the trace (an unfittable scale) is written as ``null`` and read back as NaN.
"""

from __future__ import annotations

import base64
import csv
import dataclasses
import json
import math

import numpy as np

from .data import Dataset, FitConfig, ValidationError
from .experts import ScaleLayer
from .learner import CfModel, ScaleRecord
from .families import get_family

MODEL_FORMAT_VERSION = 2

# the byte order of every array in a format-2 file, whatever the machine's
_F8 = np.dtype("<f8")

_NUM_FMT = "%.12g"


class CsvFormatError(ValueError):
    """Structurally malformed CSV (bad header, bad row, unparseable number)."""


class ModelFormatError(ValueError):
    """Model JSON does not match the expected schema."""


# ---------------------------------------------------------------------------
# model persistence


def save_model(model: CfModel, path) -> None:
    """Write a model as one line of strict JSON that :func:`load_model` reads back bit for bit."""
    center_sets: dict[bytes, int] = {}  # a center set's bytes -> its index
    layers = [
        {
            "bandwidth": layer.bandwidth,
            "tau2": layer.tau2,
            "centers": center_sets.setdefault(_bytes(layer.centers), len(center_sets)),
            "mu": _b64(_bytes(layer.mu)),
            "sigma2": _b64(_bytes(layer.sigma2)),
        }
        for layer in model.layers
    ]
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "family": model.family.tag,
        "config": dataclasses.asdict(model.config),
        "n_sites": model.n_sites,
        "n_covariates": model.n_covariates,
        "beta": [float(b) for b in model.beta],
        "initial_deviance": model.initial_deviance,
        "validation_deviance": model.validation_deviance,
        "center_sets": [_b64(raw) for raw in center_sets],
        "layers": layers,
        "loss_trace": [
            [None if isinstance(v, float) and not math.isfinite(v) else v for v in dataclasses.astuple(r)]
            for r in model.loss_trace
        ],
    }
    text = json.dumps(doc, allow_nan=False) + "\n"  # one line (json's C encoder), before the path opens
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _bytes(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, _F8).tobytes()


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _doubles(text, what: str, width: int) -> np.ndarray:
    """The doubles of a base64 string, ``width // 8`` to a row."""
    if not isinstance(text, str):
        raise ModelFormatError(f"{what} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ModelFormatError(f"{what} is not valid base64") from None
    if len(raw) % width:
        raise ModelFormatError(f"{what} holds {len(raw)} bytes, not a multiple of {width}")
    return np.frombuffer(raw, _F8).reshape(-1, width // 8)


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


def _layer_v1(entry: dict, index: int):
    """The arrays of a format-1 layer's rows flagged active; older files may hold rows flagged 0."""
    shape_error = "layer experts must be rows of [x, y, mu, sigma2, active]"
    try:
        experts = np.asarray(_require(entry, "experts", list), dtype=float)
    except (TypeError, ValueError):
        raise ModelFormatError(shape_error) from None
    if experts.ndim != 2 or experts.shape[1] != 5:
        raise ModelFormatError(shape_error)
    if not np.isin(experts[:, 4], (0.0, 1.0)).all():
        raise ModelFormatError("expert active flag must be 0 or 1")
    if not experts[:, 4].any():
        raise ModelFormatError(f"model layer {index} has no active expert")
    _power_one(entry.get("weight_power", 1), "layer weight_power")
    active = experts[experts[:, 4] != 0.0]
    return active[:, 0:2], active[:, 2], active[:, 3]


def _layer_v2(entry: dict, index: int, center_sets: list[np.ndarray]):
    """The arrays of a format-2 layer: the center set it indexes, its ``mu``
    and ``sigma2``; ``ScaleLayer`` checks that these hold one value per center."""
    j = _require(entry, "centers", None)
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < len(center_sets):
        raise ModelFormatError(f"model layer {index} centers must index center_sets, got {j!r}")
    mu, sigma2 = (_doubles(_require(entry, key, None), f"model layer {index} {key}", 8) for key in ("mu", "sigma2"))
    return center_sets[j], mu, sigma2


def _layers(doc: dict, version: int) -> list[ScaleLayer]:
    center_sets = None
    if version == 2:
        sets = enumerate(_require(doc, "center_sets", list))
        center_sets = [_doubles(text, f"center set {j}", 16) for j, text in sets]
    layers = []
    for index, entry in enumerate(_require(doc, "layers", list)):
        if not isinstance(entry, dict):
            raise ModelFormatError("model layer is not a JSON object")
        arrays = _layer_v1(entry, index) if center_sets is None else _layer_v2(entry, index, center_sets)
        bandwidth, tau2 = (_number(_require(entry, key, None), f"layer {key}") for key in ("bandwidth", "tau2"))
        try:
            layers.append(ScaleLayer(bandwidth, *arrays, tau2))
        except ValidationError as exc:
            raise ModelFormatError(f"model layer {index}: {exc}") from None
    return layers


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise ModelFormatError(f"model file missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ModelFormatError(f"model field {key!r} has unexpected type {type(value).__name__}")
    return value


def load_model(path) -> CfModel:
    """Read a model file; a schema fault raises :class:`ModelFormatError`.

    Each value is read with its JSON type; the :class:`CfModel` built from
    them checks the model's own invariants, and its ``ValidationError`` becomes
    a ``ModelFormatError`` here. A loaded model has no ``train_fitted``.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = _integer(_require(doc, "format_version", None), "format_version")
    if version not in (1, MODEL_FORMAT_VERSION):
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
    try:
        return CfModel(
            beta=[_number(b, "beta") for b in _require(doc, "beta", list)],
            layers=_layers(doc, version),
            family=family,
            loss_trace=[_trace_record(row) for row in _require(doc, "loss_trace", list)],
            config=config,
            initial_deviance=_number(_require(doc, "initial_deviance", None), "initial_deviance"),
            validation_deviance=_number(_require(doc, "validation_deviance", None), "validation_deviance"),
            n_sites=_integer(_require(doc, "n_sites", None), "n_sites"),
            n_covariates=_integer(_require(doc, "n_covariates", None), "n_covariates"),
        )
    except ValidationError as exc:
        raise ModelFormatError(str(exc)) from None


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
