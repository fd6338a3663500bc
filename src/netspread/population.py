"""Synthetic populations: feature schema, encoding, Gaussian statistics, sampling.

People live in a VertexTable: one integer column per schema field, each of
the schema's dtype, and one row per person (`row(i)` gives a record dict, a
mapping from field id to value).
VertexTable.encoded is the one encoder: it passes ordinal and binary fields
through unchanged and expands each categorical field into a one-hot
indicator block.  _decode_into is the one decoder, from encoded-space rows
back to columns of valid records.  Population statistics (mean vector +
covariance matrix over the encoded space) drive multivariate-normal
sampling of whole vertex tables, decoded through _decode_into.

Conventions fixed here and relied on elsewhere:
  * fit_stats uses the sample covariance (divisor n-1) plus a diagonal
    ridge of RIDGE, because one-hot blocks make the raw covariance singular;
  * Standardizer uses the population standard deviation (divisor n) and
    passes zero-variance columns through with scale 1;
  * round_half_up is the one rounding rule of the package (decoded and
    sampled ordinals, diffusion seed counts, generated contact counts);
  * decoding rounds ordinals half-up and clamps them to their declared
    range, thresholds binaries at 0.5, and takes argmax over each one-hot
    block;
  * read_int_csv, write_csv, write_json and read_json are the package's
    file formats; graph formats its edge-list and DOT exports itself and
    reads neither back.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass
from dataclasses import field as dataclass_field

import numpy as np

logger = logging.getLogger(__name__)

RIDGE = 1e-6
# Rows per block of sample_population's draw.
SAMPLE_BLOCK = 1024

ORDINAL = "ordinal"
BINARY = "binary"
CATEGORICAL = "categorical"


class PopulationError(ValueError):
    pass


@dataclass(frozen=True)
class Field:
    """One feature of a person record.

    kind is one of ordinal / binary / categorical.  Ordinals carry an
    inclusive (lo, hi) value range used when decoding Gaussian samples;
    categoricals carry their category names (values are stored as indices
    into that list).
    """

    id: str
    kind: str
    label: str = ""
    categories: tuple[str, ...] = ()
    value_range: tuple[int, int] = (0, 1)

    def __post_init__(self):
        if self.kind not in (ORDINAL, BINARY, CATEGORICAL):
            raise PopulationError(f"field {self.id!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL and len(self.categories) < 2:
            raise PopulationError(f"field {self.id!r}: categorical needs >= 2 categories")
        if self.kind == ORDINAL and self.value_range[0] > self.value_range[1]:
            raise PopulationError(f"field {self.id!r}: empty value range")

    @property
    def width(self) -> int:
        return len(self.categories) if self.kind == CATEGORICAL else 1

    def validate(self, value) -> int:
        """int(value), of a number or a CSV cell, if the field takes it, else a ValueError."""
        value = int(value)
        if self.kind == CATEGORICAL:
            if not 0 <= value < len(self.categories):
                raise PopulationError(
                    f"field {self.id!r}: category index {value} outside "
                    f"[0, {len(self.categories)})"
                )
        elif self.kind == BINARY:
            if value not in (0, 1):
                raise PopulationError(f"field {self.id!r}: binary value {value}")
        else:
            lo, hi = self.value_range
            if not lo <= value <= hi:
                raise PopulationError(
                    f"field {self.id!r}: value {value} outside [{lo}, {hi}]"
                )
        return value


@dataclass(frozen=True)
class FeatureSchema:
    """The fields of a person record, in column order.

    `dtype` is the one integer type of every VertexTable column of the
    schema: the smallest signed type that holds each categorical index
    0..k-1, binary 0..1 and every ordinal range (int8 for the shipped
    survey schema).  A range no int64 holds is a PopulationError.
    """

    fields: tuple[Field, ...]
    dtype: np.dtype = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [f.id for f in self.fields]
        if len(set(ids)) != len(ids):
            raise PopulationError("field ids must be unique")
        lo = min([0] + [f.value_range[0] for f in self.fields if f.kind == ORDINAL])
        hi = max([1] + [f.width - 1 if f.kind == CATEGORICAL else f.value_range[1]
                        for f in self.fields if f.kind != BINARY])
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
                object.__setattr__(self, "dtype", np.dtype(dtype))
                return
        raise PopulationError(f"field values span [{lo}, {hi}], wider than int64")

    @property
    def encoded_dim(self) -> int:
        return sum(f.width for f in self.fields)

    @property
    def field_ids(self) -> list[str]:
        return [f.id for f in self.fields]

    def field(self, field_id: str) -> Field:
        for f in self.fields:
            if f.id == field_id:
                return f
        raise PopulationError(f"no field {field_id!r} in schema")

    def offsets(self) -> list[tuple[Field, int]]:
        """(field, start column) pairs into the encoded space."""
        out, pos = [], 0
        for f in self.fields:
            out.append((f, pos))
            pos += f.width
        return out


def round_half_up(x):
    """Nearest integer with halves rounded up, elementwise on arrays.

    A scalar gives an int; an array gives integral floats, so callers clamp
    before casting.
    """
    rounded = np.floor(np.asarray(x, dtype=float) + 0.5)
    return int(rounded) if rounded.ndim == 0 else rounded


class VertexTable:
    """Column-oriented table of person records conforming to one schema.

    Every column has the schema's dtype, so a record cell takes 1 byte
    under the shipped schema.  A column of that dtype is kept as given;
    any other is read as int (so floats truncate) and narrowed, and a value
    the dtype cannot hold is a PopulationError, never a wrapped value.
    Whether each value is one its field takes is validate()'s check.
    """

    def __init__(self, schema: FeatureSchema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.field_ids):
            raise PopulationError("columns do not match schema field ids")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise PopulationError("columns have unequal lengths")
        self.schema = schema
        self.columns = {fid: _narrow(fid, columns[fid], schema.dtype) for fid in schema.field_ids}
        self._encoded: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def __len__(self) -> int:
        return self.n

    def row(self, i: int) -> dict:
        return {fid: int(col[i]) for fid, col in self.columns.items()}

    def take(self, index) -> "VertexTable":
        """The rows at `index`, in that order (repeats allowed)."""
        return VertexTable(self.schema, {fid: col[index] for fid, col in self.columns.items()})

    @classmethod
    def from_records(cls, schema: FeatureSchema, records) -> "VertexTable":
        """The table of `records`.  Each value is checked by its field before
        the columns are narrowed, so a value outside its field's range is
        named by that check, however wide it is."""
        records = list(records)
        columns = {
            f.id: np.array([r[f.id] for r in records], dtype=int) for f in schema.fields
        }
        _validate(schema, columns)
        return cls(schema, columns)

    def validate(self) -> None:
        _validate(self.schema, self.columns)

    def encoded(self) -> np.ndarray:
        """Row-encoded matrix (n, encoded_dim); cached, do not mutate."""
        if self._encoded is None:
            out = np.zeros((self.n, self.schema.encoded_dim))
            for f, pos in self.schema.offsets():
                col = self.columns[f.id]
                if f.kind == CATEGORICAL:  # indexed by block, as col + pos could wrap
                    out[:, pos : pos + f.width][np.arange(self.n), col] = 1.0
                else:
                    out[:, pos] = col
            self._encoded = out
        return self._encoded

    def to_csv(self, path) -> None:
        ids = self.schema.field_ids
        write_csv(path, ids, zip(*(self.columns[fid].tolist() for fid in ids)))

    @classmethod
    def from_csv(cls, path, schema: FeatureSchema) -> "VertexTable":
        """Read a vertex CSV by read_int_csv, as PopulationErrors; each cell
        must be a value of its field, and empty ones take the column mode."""
        def parsers(header):
            if header != schema.field_ids:
                raise PopulationError(f"{path}: CSV header {header} does not match schema")
            return [optional_cell(f.validate) for f in schema.fields]

        header, rows = read_int_csv(path, PopulationError, parsers)
        columns = {}
        for j, fid in enumerate(header):
            present = [row[j] for row in rows if row[j] is not None]
            mode = None
            if len(present) < len(rows):
                if not present:
                    raise PopulationError(f"{path}: column {fid!r} entirely missing")
                mode = _column_mode(present)
                logger.info(
                    "imputed %d missing values in %r with mode %d",
                    len(rows) - len(present), fid, mode,
                )
            columns[fid] = np.array(
                [mode if row[j] is None else row[j] for row in rows], dtype=int
            )
        return cls(schema, columns)


def _validate(schema: FeatureSchema, columns: dict) -> None:
    """Each field's check of its column's values, smallest value first."""
    for f in schema.fields:
        for value in sorted(set(columns[f.id].tolist())):
            f.validate(value)


def _narrow(fid: str, values, dtype: np.dtype) -> np.ndarray:
    """`values` as a `dtype` array: the array itself if it has that dtype."""
    column = np.asarray(values)
    if column.dtype == dtype:
        return column
    wide = np.asarray(column, dtype=int)
    column = wide.astype(dtype)
    if not np.array_equal(column, wide):
        raise PopulationError(
            f"field {fid!r}: value {wide[column != wide][0]} does not fit the "
            f"schema's {dtype} records"
        )
    return column


def read_int_csv(path, error, columns) -> tuple[list[str], list[list]]:
    """The header and parsed rows of a CSV, skipping blank lines.

    `columns(header)` checks the header and returns one parser per column,
    raising ValueError on a cell it rejects.  A short or long row is an
    `error` naming the file and line; a rejected cell's error adds its column.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        parsers = columns(header)
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise error(f"{path}, line {reader.line_num}: "
                            f"{len(row)} cells, expected {len(header)}")
            parsed = []
            for col, (name, parse, cell) in enumerate(zip(header, parsers, row), start=1):
                try:
                    parsed.append(parse(cell))
                except ValueError as exc:
                    raise error(f"{path}, line {reader.line_num}, column {col} "
                                f"({name}): {exc}") from None
            rows.append(parsed)
    return header, rows


def write_csv(path, header, rows) -> None:
    """The one CSV writer: CRLF line ends, and a float as str writes it, which
    for a Python float is its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """The one JSON writer: the bytes of json.dump(doc, indent=1,
    sort_keys=True) and a final newline, written by _JsonEncoder.  A 1-D
    numpy array in doc is written as its tolist(), so a caller need not
    convert its arrays first; keys must be str (a TypeError otherwise)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, cls=_JsonEncoder)
        fh.write("\n")


# Distinct float texts one document keeps.  A model file holds a few hundred
# distinct values (standardized integer codes, at most a dozen per column);
# past the cap a value is formatted each time it occurs.
_FLOAT_TEXTS = 1024
_INF = float("inf")


class _JsonEncoder(json.JSONEncoder):
    """json's indent-1, sorted-key text in fewer, larger chunks.

    json's own encoder falls back to pure Python under indent and formats
    every float with float.__repr__.  Here a list of plain floats is one
    chunk, and each distinct nonzero value's text is computed once per
    document (0.0 and -0.0 are one dict key, so zeros are formatted each
    time); a list of plain ints is one chunk too.  NaN and +-inf are spelled
    as json spells them, and strings are json's ASCII-escaped text.
    """

    def iterencode(self, o, _one_shot=False):
        texts = {}
        get = texts.get
        esc = json.encoder.encode_basestring_ascii

        def float_text(x):
            if x != x:
                return "NaN"
            text = ("Infinity" if x == _INF else "-Infinity" if x == -_INF
                    else float.__repr__(x))
            if x and len(texts) < _FLOAT_TEXTS:
                texts[x] = text
            return text

        def scalar(o):
            """The text of a JSON scalar; None for anything else."""
            if isinstance(o, str):
                return esc(o)
            if isinstance(o, float):
                return get(o) or float_text(o)
            if o is None:
                return "null"
            if o is True:
                return "true"
            if o is False:
                return "false"
            if isinstance(o, int):
                return int.__repr__(o)
            return None

        def chunks(o, pad):
            """The text of container o, whose closing bracket follows pad."""
            if isinstance(o, np.ndarray) and o.ndim == 1:
                o = o.tolist()
            inner = pad + " "
            if isinstance(o, dict):  # esc raises the TypeError for a key that is not str
                brackets, items = "{}", [(esc(k) + ": ", v) for k, v in sorted(o.items())]
            elif isinstance(o, (list, tuple)):
                kinds = set(map(type, o))
                if kinds == {float}:
                    yield "[" + inner + ("," + inner).join(
                        [get(x) or float_text(x) for x in o]) + pad + "]"
                    return
                if kinds == {int}:
                    yield "[" + inner + ("," + inner).join(map(int.__repr__, o)) + pad + "]"
                    return
                brackets, items = "[]", [("", v) for v in o]
            else:
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
            if not items:
                yield brackets
                return
            sep = brackets[0] + inner
            for head, value in items:
                text = scalar(value)
                if text is None:
                    yield sep + head
                    yield from chunks(value, inner)
                else:
                    yield sep + head + text
                sep = "," + inner
            yield pad + brackets[1]

        text = scalar(o)
        return iter((text,)) if text is not None else chunks(o, "\n")


def read_json(path, error):
    """The JSON document in a file.  A missing or unreadable file and text
    that is not JSON are an `error(message)` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"no such file: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"{path}: not valid JSON: {exc}") from None


def optional_cell(parse):
    """A cell parser that reads an empty cell as None and any other by `parse`."""
    return lambda cell: parse(cell) if cell.strip() else None


def _decode_into(samples: np.ndarray, schema: FeatureSchema, columns: dict) -> None:
    """The one decoder: write the nearest valid record of each row of the
    encoded-space matrix `samples` into `columns`, one integer array per
    field id, as long as `samples`."""
    for f, pos in schema.offsets():
        block = samples[:, pos : pos + f.width]
        column = columns[f.id]
        if f.kind == CATEGORICAL:
            np.argmax(block, axis=1, out=column)
        elif f.kind == BINARY:
            column[:] = block[:, 0] >= 0.5
        else:
            lo, hi = f.value_range
            column[:] = np.clip(round_half_up(block[:, 0]), lo, hi)


def _column_mode(values) -> int:
    """Most frequent value; ties broken toward the smallest value."""
    counts = Counter(values)
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


@dataclass(frozen=True)
class PopulationStats:
    """Mean vector and covariance matrix over the encoded record space."""

    schema: FeatureSchema
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        d = self.schema.encoded_dim
        for key, shape in (("mean", (d,)), ("covariance", (d, d))):
            value = getattr(self, key)
            if value.shape != shape:
                raise PopulationError(
                    f"{key}: shape {value.shape} does not fit the schema's "
                    f"encoded width {d}, which needs {shape}"
                )
            if not np.isfinite(value).all():
                raise PopulationError(f"{key}: holds NaN or an infinity")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-9):
            raise PopulationError("covariance not symmetric within 1e-9")
        if np.any(np.diag(self.covariance) < 0):
            raise PopulationError("covariance has negative diagonal entries")

    def to_json(self, path) -> None:
        write_json(path, {
            "schema": [_field_to_json(f) for f in self.schema.fields],
            "mean": self.mean.tolist(),
            "covariance": self.covariance.tolist(),
        })

    @classmethod
    def from_json(cls, path) -> "PopulationStats":
        """Read a stats file.  Each fault in it is a PopulationError naming the
        file and, below the top level, the key: invalid JSON, a missing
        top-level key, a schema entry that is not an object or lacks `id` or
        `kind`, and a mean or covariance whose shape does not fit the
        schema's encoded width or that holds NaN or an infinity
        (`stats.json: schema[0]: missing 'id'`)."""
        doc = read_json(path, PopulationError)
        try:
            return cls._from_doc(doc)
        except PopulationError as exc:
            raise PopulationError(f"{path}: {exc}") from None

    @classmethod
    def _from_doc(cls, doc) -> "PopulationStats":
        for key in ("schema", "mean", "covariance"):
            if not isinstance(doc, dict) or key not in doc:
                raise PopulationError(f"stats file has no {key!r} key")
        if not isinstance(doc["schema"], list):
            raise PopulationError("schema: must be a list")
        fields = []
        for i, entry in enumerate(doc["schema"]):
            if not isinstance(entry, dict):
                raise PopulationError(f"schema[{i}]: must be an object")
            for key in ("id", "kind"):
                if key not in entry:
                    raise PopulationError(f"schema[{i}]: missing {key!r}")
            try:
                fields.append(_field_from_json(entry))
            except PopulationError as exc:
                raise PopulationError(f"schema[{i}]: {exc}") from None
        arrays = {}
        for key in ("mean", "covariance"):
            try:
                arrays[key] = np.asarray(doc[key], dtype=float)
            except (TypeError, ValueError):
                raise PopulationError(f"{key}: not a numeric array") from None
        return cls(schema=FeatureSchema(tuple(fields)), **arrays)


def _field_to_json(f: Field) -> dict:
    doc: dict = {"id": f.id, "kind": f.kind}
    if f.label:
        doc["label"] = f.label
    if f.kind == CATEGORICAL:
        doc["categories"] = list(f.categories)
    if f.kind == ORDINAL:
        doc["range"] = list(f.value_range)
    return doc


def _field_from_json(doc: dict) -> Field:
    value_range = doc.get("range", [0, 1])
    if not (isinstance(value_range, list) and [type(v) for v in value_range] == [int, int]):
        raise PopulationError(
            f"field {doc['id']!r}: range must be two integers, got {value_range!r}"
        )
    return Field(
        id=doc["id"],
        kind=doc["kind"],
        label=doc.get("label", ""),
        categories=tuple(doc.get("categories", ())),
        value_range=tuple(value_range),
    )


def fit_stats(table: VertexTable) -> PopulationStats:
    """Sample mean/covariance of the encoded rows, ridge added to the diagonal."""
    if table.n < 2:
        raise PopulationError("need at least two rows to fit statistics")
    enc = table.encoded()
    mean = enc.mean(axis=0)
    centered = enc - mean
    cov = centered.T @ centered / (table.n - 1)
    cov = (cov + cov.T) / 2.0
    cov += RIDGE * np.eye(table.schema.encoded_dim)
    return PopulationStats(schema=table.schema, mean=mean, covariance=cov)


def _factor(covariance: np.ndarray) -> np.ndarray:
    """Matrix L with L @ L.T == covariance, Cholesky with eigh fallback."""
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(covariance)
        floor = -1e-8 * max(1.0, float(eigvals.max()))
        if eigvals.min() < floor:
            raise PopulationError(
                f"covariance has negative eigenvalue {eigvals.min():.3e}"
            ) from None
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_population(
    stats: PopulationStats, n: int, rng: np.random.Generator
) -> VertexTable:
    """Draw n records from N(mean, covariance) and decode them to valid rows
    through _decode_into.

    mean + z @ L.T is drawn, formed and decoded SAMPLE_BLOCK rows at a time
    into the table's columns, so two block-sized float arrays are held, not
    two n x d ones.  The bits are those of the one n x d expression: the
    normals are drawn in the same order, the mean is added in place (IEEE
    addition commutes), and a row of a block's product has the bits it has
    in the whole product, except in a one-row block, which BLAS forms as a
    matrix-vector product; so a one-row tail joins the block before it.
    """
    L = _factor(stats.covariance)
    schema = stats.schema
    columns = {fid: np.empty(n, dtype=schema.dtype) for fid in schema.field_ids}
    stops = list(range(SAMPLE_BLOCK, n, SAMPLE_BLOCK))
    if stops and n - stops[-1] == 1:
        stops.pop()
    for start, stop in zip([0] + stops, stops + [n]):
        y = rng.standard_normal((stop - start, schema.encoded_dim)) @ L.T
        y += stats.mean
        _decode_into(y, schema, {fid: column[start:stop] for fid, column in columns.items()})
    return VertexTable(schema, columns)


@dataclass(frozen=True)
class Standardizer:
    """Column-wise (x - mean) / std map fitted on a training matrix.

    Uses the population standard deviation (divisor n); zero-variance
    columns keep scale 1 so they pass through unchanged.
    """

    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        means = X.mean(axis=0)
        stds = X.std(axis=0)
        stds = np.where(stds == 0.0, 1.0, stds)
        return cls(means=means, stds=stds)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return (X - self.means) / self.stds

    def columns(self, cols: slice) -> "Standardizer":
        """The same map restricted to a slice of columns."""
        return Standardizer(means=self.means[cols], stds=self.stds[cols])
