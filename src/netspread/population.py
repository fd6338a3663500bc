"""Synthetic populations: feature schema, encoding, Gaussian statistics, sampling.

People live in a VertexTable: one integer column per schema field, one row
per person (`row(i)` gives a record dict, a mapping from field id to value).
VertexTable.encoded is the one encoder: it passes ordinal and binary fields
through unchanged and expands each categorical field into a one-hot
indicator block.  decode is the one decoder, from a matrix of encoded-space
rows back to a table of valid records.  Population statistics (mean vector
+ covariance matrix over the encoded space) drive multivariate-normal
sampling of whole vertex tables through decode.

Conventions fixed here and relied on elsewhere:
  * fit_stats uses the sample covariance (divisor n-1) plus a diagonal
    ridge of RIDGE, because one-hot blocks make the raw covariance singular;
  * Standardizer uses the population standard deviation (divisor n) and
    passes zero-variance columns through with scale 1;
  * round_half_up is the one rounding rule of the package (decoded and
    sampled ordinals, diffusion seed counts, generated contact counts);
  * decoding rounds ordinals half-up and clamps them to their declared
    range, thresholds binaries at 0.5, and takes argmax over each one-hot
    block.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

RIDGE = 1e-6

ORDINAL = "ordinal"
BINARY = "binary"
CATEGORICAL = "categorical"


class PopulationError(ValueError):
    pass


class SchemaError(PopulationError):
    pass


class InvalidCategoryError(PopulationError):
    pass


class TooFewRowsError(PopulationError):
    pass


class NotPSDError(PopulationError):
    """Covariance could not be factorized even after the ridge."""


class UnknownFieldError(PopulationError):
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
            raise SchemaError(f"field {self.id!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL and len(self.categories) < 2:
            raise SchemaError(f"field {self.id!r}: categorical needs >= 2 categories")
        if self.kind == ORDINAL and self.value_range[0] > self.value_range[1]:
            raise SchemaError(f"field {self.id!r}: empty value range")

    @property
    def width(self) -> int:
        return len(self.categories) if self.kind == CATEGORICAL else 1

    def validate(self, value: int) -> None:
        if self.kind == CATEGORICAL:
            if not 0 <= int(value) < len(self.categories):
                raise InvalidCategoryError(
                    f"field {self.id!r}: category index {value} outside "
                    f"[0, {len(self.categories)})"
                )
        elif self.kind == BINARY:
            if int(value) not in (0, 1):
                raise InvalidCategoryError(f"field {self.id!r}: binary value {value}")
        else:
            lo, hi = self.value_range
            if not lo <= int(value) <= hi:
                raise InvalidCategoryError(
                    f"field {self.id!r}: value {value} outside [{lo}, {hi}]"
                )


@dataclass(frozen=True)
class FeatureSchema:
    fields: tuple[Field, ...]

    def __post_init__(self):
        ids = [f.id for f in self.fields]
        if len(set(ids)) != len(ids):
            raise SchemaError("field ids must be unique")

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
        raise UnknownFieldError(f"no field {field_id!r} in schema")

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
    """Column-oriented table of person records conforming to one schema."""

    def __init__(self, schema: FeatureSchema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.field_ids):
            raise SchemaError("columns do not match schema field ids")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise SchemaError("columns have unequal lengths")
        self.schema = schema
        self.columns = {fid: np.asarray(columns[fid], dtype=int) for fid in schema.field_ids}
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
        records = list(records)
        columns = {
            f.id: np.array([r[f.id] for r in records], dtype=int) for f in schema.fields
        }
        table = cls(schema, columns)
        table.validate()
        return table

    def validate(self) -> None:
        for f in self.schema.fields:
            for value in np.unique(self.columns[f.id]):
                f.validate(int(value))

    def encoded(self) -> np.ndarray:
        """Row-encoded matrix (n, encoded_dim); cached, do not mutate."""
        if self._encoded is None:
            out = np.zeros((self.n, self.schema.encoded_dim))
            for f, pos in self.schema.offsets():
                col = self.columns[f.id]
                if f.kind == CATEGORICAL:
                    out[np.arange(self.n), pos + col] = 1.0
                else:
                    out[:, pos] = col
            self._encoded = out
        return self._encoded

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.schema.field_ids)
            for i in range(self.n):
                writer.writerow([int(self.columns[fid][i]) for fid in self.schema.field_ids])

    @classmethod
    def from_csv(cls, path, schema: FeatureSchema) -> "VertexTable":
        """Read a vertex CSV; empty cells are imputed with the column mode.

        Blank lines are skipped.  A row whose cell count differs from the
        header's, a cell that is not an integer and a value its field rejects
        are each a PopulationError naming the file, line and column.
        """
        rows = []  # parsed cells, None where empty
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header != schema.field_ids:
                raise SchemaError(f"{path}: CSV header {header} does not match schema")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise PopulationError(f"{path}, line {reader.line_num}: {len(row)} "
                                          f"cells, expected {len(header)}")
                parsed = []
                for col, (f, cell) in enumerate(zip(schema.fields, row), start=1):
                    try:
                        value = int(cell) if cell.strip() else None
                        if value is not None:
                            f.validate(value)
                    except ValueError as exc:  # also InvalidCategoryError
                        raise PopulationError(f"{path}, line {reader.line_num}, "
                                              f"column {col} ({f.id}): {exc}") from None
                    parsed.append(value)
                rows.append(parsed)
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


def decode(samples: np.ndarray, schema: FeatureSchema) -> VertexTable:
    """Map each row of a real matrix to the nearest valid record."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != schema.encoded_dim:
        raise SchemaError(
            f"samples have shape {samples.shape}, expected (n, {schema.encoded_dim})"
        )
    columns: dict[str, np.ndarray] = {}
    for f, pos in schema.offsets():
        block = samples[:, pos : pos + f.width]
        if f.kind == CATEGORICAL:
            columns[f.id] = np.argmax(block, axis=1).astype(int)
        elif f.kind == BINARY:
            columns[f.id] = (block[:, 0] >= 0.5).astype(int)
        else:
            lo, hi = f.value_range
            columns[f.id] = np.clip(round_half_up(block[:, 0]), lo, hi).astype(int)
    return VertexTable(schema, columns)


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
        if self.mean.shape != (d,) or self.covariance.shape != (d, d):
            raise SchemaError("stats dimensions do not match schema")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-9):
            raise PopulationError("covariance not symmetric within 1e-9")
        if np.any(np.diag(self.covariance) < 0):
            raise PopulationError("covariance has negative diagonal entries")

    def to_json(self, path) -> None:
        doc = {
            "schema": [_field_to_json(f) for f in self.schema.fields],
            "mean": self.mean.tolist(),
            "covariance": self.covariance.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "PopulationStats":
        """Read a stats file; a missing top-level key is a PopulationError naming it."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in ("schema", "mean", "covariance"):
            if not isinstance(doc, dict) or key not in doc:
                raise PopulationError(f"{path}: stats file has no {key!r} key")
        schema = FeatureSchema(tuple(_field_from_json(d) for d in doc["schema"]))
        return cls(
            schema=schema,
            mean=np.asarray(doc["mean"], dtype=float),
            covariance=np.asarray(doc["covariance"], dtype=float),
        )


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
    return Field(
        id=doc["id"],
        kind=doc["kind"],
        label=doc.get("label", ""),
        categories=tuple(doc.get("categories", ())),
        value_range=tuple(doc.get("range", (0, 1))),
    )


def fit_stats(table: VertexTable) -> PopulationStats:
    """Sample mean/covariance of the encoded rows, ridge added to the diagonal."""
    if table.n < 2:
        raise TooFewRowsError("need at least two rows to fit statistics")
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
            raise NotPSDError(
                f"covariance has negative eigenvalue {eigvals.min():.3e}"
            ) from None
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_population(
    stats: PopulationStats, n: int, rng: np.random.Generator
) -> VertexTable:
    """Draw n records from N(mean, covariance) and decode them to valid rows."""
    L = _factor(stats.covariance)
    z = rng.standard_normal((n, stats.schema.encoded_dim))
    return decode(stats.mean + z @ L.T, stats.schema)


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

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "stds": self.stds.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Standardizer":
        return cls(
            means=np.asarray(doc["means"], dtype=float),
            stds=np.asarray(doc["stds"], dtype=float),
        )
