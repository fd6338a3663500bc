"""Building the labeled pair dataset: homophile sets, generated non-receivers
and completion of partially observed contacts.

Every training mode yields a PairSet: pair i is row i of a senders and a
receivers VertexTable, with label +1 (transmission) or -1.  Pools are
VertexTables and a person is a row index into its pool; sampling draws pool
rows by index, in pool order, from an explicit numpy Generator, so whole
builds replay exactly under a fixed seed.  A reported receiver is a partial
record dict (the fields the ego observed), completed from a pool donor.
"""

from __future__ import annotations

import logging

import numpy as np

from .population import (
    FeatureSchema, VertexTable, optional_cell, read_int_csv, round_half_up, write_csv,
)

logger = logging.getLogger(__name__)

POSITIVE = 1
NEGATIVE = -1

# Completion matches on these fields, relaxed from the right when no
# candidate matches all of them.
MATCH_FIELDS = ("gender", "age_band", "education")


class CompletionError(ValueError):
    pass


def _pair_header(schema: FeatureSchema) -> list[str]:
    ids = schema.field_ids
    return [f"sender_{f}" for f in ids] + [f"receiver_{f}" for f in ids] + ["label"]


class PairSet:
    """Labeled (sender, receiver) pairs: pair i is row i of both tables."""

    def __init__(self, senders: VertexTable, receivers: VertexTable, labels):
        self.senders, self.receivers = senders, receivers
        self.labels = np.asarray(labels, dtype=int)
        if not len(senders) == len(receivers) == len(self.labels):
            raise CompletionError("senders, receivers and labels differ in length")
        bad = self.labels[np.abs(self.labels) != 1]
        if len(bad):
            raise CompletionError(f"label must be +1 or -1, got {bad[0]}")

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, index) -> "PairSet":
        """The pairs at `index`, in that order."""
        return PairSet(self.senders.take(index), self.receivers.take(index), self.labels[index])

    def matrix(self) -> np.ndarray:
        """Pair rows: sender encoding ++ receiver encoding."""
        return np.hstack([self.senders.encoded(), self.receivers.encoded()])

    def to_csv(self, path) -> None:
        """Pair dataset CSV: sender columns, receiver columns, label."""
        ids = self.senders.schema.field_ids
        cells = [t.columns[f] for t in (self.senders, self.receivers) for f in ids]
        write_csv(path, _pair_header(self.senders.schema),
                  np.column_stack(cells + [self.labels]).tolist())

    @classmethod
    def from_csv(cls, path, schema: FeatureSchema) -> "PairSet":
        """Read a pair CSV by read_int_csv, as CompletionErrors; labels are +1 or -1."""
        def parsers(header):
            if header != _pair_header(schema):
                raise CompletionError(f"pair CSV header does not match schema in {path}")
            return [f.validate for f in schema.fields] * 2 + [_label]

        _, rows = read_int_csv(path, CompletionError, parsers)
        cells = np.array(rows, dtype=int).reshape(-1, 2 * len(schema.fields) + 1)
        tables = [
            VertexTable(schema, dict(zip(schema.field_ids, block.T)))
            for block in np.split(cells[:, :-1], 2, axis=1)
        ]
        return cls(*tables, cells[:, -1])


def _label(cell: str) -> int:
    label = int(cell)
    if abs(label) != 1:
        raise CompletionError(f"label must be +1 or -1, got {label}")
    return label


def read_alters_csv(path, schema: FeatureSchema, n_egos: int) -> list[list[dict]]:
    """Reported receivers per ego, as partial records, from an alters CSV.

    The header holds `ego`, a row index into the egos table, and any of the
    schema fields; an empty cell is a field the ego did not observe.  Read
    by read_int_csv, as CompletionErrors; an unknown or repeated column and
    an ego outside [0, n_egos) are errors too.
    """
    def ego(cell: str) -> int:
        value = int(cell)
        if not 0 <= value < n_egos:
            raise CompletionError(f"ego {value} outside [0, {n_egos})")
        return value

    def parsers(header):
        for col, name in enumerate(header, start=1):
            if name != "ego" and name not in schema.field_ids:
                raise CompletionError(f"{path}, line 1, column {col}: {name!r} is "
                                      "neither 'ego' nor a schema field")
            if name in header[: col - 1]:
                raise CompletionError(f"{path}, line 1, column {col}: {name!r} "
                                      "named twice")
        if "ego" not in header:
            raise CompletionError(f"{path}, line 1: no 'ego' column")
        return [ego if name == "ego" else optional_cell(schema.field(name).validate)
                for name in header]

    header, rows = read_int_csv(path, CompletionError, parsers)
    listed: list[list[dict]] = [[] for _ in range(n_egos)]
    for row in rows:
        partial = {name: value for name, value in zip(header, row) if value is not None}
        listed[partial.pop("ego")].append(partial)
    return listed


def homophile_split(i: int, pool: VertexTable, criteria) -> tuple[np.ndarray, np.ndarray]:
    """Rows of pool (minus row i itself) that are homophiles of row i, and the rest.

    A row is a homophile when it equals row i on every criteria field, so a
    distinct row with identical fields still counts.
    """
    criteria = list(criteria)
    if not criteria:
        raise CompletionError("criteria must name at least one field")
    similar = np.ones(pool.n, dtype=bool)
    for f in criteria:
        similar &= pool.columns[f] == pool.columns[f][i]
    others = np.flatnonzero(~similar)
    similar[i] = False
    return np.flatnonzero(similar), others


def _draw(source: np.ndarray, count: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    """Draw `count` rows, without replacement when the source allows it."""
    if count == 0:
        return source[:0]
    replace = len(source) < count
    if replace:
        logger.info(
            "drawing %d from %d %s members with replacement", count, len(source), kind
        )
    return source[rng.choice(len(source), size=count, replace=replace)]


def generate_non_receivers(
    i: int,
    pool: VertexTable,
    criteria,
    h: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rows of `count` contacts of pool row i, a fraction h of them homophiles.

    round_half_up(h * count) come from the homophile set and the remainder
    from its complement.  If one side is empty its share is drawn from the
    other (logged); if both are empty and count > 0 this fails.
    """
    if not 0.0 <= h <= 1.0:
        raise CompletionError("h must lie in [0, 1]")
    if count < 0:
        raise CompletionError("count must be non-negative")
    if count == 0:
        return np.zeros(0, dtype=int)
    similar, dissimilar = homophile_split(i, pool, criteria)
    if not len(similar) and not len(dissimilar):
        raise CompletionError("both homophile and non-homophile sets are empty")
    n_similar = round_half_up(h * count)
    n_dissimilar = count - n_similar
    if not len(similar) and n_similar:
        logger.info("homophile set empty; drawing all %d from the complement", count)
        n_similar, n_dissimilar = 0, count
    elif not len(dissimilar) and n_dissimilar:
        logger.info("non-homophile set empty; drawing all %d from homophiles", count)
        n_similar, n_dissimilar = count, 0
    return np.concatenate([
        _draw(similar, n_similar, rng, "homophile"),
        _draw(dissimilar, n_dissimilar, rng, "non-homophile"),
    ])


def complete_alter(
    partial: dict,
    pool: VertexTable,
    rng: np.random.Generator,
) -> dict:
    """Fill a partially observed record from a matching pool row.

    Candidates must equal the partial record on every match field; when
    none do, the criteria are relaxed one field at a time from the right
    (education first, then the age band).  The donor supplies only the
    unobserved fields, so observed values are never overwritten and a fully
    observed record is returned unchanged.
    """
    if all(f in partial for f in pool.schema.field_ids):
        return dict(partial)
    missing = [f for f in MATCH_FIELDS if f not in partial]
    if missing:
        raise CompletionError(f"partial record lacks match fields {missing}")
    for level in range(len(MATCH_FIELDS), 0, -1):
        crit = MATCH_FIELDS[:level]
        match = np.ones(pool.n, dtype=bool)
        for f in crit:
            match &= pool.columns[f] == partial[f]
        candidates = np.flatnonzero(match)
        if len(candidates):
            if level < len(MATCH_FIELDS):
                logger.info(
                    "completion relaxed match to %s for partial %s", crit, sorted(partial)
                )
            donor = pool.row(int(candidates[rng.integers(len(candidates))]))
            return {**donor, **partial}
    raise CompletionError(
        f"no pool member matches even {MATCH_FIELDS[:1]} for the partial record"
    )


def build_training_set(
    egos: VertexTable,
    listed_alters,
    alter_pool: VertexTable,
    criteria,
    contact_fields,
    h: float,
    rng: np.random.Generator,
) -> PairSet:
    """Assemble labeled pairs: reported receivers +1, generated contacts -1.

    `listed_alters[i]` holds the (possibly partial) records of the people
    ego i reported transmitting to; each is completed against alter_pool.
    The number of generated non-receivers per ego is the rounded sum of its
    weekly contact-count fields, drawn from the egos table itself.  Each
    ego's pairs follow its row, positives first.
    """
    if len(listed_alters) != egos.n:
        raise CompletionError("listed_alters must align with egos")
    senders: list[int] = []
    receivers: list[int] = []  # rows of egos, then rows of the completed alters
    completed: list[dict] = []
    for i, reported in enumerate(listed_alters):
        for partial in reported:
            completed.append(complete_alter(partial, alter_pool, rng))
            senders.append(i)
            receivers.append(egos.n + len(completed) - 1)
        count = round_half_up(sum(float(egos.columns[f][i]) for f in contact_fields))
        drawn = generate_non_receivers(i, egos, criteria, h, count, rng)
        senders += [i] * len(drawn)
        receivers += drawn.tolist()
    alters = VertexTable.from_records(egos.schema, completed)
    stacked = VertexTable(egos.schema, {
        fid: np.concatenate([col, alters.columns[fid]]) for fid, col in egos.columns.items()
    })
    labels = np.where(np.array(receivers, dtype=int) >= egos.n, POSITIVE, NEGATIVE)
    n_pos = int(np.sum(labels == POSITIVE))
    logger.info(
        "training set: %d pairs (%d positive, %d negative)",
        len(labels), n_pos, len(labels) - n_pos,
    )
    return PairSet(egos.take(senders), stacked.take(receivers), labels)
