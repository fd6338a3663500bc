"""Building the labeled pair dataset: homophile sets, generated non-receivers
and completion of partially observed contacts.

Pools are plain lists of record dicts.  Every sampling operation takes an
explicit numpy Generator so whole builds replay exactly under a fixed seed.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .population import FeatureSchema, encode, round_half_up

logger = logging.getLogger(__name__)

POSITIVE = 1
NEGATIVE = -1

# Completion matches on these fields, relaxed from the right when no
# candidate matches all of them.
DEFAULT_MATCH_FIELDS = ("gender", "age_band", "education")


class CompletionError(ValueError):
    pass


class EmptyPoolError(CompletionError):
    pass


class NoMatchError(CompletionError):
    pass


@dataclass(frozen=True)
class LabeledPair:
    """A (sender, receiver) record pair with transmission label +1 / -1."""

    sender: dict
    receiver: dict
    label: int

    def __post_init__(self):
        if self.label not in (POSITIVE, NEGATIVE):
            raise CompletionError(f"label must be +1 or -1, got {self.label}")


def homophile_split(person: dict, pool, criteria) -> tuple[list[dict], list[dict]]:
    """Split pool (minus the person itself) into homophiles and the rest.

    A pool member is a homophile when it equals `person` on every criteria
    field.  The person is excluded by identity, so a distinct member with
    identical fields still counts.
    """
    criteria = list(criteria)
    if not criteria:
        raise CompletionError("criteria must name at least one field")
    matches, others = [], []
    for member in pool:
        if member is person:
            continue
        if all(member[f] == person[f] for f in criteria):
            matches.append(member)
        else:
            others.append(member)
    return matches, others


def _draw(source: list[dict], count: int, rng: np.random.Generator, kind: str):
    """Draw `count` members, without replacement when the source allows it."""
    if count == 0:
        return []
    replace = len(source) < count
    if replace:
        logger.info(
            "drawing %d from %d %s members with replacement", count, len(source), kind
        )
    idx = rng.choice(len(source), size=count, replace=replace)
    return [source[int(i)] for i in idx]


def generate_non_receivers(
    person: dict,
    pool,
    criteria,
    h: float,
    count: int,
    rng: np.random.Generator,
) -> list[dict]:
    """Sample `count` contacts, a fraction h of them homophiles of `person`.

    round_half_up(h * count) come from the homophile set and the remainder
    from its complement.  If one side is empty its share is drawn from the
    other (logged); if both are empty and count > 0 this fails.
    """
    if not 0.0 <= h <= 1.0:
        raise CompletionError("h must lie in [0, 1]")
    if count < 0:
        raise CompletionError("count must be non-negative")
    if count == 0:
        return []
    similar, dissimilar = homophile_split(person, pool, criteria)
    if not similar and not dissimilar:
        raise EmptyPoolError("both homophile and non-homophile sets are empty")
    n_similar = round_half_up(h * count)
    n_dissimilar = count - n_similar
    if not similar and n_similar:
        logger.info("homophile set empty; drawing all %d from the complement", count)
        n_similar, n_dissimilar = 0, count
    elif not dissimilar and n_dissimilar:
        logger.info("non-homophile set empty; drawing all %d from homophiles", count)
        n_similar, n_dissimilar = count, 0
    out = _draw(similar, n_similar, rng, "homophile")
    out += _draw(dissimilar, n_dissimilar, rng, "non-homophile")
    return out


def complete_alter(
    partial: dict,
    alter_pool,
    rng: np.random.Generator,
    match_fields=DEFAULT_MATCH_FIELDS,
    schema: FeatureSchema | None = None,
) -> dict:
    """Fill a partially observed record from a matching pool member.

    Candidates must equal the partial record on every match field; when
    none do, the criteria are relaxed one field at a time from the right
    (education first, then the age band).  The donor supplies only the
    unobserved fields, so observed values are never overwritten and a fully
    observed record is returned unchanged.
    """
    if schema is not None:
        all_fields = schema.field_ids
    elif alter_pool:
        all_fields = list(alter_pool[0].keys())
    else:
        all_fields = list(partial.keys())
    if all(f in partial for f in all_fields):
        return dict(partial)
    missing = [f for f in match_fields if f not in partial]
    if missing:
        raise CompletionError(f"partial record lacks match fields {missing}")
    for level in range(len(match_fields), 0, -1):
        crit = match_fields[:level]
        candidates = [d for d in alter_pool if all(d[f] == partial[f] for f in crit)]
        if candidates:
            if level < len(match_fields):
                logger.info(
                    "completion relaxed match to %s for partial %s", crit, sorted(partial)
                )
            donor = candidates[int(rng.integers(len(candidates)))]
            return {**donor, **partial}
    raise NoMatchError(
        f"no pool member matches even {match_fields[:1]} for the partial record"
    )


def build_training_set(
    egos,
    listed_alters,
    alter_pool,
    criteria,
    contact_fields,
    h: float,
    rng: np.random.Generator,
    match_fields=DEFAULT_MATCH_FIELDS,
    schema: FeatureSchema | None = None,
) -> list[LabeledPair]:
    """Assemble labeled pairs: reported receivers +1, generated contacts -1.

    `listed_alters[i]` holds the (possibly partial) records of the people
    ego i reported transmitting to; each is completed against alter_pool.
    The number of generated non-receivers per ego is the rounded sum of its
    weekly contact-count fields, drawn from the ego pool itself.
    """
    egos = list(egos)
    if len(listed_alters) != len(egos):
        raise CompletionError("listed_alters must align with egos")
    pairs: list[LabeledPair] = []
    n_pos = n_neg = 0
    for ego, reported in zip(egos, listed_alters):
        for partial in reported:
            receiver = complete_alter(
                partial, alter_pool, rng, match_fields=match_fields, schema=schema
            )
            pairs.append(LabeledPair(sender=dict(ego), receiver=receiver, label=POSITIVE))
            n_pos += 1
        count = round_half_up(sum(float(ego[f]) for f in contact_fields))
        for contact in generate_non_receivers(ego, egos, criteria, h, count, rng):
            pairs.append(
                LabeledPair(sender=dict(ego), receiver=dict(contact), label=NEGATIVE)
            )
            n_neg += 1
    logger.info(
        "training set: %d pairs (%d positive, %d negative)", len(pairs), n_pos, n_neg
    )
    return pairs


def pairs_to_arrays(pairs, schema: FeatureSchema) -> tuple[np.ndarray, np.ndarray]:
    """Encode pairs into (X, y): each row is sender-encoding ++ receiver-encoding."""
    pairs = list(pairs)
    X = np.zeros((len(pairs), 2 * schema.encoded_dim))
    y = np.zeros(len(pairs), dtype=int)
    for i, pair in enumerate(pairs):
        X[i, : schema.encoded_dim] = encode(pair.sender, schema)
        X[i, schema.encoded_dim :] = encode(pair.receiver, schema)
        y[i] = pair.label
    return X, y


def write_pairs_csv(pairs, schema: FeatureSchema, path) -> None:
    """Pair dataset CSV: sender columns, receiver columns, label."""
    header = (
        [f"sender_{fid}" for fid in schema.field_ids]
        + [f"receiver_{fid}" for fid in schema.field_ids]
        + ["label"]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pair in pairs:
            row = [int(pair.sender[fid]) for fid in schema.field_ids]
            row += [int(pair.receiver[fid]) for fid in schema.field_ids]
            row.append(pair.label)
            writer.writerow(row)


def read_pairs_csv(path, schema: FeatureSchema) -> list[LabeledPair]:
    expected = (
        [f"sender_{fid}" for fid in schema.field_ids]
        + [f"receiver_{fid}" for fid in schema.field_ids]
        + ["label"]
    )
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != expected:
            raise CompletionError(f"pair CSV header does not match schema in {path}")
        d = len(schema.field_ids)
        pairs = []
        for row in reader:
            sender = {fid: int(v) for fid, v in zip(schema.field_ids, row[:d])}
            receiver = {fid: int(v) for fid, v in zip(schema.field_ids, row[d : 2 * d])}
            pairs.append(LabeledPair(sender=sender, receiver=receiver, label=int(row[2 * d])))
    return pairs
