"""Synchronous information diffusion over a graph of synthetic people.

A random seed set starts informed.  Each iteration asks the transmission
model for a prediction along every edge from a vertex informed in the
previous iteration (the seeds, in iteration 1) to a still uninformed
vertex, and marks receivers with at least one positive prediction.  This
equals scanning every edge with exactly one informed endpoint: models are
deterministic per (sender, receiver) pair, and an edge from an earlier
informed vertex to a still uninformed one was scored when its sender was
new and came out negative, so scoring it again cannot inform anyone.
A step reads the edges of the frontier or of the uninformed vertices,
whichever are fewer: early steps scan from the few new senders, late ones
from the few vertices still uninformed.  Both scans find the same pairs and
sort them by (sender, receiver), so the model gets the same calls either
way.  Exactly one transmission is logged per new receiver, attributed to
its smallest-id positive-predicting informed neighbor, so the log forms a
forest of transmission trees.

Metrics over the log:
  * avg_hops: transmissions divided by the number of seed vertices that
    sent at least one logged transmission ("original senders");
  * fanout: distinct receivers divided by distinct senders.
Both are zero when their denominator is zero.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .graph import Graph
from .population import VertexTable, read_int_csv, read_json, round_half_up, write_csv, write_json

LogEntry = tuple[int, int, int]  # (iteration, sender, receiver)
LOG_CSV, SUMMARY_JSON = "log.csv", "summary.json"  # the files of a written run


class DiffusionError(ValueError):
    pass


class TransmissionModel(Protocol):
    """The one method diffusion asks of a transmission model."""

    def predict_pairs(self, table: VertexTable, senders, receivers) -> np.ndarray:
        """+1 / -1 for each (senders[i], receivers[i]) pair of table rows.

        Must be deterministic per (sender, receiver) pair: a pair is scored
        once, when its sender is newly informed, and a later call is assumed
        to give the same label.
        """


@dataclass(frozen=True)
class DiffusionConfig:
    """initial_fraction of vertices seeded, iterations of synchronous spread."""

    initial_fraction: float
    iterations: int

    def __post_init__(self):
        if not 0.0 < self.initial_fraction <= 1.0:
            raise DiffusionError("initial_fraction must lie in (0, 1]")
        if self.iterations < 1:
            raise DiffusionError("iterations must be >= 1")


@dataclass(frozen=True)
class DiffusionResult:
    seeds: tuple[int, ...]
    coverage: tuple[float, ...]  # informed proportion after iteration 0..m
    avg_hops: float
    fanout: float
    log: tuple[LogEntry, ...]
    wave: dict[int, int]  # informed vertex -> iteration it was informed (seeds: 0)

    @property
    def iterations(self) -> int:
        return len(self.coverage) - 1

    def new_by_iteration(self) -> list[int]:
        """Count of newly informed vertices per iteration 1..m."""
        counts = [0] * self.iterations
        for it, _, _ in self.log:
            counts[it - 1] += 1
        return counts


def seed_information(graph: Graph, fraction: float, rng: np.random.Generator) -> list[int]:
    """Uniformly draw max(1, round(fraction * n)) seed vertices, sorted."""
    if not 0.0 < fraction <= 1.0:
        raise DiffusionError("fraction must lie in (0, 1]")
    if graph.n == 0:
        raise DiffusionError("graph has no vertices")
    count = max(1, round_half_up(fraction * graph.n))
    chosen = rng.choice(graph.n, size=count, replace=False)
    return sorted(int(v) for v in chosen)


def diffusion_step(
    graph: Graph,
    table: VertexTable,
    informed: set[int],
    model: TransmissionModel,
    iteration: int,
    frontier: set[int],
) -> tuple[set[int], list[LogEntry]]:
    """One synchronous step: predictions use `informed` frozen at entry.

    Senders are the vertices of `frontier`, a subset of `informed`;
    `run_diffusion` passes the vertices informed in the previous step, and
    passing all of `informed` gives the full scan.  The model scores every
    edge from a sender to a vertex outside `informed`, in arrays sorted by
    sender, then receiver.  `Graph.edges_between` finds them in the rows of
    the frontier or of the uninformed vertices, whichever hold fewer edges
    (in a late step most of the frontier's edges lead to informed
    vertices); the edges and their order are the same either way.
    Senders are informed and receivers are not, so the two arrays share no
    vertex and their unique senders plus unique receivers number at most
    graph.n.
    Returns the set of vertices informed during this step and their log
    entries (sorted by receiver id).  Edges with both endpoints informed
    are skipped; vertices informed within the step do not transmit.
    """
    known = np.zeros(graph.n, dtype=bool)
    known[list(informed)] = True
    senders, receivers = graph.edges_between(sorted(frontier), np.flatnonzero(~known))
    if not len(senders):
        return set(), []
    positive = np.asarray(model.predict_pairs(table, senders, receivers)) > 0
    # senders ascend, so a receiver's first positive pair has its smallest sender
    informed_now, first = np.unique(receivers[positive], return_index=True)
    informed_now, sources = informed_now.tolist(), senders[positive][first].tolist()
    return set(informed_now), [(iteration, s, r) for s, r in zip(sources, informed_now)]


def compute_metrics(log, seeds) -> tuple[float, float]:
    """(avg_hops, fanout) from a transmission log; zero on empty denominators."""
    log = list(log)
    if not log:
        return 0.0, 0.0
    senders = {s for _, s, _ in log}
    receivers = {r for _, _, r in log}
    originals = senders & set(seeds)
    avg_hops = len(log) / len(originals) if originals else 0.0
    fanout = len(receivers) / len(senders) if senders else 0.0
    return avg_hops, fanout


def run_diffusion(
    graph: Graph,
    table: VertexTable,
    model: TransmissionModel,
    config: DiffusionConfig,
    rng: np.random.Generator,
) -> DiffusionResult:
    if len(table) != graph.n:
        raise DiffusionError(
            f"vertex table has {len(table)} rows for a graph of {graph.n} vertices"
        )
    seeds = seed_information(graph, config.initial_fraction, rng)
    informed = set(seeds)
    wave = {v: 0 for v in seeds}
    coverage = [len(informed) / graph.n]
    log: list[LogEntry] = []
    frontier = set(seeds)
    for iteration in range(1, config.iterations + 1):
        new_informed, entries = diffusion_step(
            graph, table, informed, model, iteration, frontier=frontier
        )
        informed |= new_informed
        frontier = new_informed
        for v in new_informed:
            wave[v] = iteration
        log.extend(entries)
        coverage.append(len(informed) / graph.n)
    avg_hops, fanout = compute_metrics(log, seeds)
    return DiffusionResult(
        seeds=tuple(seeds),
        coverage=tuple(coverage),
        avg_hops=avg_hops,
        fanout=fanout,
        log=tuple(log),
        wave=wave,
    )


def write_log_csv(log, path) -> None:
    write_csv(path, ["iteration", "sender", "receiver"], log)


def read_log_csv(path) -> list[LogEntry]:
    """A log written by write_log_csv, read by read_int_csv as DiffusionErrors."""
    def parsers(header):
        if header != ["iteration", "sender", "receiver"]:
            raise DiffusionError(f"unexpected log header in {path}")
        return [int] * 3

    _, rows = read_int_csv(path, DiffusionError, parsers)
    return [tuple(row) for row in rows]


def write_summary_json(result: DiffusionResult, n: int, path, extra: dict | None = None) -> None:
    write_json(path, {
        "a": len(result.seeds) / n,
        "m": result.iterations,
        "nu": list(result.coverage),
        "mu_h": result.avg_hops,
        "xi": result.fanout,
        "seeds": list(result.seeds),
        **(extra or {}),
    })


def read_run(run_dir) -> DiffusionResult:
    """The run written to run_dir as LOG_CSV and SUMMARY_JSON, checked by
    validate_log.  The wave is the seeds at 0 plus each log receiver at its
    iteration.  A malformed file is a DiffusionError naming it."""
    path = os.path.join(run_dir, SUMMARY_JSON)
    summary = read_json(path, DiffusionError)
    try:
        seeds, coverage, avg_hops, fanout = (summary[k] for k in ("seeds", "nu", "mu_h", "xi"))
    except (KeyError, TypeError) as exc:  # a key missing, or not a JSON object
        raise DiffusionError(f"{path}: not a run summary ({type(exc).__name__}: {exc})") from None
    log = tuple(read_log_csv(os.path.join(run_dir, LOG_CSV)))
    wave = {v: 0 for v in seeds}
    wave.update((r, it) for it, _, r in log)
    try:
        validate_log(log, seeds, wave)
    except DiffusionError as exc:
        raise DiffusionError(f"{run_dir}: {exc}") from None
    return DiffusionResult(tuple(seeds), tuple(coverage), avg_hops, fanout, log, wave)


def validate_log(log, seeds, wave: dict[int, int]) -> None:
    """Check log integrity: unique receivers, senders informed strictly earlier."""
    seeds = set(seeds)
    seen: set[int] = set()
    for iteration, sender, receiver in log:
        if receiver in seen:
            raise DiffusionError(f"receiver {receiver} logged twice")
        seen.add(receiver)
        if receiver in seeds:
            raise DiffusionError(f"seed {receiver} logged as receiver")
        if sender not in wave or wave[sender] >= iteration:
            raise DiffusionError(f"sender {sender} not informed before iteration {iteration}")
        if wave.get(receiver) != iteration:
            raise DiffusionError(f"receiver {receiver} wave mismatch")
