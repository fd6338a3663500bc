"""Seeded experiment runner: parameter sweeps, training pipeline, reports.

A single JSON config drives everything.  Replicate randomness is derived
from the master seed through numpy SeedSequence spawn keys, one stream per
(grid point, replicate) plus a dedicated training stream, so reruns with
the same config are byte-identical and no two replicates share a stream.

The sweep is parsed once: ExperimentConfig.from_dict builds `points`, one
GridPoint per sweep.csv row in row order, holding the row's graph, initial
fraction, leading sweep.csv columns and run tag.  A tag joins one part per
swept value, its key's prefix and the value's :g form (pe0.02_a0.1), and
two values of one list that give one part are a ConfigError, since their
grid points would write one run directory.  _replicate_models is the
one rule for the model each replicate runs with (a STUB_MODELS stub, one
fit on training stream 0 shared by all replicates, or with per_replicate a
fit per replicate on training stream rep + 1); it trains every model before
anything is written.  _replicate_inputs is the one stream order (stream ->
graph -> population; the diffusion draws next).  _run_replicate is the job,
one replicate's DiffusionResult with no file written, and _write_runs the
one writer: it writes each record under <out>/runs/<tag>_r<rep> and keeps
only its sweep.csv values, then writes runs/manifest.json, having removed
an old one before the first job, so an interrupted sweep leaves none.

The manifest holds "sha256", a digest of the inputs (the parsed config
without output_dir and report_fields, the stub name or null, and the bytes
of the stats file and the training data files), and "runs", the run
directories it covers.  report_distributions reads grid point 0's runs
back with diffusion.read_run, and draws their vertex tables again from
their streams, when the manifest holds its own digest (no stub) and names
them all and their directories exist; otherwise it first writes them
through _write_runs.  The manifest vouches for the inputs, not for the
netspread version that made the runs.

Config layout::

    {
      "graph": {"model": "small_world", "n": 10000,
                "neighbors": [10, 15], "rewire_prob": [0.01, 0.05, 0.1, 0.2]},
      # or      {"model": "erdos_renyi", "n": 10000,
      #          "edge_prob": [0.001, 0.002, 0.003, 0.004]},
      "initial_fraction": [0.1, 0.2, 0.5],
      "iterations": 3,
      "replicates": 5,
      "seed": 7,
      "stats_file": "builtin",       # path to a population-stats JSON
      "output_dir": "out",
      "report_fields": ["gender"],   # for the `report` command
      "training": {
        "mode": "synthetic",         # or "pairs" / "survey"
        "sample_size": 20000,
        "rule": {"conditions": [
            {"role": "receiver", "field": "food_risk_knowledge", "op": ">=", "value": 6},
            {"role": "sender", "field": "risk_perception", "op": ">=", "value": 4}]},
        "params": {"kernel": "rbf", "sigma": 1.0, "C": 2048.0, "weight": 32.0},
        "grid": [ ...same shape as params... ],   # or a CV grid, not both
        "cv_folds": 3,
        "per_replicate": false,      # retrain per replicate instead of once
        "pairs_file": "pairs.csv",   # mode "pairs"
        "egos_file": "...", "alters_file": "...", "alter_pool_file": "...",
        "criteria": [...], "contact_fields": [...], "homophily": 0.7  # mode "survey"
      }
    }

The document and each section in it must be a JSON object, and every list
a JSON list.  A section takes only the keys shown above (graph those of
its model, training those of every mode, each grid entry those of
params), so a misspelt key is an error, not a silent default.  _SETTINGS
holds the kind, default and range of every scalar setting of the top level
and of training; graph.n defaults to 10000 and is >= 1 and below 2**31,
as GraphParams.check_n says.  _scalar is the one check of a set value: a
number is a finite JSON number only, never a boolean, a string, Infinity
or NaN, and an integer (graph.n, neighbors too) takes no fraction; a file
or directory name is a JSON string and per_replicate a JSON boolean.
report_fields, criteria and contact_fields are lists of strings,
report_fields names no field twice, and survey mode's criteria and
contact_fields are not empty.
Graph values are checked by GraphParams and initial fractions by
DiffusionConfig while parsing; the field names in report_fields,
criteria, contact_fields and the rule conditions are checked against the
stats schema as soon as the stats are loaded, and the training data files
are checked to be files, before anything is trained or written.  Every
violation is a ConfigError naming the field path, which the CLI turns
into exit code 2.
"""

from __future__ import annotations

import hashlib
import logging
import os
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import completion
from .classifier import (
    ClassifierError,
    ConstantModel,
    KernelSpec,
    SvmModel,
    SvmParams,
    cross_validate,
    fit_pair_classifier,
)
from .diffusion import (
    LOG_CSV,
    SUMMARY_JSON,
    DiffusionConfig,
    DiffusionError,
    DiffusionResult,
    read_run,
    run_diffusion,
    write_log_csv,
    write_summary_json,
)
from .graph import ERDOS_RENYI, SMALL_WORLD, GraphParams, generate_graph
from .population import (
    FeatureSchema,
    PopulationStats,
    VertexTable,
    read_json,
    sample_population,
    write_csv,
    write_json,
)

logger = logging.getLogger(__name__)

BUILTIN_STATS = "builtin"
MANIFEST = "manifest.json"  # under <out>/runs: the input digest and the runs it covers
MODEL_FILE = "model.json"  # under <out>: the trained model a sweep or `train` saves
SWEEP_FILE = "sweep.csv"  # under <out>: one row per grid point
DIST_FILE = "dist_{}.csv"  # under <out>: report's table for the field id filled in
# the training data files a config may name, by training key
_DATA_FILES = ("pairs_file", "egos_file", "alter_pool_file", "alters_file")
# constant predictors that stand in for the trained model in oracle runs
STUB_MODELS = {"always-positive": ConstantModel(1), "always-negative": ConstantModel(-1)}

_RULE_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


# the scalar settings of the top level and of training: key -> (kind, default,
# low, high).  _settings fills in the default of each unset one and checks each
# set one with _scalar; str settings are file or directory names.
_SETTINGS = {
    "": {
        "iterations": (int, 3, 1, None),
        "replicates": (int, 5, 1, None),
        "seed": (int, 0, 0, None),
        "stats_file": (str, BUILTIN_STATS, None, None),
        "output_dir": (str, "out", None, None),
    },
    "training": {
        "sample_size": (int, 20000, 2, None),
        "cv_folds": (int, 3, 2, None),
        "per_replicate": (bool, False, None, None),
        "homophily": (float, 0.7, 0, 1),
        "pairs_file": (str, None, None, None),
        "egos_file": (str, None, None, None),
        "alters_file": (str, None, None, None),
        "alter_pool_file": (str, None, None, None),
    },
}

# the keys each config section takes
_KEYS = {
    "": {"graph", "initial_fraction", "report_fields", "training", *_SETTINGS[""]},
    ERDOS_RENYI: {"model", "n", "edge_prob"},  # graph, by model
    SMALL_WORLD: {"model", "n", "neighbors", "rewire_prob"},
    "training": {"mode", "rule", "params", "grid", "criteria", "contact_fields",
                 *_SETTINGS["training"]},
    "params": {"kernel", "sigma", "C", "weight"},
    "rule": {"conditions"},
    "condition": {"role", "field", "op", "value"},
}


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}" if where else key, "missing")
    return doc[key]


def _object(value, path: str, section: str | None = None) -> dict:
    """value as a config section; with `section`, only its _KEYS are allowed."""
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    if section is not None:
        for key in value:
            if key not in _KEYS[section]:
                raise ConfigError(
                    f"{path}.{key}" if section else str(key),  # "" is the top level
                    f"unknown key; allowed: {', '.join(sorted(_KEYS[section]))}",
                )
    return value


@contextmanager
def _at(path: str):
    """Report a ValueError from a model-side check as a ConfigError at `path`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _scalar(value, path: str, kind=float, low=None, high=None):
    """kind(value) for a config scalar, or a ConfigError naming `path`.

    A str setting takes a JSON string and a bool setting a JSON boolean.  A
    number takes a finite JSON number only: no bool, no string, no Infinity
    or NaN; an int setting also takes no fraction.  With `low` the number
    must be >= low, and with `high` too it must lie in [low, high].
    """
    if kind in (str, bool):
        if not isinstance(value, kind):
            what = "a string" if kind is str else "true or false"
            raise ConfigError(path, f"must be {what}, got {value!r}")
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and not (number and (isinstance(value, int) or value.is_integer())):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if kind is float and not (number and abs(value) <= sys.float_info.max):  # NaN fails
        raise ConfigError(path, f"must be a finite number, got {value!r}")
    value = kind(value)
    if not (low is None or low <= value) or not (high is None or value <= high):
        raise ConfigError(
            path, f"must be >= {low}" if high is None else f"must lie in [{low}, {high}]")
    return value


def _list(value, path: str, kind=None, empty_ok: bool = False) -> tuple:
    """value as a tuple; with `kind`, each item checked by _scalar."""
    if not isinstance(value, list) or not (value or empty_ok):
        raise ConfigError(path, "must be a list" if empty_ok else "must be a non-empty list")
    if kind is None:
        return tuple(value)
    return tuple(_scalar(x, f"{path}[{i}]", kind) for i, x in enumerate(value))


def _settings(doc: dict, section: str) -> dict:
    """The _SETTINGS scalars of a section: each set one checked, the rest defaulted."""
    return {
        key: _scalar(doc[key], f"{section}.{key}".lstrip("."), kind, low, high)
        if key in doc else default
        for key, (kind, default, low, high) in _SETTINGS[section].items()
    }


@dataclass(frozen=True)
class PlantedRule:
    """Conjunction of threshold conditions on sender/receiver record fields.

    Labels a pair +1 when every condition holds, else -1.  Used to plant a
    learnable transmission pattern in synthetic training data.
    """

    conditions: tuple[tuple[str, str, str, float], ...]  # (role, field, op, value)

    @classmethod
    def from_config(cls, doc: dict, path: str) -> "PlantedRule":
        conds = _list(
            _require(_object(doc, path, "rule"), "conditions", path), f"{path}.conditions"
        )
        out = []
        for i, c in enumerate(conds):
            where = f"{path}.conditions[{i}]"
            role = _require(_object(c, where, "condition"), "role", where)
            if role not in ("sender", "receiver"):
                raise ConfigError(f"{where}.role", "must be 'sender' or 'receiver'")
            op = _require(c, "op", where)
            if not isinstance(op, str) or op not in _RULE_OPS:
                raise ConfigError(f"{where}.op", f"must be one of {sorted(_RULE_OPS)}")
            value = _scalar(_require(c, "value", where), f"{where}.value")
            out.append((role, str(_require(c, "field", where)), op, value))
        return cls(conditions=tuple(out))

    def label_arrays(self, senders: VertexTable, receivers: VertexTable) -> np.ndarray:
        """Labels of the pairs (senders row i, receivers row i)."""
        ok = np.ones(len(senders), dtype=bool)
        for role, fid, op, value in self.conditions:
            table = senders if role == "sender" else receivers
            ok &= _RULE_OPS[op](table.columns[fid], value)
        return np.where(ok, 1, -1)


def _parse_svm_params(doc: dict, path: str) -> SvmParams:
    kind = _require(_object(doc, path, "params"), "kernel", path)
    sigma = None if doc.get("sigma") is None else _scalar(doc["sigma"], f"{path}.sigma")
    C = _scalar(_require(doc, "C", path), f"{path}.C")
    weight = _scalar(_require(doc, "weight", path), f"{path}.weight")
    with _at(path):
        return SvmParams(C=C, weight=weight, kernel=KernelSpec(kind, sigma))


@dataclass(frozen=True)
class TrainingConfig:
    mode: str
    sample_size: int
    grid: tuple[SvmParams, ...]  # params, when set, is a one-point grid
    cv_folds: int
    per_replicate: bool
    rule: PlantedRule | None
    pairs_file: str | None
    egos_file: str | None
    alters_file: str | None
    alter_pool_file: str | None
    criteria: tuple[str, ...]
    contact_fields: tuple[str, ...]
    homophily: float

    @classmethod
    def from_config(cls, doc: dict) -> "TrainingConfig":
        path = "training"
        mode = _object(doc, path, path).get("mode", "synthetic")
        if mode not in ("synthetic", "pairs", "survey"):
            raise ConfigError(f"{path}.mode", "must be synthetic, pairs or survey")
        if "params" in doc:
            if "grid" in doc:
                raise ConfigError(f"{path}.params", "set params or a grid, not both")
            grid = (_parse_svm_params(doc["params"], f"{path}.params"),)
        else:
            grid = tuple(
                _parse_svm_params(g, f"{path}.grid[{i}]")
                for i, g in enumerate(_list(doc.get("grid", []), f"{path}.grid", empty_ok=True))
            )
        if not grid:
            raise ConfigError(f"{path}.params", "need params or a grid")
        rule = None
        if mode == "synthetic":
            rule = PlantedRule.from_config(_require(doc, "rule", path), f"{path}.rule")
        if mode == "pairs":
            _require(doc, "pairs_file", path)
        if mode == "survey":
            for key in ("egos_file", "alter_pool_file", "criteria", "contact_fields"):
                _require(doc, key, path)
        # survey mode draws each ego's non-receivers by the criteria, as many
        # as its contact fields sum to, so each list needs a field
        lists = {key: _list(doc.get(key, []), f"{path}.{key}", str, empty_ok=True)
                 for key in ("criteria", "contact_fields")}
        for key, fields in lists.items():
            if mode == "survey" and not fields:
                raise ConfigError(f"{path}.{key}", "must name at least one field")
        return cls(mode=mode, grid=grid, rule=rule, **lists, **_settings(doc, path))


def _tag_parts(values: tuple, path: str, prefix: str, spec: str = "g") -> list[str]:
    """The run-tag part, prefix + format(value, spec), of each of `values`; a
    ConfigError at the first value whose part an earlier one gives."""
    parts = [prefix + format(value, spec) for value in values]
    for i, part in enumerate(parts):
        if parts.index(part) < i:
            raise ConfigError(f"{path}[{i}]", f"{values[i]} gives run tag {part}, "
                              f"as {path}[{parts.index(part)}] does")
    return parts


@dataclass(frozen=True)
class GridPoint:
    """One sweep.csv row: a graph setting and an initial fraction.

    `columns` are the row's leading (name, value) cells in sweep.csv column
    order; `tag` names the row's run directories (`<tag>_r<replicate>`).
    """

    graph: GraphParams
    initial_fraction: float
    columns: tuple[tuple[str, float], ...]
    tag: str


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    points: tuple[GridPoint, ...]  # in sweep.csv row order
    iterations: int
    replicates: int
    seed: int
    stats_file: str
    output_dir: str
    training: TrainingConfig | None
    report_fields: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        graph = _object(_require(_object(doc, "<config>", ""), "graph", ""), "graph")
        model = _require(graph, "model", "graph")
        if model not in (ERDOS_RENYI, SMALL_WORLD):
            raise ConfigError("graph.model", f"unknown model {model!r}")
        _object(graph, "graph", model)
        n = _scalar(graph.get("n", 10000), "graph.n", int, 1)
        with _at("graph.n"):
            GraphParams.check_n(n)
        # (graph, columns, tag) per graph setting, in sweep.csv row order:
        # ER by edge_prob; small world by rewire_prob, then neighbors
        graphs = []
        if model == ERDOS_RENYI:
            edge_probs = _list(_require(graph, "edge_prob", "graph"), "graph.edge_prob", float)
            tags = _tag_parts(edge_probs, "graph.edge_prob", "pe")
            for i, (p, tag) in enumerate(zip(edge_probs, tags)):
                with _at(f"graph.edge_prob[{i}]"):
                    graphs.append((GraphParams(model, n, edge_prob=p), (("edge_prob", p),), tag))
        else:
            neighbor_counts = _list(_require(graph, "neighbors", "graph"), "graph.neighbors", int)
            rewire_probs = _list(
                _require(graph, "rewire_prob", "graph"), "graph.rewire_prob", float
            )
            k_tags = _tag_parts(neighbor_counts, "graph.neighbors", "k", "d")
            p_tags = _tag_parts(rewire_probs, "graph.rewire_prob", "ps")
            for i, k in enumerate(neighbor_counts):
                with _at(f"graph.neighbors[{i}]"):
                    GraphParams(model, n, neighbors=k)
            for i, (p, p_tag) in enumerate(zip(rewire_probs, p_tags)):
                for k, k_tag in zip(neighbor_counts, k_tags):
                    with _at(f"graph.rewire_prob[{i}]"):
                        graphs.append((GraphParams(model, n, neighbors=k, rewire_prob=p),
                                       (("rewire_prob", p), ("neighbors", k)), f"{p_tag}_{k_tag}"))
        settings = _settings(doc, "")
        fractions = _list(doc.get("initial_fraction", [0.1, 0.2, 0.5]), "initial_fraction", float)
        a_tags = _tag_parts(fractions, "initial_fraction", "a")
        for i, a in enumerate(fractions):
            with _at(f"initial_fraction[{i}]"):
                DiffusionConfig(a, settings["iterations"])
        report_fields = _list(doc.get("report_fields", []), "report_fields", str, empty_ok=True)
        for i, fid in enumerate(report_fields):
            if report_fields.index(fid) < i:
                raise ConfigError(f"report_fields[{i}]", f"{fid!r} repeats "
                                  f"report_fields[{report_fields.index(fid)}]")
        return cls(
            n=n,
            points=tuple(
                GridPoint(params, a, columns + (("initial_fraction", a),), f"{tag}_{a_tag}")
                for params, columns, tag in graphs
                for a, a_tag in zip(fractions, a_tags)
            ),
            training=TrainingConfig.from_config(doc["training"]) if "training" in doc else None,
            report_fields=report_fields,
            **settings,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, lambda message: ConfigError("<file>", message)))


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a spawn key; replicates never share one."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
    )


def _stats_ref(stats_file: str):
    """The stats file as a path, or the packaged fixture for "builtin"."""
    if stats_file == BUILTIN_STATS:
        return resources.files("netspread.data").joinpath("fixture_stats.json")
    return Path(stats_file)


def load_stats(stats_file: str) -> PopulationStats:
    if stats_file != BUILTIN_STATS:
        _check_file(stats_file, "stats_file")
    with resources.as_file(_stats_ref(stats_file)) as path:
        return PopulationStats.from_json(path)


def _check_file(name: str, path: str) -> None:
    """A ConfigError at `path` unless `name` is a file."""
    if not os.path.isfile(name):
        problem = "not a file" if os.path.exists(name) else "no such file"
        raise ConfigError(path, f"{problem}: {name}")


def check_output_dir(name: str, path: str) -> None:
    """A ConfigError at `path` unless `name` is a directory or can be made
    one: the nearest of it and its parents that exists must be a directory."""
    probe = os.path.abspath(name)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(path, f"not a directory: {probe}")


def load_config_stats(config: ExperimentConfig) -> PopulationStats:
    """The config's stats, with every field name the config holds in their schema
    and every training data file it names checked to be a file."""
    stats = load_stats(config.stats_file)
    named = [(f"report_fields[{i}]", fid) for i, fid in enumerate(config.report_fields)]
    tc = config.training
    if tc is not None:
        if tc.rule is not None:
            named += [(f"training.rule.conditions[{i}].field", c[1])
                      for i, c in enumerate(tc.rule.conditions)]
        named += [(f"training.criteria[{i}]", fid) for i, fid in enumerate(tc.criteria)]
        named += [(f"training.contact_fields[{i}]", fid)
                  for i, fid in enumerate(tc.contact_fields)]
    for path, fid in named:
        if fid not in stats.schema.field_ids:
            raise ConfigError(path, f"no field {fid!r} in the stats schema")
    for key in _DATA_FILES:
        name = getattr(tc, key, None)  # None without a training section
        if name is not None:
            _check_file(name, f"training.{key}")
    return stats


def synthetic_pairs(
    stats: PopulationStats, size: int, rule: PlantedRule, rng: np.random.Generator
) -> completion.PairSet:
    """Random (sender, receiver) record pairs labeled by the planted rule."""
    senders = sample_population(stats, size, rng)
    receivers = sample_population(stats, size, rng)
    return completion.PairSet(senders, receivers, rule.label_arrays(senders, receivers))


def _survey_pairs(tc: TrainingConfig, schema: FeatureSchema, rng) -> completion.PairSet:
    egos = VertexTable.from_csv(tc.egos_file, schema)
    pool = VertexTable.from_csv(tc.alter_pool_file, schema)
    if tc.alters_file is not None:
        listed = completion.read_alters_csv(tc.alters_file, schema, egos.n)
    else:
        listed = [[] for _ in range(egos.n)]
    return completion.build_training_set(
        egos,
        listed,
        pool,
        criteria=tc.criteria,
        contact_fields=tc.contact_fields,
        h=tc.homophily,
        rng=rng,
    )


def train_pipeline(
    config: ExperimentConfig,
    stats: PopulationStats | None = None,
    stream_index: int = 0,
) -> SvmModel:
    """Build training pairs per the configured mode, select params, fit.

    A one-point grid (params) is fitted directly; a longer one is
    cross-validated first.  The returned model carries the fold-independent
    standardizer and the schema.
    """
    tc = config.training
    if tc is None:
        raise ConfigError("training", "missing section")
    if stats is None:
        stats = load_config_stats(config)
    rng = stream(config.seed, 1, stream_index)
    if tc.mode == "synthetic":
        pairs = synthetic_pairs(stats, tc.sample_size, tc.rule, rng)
    elif tc.mode == "pairs":
        pairs = completion.PairSet.from_csv(tc.pairs_file, stats.schema)
    else:
        pairs = _survey_pairs(tc, stats.schema, rng)
    # a fault of the training data names its file, when it has one
    where = {"pairs": f"{tc.pairs_file}: ", "survey": f"{tc.egos_file}: "}.get(tc.mode, "")
    if len(pairs) == 0:  # a data file that holds only its header
        raise completion.CompletionError(f"{where}no training pairs")
    if len(pairs) > tc.sample_size:
        pairs = pairs.take(np.sort(rng.choice(len(pairs), size=tc.sample_size, replace=False)))
    X, y = pairs.matrix(), pairs.labels
    smaller = min(int(np.count_nonzero(y > 0)), int(np.count_nonzero(y < 0)))
    if smaller == 0:  # checked before cross-validation, whose folds need both classes
        raise ClassifierError(f"{where}training data must contain both classes")
    params = tc.grid[0]
    if len(tc.grid) > 1:
        if smaller < tc.cv_folds:
            raise ConfigError("training.cv_folds", f"must be at most {smaller}, the smaller "
                              f"class's training pair count, got {tc.cv_folds}")
        params = cross_validate(X, y, tc.grid, tc.cv_folds, rng).best
        logger.info("cross-validation selected %s", params)
    model = fit_pair_classifier(X, y, params, schema=stats.schema)
    model.training_size = len(y)
    return model


def _sample_std(values: np.ndarray) -> float:
    # equal values have std 0 exactly; np.std can give ~1e-16 for them,
    # since their rounded mean need not equal the value
    if len(values) < 2 or np.all(values == values[0]):
        return 0.0
    return float(np.std(values, ddof=1))


def _replicate_models(config: ExperimentConfig, stats: PopulationStats, stub_model) -> tuple:
    """One model per replicate, every one trained before anything is written:
    a STUB_MODELS entry or one fit on stream index 0, the same object for all
    replicates, or with per_replicate replicate rep's own fit on stream index rep + 1.
    """
    if stub_model is not None:
        if stub_model not in STUB_MODELS:
            raise ConfigError("stub_model", f"unknown stub {stub_model!r}")
        return (STUB_MODELS[stub_model],) * config.replicates
    if config.training is None:
        raise ConfigError("training", "missing section and no stub model requested")
    if config.training.per_replicate:
        return tuple(train_pipeline(config, stats, rep + 1) for rep in range(config.replicates))
    return (train_pipeline(config, stats=stats),) * config.replicates


def _replicate_inputs(
    config: ExperimentConfig, stats: PopulationStats, index: int, rep: int
) -> tuple:
    """(stream, graph, population) of replicate rep of grid point `index`: the
    graph is drawn from the stream first, then the population; the diffusion
    draws from the stream next."""
    rng = stream(config.seed, 0, index * config.replicates + rep)
    graph = generate_graph(config.points[index].graph, rng)
    return rng, graph, sample_population(stats, config.n, rng)


def _run_name(config: ExperimentConfig, index: int, rep: int) -> str:
    return f"{config.points[index].tag}_r{rep}"


def _inputs_digest(config: ExperimentConfig, stub_model: str | None) -> str:
    """sha256 of what the runs depend on: the parsed config without output_dir
    and report_fields (a dataclass repr, defaults included), the stub name or
    None, and the bytes of the stats file and of each training data file."""
    blanked = replace(config, output_dir="", report_fields=())
    digest = hashlib.sha256(repr((blanked, stub_model)).encode())
    names = [getattr(config.training, key, None) for key in _DATA_FILES]
    for ref in (_stats_ref(config.stats_file), *(Path(name) for name in names if name)):
        digest.update(hashlib.sha256(ref.read_bytes()).digest())
    return digest.hexdigest()


def _run_replicate(
    config: ExperimentConfig, stats: PopulationStats, index: int, rep: int, model
) -> DiffusionResult:
    """Replicate rep of grid point `index`, run with `model`; writes nothing."""
    rng, graph, table = _replicate_inputs(config, stats, index, rep)
    dconf = DiffusionConfig(config.points[index].initial_fraction, config.iterations)
    return run_diffusion(graph, table, model, dconf, rng)


def _write_runs(
    config: ExperimentConfig, stats: PopulationStats, models, runs_dir, stub_model, count: int
) -> list[list[dict]]:
    """Write the log.csv and summary.json of each _run_replicate record of the
    first `count` grid points, then the manifest naming them (removing an old
    one first).  Returns each point's runs as their sweep.csv values, name ->
    value in column order (mu_h, xi, dnu_1..3)."""
    manifest = os.path.join(runs_dir, MANIFEST)
    with suppress(FileNotFoundError):
        os.remove(manifest)
    start, results = time.perf_counter(), []
    for index in range(count):
        point, values = config.points[index], []
        for rep, model in enumerate(models):
            run = _run_replicate(config, stats, index, rep, model)
            run_dir = os.path.join(runs_dir, _run_name(config, index, rep))
            os.makedirs(run_dir, exist_ok=True)
            write_log_csv(run.log, os.path.join(run_dir, LOG_CSV))
            write_summary_json(run, config.n, os.path.join(run_dir, SUMMARY_JSON),
                               extra={"tag": point.tag, "replicate": rep})
            dnu = np.diff(run.coverage)[:3].tolist()
            values.append({"mu_h": run.avg_hops, "xi": run.fanout,
                           **{f"dnu_{i}": d for i, d in enumerate(dnu, 1)}})
            del run  # free its log and wave before the next replicate runs
        results.append(values)
        logger.info("grid point %d/%d %s written, %.1f s elapsed",
                    index + 1, count, point.tag, time.perf_counter() - start)
    write_json(manifest, {
        "sha256": _inputs_digest(config, stub_model),
        "runs": [_run_name(config, i, rep) for i in range(count) for rep in range(len(models))],
    })
    return results


def _stale(runs_dir, digest: str, names) -> str | None:
    """Why the runs `names` under runs_dir are not the runs of `digest`, or None."""
    path = os.path.join(runs_dir, MANIFEST)
    try:
        manifest = read_json(path, DiffusionError)
    except DiffusionError:  # missing, unreadable or not JSON
        return "the manifest is not valid JSON" if os.path.isfile(path) else "no manifest"
    if not isinstance(manifest, dict) or manifest.get("sha256") != digest:
        return "the input digest differs"
    if not isinstance(manifest.get("runs"), list):
        return "the manifest holds no list of runs"
    for name in names:
        if name not in manifest["runs"] or not os.path.isdir(os.path.join(runs_dir, name)):
            return f"run {name} is missing"
    return None


def run_experiment(config: ExperimentConfig, stub_model: str | None = None) -> list[dict]:
    """Run and write the full sweep through _write_runs, then sweep.csv, under
    config.output_dir.

    Returns the sweep rows, also written to sweep.csv in the key order of a
    row: a grid point's columns, then the mean and sample std over its
    replicates of each sweep.csv value _write_runs kept of a run.  Nothing
    else of a run outlives its writing, so memory does not grow with the run
    count.  `stub_model`, a STUB_MODELS name, replaces the trained SVM with
    a constant predictor for oracle testing.  A shared trained model is
    saved as model.json after the runs; an old one is removed before them,
    so a sweep that saves none (a stub, or per_replicate) leaves none.
    """
    out_dir = config.output_dir
    stats = load_config_stats(config)
    models = _replicate_models(config, stats, stub_model)
    model_path = os.path.join(out_dir, MODEL_FILE)
    with suppress(FileNotFoundError):
        os.remove(model_path)
    runs = _write_runs(config, stats, models, os.path.join(out_dir, "runs"), stub_model,
                       len(config.points))
    if stub_model is None and not config.training.per_replicate:
        models[0].save(model_path)

    rows = []
    for point, point_runs in zip(config.points, runs):
        row = dict(point.columns)  # sweep.csv columns: the key order of this dict
        for name in point_runs[0]:
            values = np.array([run[name] for run in point_runs])
            row[f"{name}_mean"] = float(np.mean(values))
            row[f"{name}_std"] = _sample_std(values)
        row["replicates"] = config.replicates
        rows.append(row)
    _write_sweep_csv(rows, os.path.join(out_dir, SWEEP_FILE))
    return rows


def _write_sweep_csv(rows, path) -> None:
    write_csv(path, list(rows[0]), (row.values() for row in rows))


def report_distributions(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Per-field wave-distribution CSVs averaged over the replicate runs of
    the sweep's first grid point, read from runs/ under config.output_dir
    and written there first unless the manifest vouches for them (see the
    module doc).

    Rows All, Egos and one per iteration wave; proportions are means over
    replicates (waves empty in a replicate are excluded from its average;
    rows empty in every replicate keep the empty placeholder).
    """
    from . import analysis  # only report reads runs back, so only it imports analysis

    if not config.report_fields:
        raise ConfigError("report_fields", "must name at least one field")
    stats = load_config_stats(config)
    runs_dir = os.path.join(config.output_dir, "runs")
    names = [_run_name(config, 0, rep) for rep in range(config.replicates)]
    stale = _stale(runs_dir, _inputs_digest(config, None), names)
    if stale:
        logger.info("writing the runs of grid point 0 under %s: %s", runs_dir, stale)
        _write_runs(config, stats, _replicate_models(config, stats, None), runs_dir, None, 1)
    else:
        logger.info("reading the runs of grid point 0 under %s", runs_dir)
    per_field: dict[str, list] = {fid: [] for fid in config.report_fields}
    for rep, name in enumerate(names):
        result = read_run(os.path.join(runs_dir, name))
        _, _, table = _replicate_inputs(config, stats, 0, rep)
        for fid in config.report_fields:
            per_field[fid].append(analysis.wave_distribution(result, table, fid))
    averaged: dict[str, np.ndarray] = {}
    for fid, dists in per_field.items():
        first = dists[0]
        rows = np.full_like(first.proportions, analysis.EMPTY_ROW)
        for i in range(len(first.row_labels)):
            stack = [d.proportions[i] for d in dists if not d.empty_rows[i]]
            if stack:
                rows[i] = np.mean(stack, axis=0)
        averaged[fid] = rows
        replace(first, proportions=rows).to_csv(
            os.path.join(config.output_dir, DIST_FILE.format(fid)))
    return averaged
