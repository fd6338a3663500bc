"""Seeded experiment runner: parameter sweeps, training pipeline, reports.

A single JSON config drives everything.  Replicate randomness is derived
from the master seed through numpy SeedSequence spawn keys, one stream per
(grid point, replicate) plus a dedicated training stream, so reruns with
the same config are byte-identical and no two replicates share a stream.

The sweep is parsed once: ExperimentConfig.from_dict builds `points`, one
GridPoint per sweep.csv row in row order, holding the row's graph, initial
fraction, leading sweep.csv columns and run tag.  _replicate_models is the
one rule for the model each replicate runs with (a STUB_MODELS stub, one
fit on training stream 0 shared by all replicates, or with per_replicate a
fit per replicate on training stream rep + 1); it trains every model before
anything is written.  _run_replicate is a pure job (stream -> graph ->
population -> diffusion); run_experiment and report_distributions write
every file.

Config layout (defaults in parentheses)::

    {
      "graph": {"model": "small_world", "n": 10000,
                "neighbors": [10, 15], "rewire_prob": [0.01, 0.05, 0.1, 0.2]},
      # or      {"model": "erdos_renyi", "n": 10000,
      #          "edge_prob": [0.001, 0.002, 0.003, 0.004]},
      "initial_fraction": [0.1, 0.2, 0.5],
      "iterations": 3,               # (3)
      "replicates": 5,               # (5)
      "seed": 7,
      "stats_file": "builtin",       # path to a population-stats JSON
      "output_dir": "out",
      "report_fields": ["gender"],   # for the `report` command
      "training": {
        "mode": "synthetic",         # or "pairs" / "survey"
        "sample_size": 20000,        # (20000)
        "rule": {"conditions": [
            {"role": "receiver", "field": "food_risk_knowledge", "op": ">=", "value": 6},
            {"role": "sender", "field": "risk_perception", "op": ">=", "value": 4}]},
        "params": {"kernel": "rbf", "sigma": 1.0, "C": 2048.0, "weight": 32.0},
        "grid": [ ...same shape as params... ],   # optional CV grid
        "cv_folds": 3,               # (3)
        "per_replicate": false,      # retrain per replicate instead of once
        "pairs_file": "pairs.csv",   # mode "pairs"
        "egos_file": "...", "alters_file": "...", "alter_pool_file": "...",
        "criteria": [...], "contact_fields": [...], "homophily": 0.7  # mode "survey"
      }
    }

The document and each section in it must be a JSON object, and every list
a JSON list.  Every numeric setting takes a finite JSON number only, never
a boolean, a string, Infinity or NaN.  Integer settings (graph.n,
neighbors, iterations, replicates, seed, sample_size, cv_folds,
max_kernel_evals) take whole numbers only, never fractions, and
max_kernel_evals is at least 1.  report_fields, criteria and contact_fields
are lists of strings, and a survey-mode criteria list is not empty.
stats_file, output_dir, pairs_file, egos_file, alters_file and
alter_pool_file are strings, per_replicate is a JSON boolean and
homophily lies in [0, 1].  Graph values are checked by GraphParams and
initial fractions by DiffusionConfig while parsing; the field names in
report_fields, criteria, contact_fields and the rule conditions are
checked against the stats schema as soon as the stats are loaded, before
anything is trained or written.  Every violation is a ConfigError naming
the field path, which the CLI turns into exit code 2.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import analysis, completion
from .classifier import (
    MAX_KERNEL_EVALS,
    ConstantModel,
    KernelSpec,
    SvmModel,
    SvmParams,
    cross_validate,
    fit_pair_classifier,
)
from .diffusion import (
    DiffusionConfig,
    DiffusionResult,
    run_diffusion,
    write_log_csv,
    write_summary_json,
)
from .graph import ERDOS_RENYI, SMALL_WORLD, GraphParams, generate_graph
from .population import (
    FeatureSchema,
    PopulationStats,
    VertexTable,
    sample_population,
)

logger = logging.getLogger(__name__)

BUILTIN_STATS = "builtin"
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


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}" if where else key, "missing")
    return doc[key]


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    return value


@contextmanager
def _at(path: str):
    """Report a ValueError from a model-side check as a ConfigError at `path`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _number(value, path: str, kind=float):
    """kind(value) for a config number, or a ConfigError naming `path`.

    A setting takes a finite JSON number only: no bool, no string, no
    Infinity or NaN; an int setting also takes no fraction.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if number and abs(value) <= sys.float_info.max:  # False for NaN
        return float(value)
    raise ConfigError(path, f"must be a finite number, got {value!r}")


def _as_list(value, path: str, empty_ok: bool = False) -> list:
    if not isinstance(value, list) or not (value or empty_ok):
        raise ConfigError(path, "must be a list" if empty_ok else "must be a non-empty list")
    return value


def _numbers(value, path: str, kind=float) -> tuple:
    return tuple(_number(x, f"{path}[{i}]", kind) for i, x in enumerate(_as_list(value, path)))


def _names(value, path: str) -> tuple[str, ...]:
    for i, name in enumerate(_as_list(value, path, empty_ok=True)):
        if not isinstance(name, str):
            raise ConfigError(f"{path}[{i}]", f"must be a string, got {name!r}")
    return tuple(value)


def _file_name(doc: dict, key: str, where: str, default: str | None = None) -> str | None:
    """doc[key] as a file name when the key is set, else `default`."""
    if key not in doc:
        return default
    if not isinstance(doc[key], str):
        raise ConfigError(f"{where}.{key}".lstrip("."), f"must be a string, got {doc[key]!r}")
    return doc[key]


@dataclass(frozen=True)
class PlantedRule:
    """Conjunction of threshold conditions on sender/receiver record fields.

    Labels a pair +1 when every condition holds, else -1.  Used to plant a
    learnable transmission pattern in synthetic training data.
    """

    conditions: tuple[tuple[str, str, str, float], ...]  # (role, field, op, value)

    @classmethod
    def from_config(cls, doc: dict, path: str) -> "PlantedRule":
        conds = _as_list(_require(_object(doc, path), "conditions", path), f"{path}.conditions")
        out = []
        for i, c in enumerate(conds):
            where = f"{path}.conditions[{i}]"
            role = _require(_object(c, where), "role", where)
            if role not in ("sender", "receiver"):
                raise ConfigError(f"{where}.role", "must be 'sender' or 'receiver'")
            op = _require(c, "op", where)
            if not isinstance(op, str) or op not in _RULE_OPS:
                raise ConfigError(f"{where}.op", f"must be one of {sorted(_RULE_OPS)}")
            value = _number(_require(c, "value", where), f"{where}.value")
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
    kind = _require(_object(doc, path), "kernel", path)
    sigma = doc.get("sigma")
    if sigma is not None:
        sigma = _number(sigma, f"{path}.sigma")
    C = _number(_require(doc, "C", path), f"{path}.C")
    weight = _number(_require(doc, "weight", path), f"{path}.weight")
    with _at(path):
        return SvmParams(C=C, weight=weight, kernel=KernelSpec(kind, sigma))


@dataclass(frozen=True)
class TrainingConfig:
    mode: str
    sample_size: int
    params: SvmParams | None
    grid: tuple[SvmParams, ...]
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
    max_kernel_evals: int | None = None

    @classmethod
    def from_config(cls, doc: dict, path: str = "training") -> "TrainingConfig":
        mode = _object(doc, path).get("mode", "synthetic")
        if mode not in ("synthetic", "pairs", "survey"):
            raise ConfigError(f"{path}.mode", "must be synthetic, pairs or survey")
        sample_size = _number(doc.get("sample_size", 20000), f"{path}.sample_size", int)
        if sample_size < 2:
            raise ConfigError(f"{path}.sample_size", "must be >= 2")
        params = _parse_svm_params(doc["params"], f"{path}.params") if "params" in doc else None
        grid = tuple(
            _parse_svm_params(g, f"{path}.grid[{i}]")
            for i, g in enumerate(_as_list(doc.get("grid", []), f"{path}.grid", empty_ok=True))
        )
        if params is None and not grid:
            raise ConfigError(f"{path}.params", "need params or a grid")
        rule = None
        if mode == "synthetic":
            rule = PlantedRule.from_config(_require(doc, "rule", path), f"{path}.rule")
        if mode == "pairs" and "pairs_file" not in doc:
            raise ConfigError(f"{path}.pairs_file", "missing")
        if mode == "survey":
            for key in ("egos_file", "alter_pool_file", "criteria", "contact_fields"):
                if key not in doc:
                    raise ConfigError(f"{path}.{key}", "missing")
        cv_folds = _number(doc.get("cv_folds", 3), f"{path}.cv_folds", int)
        if cv_folds < 2:
            raise ConfigError(f"{path}.cv_folds", "must be >= 2")
        per_replicate = doc.get("per_replicate", False)
        if not isinstance(per_replicate, bool):
            raise ConfigError(
                f"{path}.per_replicate", f"must be true or false, got {per_replicate!r}"
            )
        criteria = _names(doc.get("criteria", []), f"{path}.criteria")
        if mode == "survey" and not criteria:
            raise ConfigError(f"{path}.criteria", "must name at least one field")
        homophily = _number(doc.get("homophily", 0.7), f"{path}.homophily")
        if not 0.0 <= homophily <= 1.0:
            raise ConfigError(f"{path}.homophily", "must lie in [0, 1]")
        max_kernel_evals = None
        if "max_kernel_evals" in doc:
            where = f"{path}.max_kernel_evals"
            max_kernel_evals = _number(doc["max_kernel_evals"], where, int)
            if max_kernel_evals < 1:
                raise ConfigError(where, "must be >= 1")
        return cls(
            mode=mode,
            sample_size=sample_size,
            params=params,
            grid=grid,
            cv_folds=cv_folds,
            per_replicate=per_replicate,
            rule=rule,
            pairs_file=_file_name(doc, "pairs_file", path),
            egos_file=_file_name(doc, "egos_file", path),
            alters_file=_file_name(doc, "alters_file", path),
            alter_pool_file=_file_name(doc, "alter_pool_file", path),
            criteria=criteria,
            contact_fields=_names(doc.get("contact_fields", []), f"{path}.contact_fields"),
            homophily=homophily,
            max_kernel_evals=max_kernel_evals,
        )


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
        graph = _object(_require(_object(doc, "<config>"), "graph", ""), "graph")
        model = _require(graph, "model", "graph")
        if model not in (ERDOS_RENYI, SMALL_WORLD):
            raise ConfigError("graph.model", f"unknown model {model!r}")
        n = _number(graph.get("n", 10000), "graph.n", int)
        if n < 1:
            raise ConfigError("graph.n", "must be >= 1")
        # (graph, columns, tag) per graph setting, in sweep.csv row order:
        # ER by edge_prob; small world by rewire_prob, then neighbors
        settings = []
        if model == ERDOS_RENYI:
            edge_probs = _numbers(_require(graph, "edge_prob", "graph"), "graph.edge_prob")
            for i, p in enumerate(edge_probs):
                with _at(f"graph.edge_prob[{i}]"):
                    settings.append(
                        (GraphParams(model, n, edge_prob=p), (("edge_prob", p),), f"pe{p:g}")
                    )
        else:
            neighbor_counts = _numbers(
                _require(graph, "neighbors", "graph"), "graph.neighbors", int
            )
            rewire_probs = _numbers(_require(graph, "rewire_prob", "graph"), "graph.rewire_prob")
            for i, k in enumerate(neighbor_counts):
                with _at(f"graph.neighbors[{i}]"):
                    GraphParams(model, n, neighbors=k)
            for i, p in enumerate(rewire_probs):
                for k in neighbor_counts:
                    with _at(f"graph.rewire_prob[{i}]"):
                        settings.append((GraphParams(model, n, neighbors=k, rewire_prob=p),
                                         (("rewire_prob", p), ("neighbors", k)), f"ps{p:g}_k{k}"))
        iterations = _number(doc.get("iterations", 3), "iterations", int)
        if iterations < 1:
            raise ConfigError("iterations", "must be >= 1")
        fractions = _numbers(doc.get("initial_fraction", [0.1, 0.2, 0.5]), "initial_fraction")
        for i, a in enumerate(fractions):
            with _at(f"initial_fraction[{i}]"):
                DiffusionConfig(a, iterations)
        replicates = _number(doc.get("replicates", 5), "replicates", int)
        if replicates < 1:
            raise ConfigError("replicates", "must be >= 1")
        seed = _number(doc.get("seed", 0), "seed", int)
        if seed < 0:
            raise ConfigError("seed", "must be >= 0")
        training = (
            TrainingConfig.from_config(doc["training"]) if "training" in doc else None
        )
        return cls(
            n=n,
            points=tuple(
                GridPoint(params, a, columns + (("initial_fraction", a),), f"{tag}_a{a:g}")
                for params, columns, tag in settings
                for a in fractions
            ),
            iterations=iterations,
            replicates=replicates,
            seed=seed,
            stats_file=_file_name(doc, "stats_file", "", BUILTIN_STATS),
            output_dir=_file_name(doc, "output_dir", "", "out"),
            training=training,
            report_fields=_names(doc.get("report_fields", []), "report_fields"),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError("<file>", f"not valid JSON: {exc}") from None
        return cls.from_dict(doc)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a spawn key; replicates never share one."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
    )


def load_stats(stats_file: str) -> PopulationStats:
    if stats_file == BUILTIN_STATS:
        ref = resources.files("netspread.data").joinpath("fixture_stats.json")
        with resources.as_file(ref) as path:
            return PopulationStats.from_json(path)
    if not os.path.exists(stats_file):
        raise ConfigError("stats_file", f"no such file: {stats_file}")
    return PopulationStats.from_json(stats_file)


def load_config_stats(config: ExperimentConfig) -> PopulationStats:
    """The config's stats, with every field name the config holds in their schema."""
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
    if tc.alters_file:
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


def training_budget(n_examples: int) -> int:
    """Kernel-evaluation cap scaled so pipeline-sized fits can converge.

    The solver's flat default caps a 20k-example fit after a few hundred
    gradient steps; 5 n^2 evaluations allow roughly 2.5 n row computations,
    which is comfortably past convergence for the planted-rule tasks.
    """
    return max(MAX_KERNEL_EVALS, 5 * n_examples * n_examples)


def train_pipeline(
    config: ExperimentConfig,
    stats: PopulationStats | None = None,
    stream_index: int = 0,
) -> SvmModel:
    """Build training pairs per the configured mode, select params, fit.

    A single-point grid degenerates to a direct fit.  The returned model
    carries the fold-independent standardizer and the schema.
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
    if len(pairs) > tc.sample_size:
        pairs = pairs.take(np.sort(rng.choice(len(pairs), size=tc.sample_size, replace=False)))
    X, y = pairs.matrix(), pairs.labels
    budget = tc.max_kernel_evals or training_budget(len(y))
    params = tc.params
    if tc.grid:
        if len(tc.grid) == 1:
            params = tc.grid[0]
        else:
            report = cross_validate(
                X, y, tc.grid, tc.cv_folds, rng, max_kernel_evals=budget
            )
            params = report.best
            logger.info("cross-validation selected %s", params)
    model = fit_pair_classifier(
        X, y, params, schema=stats.schema, max_kernel_evals=budget
    )
    model.training_size = len(y)
    return model


def _sample_std(values: np.ndarray) -> float:
    # equal values have std 0 exactly; np.std can give ~1e-16 for them,
    # since their rounded mean need not equal the value
    if len(values) < 2 or np.all(values == values[0]):
        return 0.0
    return float(np.std(values, ddof=1))


@dataclass
class RunArtifacts:
    tag: str
    replicate: int
    result: DiffusionResult


@dataclass
class ExperimentOutput:
    rows: list[dict]
    runs: list[RunArtifacts]


def _replicate_models(config: ExperimentConfig, stats: PopulationStats, stub_model):
    """The replicates' model, trained before anything is written: a STUB_MODELS
    entry or one fit on stream index 0, shared by all replicates, or with
    per_replicate a tuple holding replicate rep's own fit on stream index rep + 1.
    """
    if stub_model is not None:
        if stub_model not in STUB_MODELS:
            raise ConfigError("stub_model", f"unknown stub {stub_model!r}")
        return STUB_MODELS[stub_model]
    if config.training is None:
        raise ConfigError("training", "missing section and no stub model requested")
    if not config.training.per_replicate:
        return train_pipeline(config, stats=stats)
    return tuple(
        train_pipeline(config, stats=stats, stream_index=rep + 1)
        for rep in range(config.replicates)
    )


def _run_replicate(
    config: ExperimentConfig, stats: PopulationStats, index: int, rep: int, model
) -> tuple[VertexTable, DiffusionResult]:
    """Replicate rep of grid point `index`: stream -> graph -> population -> diffusion."""
    point = config.points[index]
    rng = stream(config.seed, 0, index * config.replicates + rep)
    graph = generate_graph(point.graph, rng)
    table = sample_population(stats, config.n, rng)
    dconf = DiffusionConfig(point.initial_fraction, config.iterations)
    return table, run_diffusion(graph, table, model, dconf, rng)


def run_experiment(
    config: ExperimentConfig,
    stub_model: str | None = None,
    out_dir: str | None = None,
) -> ExperimentOutput:
    """Run the full sweep and write per-run plus aggregated artifacts.

    Returns the aggregated sweep rows (also written to sweep.csv, whose
    columns follow the key order of a row) plus the per-run results.
    `stub_model`, a STUB_MODELS name, replaces the trained SVM with a
    constant predictor for oracle testing.  A shared trained model is
    saved as model.json.
    """
    out_dir = out_dir or config.output_dir
    stats = load_config_stats(config)
    models = _replicate_models(config, stats, stub_model)
    runs_dir = os.path.join(out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    if isinstance(models, SvmModel):
        models.save(os.path.join(out_dir, "model.json"))

    rows = []
    all_results: list[RunArtifacts] = []
    for index, point in enumerate(config.points):
        hops, fans, deltas = [], [], []
        for rep in range(config.replicates):
            model = models[rep] if isinstance(models, tuple) else models
            _, result = _run_replicate(config, stats, index, rep, model)
            run_dir = os.path.join(runs_dir, f"{point.tag}_r{rep}")
            os.makedirs(run_dir, exist_ok=True)
            write_log_csv(result.log, os.path.join(run_dir, "log.csv"))
            write_summary_json(
                result,
                config.n,
                os.path.join(run_dir, "summary.json"),
                extra={"tag": point.tag, "replicate": rep},
            )
            hops.append(result.avg_hops)
            fans.append(result.fanout)
            deltas.append(np.diff(result.coverage))
            all_results.append(RunArtifacts(point.tag, rep, result))
        deltas_arr = np.array(deltas)
        row = dict(point.columns)  # sweep.csv columns: the key order of this dict
        row["mu_h_mean"] = float(np.mean(hops))
        row["mu_h_std"] = _sample_std(np.array(hops))
        row["xi_mean"] = float(np.mean(fans))
        row["xi_std"] = _sample_std(np.array(fans))
        for i in range(min(config.iterations, 3)):
            row[f"dnu_{i + 1}_mean"] = float(np.mean(deltas_arr[:, i]))
            row[f"dnu_{i + 1}_std"] = _sample_std(deltas_arr[:, i])
        row["replicates"] = config.replicates
        rows.append(row)
    _write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"))
    return ExperimentOutput(rows=rows, runs=all_results)


def _write_sweep_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rows[0]))
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])


def report_distributions(
    config: ExperimentConfig, out_dir: str | None = None
) -> dict[str, np.ndarray]:
    """Per-field wave-distribution CSVs averaged over replicate runs.

    Each CSV mirrors the sweep's first grid point, run as `run_experiment`
    runs it (the same streams and models): rows All, Egos and one
    per iteration wave; proportions are means over replicates (waves empty
    in a replicate are excluded from its average; rows empty in every
    replicate keep the empty placeholder).
    """
    if not config.report_fields:
        raise ConfigError("report_fields", "must name at least one field")
    stats = load_config_stats(config)
    models = _replicate_models(config, stats, None)
    per_field: dict[str, list] = {fid: [] for fid in config.report_fields}
    for rep in range(config.replicates):
        model = models[rep] if isinstance(models, tuple) else models
        table, result = _run_replicate(config, stats, 0, rep, model)
        for fid in config.report_fields:
            per_field[fid].append(analysis.wave_distribution(result, table, fid))
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    averaged: dict[str, np.ndarray] = {}
    for fid, dists in per_field.items():
        first = dists[0]
        rows = np.full_like(first.proportions, analysis.EMPTY_ROW)
        for i in range(len(first.row_labels)):
            stack = [d.proportions[i] for d in dists if not d.empty_rows[i]]
            if stack:
                rows[i] = np.mean(stack, axis=0)
        averaged[fid] = rows
        avg = analysis.WaveDistribution(
            field_id=fid,
            categories=first.categories,
            row_labels=first.row_labels,
            proportions=rows,
            empty_rows=tuple(bool(np.all(r == analysis.EMPTY_ROW)) for r in rows),
        )
        avg.to_csv(os.path.join(out_dir, f"dist_{fid}.csv"))
    return averaged
