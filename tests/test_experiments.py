import builtins
import copy
import csv
import hashlib
import json
import pickle
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netspread.experiments as experiments
from netspread import analysis
from netspread.completion import PairSet
from netspread.experiments import (
    ConfigError,
    ExperimentConfig,
    PlantedRule,
    load_stats,
    report_distributions,
    run_experiment,
    stream,
    synthetic_pairs,
    train_pipeline,
)
from netspread.classifier import SvmModel
from netspread.cli import main
from netspread.diffusion import DiffusionConfig, read_run
from netspread.graph import GraphParams
from netspread.population import VertexTable

from conftest import TINY_SCHEMA, random_record, written_runs
from oracles import bfs_layers

RULE = {
    "conditions": [
        {"role": "receiver", "field": "food_risk_knowledge", "op": ">=", "value": 6},
        {"role": "sender", "field": "risk_perception", "op": ">=", "value": 4},
    ]
}
PARAMS = {"kernel": "rbf", "sigma": 12.0, "C": 4.0, "weight": 8.0}


def base_config(tmp_path, **overrides):
    doc = {
        "graph": {"model": "erdos_renyi", "n": 300, "edge_prob": [0.01]},
        "initial_fraction": [0.1],
        "iterations": 3,
        "replicates": 2,
        "seed": 11,
        "stats_file": "builtin",
        "output_dir": str(tmp_path / "out"),
        "training": {"mode": "synthetic", "sample_size": 400, "rule": RULE, "params": PARAMS},
    }
    doc.update(overrides)
    return doc


# Valid documents covering both graph models, every training mode's keys,
# a CV grid and report_fields; nothing in them is read from disk while parsing.
VALID_DOCS = [
    {
        "graph": {"model": "erdos_renyi", "n": 300, "edge_prob": [0.01, 0.02]},
        "initial_fraction": [0.1, 0.5],
        "iterations": 3,
        "replicates": 2,
        "seed": 11,
        "report_fields": ["gender"],
        "training": {"mode": "synthetic", "sample_size": 400, "rule": RULE,
                     "grid": [PARAMS, dict(PARAMS, sigma=8.0)], "cv_folds": 3},
    },
    {
        "graph": {"model": "small_world", "n": 200, "neighbors": [4, 6],
                  "rewire_prob": [0.0, 0.1]},
        "training": {"mode": "survey", "egos_file": "egos.csv", "alter_pool_file": "pool.csv",
                     "criteria": ["gender"], "contact_fields": ["contact_friends"],
                     "homophily": 0.7, "params": PARAMS},
    },
]


def _paths(doc, prefix=()):
    """Every key path into a JSON document below the top level."""
    if prefix:
        yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    owner = out
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return out


CONFIG_KEYS = sorted({p[-1] for doc in VALID_DOCS for p in _paths(doc) if isinstance(p[-1], str)})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
DOC_PATHS = [(i, p) for i, doc in enumerate(VALID_DOCS) for p in _paths(doc)]


class TestConfigParsing:
    def test_valid_docs_parse(self):
        for doc in VALID_DOCS:
            ExperimentConfig.from_dict(doc)

    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES)
    def test_any_json_document_parses_or_raises_config_error(self, value):
        try:
            ExperimentConfig.from_dict(value)
        except ConfigError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(DOC_PATHS), JSON_VALUES)
    def test_any_json_value_in_a_valid_doc_parses_or_raises_config_error(self, where, value):
        index, path = where
        try:
            ExperimentConfig.from_dict(_replaced(VALID_DOCS[index], path, value))
        except ConfigError:
            pass

    def test_config_layout_doc_names_every_key(self):
        # the module doc's layout block shows exactly the keys the parser takes
        block = experiments.__doc__.split("Config layout::")[1].split("\n\n")[1]
        assert set(re.findall(r'"(\w+)":', block)) == set().union(*experiments._KEYS.values())

    def test_params_parses_as_a_one_point_grid(self, tmp_path):
        doc = base_config(tmp_path)
        direct = ExperimentConfig.from_dict(doc).training
        doc["training"]["grid"] = [doc["training"].pop("params")]
        assert direct == ExperimentConfig.from_dict(doc).training
        assert [(p.C, p.weight, p.kernel.sigma) for p in direct.grid] == [(4.0, 8.0, 12.0)]

    def test_missing_graph(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({})
        assert err.value.path == "graph"

    def test_unknown_model(self, tmp_path):
        doc = base_config(tmp_path, graph={"model": "scale_free", "n": 10})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.path == "graph.model"

    def test_empty_grid_list(self, tmp_path):
        doc = base_config(tmp_path, graph={"model": "erdos_renyi", "n": 10, "edge_prob": []})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert err.value.path == "graph.edge_prob"

    def test_zero_replicates(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(tmp_path, replicates=0))
        assert err.value.path == "replicates"

    def test_rule_validation(self, tmp_path):
        bad_rule = {"conditions": [{"role": "nobody", "field": "x", "op": ">=", "value": 1}]}
        doc = base_config(tmp_path)
        doc["training"]["rule"] = bad_rule
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert "role" in err.value.path
        doc["training"]["rule"] = RULE

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_small_world_grid_order_matches_sweep_tables(self):
        config = ExperimentConfig.from_dict(
            {
                "graph": {
                    "model": "small_world",
                    "n": 200,
                    "neighbors": [10, 15],
                    "rewire_prob": [0.01, 0.05, 0.1],
                },
                "initial_fraction": [0.1, 0.2, 0.5],
                "seed": 0,
            }
        )
        points = config.points
        assert len(points) == 18  # 3 rewire x 2 neighbor x 3 fraction rows
        first = points[0].columns
        assert first == (("rewire_prob", 0.01), ("neighbors", 10), ("initial_fraction", 0.1))
        # rewire probability is the slowest-varying column
        assert [dict(g.columns)["rewire_prob"] for g in points[:6]] == [0.01] * 6
        assert [g.tag for g in points[:4]] == [
            "ps0.01_k10_a0.1", "ps0.01_k10_a0.2", "ps0.01_k10_a0.5", "ps0.01_k15_a0.1",
        ]
        assert points[-1].tag == "ps0.1_k15_a0.5"
        assert points[3].graph == GraphParams("small_world", 200, neighbors=15, rewire_prob=0.01)
        assert points[3].initial_fraction == 0.1

    def test_erdos_renyi_grid_order_and_tags(self):
        config = ExperimentConfig.from_dict(
            {
                "graph": {"model": "erdos_renyi", "n": 200, "edge_prob": [0.001, 1.0]},
                "initial_fraction": [0.1, 1.0],
                "seed": 0,
            }
        )
        # values are formatted with :g in tags, so 1.0 is tagged 1
        assert [g.tag for g in config.points] == [
            "pe0.001_a0.1", "pe0.001_a1", "pe1_a0.1", "pe1_a1",
        ]
        assert config.points[1].columns == (("edge_prob", 0.001), ("initial_fraction", 1.0))
        assert config.points[2].graph == GraphParams("erdos_renyi", 200, edge_prob=1.0)


def one_row(**values) -> VertexTable:
    """A 1-row builtin-schema table with the given field values."""
    table = experiments.sample_population(load_stats("builtin"), 1, stream(3, 2))
    columns = dict(table.columns, **{fid: np.array([v]) for fid, v in values.items()})
    return VertexTable(table.schema, columns)


class TestPlantedRule:
    def test_label_arrays_match_scalar(self):
        rule = PlantedRule.from_config(RULE, "rule")
        stats = load_stats("builtin")
        senders = experiments.sample_population(stats, 50, stream(3, 0))
        receivers = experiments.sample_population(stats, 50, stream(3, 1))
        labels = rule.label_arrays(senders, receivers)
        for i in range(50):
            # RULE spelled out: receiver food_risk_knowledge >= 6, sender risk_perception >= 4
            holds = (receivers.row(i)["food_risk_knowledge"] >= 6
                     and senders.row(i)["risk_perception"] >= 4)
            assert labels[i] == (1 if holds else -1)

    def test_synthetic_pairs_carry_the_rule_labels(self):
        rule = PlantedRule.from_config(RULE, "rule")
        stats = load_stats("builtin")
        pairs = synthetic_pairs(stats, 40, rule, stream(3, 3))
        again = synthetic_pairs(stats, 40, rule, stream(3, 3))
        assert len(pairs) == 40
        assert np.array_equal(pairs.labels, rule.label_arrays(pairs.senders, pairs.receivers))
        assert pairs.matrix().shape == (40, 2 * stats.schema.encoded_dim)
        assert pairs.matrix().tobytes() == again.matrix().tobytes()

    def test_conjunction(self):
        rule = PlantedRule.from_config(RULE, "rule")
        good_r = one_row(food_risk_knowledge=7)
        good_s = one_row(risk_perception=5)
        assert rule.label_arrays(good_s, good_r).tolist() == [1]
        assert rule.label_arrays(one_row(risk_perception=1), good_r).tolist() == [-1]
        assert rule.label_arrays(good_s, one_row(food_risk_knowledge=2)).tolist() == [-1]


class TestStreams:
    def test_distinct_keys_distinct_streams(self):
        a = stream(5, 0, 0).random(4)
        b = stream(5, 0, 1).random(4)
        c = stream(5, 1, 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_same_key_reproducible(self):
        assert np.array_equal(stream(5, 2, 7).random(4), stream(5, 2, 7).random(4))


class TestTrainPipeline:
    def test_synthetic_mode_trains(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config(tmp_path))
        model = train_pipeline(config)
        assert model.converged
        assert model.schema is not None

    def test_model_file_byte_identical_across_reruns(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config(tmp_path))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        train_pipeline(config).save(p1)
        train_pipeline(config).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_size_cap_honored(self, tmp_path):
        doc = base_config(tmp_path)
        doc["training"]["sample_size"] = 150
        config = ExperimentConfig.from_dict(doc)
        model = train_pipeline(config)
        assert model.training_size == 150

    def test_single_point_grid_degenerates_to_direct_fit(self, tmp_path):
        doc = base_config(tmp_path)
        doc["training"]["grid"] = [PARAMS]
        del doc["training"]["params"]
        config = ExperimentConfig.from_dict(doc)
        model = train_pipeline(config)
        assert model.converged

    def test_grid_selection_runs_cross_validation(self, tmp_path):
        doc = base_config(tmp_path)
        doc["training"]["sample_size"] = 250
        doc["training"]["grid"] = [
            dict(PARAMS),
            dict(PARAMS, sigma=8.0),
        ]
        del doc["training"]["params"]
        config = ExperimentConfig.from_dict(doc)
        model = train_pipeline(config)
        assert model.params.kernel.sigma in (8.0, 12.0)

    def test_pairs_mode(self, tmp_path):
        stats = load_stats("builtin")
        gen = np.random.default_rng(0)
        senders = experiments.sample_population(stats, 120, stream(9, 0))
        receivers = experiments.sample_population(stats, 120, stream(9, 1))
        labels = PlantedRule.from_config(RULE, "rule").label_arrays(senders, receivers)
        pairs_path = tmp_path / "pairs.csv"
        PairSet(senders, receivers, labels).to_csv(pairs_path)
        doc = base_config(tmp_path)
        doc["training"] = {
            "mode": "pairs",
            "pairs_file": str(pairs_path),
            "sample_size": 120,
            "params": PARAMS,
        }
        config = ExperimentConfig.from_dict(doc)
        model = train_pipeline(config)
        assert model.converged

    def test_survey_mode(self, tmp_path):
        stats = load_stats("builtin")
        table = experiments.sample_population(stats, 80, stream(13, 0))
        egos_path = tmp_path / "egos.csv"
        table.to_csv(egos_path)
        pool = experiments.sample_population(stats, 60, stream(13, 1))
        pool_path = tmp_path / "pool.csv"
        pool.to_csv(pool_path)
        alters_path = tmp_path / "alters.csv"
        with open(alters_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ego", "gender", "age_band", "education"])
            for i in range(10):
                donor = pool.row(i)
                writer.writerow([i, donor["gender"], donor["age_band"], donor["education"]])
        doc = base_config(tmp_path)
        doc["training"] = {
            "mode": "survey",
            "egos_file": str(egos_path),
            "alter_pool_file": str(pool_path),
            "alters_file": str(alters_path),
            "criteria": ["gender", "age_band"],
            "contact_fields": ["contact_friends", "contact_family"],
            "homophily": 0.7,
            "sample_size": 2000,
            "params": PARAMS,
        }
        config = ExperimentConfig.from_dict(doc)
        model = train_pipeline(config)
        assert model.support_vectors.shape[0] > 0


class TestRunExperiment:
    def test_stub_run_matches_bfs_oracle(self, tmp_path):
        doc = base_config(
            tmp_path,
            graph={"model": "erdos_renyi", "n": 120, "edge_prob": [0.03]},
            replicates=1,
        )
        del doc["training"]
        config = ExperimentConfig.from_dict(doc)
        rows = run_experiment(config, stub_model="always-positive")
        result = written_runs(config)[0]
        # rebuild the run's graph from its stream and compare with BFS layers
        rng = stream(config.seed, 0, 0)
        graph = experiments.generate_graph(config.points[0].graph, rng)
        layers = bfs_layers(graph, result.seeds)
        assert result.wave == {v: d for v, d in layers.items() if d <= 3}
        row = rows[0]
        assert row["dnu_1_std"] == 0.0  # single replicate

    def test_identical_replicate_streams_give_zero_std(self, tmp_path, monkeypatch):
        # degenerate seeding: every replicate gets the same stream
        real_stream = experiments.stream
        monkeypatch.setattr(
            experiments, "stream", lambda seed, *key: real_stream(seed, key[0])
        )
        doc = base_config(tmp_path, replicates=3)
        del doc["training"]
        config = ExperimentConfig.from_dict(doc)
        row = run_experiment(config, stub_model="always-positive")[0]
        for name in ("mu_h_std", "xi_std", "dnu_1_std", "dnu_2_std", "dnu_3_std"):
            assert row[name] == 0.0

    def test_unknown_stub_rejected(self, tmp_path):
        doc = base_config(tmp_path)
        config = ExperimentConfig.from_dict(doc)
        with pytest.raises(ConfigError):
            run_experiment(config, stub_model="coin-flip")

    def test_artifacts_written_and_consistent(self, tmp_path):
        doc = base_config(tmp_path, replicates=2)
        del doc["training"]
        config = ExperimentConfig.from_dict(doc)
        run_experiment(config, stub_model="always-positive")
        out_dir = Path(config.output_dir)
        sweep = out_dir / "sweep.csv"
        assert sweep.exists()
        # aggregated means equal the mean of the per-run summary artifacts
        summaries = []
        for rep in range(2):
            run_dir = out_dir / "runs" / f"pe0.01_a0.1_r{rep}"
            summaries.append(json.loads((run_dir / "summary.json").read_text()))
            assert (run_dir / "log.csv").exists()
        with open(sweep, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["mu_h_mean"]) == pytest.approx(
            np.mean([s["mu_h"] for s in summaries])
        )
        assert float(row["xi_mean"]) == pytest.approx(
            np.mean([s["xi"] for s in summaries])
        )
        deltas = np.array([np.diff(s["nu"]) for s in summaries])
        assert float(row["dnu_1_mean"]) == pytest.approx(deltas[:, 0].mean())

    def test_byte_identical_reruns(self, tmp_path):
        doc1 = base_config(tmp_path, output_dir=str(tmp_path / "a"))
        doc2 = base_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(ExperimentConfig.from_dict(doc1))
        run_experiment(ExperimentConfig.from_dict(doc2))
        files1 = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_training_required_without_stub(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["training"]
        config = ExperimentConfig.from_dict(doc)
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.path == "training"
        # the config is rejected before anything is written
        assert not Path(config.output_dir).exists()

    def test_per_replicate_training(self, tmp_path):
        doc = base_config(tmp_path, replicates=2)
        doc["training"]["per_replicate"] = True
        doc["training"]["sample_size"] = 200
        config = ExperimentConfig.from_dict(doc)
        run_experiment(config)
        runs = Path(config.output_dir) / "runs"
        assert sorted(p.name for p in runs.iterdir() if p.is_dir()) == [
            "pe0.01_a0.1_r0", "pe0.01_a0.1_r1"]
        # no shared model file is written in per-replicate mode
        assert not (Path(config.output_dir) / "model.json").exists()

    def test_sweep_memory_does_not_grow_with_replicates(self, tmp_path):
        # each run is dropped once written, so 8 replicates peak like 1
        def peak(replicates, name):
            doc = base_config(
                tmp_path,
                graph={"model": "erdos_renyi", "n": 2000, "edge_prob": [0.005]},
                replicates=replicates,
                output_dir=str(tmp_path / name),
            )
            del doc["training"]
            config = ExperimentConfig.from_dict(doc)
            tracemalloc.start()
            try:
                run_experiment(config, stub_model="always-positive")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, "warm-up")  # first-call allocations: stats loading and caches
        assert peak(8, "eight") / peak(1, "one") <= 1.2

    def test_default_n_matches_documented_default(self):
        config = ExperimentConfig.from_dict(
            {"graph": {"model": "erdos_renyi", "edge_prob": [0.001]}, "seed": 0}
        )
        assert config.n == 10000
        assert config.iterations == 3
        assert config.replicates == 5
        assert tuple(g.initial_fraction for g in config.points) == (0.1, 0.2, 0.5)

    def test_small_world_coverage_increments_shrink(self, tmp_path):
        # statistical trend with a trained model: new-informed counts fall
        # with each iteration in nearly every small-world run
        doc = base_config(
            tmp_path,
            graph={"model": "small_world", "n": 1500, "neighbors": [10],
                   "rewire_prob": [0.1]},
            replicates=5,
        )
        doc["training"]["sample_size"] = 1500
        config = ExperimentConfig.from_dict(doc)
        run_experiment(config)
        flags = []
        for run in written_runs(config):
            d = np.diff(run.coverage)
            flags.append(all(d[i] >= d[i + 1] - 1e-12 for i in range(len(d) - 1)))
        assert np.mean(flags) >= 0.9


class TestReportDistributions:
    def test_tables_layout(self, tmp_path):
        doc = base_config(tmp_path, report_fields=["gender", "profession"])
        config = ExperimentConfig.from_dict(doc)
        report_distributions(config)
        out_dir = Path(config.output_dir)
        for fid in ("gender", "profession"):
            lines = (out_dir / f"dist_{fid}.csv").read_text().splitlines()
            waves = [line.split(",")[0] for line in lines[1:]]
            assert waves == ["All", "Egos", "Alters 1", "Alters 2", "Alters 3"]

    def test_requires_fields(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config(tmp_path))
        with pytest.raises(ConfigError) as err:
            report_distributions(config)
        assert err.value.path == "report_fields"

    def test_averaging_identical_replicates_is_identity(self, tmp_path, monkeypatch):
        real_stream = experiments.stream
        monkeypatch.setattr(
            experiments, "stream", lambda seed, *key: real_stream(seed, key[0])
        )
        doc = base_config(tmp_path, report_fields=["gender"], replicates=2)
        config = ExperimentConfig.from_dict(doc)
        averaged = report_distributions(config)
        # replicates identical: the average equals a single replicate, rows sum to 1
        rows = averaged["gender"]
        for row in rows:
            if not np.all(row == -1.0):
                assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_report_field(self, tmp_path):
        doc = base_config(tmp_path, report_fields=["no_such_field"])
        config = ExperimentConfig.from_dict(doc)
        with pytest.raises(ValueError):
            report_distributions(config)


def report_doc(tmp_path, per_replicate, **overrides):
    """Two grid points of two replicates, read from a copy of the builtin stats."""
    stats = tmp_path / "stats.json"
    if not stats.exists():
        stats.write_bytes(experiments._stats_ref("builtin").read_bytes())
    doc = base_config(tmp_path, report_fields=["gender", "profession"],
                      initial_fraction=[0.1, 0.2], stats_file=str(stats), **overrides)
    doc["training"].update(per_replicate=per_replicate, sample_size=200)
    return doc


def recomputed_point0(config) -> list:
    """(result, vertex table) of point 0's replicates as report made them when
    it reran them: the models trained afresh, each replicate rerun from its
    stream."""
    stats = load_stats(config.stats_file)
    point = config.points[0]
    runs = []
    for rep in range(config.replicates):
        model = train_pipeline(config, stats, rep + 1 if config.training.per_replicate else 0)
        rng = stream(config.seed, 0, rep)
        graph = experiments.generate_graph(point.graph, rng)
        table = experiments.sample_population(stats, config.n, rng)
        dconf = DiffusionConfig(point.initial_fraction, config.iterations)
        runs.append((experiments.run_diffusion(graph, table, model, dconf, rng), table))
    return runs


def dist_bytes(out_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("dist_*.csv"))}


@pytest.fixture(scope="module", params=[False, True], ids=["shared", "per_replicate"])
def reference(request, tmp_path_factory):
    """(per_replicate, recomputed_point0, the dist CSVs report writes with no
    runs on disk)."""
    config = ExperimentConfig.from_dict(report_doc(tmp_path_factory.mktemp("ref"), request.param))
    report_distributions(config)
    return request.param, recomputed_point0(config), dist_bytes(config.output_dir)


def _simulate(tmp_path, per_replicate):
    run_experiment(ExperimentConfig.from_dict(report_doc(tmp_path, per_replicate)))


def _stub_simulate(tmp_path, per_replicate):
    config = ExperimentConfig.from_dict(report_doc(tmp_path, per_replicate))
    run_experiment(config, stub_model="always-positive")


def _other_seed(tmp_path, per_replicate):
    run_experiment(ExperimentConfig.from_dict(report_doc(tmp_path, per_replicate, seed=12)))


def _edited_stats(tmp_path, per_replicate):
    _simulate(tmp_path, per_replicate)
    with open(tmp_path / "stats.json", "a") as fh:  # same statistics, other bytes
        fh.write("\n")


def _deleted_run(tmp_path, per_replicate):
    _simulate(tmp_path, per_replicate)
    shutil.rmtree(tmp_path / "out" / "runs" / "pe0.01_a0.1_r1")


def _truncated_manifest(tmp_path, per_replicate):
    _simulate(tmp_path, per_replicate)
    (tmp_path / "out" / "runs" / "manifest.json").write_text('{"sha256": "x", "ru')


def _runs_not_a_list(tmp_path, per_replicate):
    # a string would pass `name in runs` as a substring match
    _simulate(tmp_path, per_replicate)
    config = ExperimentConfig.from_dict(report_doc(tmp_path, per_replicate))
    (tmp_path / "out" / "runs" / "manifest.json").write_text(json.dumps({
        "sha256": experiments._inputs_digest(config, None),
        "runs": "pe0.01_a0.1_r0 pe0.01_a0.1_r1"}))


# before report: what is on disk -> why report writes point 0's runs (None: it reads them)
BEFORE_REPORT = {
    "after_simulate": (_simulate, None),
    "no_simulate": (lambda tmp_path, per_replicate: None, "no manifest"),
    "after_stub_simulate": (_stub_simulate, "the input digest differs"),
    "changed_seed": (_other_seed, "the input digest differs"),
    "edited_stats": (_edited_stats, "the input digest differs"),
    "deleted_run": (_deleted_run, "run pe0.01_a0.1_r1 is missing"),
    "truncated_manifest": (_truncated_manifest, "the manifest is not valid JSON"),
    "runs_not_a_list": (_runs_not_a_list, "the manifest holds no list of runs"),
}


def count_calls(monkeypatch) -> dict:
    """Count the train_pipeline and run_diffusion calls made through experiments."""
    calls = {"train_pipeline": 0, "run_diffusion": 0}
    for name in calls:
        def counted(*args, _real=getattr(experiments, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    return calls


class TestReportReadsRuns:
    @pytest.mark.parametrize("before", BEFORE_REPORT)
    def test_report_reads_current_runs_else_writes_them(
        self, tmp_path, monkeypatch, caplog, reference, before
    ):
        per_replicate, runs, dists = reference
        setup, reason = BEFORE_REPORT[before]
        setup(tmp_path, per_replicate)
        config = ExperimentConfig.from_dict(report_doc(tmp_path, per_replicate))
        calls = count_calls(monkeypatch)
        tabulated = []  # the (result, table) of each wave_distribution call
        real = analysis.wave_distribution
        monkeypatch.setattr(analysis, "wave_distribution", lambda result, table, fid: (
            tabulated.append((result, table.columns)) or real(result, table, fid)))
        with caplog.at_level("INFO", logger="netspread.experiments"):
            report_distributions(config)
        assert dist_bytes(config.output_dir) == dists
        # every field is tabulated on the old path's run and population
        expected = [run for run in runs for _ in config.report_fields]
        assert len(tabulated) == len(expected)
        for (result, columns), (run, table) in zip(tabulated, expected):
            assert result == run
            assert all(np.array_equal(columns[f], table.columns[f]) for f in columns)
        runs_dir = tmp_path / "out" / "runs"
        manifest = json.loads((runs_dir / "manifest.json").read_text())
        assert manifest["sha256"] == experiments._inputs_digest(config, None)
        if reason is None:
            assert calls == {"train_pipeline": 0, "run_diffusion": 0}
            assert "reading the runs of grid point 0" in caplog.text
            assert len(manifest["runs"]) == 4  # simulate's, both grid points
        else:
            assert calls == {"train_pipeline": 2 if per_replicate else 1, "run_diffusion": 2}
            assert f"writing the runs of grid point 0 under {runs_dir}: {reason}" in caplog.text
            assert manifest["runs"] == ["pe0.01_a0.1_r0", "pe0.01_a0.1_r1"]

    def test_cli_report_reads_simulate_out(self, tmp_path, monkeypatch, reference):
        per_replicate, _, dists = reference
        doc = report_doc(tmp_path, per_replicate, output_dir=str(tmp_path / "unused"))
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "given")]
        assert main(["simulate", *argv]) == 0
        calls = count_calls(monkeypatch)
        assert main(["report", *argv]) == 0
        assert calls == {"train_pipeline": 0, "run_diffusion": 0}
        assert dist_bytes(tmp_path / "given") == dists
        assert not (tmp_path / "unused").exists()


class TestManifest:
    def test_simulate_names_every_run_and_logs_each_point(self, tmp_path, caplog):
        config = ExperimentConfig.from_dict(report_doc(tmp_path, False))
        with caplog.at_level("INFO", logger="netspread.experiments"):
            run_experiment(config)
        manifest = json.loads((tmp_path / "out" / "runs" / "manifest.json").read_text())
        assert manifest == {
            "runs": ["pe0.01_a0.1_r0", "pe0.01_a0.1_r1", "pe0.01_a0.2_r0", "pe0.01_a0.2_r1"],
            "sha256": experiments._inputs_digest(config, None),
        }
        progress = [r.getMessage() for r in caplog.records if "grid point" in r.getMessage()]
        assert len(progress) == 2
        for message, expected in zip(progress, ["1/2 pe0.01_a0.1", "2/2 pe0.01_a0.2"]):
            assert re.fullmatch(f"grid point {expected} written, [0-9.]+ s elapsed", message)

    def test_interrupted_sweep_leaves_no_manifest(self, tmp_path, monkeypatch):
        config = ExperimentConfig.from_dict(report_doc(tmp_path, False))
        run_experiment(config)
        real, calls = experiments._run_replicate, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:  # the first run of the second grid point
                raise RuntimeError("interrupted")
            return real(*args)

        monkeypatch.setattr(experiments, "_run_replicate", failing)
        with pytest.raises(RuntimeError):
            run_experiment(config)
        assert not (tmp_path / "out" / "runs" / "manifest.json").exists()

    @pytest.mark.parametrize("second", [
        (False, ["--stub-model", "always-positive"]), (True, []),
    ], ids=["stub", "per_replicate"])
    def test_simulate_saving_no_model_removes_an_old_one(self, tmp_path, second):
        per_replicate, flags = second
        config = tmp_path / "cfg.json"
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        config.write_text(json.dumps(report_doc(tmp_path, False)))
        assert main(argv) == 0
        assert (tmp_path / "out" / "model.json").is_file()
        config.write_text(json.dumps(report_doc(tmp_path, per_replicate)))
        assert main(argv + flags) == 0
        assert not (tmp_path / "out" / "model.json").exists()
        assert (tmp_path / "out" / "runs" / "manifest.json").is_file()

    @pytest.mark.parametrize("change", [
        {"output_dir": "elsewhere"}, {"report_fields": ["age_band"]},
    ])
    def test_digest_ignores_output_dir_and_report_fields(self, tmp_path, change):
        doc = report_doc(tmp_path, False)
        digest = experiments._inputs_digest(ExperimentConfig.from_dict(doc), None)
        changed = ExperimentConfig.from_dict(dict(doc, **change))
        assert experiments._inputs_digest(changed, None) == digest
        assert experiments._inputs_digest(changed, "always-positive") != digest


def tree_state(root) -> dict:
    """path -> (size, mtime_ns) of every file and directory under root."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in Path(root).rglob("*")}


class TestReplicateJob:
    @pytest.mark.parametrize("stub", [None, "always-positive"], ids=["trained", "stub"])
    def test_job_writes_nothing_and_its_record_is_the_written_run(
        self, tmp_path, monkeypatch, stub
    ):
        config = ExperimentConfig.from_dict(report_doc(tmp_path, False))
        run_experiment(config, stub_model=stub)
        stats = load_stats(config.stats_file)
        models = experiments._replicate_models(config, stats, stub)
        # what a worker would get: the job's inputs after a pickle round trip
        config2, stats2, models2 = pickle.loads(pickle.dumps((config, stats, models)))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        before, opened, real_open = tree_state(tmp_path), [], builtins.open
        monkeypatch.setattr(builtins, "open",
                            lambda *a, **k: opened.append(a) or real_open(*a, **k))
        records, shipped = {}, {}
        for index, point in enumerate(config.points):
            for rep, model in enumerate(models):
                name = f"{point.tag}_r{rep}"
                records[name] = experiments._run_replicate(config, stats, index, rep, model)
                shipped[name] = experiments._run_replicate(
                    config2, stats2, index, rep, models2[rep])
        monkeypatch.setattr(builtins, "open", real_open)
        assert opened == []
        assert tree_state(tmp_path) == before
        assert list(cwd.iterdir()) == []
        assert len(records) == 4
        for name, record in records.items():
            assert record == read_run(Path(config.output_dir) / "runs" / name)
            assert shipped[name] == record


# sha256sum-style lines ("<digest>  <path>") for every file under the output
# directory of two stub sweeps, recorded from the code before the replicate job
# was split from its writer
GOLDEN_SWEEPS = {
    "erdos_renyi": (
        {"model": "erdos_renyi", "n": 300, "edge_prob": [0.005, 0.01]},
        """
c9d5d5a0f7818bf4e73825ed45e660da09bc7c444a13f8e26c976e9a4c3cb543  runs/manifest.json
a893a40e21f8d29005c793e3c2b4d86f98f9a6967893ec8e8adc4b6bb74718ae  runs/pe0.005_a0.1_r0/log.csv
1ec2d09f339678780096f13c7c60d894a0e96c8e56dc149a8e364edc8530cf1b  runs/pe0.005_a0.1_r0/summary.json
167cf612d29a50575d4d7979fa9cff592b09f0f204fda02196c422b6d67cfa2e  runs/pe0.005_a0.1_r1/log.csv
9eb0980e667fbca5c4f17f08619fde46d231c8ea8d8a6ae1450d7b9e95e27753  runs/pe0.005_a0.1_r1/summary.json
c023236f1492e0de278532188b03b79dd78bbc32083eee5c9ac16338cc77272c  runs/pe0.01_a0.1_r0/log.csv
6f22262fab8c5262fe66b0be8d0285cf1242d699a06cb830205681b6ea325b9c  runs/pe0.01_a0.1_r0/summary.json
910fd5fccdd95b186a9ee13b539a7b8d654769e318b72a352cb53301129e4e41  runs/pe0.01_a0.1_r1/log.csv
67827af1d643e360de670b7e12c56f4df1aed26ee3b4f219c5e787f56b5b51d4  runs/pe0.01_a0.1_r1/summary.json
83055d045ec68e1cca80c7747e5edd97bd2716af98cddc9b9f575ec4316fcdc2  sweep.csv
"""),
    "small_world": (
        {"model": "small_world", "n": 300, "neighbors": [4], "rewire_prob": [0.0, 0.1]},
        """
8c9957fe5a6621bf44a11eaf3c61812e4e9dd0af1993ce0b465222aa217cde11  runs/manifest.json
f0cd6a5e6f040df97a29929b8ee7e7b5c32ff433cf1fd91996249d15eb9af96f  runs/ps0.1_k4_a0.1_r0/log.csv
38a23ff916d235d328fd9e5deceda369bb84d16503a284ca5f074444121c34e0  runs/ps0.1_k4_a0.1_r0/summary.json
de45bf230618fcef219a3aebc9b6e1fd2cdc519849247f45549afd5c7a49b8f3  runs/ps0.1_k4_a0.1_r1/log.csv
dd2133d916d77f774afdc294c294eeeddd97ff713ef5d9fd57ba4a2313211fe5  runs/ps0.1_k4_a0.1_r1/summary.json
3a763cb2df8fb71ea5749c8d665e4d9288310e6ef150986330dca18c9906c4c4  runs/ps0_k4_a0.1_r0/log.csv
e86591eba132ce4e5f6bfb1ea8bf55c4f916b2debcc39ca2fe4738233a3848fc  runs/ps0_k4_a0.1_r0/summary.json
46abee0608b38210db8b8348cc7363b23dd7cfa55b584c629d962ac64802410c  runs/ps0_k4_a0.1_r1/log.csv
b668c4a9e7453ad6e1d1b37df1d4b21b9e72465828c6d0c60c32481b4ce4c80f  runs/ps0_k4_a0.1_r1/summary.json
59668d2ee080c333835d18a85123f99ad000b3c4652f2e8367faae41ddef83ee  sweep.csv
"""),
}


@pytest.mark.parametrize("model", GOLDEN_SWEEPS)
def test_stub_sweep_output_bytes_are_pinned(tmp_path, model):
    """Every file a 2-point, 2-replicate always-positive sweep writes has the
    sha256 recorded in GOLDEN_SWEEPS, so an output change between commits
    shows here, not only between two runs of one commit.

    A stub run never reaches a kernel GEMM, and the population's values
    reach no file (a log names vertices; a summary holds coverage, seeds and
    the log metrics), so the digests do not depend on the BLAS build.  They
    do depend on numpy's PCG64 streams and, through the manifest's input
    digest, on the repr of the parsed config and the bytes of the builtin
    stats file.
    """
    graph, expected = GOLDEN_SWEEPS[model]
    out = tmp_path / "out"
    doc = {"graph": graph, "initial_fraction": [0.1], "iterations": 3, "replicates": 2,
           "seed": 11, "stats_file": "builtin", "output_dir": str(out)}
    run_experiment(ExperimentConfig.from_dict(doc), stub_model="always-positive")
    written = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
    assert written == dict(line.split()[::-1] for line in expected.strip().splitlines())


@pytest.mark.parametrize("graph", [
    {"model": "erdos_renyi", "n": 300, "edge_prob": [0.01, 0.03]},
    {"model": "small_world", "n": 300, "neighbors": [4], "rewire_prob": [0.0, 0.1]},
], ids=["erdos_renyi", "small_world"])
def test_trained_sweep_writes_the_reference_paths_bytes(tmp_path, monkeypatch, graph):
    """A trained sweep writes the same files with the certified fast pair
    scorer as with every call on the reference path, and the model's
    scoring counters match the calls a wrapper counts."""

    def sweep(name) -> tuple:
        calls, reference = [], []
        real_predict, real_values = SvmModel.predict_pairs, SvmModel._pair_values

        def predict(self, *args):
            calls.append(self)
            return real_predict(self, *args)

        def values(self, *rows):
            reference.append(self)
            return real_values(self, *rows)

        monkeypatch.setattr(SvmModel, "predict_pairs", predict)
        monkeypatch.setattr(SvmModel, "_pair_values", values)
        out = tmp_path / name
        doc = base_config(tmp_path, graph=graph, initial_fraction=[0.1, 0.5],
                          output_dir=str(out))
        run_experiment(ExperimentConfig.from_dict(doc))
        model = calls[0]
        assert all(m is model for m in calls)
        assert model.fast_calls + model.fallback_calls == len(calls)
        assert model.fallback_calls == len(reference)
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        return model, files

    model, fast = sweep("fast")
    assert model.fast_calls > 0
    monkeypatch.setattr(SvmModel, "_fast_values", lambda self, *rows: None)
    model, reference = sweep("reference")
    assert (model.fast_calls, model.fallback_calls > 0) == (0, True)
    assert len(fast) > 10 and fast == reference
