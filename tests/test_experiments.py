import copy
import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netspread.experiments as experiments
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
from netspread.graph import GraphParams
from netspread.population import VertexTable

from conftest import TINY_SCHEMA, random_record
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
                     "homophily": 0.7, "params": PARAMS, "max_kernel_evals": 1000},
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

    def test_training_budget_scales_with_examples(self, tmp_path):
        from netspread.experiments import training_budget

        assert training_budget(100) == 10_000_000  # flat solver default
        assert training_budget(20000) == 5 * 20000 * 20000
        doc = base_config(tmp_path)
        doc["training"]["max_kernel_evals"] = 12345
        config = ExperimentConfig.from_dict(doc)
        assert config.training.max_kernel_evals == 12345

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
        out = run_experiment(config, stub_model="always-positive")
        result = out.runs[0].result
        # rebuild the run's graph from its stream and compare with BFS layers
        rng = stream(config.seed, 0, 0)
        graph = experiments.generate_graph(config.points[0].graph, rng)
        layers = bfs_layers(graph, result.seeds)
        assert result.wave == {v: d for v, d in layers.items() if d <= 3}
        row = out.rows[0]
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
        out = run_experiment(config, stub_model="always-positive")
        row = out.rows[0]
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
        out = run_experiment(config, stub_model="always-positive")
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
        out1 = run_experiment(ExperimentConfig.from_dict(doc1))
        out2 = run_experiment(ExperimentConfig.from_dict(doc2))
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
        out = run_experiment(config)
        assert len(out.runs) == 2
        # no shared model file is written in per-replicate mode
        assert not (Path(config.output_dir) / "model.json").exists()

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
        out = run_experiment(config)
        flags = []
        for run in out.runs:
            d = np.diff(run.result.coverage)
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

    @pytest.mark.parametrize("per_replicate,stream_indices", [(False, [0]), (True, [1, 2])])
    def test_reports_the_runs_simulate_makes(
        self, tmp_path, monkeypatch, per_replicate, stream_indices
    ):
        doc = base_config(tmp_path, report_fields=["gender"], replicates=2)
        doc["training"]["per_replicate"] = per_replicate
        doc["training"]["sample_size"] = 200
        config = ExperimentConfig.from_dict(doc)
        trained, reported = [], []
        real_train, real_run = experiments.train_pipeline, experiments.run_diffusion

        def train(config, stats=None, stream_index=0):
            trained.append(stream_index)
            return real_train(config, stats, stream_index)

        def run(*args):
            result = real_run(*args)
            reported.append(result.log)
            return result

        monkeypatch.setattr(experiments, "train_pipeline", train)
        simulated = [art.result.log for art in run_experiment(config).runs]
        # simulate trains one shared model on stream index 0, or per-replicate
        # models on stream index rep + 1
        assert trained == stream_indices
        trained.clear()
        monkeypatch.setattr(experiments, "run_diffusion", run)
        report_distributions(config)
        # report trains the same models and replays simulate's runs
        assert trained == stream_indices
        assert reported == simulated and any(simulated)

    def test_unknown_report_field(self, tmp_path):
        doc = base_config(tmp_path, report_fields=["no_such_field"])
        config = ExperimentConfig.from_dict(doc)
        with pytest.raises(ValueError):
            report_distributions(config)
