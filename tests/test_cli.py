import json
from pathlib import Path

import numpy as np
import pytest

from netspread.cli import main
from netspread.completion import PairSet
from netspread.experiments import load_stats
from netspread.population import sample_population

RULE = {
    "conditions": [
        {"role": "receiver", "field": "food_risk_knowledge", "op": ">=", "value": 6},
        {"role": "sender", "field": "risk_perception", "op": ">=", "value": 4},
    ]
}
TRAINING = {
    "mode": "synthetic",
    "sample_size": 300,
    "rule": RULE,
    "params": {"kernel": "rbf", "sigma": 12.0, "C": 4.0, "weight": 8.0},
}

SURVEY = dict(
    TRAINING,
    mode="survey",
    egos_file="e.csv",
    alter_pool_file="p.csv",
    criteria=["gender"],
    contact_fields=["contact_friends"],
)


def write_config(tmp_path, name="cfg.json", **overrides) -> Path:
    doc = {
        "graph": {"model": "small_world", "n": 200, "neighbors": [4], "rewire_prob": [0.1]},
        "initial_fraction": [0.1],
        "iterations": 3,
        "replicates": 2,
        "seed": 3,
        "stats_file": "builtin",
        "output_dir": str(tmp_path / "out"),
        "report_fields": ["gender"],
        "training": TRAINING,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestExitCodes:
    def test_simulate_success(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config)]) == 0
        assert "sweep.csv" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, replicates=0)
        assert main(["simulate", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, stats_file=str(tmp_path / "missing.json"))
        # stats_file existence is validated lazily: a ConfigError -> 2
        code = main(["simulate", "--config", str(config)])
        assert code == 2

    @pytest.mark.parametrize("overrides,path", [
        ({"initial_fraction": [1.5]}, "initial_fraction[0]"),
        ({"initial_fraction": [0.1, "half"]}, "initial_fraction[1]"),
        ({"iterations": "three"}, "iterations"),
        ({"replicates": [2]}, "replicates"),
        ({"seed": "abc"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"graph": {"model": "small_world", "n": "abc", "neighbors": [4],
                    "rewire_prob": [0.1]}}, "graph.n"),
        ({"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": [0.01, "x"]}},
         "graph.edge_prob[1]"),
        ({"graph": {"model": "small_world", "n": 10.7, "neighbors": [4],
                    "rewire_prob": [0.1]}}, "graph.n"),
        ({"iterations": 2.9}, "iterations"),
        ({"replicates": True}, "replicates"),
        ({"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": [1.5]}},
         "graph.edge_prob[0]"),
        ({"graph": {"model": "small_world", "n": 10, "neighbors": [5],
                    "rewire_prob": [0.1]}}, "graph.neighbors[0]"),
        ({"graph": {"model": "small_world", "n": 200, "neighbors": [4],
                    "rewire_prob": [0.1, 1.5]}}, "graph.rewire_prob[1]"),
        ({"graph": 5}, "graph"),
        ({"graph": ["model"]}, "graph"),
        ({"training": []}, "training"),
        ({"training": {"grid": 5}}, "training.grid"),
        ({"report_fields": "gender"}, "report_fields"),
        ({"report_fields": ["gender", 3]}, "report_fields[1]"),
        ({"training": dict(SURVEY, egos_file=["egos.csv"])}, "training.egos_file"),
        ({"training": dict(SURVEY, alter_pool_file=3)}, "training.alter_pool_file"),
        ({"training": dict(SURVEY, alters_file={"path": "a.csv"})}, "training.alters_file"),
        ({"training": dict(SURVEY, egos_file=None)}, "training.egos_file"),
        ({"training": dict(TRAINING, mode="pairs", pairs_file=0)}, "training.pairs_file"),
        ({"training": dict(TRAINING, per_replicate="false")}, "training.per_replicate"),
        ({"training": dict(TRAINING, per_replicate=1)}, "training.per_replicate"),
        ({"training": dict(SURVEY, homophily=1.5)}, "training.homophily"),
        ({"training": dict(SURVEY, homophily=-0.1)}, "training.homophily"),
        ({"training": dict(SURVEY, criteria=[])}, "training.criteria"),
        ({"output_dir": ["out"]}, "output_dir"),
        ({"stats_file": 7}, "stats_file"),
        ({"training": dict(TRAINING, max_kernel_evals=-5)}, "training.max_kernel_evals"),
        ({"training": dict(TRAINING, max_kernel_evals=0)}, "training.max_kernel_evals"),
        ({"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": [True]}},
         "graph.edge_prob[0]"),
        ({"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": ["0.02"]}},
         "graph.edge_prob[0]"),
        ({"training": dict(TRAINING, params=dict(TRAINING["params"], C="inf"))},
         "training.params.C"),
        ({"training": dict(TRAINING, params=dict(TRAINING["params"], C=float("inf")))},
         "training.params.C"),
        ({"training": dict(TRAINING, rule={"conditions": [
            RULE["conditions"][0], dict(RULE["conditions"][1], value="nan")]})},
         "training.rule.conditions[1].value"),
    ])
    def test_malformed_value_exits_2_at_parse_time(self, tmp_path, capsys, overrides, path):
        config = write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(config)]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err
        # rejected while parsing: nothing was trained or written
        assert not (tmp_path / "out").exists()

    def test_non_object_document_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('"graph"')
        assert main(["simulate", "--config", str(config)]) == 2
        assert "config error: <config>:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "train", "report"])
    @pytest.mark.parametrize("overrides,path", [
        ({"training": dict(TRAINING, rule={"conditions": [
            RULE["conditions"][0], dict(RULE["conditions"][1], field="nope")]})},
         "training.rule.conditions[1].field"),
        ({"report_fields": ["gender", "nope"]}, "report_fields[1]"),
        ({"training": dict(SURVEY, criteria=["nope"])},
         "training.criteria[0]"),
        ({"training": dict(SURVEY, contact_fields=["contact_friends", "nope"])},
         "training.contact_fields[1]"),
    ])
    def test_unknown_schema_field_exits_2_before_writing(
        self, tmp_path, capsys, command, overrides, path
    ):
        config = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(config)]) == 2
        assert f"config error: {path}: no field 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "report"])
    def test_missing_training_exits_2_before_writing(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        doc = json.loads(config.read_text())
        del doc["training"]
        config.write_text(json.dumps(doc))
        assert main([command, "--config", str(config)]) == 2
        assert "config error: training: missing section" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_broken_stats_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "stats.json"
        bad.write_text("{}")
        config = write_config(tmp_path, stats_file=str(bad))
        assert main(["simulate", "--config", str(config)]) == 1
        assert f"{bad}: stats file has no 'schema' key" in capsys.readouterr().err
        bad.write_text('{"schema": [], "mean": []}')
        assert main(["simulate", "--config", str(config)]) == 1
        assert f"{bad}: stats file has no 'covariance' key" in capsys.readouterr().err


class TestSimulate:
    def test_stub_model_flag(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--stub-model", "always-negative"]) == 0
        sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        header = sweep[0].split(",")
        row = dict(zip(header, sweep[1].split(",")))
        assert float(row["mu_h_mean"]) == 0.0
        assert float(row["xi_mean"]) == 0.0

    def test_out_override(self, tmp_path):
        config = write_config(tmp_path)
        assert main(
            ["simulate", "--config", str(config), "--stub-model", "always-positive",
             "--out", str(tmp_path / "elsewhere")]
        ) == 0
        assert (tmp_path / "elsewhere" / "sweep.csv").exists()

    def test_sweep_column_order(self, tmp_path):
        config = write_config(tmp_path)
        main(["simulate", "--config", str(config), "--stub-model", "always-positive"])
        header = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["rewire_prob", "neighbors", "initial_fraction"]
        assert header.split(",")[3:7] == ["mu_h_mean", "mu_h_std", "xi_mean", "xi_std"]


class TestTrain:
    def test_writes_model(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        model_path = tmp_path / "out" / "model.json"
        assert model_path.exists()
        doc = json.loads(model_path.read_text())
        assert doc["kernel"] == "rbf"

    def test_byte_identical_model_reruns(self, tmp_path):
        config = write_config(tmp_path)
        main(["train", "--config", str(config), "--out", str(tmp_path / "t1")])
        main(["train", "--config", str(config), "--out", str(tmp_path / "t2")])
        assert (tmp_path / "t1" / "model.json").read_bytes() == (
            tmp_path / "t2" / "model.json"
        ).read_bytes()


def write_survey(tmp_path, alters_rows) -> dict:
    """Egos, pool and alters CSVs of a small survey; alters_rows follow the header."""
    stats = load_stats("builtin")
    paths = {}
    for key, n, seed in (("egos_file", 30, 0), ("alter_pool_file", 20, 1)):
        paths[key] = str(tmp_path / f"{key}.csv")
        sample_population(stats, n, np.random.default_rng(seed)).to_csv(paths[key])
    paths["alters_file"] = str(tmp_path / "alters.csv")
    lines = ["ego,gender,age_band,education", "0,1,3,2"] + alters_rows
    Path(paths["alters_file"]).write_text("\n".join(lines) + "\n")
    return dict(SURVEY, **paths)


class TestSurveyInputs:
    def test_valid_survey_trains(self, tmp_path):
        config = write_config(tmp_path, training=write_survey(tmp_path, ["29,0,2,1"]))
        assert main(["train", "--config", str(config)]) == 0

    @pytest.mark.parametrize("row,where,message", [
        ("-1,0,2,1", "line 3, column 1 (ego)", "ego -1 outside [0, 30)"),
        ("400,0,2,1", "line 3, column 1 (ego)", "ego 400 outside [0, 30)"),
        ("5,7,2,1", "line 3, column 2 (gender)", "binary value 7"),
    ])
    def test_bad_alters_row_exits_1(self, tmp_path, capsys, row, where, message):
        config = write_config(tmp_path, training=write_survey(tmp_path, [row]))
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"alters.csv, {where}: " in err and message in err

    @pytest.mark.parametrize("key", ["egos_file", "alter_pool_file"])
    @pytest.mark.parametrize("edit,where,message", [
        pytest.param(lambda cells: cells[:3], "line 4: ", "3 cells, expected 20",
                     id="short-row"),
        pytest.param(lambda cells: cells[:2] + ["x"] + cells[3:],
                     "line 4, column 3 (education): ",
                     "invalid literal for int() with base 10: 'x'", id="not-an-integer"),
        pytest.param(lambda cells: cells[:1] + ["13"] + cells[2:],
                     "line 4, column 2 (age_band): ", "value 13 outside [1, 12]",
                     id="out-of-range"),
    ])
    def test_bad_vertex_row_exits_1(self, tmp_path, capsys, key, edit, where, message):
        training = write_survey(tmp_path, [])
        path = Path(training[key])
        lines = path.read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, training=training)
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{key}.csv, {where}" in err and message in err

    def test_blank_vertex_lines_are_skipped(self, tmp_path):
        training = write_survey(tmp_path, [])
        for key in ("egos_file", "alter_pool_file"):
            path = Path(training[key])
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        blank = write_config(tmp_path, name="blank.json", training=training,
                             output_dir=str(tmp_path / "blank"))
        assert main(["train", "--config", str(blank)]) == 0
        # the same people without blank lines train the same model
        (tmp_path / "plain").mkdir()
        plain = write_config(tmp_path, training=write_survey(tmp_path / "plain", []))
        assert main(["train", "--config", str(plain)]) == 0
        assert (tmp_path / "blank" / "model.json").read_bytes() == (
            tmp_path / "out" / "model.json").read_bytes()

    def test_unknown_alters_column_exits_1(self, tmp_path, capsys):
        training = write_survey(tmp_path, [])
        path = Path(training["alters_file"])
        path.write_text(path.read_text().replace("age_band", "age"))
        config = write_config(tmp_path, training=training)
        assert main(["train", "--config", str(config)]) == 1
        assert "alters.csv, line 1, column 3: 'age' is neither" in capsys.readouterr().err

    def test_short_pairs_row_exits_1(self, tmp_path, capsys):
        stats = load_stats("builtin")
        people = sample_population(stats, 4, np.random.default_rng(2))
        pairs_path = tmp_path / "pairs.csv"
        PairSet(people, people, [1, -1, 1, -1]).to_csv(pairs_path)
        lines = pairs_path.read_text().splitlines()
        pairs_path.write_text("\n".join(lines[:3] + [lines[3][:-4]] + lines[4:]) + "\n")
        training = dict(TRAINING, mode="pairs", pairs_file=str(pairs_path))
        config = write_config(tmp_path, training=training)
        assert main(["train", "--config", str(config)]) == 1
        assert "pairs.csv, line 4: " in capsys.readouterr().err


class TestReport:
    def test_writes_distribution_tables(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["report", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "dist_gender.csv").read_text().splitlines()
        assert lines[0] == "wave,0,1"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "All", "Egos", "Alters 1", "Alters 2", "Alters 3"
        ]
