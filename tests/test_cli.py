import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netspread import experiments
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


ER = {"model": "erdos_renyi", "n": 200, "edge_prob": [0.02]}
SW = {"model": "small_world", "n": 200, "neighbors": [4], "rewire_prob": [0.1]}


def write_config(tmp_path, name="cfg.json", **overrides) -> Path:
    doc = {
        "graph": SW,
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
        ({"training": dict(TRAINING, grid=[TRAINING["params"]])}, "training.params"),
        ({"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": [True]}},
         "graph.edge_prob[0]"),
        ({"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": ["0.02"]}},
         "graph.edge_prob[0]"),
        ({"training": dict(TRAINING, params=dict(TRAINING["params"], C="inf"))},
         "training.params.C"),
        ({"training": dict(TRAINING, params=dict(TRAINING["params"], C=float("inf")))},
         "training.params.C"),
        # 2 sigma^2 overflows to inf or underflows to 0
        ({"training": dict(TRAINING, params=dict(TRAINING["params"], sigma=1e200))},
         "training.params"),
        ({"training": {"rule": RULE, "grid": [TRAINING["params"],
                                              dict(TRAINING["params"], sigma=1e-200)]}},
         "training.grid[1]"),
        ({"training": dict(TRAINING, rule={"conditions": [
            RULE["conditions"][0], dict(RULE["conditions"][1], value="nan")]})},
         "training.rule.conditions[1].value"),
        # a key the section does not take
        ({"replicate": 1}, "replicate"),
        ({"graph": {"model": "small_world", "n": 200, "neighbors": [4], "rewire_prob": [0.1],
                    "rewire": [0.2]}}, "graph.rewire"),
        ({"graph": {"model": "small_world", "n": 200, "neighbors": [4], "rewire_prob": [0.1],
                    "edge_prob": [0.2]}}, "graph.edge_prob"),
        ({"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": [0.02],
                    "neighbors": [4]}}, "graph.neighbors"),
        ({"training": dict(TRAINING, sampel_size=100)}, "training.sampel_size"),
        ({"training": dict(TRAINING, max_kernel_evals=-5)}, "training.max_kernel_evals"),
        ({"training": dict(TRAINING, max_kernel_evals=0)}, "training.max_kernel_evals"),
        ({"training": dict(TRAINING, params=dict(TRAINING["params"], sigmaa=2.0))},
         "training.params.sigmaa"),
        ({"training": {"rule": RULE, "grid": [dict(TRAINING["params"], c=2.0)]}},
         "training.grid[0].c"),
        ({"training": dict(TRAINING, rule=dict(RULE, condition=[]))}, "training.rule.condition"),
        ({"training": dict(TRAINING, rule={"conditions": [
            RULE["conditions"][0], dict(RULE["conditions"][1], feild="gender")]})},
         "training.rule.conditions[1].feild"),
    ])
    def test_malformed_value_exits_2_at_parse_time(self, tmp_path, capsys, overrides, path):
        config = write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(config)]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err
        # rejected while parsing: nothing was trained or written
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "report"])
    @pytest.mark.parametrize("overrides,message", [
        pytest.param({"graph": dict(ER, edge_prob=[0.02, 0.0200000001])},
                     "graph.edge_prob[1]: 0.0200000001 gives run tag pe0.02, "
                     "as graph.edge_prob[0] does", id="er-near-duplicate"),
        pytest.param({"graph": dict(ER, edge_prob=[0.02, 0.03, 0.02])},
                     "graph.edge_prob[2]: 0.02 gives run tag pe0.02, as graph.edge_prob[0] does",
                     id="er-duplicate"),
        pytest.param({"graph": dict(SW, neighbors=[4, 6, 4])},
                     "graph.neighbors[2]: 4 gives run tag k4, as graph.neighbors[0] does",
                     id="sw-neighbors-duplicate"),
        pytest.param({"graph": dict(SW, rewire_prob=[0.1, 0.1000001])},
                     "graph.rewire_prob[1]: 0.1000001 gives run tag ps0.1, "
                     "as graph.rewire_prob[0] does", id="sw-rewire-near-duplicate"),
        pytest.param({"initial_fraction": [0.1, 0.2, 0.1]},
                     "initial_fraction[2]: 0.1 gives run tag a0.1, as initial_fraction[0] does",
                     id="fraction-duplicate"),
    ])
    def test_colliding_run_tags_exit_2_before_writing(
        self, tmp_path, capsys, command, overrides, message
    ):
        # two grid points with one tag would write, and report read, one run directory
        config = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(config)]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_more_folds_than_pairs_of_a_class_exits_2_before_fitting(
        self, tmp_path, capsys, monkeypatch, command
    ):
        grid = [TRAINING["params"], dict(TRAINING["params"], sigma=6.0)]
        training = {k: v for k, v in TRAINING.items() if k != "params"}
        config = write_config(tmp_path, graph=ER,
                              training=dict(training, grid=grid, cv_folds=150))
        fits = []
        monkeypatch.setattr(experiments, "cross_validate", lambda *args: fits.append(args))
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config error: training.cv_folds: must be at most " in err
        assert "the smaller class's training pair count, got 150\n" in err
        assert fits == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("key", ["criteria", "contact_fields"])
    def test_empty_survey_field_list_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch, command, key
    ):
        # rejected while parsing: a run that loaded the stats would exit 1
        monkeypatch.setattr(experiments, "load_config_stats", lambda config: 1 / 0)
        config = write_config(tmp_path, training=dict(SURVEY, **{key: []}))
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: training.{key}: must name at least one field\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("graph,n", [(SW, 2**32), (SW, 2**31), (ER, 2**31)])
    def test_graph_past_int32_vertex_ids_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch, command, graph, n
    ):
        # vertex ids are int32 (and small-world rewiring emulates 32-bit
        # integer draws); simulate used to fit the model and then fail at the
        # first graph, and train to succeed
        monkeypatch.setattr(experiments, "load_config_stats", lambda config: 1 / 0)
        config = write_config(tmp_path, graph=dict(graph, n=n))
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: graph.n: vertex count must be below 2**31 "
                       f"(int32 vertex ids), got {n}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("C,weight", [(1e308, 10.0), (1e-320, 1e-10)])
    @pytest.mark.parametrize("section", ["params", "grid"])
    def test_box_outside_float_range_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch, command, C, weight, section
    ):
        # the positive class's box C * weight overflows to inf or underflows
        # to 0: train used to exit 0 with a model of no support vectors
        monkeypatch.setattr(experiments, "load_config_stats", lambda config: 1 / 0)
        params = dict(TRAINING["params"], C=C, weight=weight)
        if section == "params":
            training, path = dict(TRAINING, params=params), "training.params"
        else:
            training = {"rule": RULE, "grid": [TRAINING["params"], params]}
            path = "training.grid[1]"
        config = write_config(tmp_path, graph=ER, training=training)
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: positive-class box C * weight must lie in (0, inf) "
            f"as a float, got C {C!r} and weight {weight!r}\n")
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
    @pytest.mark.parametrize("fields,message", [
        (["gender", "gender"], "report_fields[1]: 'gender' repeats report_fields[0]"),
        (["gender", "age_band", "profession", "age_band"],
         "report_fields[3]: 'age_band' repeats report_fields[1]"),
    ], ids=["adjacent", "apart"])
    def test_repeated_report_field_exits_2_before_writing(
        self, tmp_path, capsys, command, fields, message
    ):
        # a repeated field would add each replicate's distribution twice
        config = write_config(tmp_path, report_fields=fields)
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
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

    @pytest.mark.parametrize("command", ["simulate", "train", "report"])
    @pytest.mark.parametrize(
        "key", ["pairs_file", "egos_file", "alter_pool_file", "alters_file"]
    )
    def test_missing_training_data_file_exits_2_before_writing(
        self, tmp_path, capsys, command, key
    ):
        if key == "pairs_file":
            training = dict(TRAINING, mode="pairs")
        else:
            training = write_survey(tmp_path, ["29,0,2,1"])
        missing = str(tmp_path / "missing.csv")
        config = write_config(tmp_path, training=dict(training, **{key: missing}))
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config error: training.{key}: no such file: {missing}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "report"])
    @pytest.mark.parametrize("key", [
        "stats_file", "pairs_file", "egos_file", "alter_pool_file", "alters_file", "--config",
    ])
    def test_directory_for_a_file_exits_2_before_writing(self, tmp_path, capsys, command, key):
        folder = tmp_path / "folder"
        folder.mkdir()
        if key == "--config":
            config, message = folder, f"<file>: cannot read {folder}: Is a directory"
        else:
            if key == "stats_file":
                config = write_config(tmp_path, stats_file=str(folder))
            else:
                training = (dict(TRAINING, mode="pairs") if key == "pairs_file"
                            else write_survey(tmp_path, ["29,0,2,1"]))
                config = write_config(tmp_path, training=dict(training, **{key: str(folder)}))
                key = f"training.{key}"
            message = f"{key}: not a file: {folder}"
        assert main([command, "--config", str(config)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "report"])
    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("under", [False, True])
    def test_file_for_the_output_directory_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, flag, under
    ):
        def reached(config):
            raise RuntimeError("the run started")

        # every command loads the config's stats before it fits or writes
        monkeypatch.setattr(experiments, "load_config_stats", reached)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if under else taken
        if flag:
            argv = [command, "--config", str(write_config(tmp_path)), "--out", str(out)]
        else:
            argv = [command, "--config", str(write_config(tmp_path, output_dir=str(out)))]
        assert main(argv) == 2
        key = "--out" if flag else "output_dir"
        assert f"config error: {key}: not a directory: {taken}" in capsys.readouterr().err
        assert taken.read_text() == "kept"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "cfg.json"
        assert main(["simulate", "--config", str(missing)]) == 2
        assert f"config error: <file>: no such file: {missing}" in capsys.readouterr().err

    def test_broken_stats_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "stats.json"
        bad.write_text("{}")
        config = write_config(tmp_path, stats_file=str(bad))
        assert main(["simulate", "--config", str(config)]) == 1
        assert f"{bad}: stats file has no 'schema' key" in capsys.readouterr().err
        bad.write_text('{"schema": [], "mean": []}')
        assert main(["simulate", "--config", str(config)]) == 1
        assert f"{bad}: stats file has no 'covariance' key" in capsys.readouterr().err
        bad.write_text('{"schema": [')
        assert main(["simulate", "--config", str(config)]) == 1
        assert f"{bad}: not valid JSON: " in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["schema"][0].pop("id"), "schema[0]: missing 'id'"),
        (lambda doc: doc.update(mean=doc["mean"][:-1]), "mean: shape"),
        (lambda doc: doc["mean"].__setitem__(0, float("nan")), "mean: holds NaN or an infinity"),
        (lambda doc: doc["covariance"][1].__setitem__(1, float("inf")),
         "covariance: holds NaN or an infinity"),
    ])
    def test_malformed_stats_file_exits_1_naming_it(self, tmp_path, capsys, edit, message):
        bad = tmp_path / "stats.json"
        load_stats("builtin").to_json(bad)
        doc = json.loads(bad.read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        config = write_config(tmp_path, stats_file=str(bad))
        assert main(["simulate", "--config", str(config)]) == 1
        assert f"error: {bad}: {message}" in capsys.readouterr().err

def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


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

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--stub-model", "always-positive"], id="simulate-stub"),
        pytest.param(["simulate"], id="simulate-trained"),
        pytest.param(["report"], id="report"),
        pytest.param(["train"], id="train"),
    ])
    def test_out_flag_equals_output_dir(self, tmp_path, argv):
        out = tmp_path / "D"
        config = write_config(tmp_path)
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
        assert not (tmp_path / "out").exists()
        via_flag = tree_bytes(out)
        shutil.rmtree(out)
        config = write_config(tmp_path, output_dir=str(out))
        assert main([*argv, "--config", str(config)]) == 0
        assert tree_bytes(out) == via_flag and via_flag

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

    def test_survey_train_leaves_numpy_ma_unloaded(self, tmp_path):
        # VertexTable.validate and the cross-validation split avoid np.unique,
        # which imports numpy.ma: about 14 ms and 1.2 MB of start-up that
        # nothing else on this path needs
        grid = [TRAINING["params"], dict(TRAINING["params"], C=2.0)]
        survey = write_survey(tmp_path, ["29,0,2,1"])
        del survey["params"]  # params and grid together are a config error
        config = write_config(tmp_path, training=dict(survey, grid=grid, cv_folds=2))
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from netspread.cli import main\n"
            f"assert main(['train', '--config', {str(config)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

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

    @pytest.mark.parametrize("key", ["egos_file", "pairs_file"])
    def test_header_only_data_file_exits_1_naming_it(self, tmp_path, capsys, recwarn, key):
        if key == "egos_file":
            training = write_survey(tmp_path, [])
            emptied = ("egos_file", "alters_file")  # an alter needs an ego
        else:
            stats = load_stats("builtin")
            people = sample_population(stats, 4, np.random.default_rng(2))
            PairSet(people, people, [1, -1, 1, -1]).to_csv(tmp_path / "pairs.csv")
            training = dict(TRAINING, mode="pairs", pairs_file=str(tmp_path / "pairs.csv"))
            emptied = ("pairs_file",)
        for name in emptied:
            path = Path(training[name])
            path.write_text(path.read_text().splitlines()[0] + "\n")
        config = write_config(tmp_path, training=training)
        assert main(["train", "--config", str(config)]) == 1
        assert f"error: {training[key]}: no training pairs" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("grid", [
        pytest.param(None, id="params"),
        pytest.param([TRAINING["params"], dict(TRAINING["params"], sigma=6.0)], id="grid"),
    ])
    def test_single_class_pairs_file_exits_1_naming_it(self, tmp_path, capsys, grid):
        # a grid's cross-validation must not report a fold count instead
        stats = load_stats("builtin")
        people = sample_population(stats, 4, np.random.default_rng(2))
        pairs_path = tmp_path / "pairs.csv"
        PairSet(people, people, [1, 1, 1, 1]).to_csv(pairs_path)
        training = dict(TRAINING, mode="pairs", pairs_file=str(pairs_path))
        if grid is not None:
            del training["params"]
            training["grid"] = grid
        config = write_config(tmp_path, training=training)
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {pairs_path}: training data must contain both classes\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column,name,cell,message", [
        (1, "sender_gender", "7", "field 'gender': binary value 7"),
        (41, "label", "0", "label must be +1 or -1, got 0"),
    ])
    def test_bad_pairs_cell_exits_1(self, tmp_path, capsys, column, name, cell, message):
        stats = load_stats("builtin")
        people = sample_population(stats, 4, np.random.default_rng(2))
        pairs_path = tmp_path / "pairs.csv"
        PairSet(people, people, [1, -1, 1, -1]).to_csv(pairs_path)
        lines = pairs_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column - 1] = cell
        pairs_path.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n\n")
        training = dict(TRAINING, mode="pairs", pairs_file=str(pairs_path))
        config = write_config(tmp_path, training=training)
        assert main(["train", "--config", str(config)]) == 1
        assert f"pairs.csv, line 4, column {column} ({name}): {message}" in capsys.readouterr().err


class TestReport:
    def test_writes_distribution_tables(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["report", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "dist_gender.csv").read_text().splitlines()
        assert lines[0] == "wave,0,1"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "All", "Egos", "Alters 1", "Alters 2", "Alters 3"
        ]
