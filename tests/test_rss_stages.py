"""tools/rss_stages.py: one row of max-RSS figures per replicate, a figure
after each stage (the training fit and the model save among them), and no
output left behind."""

import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "tools" / "rss_stages.py"


def probe(tmp_path, *flags, **overrides) -> list[str]:
    """The probe's output lines on a 300-vertex ER config, run in tmp_path."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": {"model": "erdos_renyi", "n": 300, "edge_prob": [0.02]},
        "initial_fraction": [0.1],
        "iterations": 3,
        "replicates": 2,
        "seed": 3,
        "stats_file": "builtin",
        "output_dir": str(tmp_path / "out"),
        **overrides,
    }))
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(config), *flags],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    return [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")]


def check_table(lines: list[str]) -> list[float]:
    """The figures of the replicate table under its header, row by row."""
    assert lines[0] == "run generate_graph sample_population step1 step2 step3"
    assert [row.split()[0] for row in lines[1:3]] == ["0", "1"]
    figures = []
    for row in lines[1:3]:
        figures += [float(mb) for mb in row.split()[1:]]
        assert len(row.split()) == 6
    return figures


def figure(line: str, stage: str) -> float:
    name, mb, unit = line.split()
    assert (name, unit) == (stage, "MB")
    return float(mb)


def test_one_row_per_replicate_and_nothing_written(tmp_path):
    lines = probe(tmp_path, "--stub-model", "always-positive")
    assert len(lines) == 5
    figures = [figure(lines[0], "start"), *check_table(lines[1:4]), figure(lines[4], "end")]
    assert figures == sorted(figures)  # max RSS never falls


def test_trained_run_shows_the_fit_and_the_save(tmp_path):
    training = {
        "mode": "synthetic",
        "sample_size": 200,
        "rule": {"conditions": [
            {"role": "receiver", "field": "food_risk_knowledge", "op": ">=", "value": 6},
        ]},
        "params": {"kernel": "rbf", "sigma": 12.0, "C": 4.0, "weight": 8.0},
    }
    lines = probe(tmp_path, training=training)
    assert len(lines) == 7
    figures = [figure(lines[0], "start"), figure(lines[1], "fit"), *check_table(lines[2:5]),
               figure(lines[5], "save"), figure(lines[6], "end")]
    assert figures == sorted(figures)
