"""tools/rss_stages.py: one row of max-RSS figures per replicate, a figure
after each stage, and no output left behind."""

import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "tools" / "rss_stages.py"


def test_one_row_per_replicate_and_nothing_written(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": {"model": "erdos_renyi", "n": 300, "edge_prob": [0.02]},
        "initial_fraction": [0.1],
        "iterations": 3,
        "replicates": 2,
        "seed": 3,
        "stats_file": "builtin",
        "output_dir": str(tmp_path / "out"),
    }))
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(config), "--stub-model", "always-positive"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")]
    assert lines[1] == "run generate_graph sample_population step1 step2 step3"
    assert [row.split()[0] for row in lines[2:4]] == ["0", "1"]
    figures = [float(lines[0].split()[1])]
    for row in lines[2:4]:
        figures += [float(mb) for mb in row.split()[1:]]
        assert len(row.split()) == 6
    assert lines[0].startswith("start ") and lines[4].startswith("end ")
    figures.append(float(lines[4].split()[1]))
    assert figures == sorted(figures)  # max RSS never falls
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
