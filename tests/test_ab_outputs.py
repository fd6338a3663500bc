"""tools/ab_outputs.py: directory comparison names the first differing file
and line, and a --stub pass over a throwaway repository finds two runs of
one tree identical and a changed working tree different."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "ab_outputs.py"

spec = importlib.util.spec_from_file_location("ab_outputs", TOOL)
ab_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_outputs)


def make_dir(path: Path, files: dict) -> Path:
    for name, data in files.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_bytes(data)
    return path


FILES = {"sweep.csv": b"a,b\r\n1,2\r\n3,4\r\n", "runs/r0/log.csv": b"x\n"}


def test_equal_directories(tmp_path):
    a = make_dir(tmp_path / "a", FILES)
    b = make_dir(tmp_path / "b", FILES)
    assert ab_outputs.first_difference(a, b) is None
    assert ab_outputs.file_count(a) == 2


def test_one_changed_byte_names_file_and_line(tmp_path):
    a = make_dir(tmp_path / "a", FILES)
    b = make_dir(tmp_path / "b", dict(FILES, **{"sweep.csv": b"a,b\r\n1,2\r\n3,5\r\n"}))
    assert ab_outputs.first_difference(a, b) == "sweep.csv, line 3: b'3,4\\r\\n' != b'3,5\\r\\n'"


def test_missing_file_is_named(tmp_path):
    a = make_dir(tmp_path / "a", FILES)
    b = make_dir(tmp_path / "b", {"sweep.csv": FILES["sweep.csv"]})
    assert ab_outputs.first_difference(a, b) == f"{Path('runs/r0/log.csv')} only in {a}"


def test_stub_pass_over_a_temporary_repository(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(REPO / "src" / "netspread", repo / "src" / "netspread",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "tools").mkdir()
    shutil.copy2(TOOL, repo / "tools")
    config = {"graph": {"model": "erdos_renyi", "n": 200, "edge_prob": [0.02]},
              "initial_fraction": [0.1], "iterations": 2, "replicates": 2, "seed": 5,
              "stats_file": "builtin", "output_dir": "out"}
    (repo / "config.json").write_text(json.dumps(config))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True, capture_output=True)

    def ab() -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(repo / "tools" / "ab_outputs.py"), "--stub",
             "--configs", "config.json"],
            capture_output=True, text=True, timeout=300, cwd=tmp_path)

    proc = ab()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "config.json: 6/6 files, identical"

    (repo / "config.json").write_text(json.dumps(dict(config, seed=6)))
    proc = ab()
    assert proc.returncode == 1
    assert "config.json: 6/6 files, first difference: " in proc.stdout
    # the tool leaves no output in the repository
    assert subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                          text=True).stdout == " M config.json\n"
