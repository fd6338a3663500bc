"""tools/tally.py: the option tally reads experiments._KEYS as the parser does,
file_opens equals a count of the source tokens and public_names a count of
the imported modules' members."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import netspread
from netspread import experiments
from netspread.graph import ERDOS_RENYI, SMALL_WORLD

TALLY = Path(__file__).resolve().parents[1] / "tools" / "tally.py"


def tally() -> dict[str, int]:
    proc = subprocess.run(
        [sys.executable, str(TALLY)], capture_output=True, text=True, check=True, timeout=60
    )
    return {name: int(value) for name, value in map(str.split, proc.stdout.splitlines())}


def test_config_keys_count_the_runtime_key_table():
    keys = experiments._KEYS
    # the top level's non-section keys, the graph models' keys once, the training keys
    expected = (len(keys[""] - {"graph", "training"}) + len(keys[ERDOS_RENYI] | keys[SMALL_WORLD])
                + len(keys["training"]))
    counts = tally()
    assert counts["config_keys"] == expected
    assert counts["options"] == (
        counts["defaulted_public_params"] + counts["config_keys"] + counts["cli_flags"]
    )


def test_file_opens_count_open_calls_token_by_token():
    # `open` followed by `(`, not as an attribute (`.open(`) or a definition
    count = 0
    for path in Path(netspread.__file__).parent.glob("*.py"):
        with path.open("rb") as fh:
            tokens = [t for t in tokenize.tokenize(fh.readline)
                      if t.type not in (tokenize.NL, tokenize.COMMENT)]
        count += sum(
            prev.string not in (".", "def") and tok.string == "open" and nxt.string == "("
            for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:])
        )
    assert tally()["file_opens"] == count


def test_public_names_count_the_imported_members():
    # functions and classes defined in each module, and their own methods,
    # properties, class methods and static methods; none with a leading "_"
    methods = (staticmethod, classmethod, property)
    count = 0
    modules = [netspread] + [importlib.import_module(f"netspread.{info.name}")
                             for info in pkgutil.iter_modules(netspread.__path__)]
    for module in modules:
        for name, obj in vars(module).items():
            if (name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__):
                continue
            count += 1
            if inspect.isclass(obj):
                count += sum(not attr.startswith("_")
                             and (inspect.isfunction(value) or isinstance(value, methods))
                             for attr, value in vars(obj).items())
    assert tally()["public_names"] == count


def run_tally(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TALLY), *args], capture_output=True, text=True,
                          timeout=60)


def test_help_prints_the_usage():
    proc = run_tally("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: tally.py [-h] [src_dir]")


def test_a_directory_argument_is_tallied():
    proc = run_tally(str(Path(netspread.__file__).parent))
    assert proc.returncode == 0
    assert {name: int(value) for name, value in map(str.split, proc.stdout.splitlines())} == tally()


def test_a_directory_without_the_sources_exits_2_naming_it(tmp_path):
    (tmp_path / "cli.py").write_text("")
    for directory, missing in ((tmp_path / "no_such_dir", "experiments.py and no cli.py"),
                               (tmp_path, "experiments.py")):
        proc = run_tally(str(directory))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: tally.py")
        assert proc.stderr.endswith(f"error: {directory} holds no {missing}\n")
