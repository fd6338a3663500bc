"""tools/tally.py: the option tally reads experiments._KEYS as the parser does."""

import subprocess
import sys
from pathlib import Path

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
