"""Print the max RSS after each stage of one `netspread simulate` run.

    python3 tools/rss_stages.py CONFIG [--stub-model NAME]

Runs `simulate` on CONFIG in this process, with its output written under a
temporary directory that is removed afterwards, and prints `getrusage`'s
max RSS in MB (KiB / 1024, as perfbench's peak_rss_mb) at the start, after
each replicate's generate_graph, sample_population and diffusion_step
calls, one row per replicate, and at the end.  Max RSS never falls, so the
first column where a row's figures rise is the stage that set the peak.
Bytecode is not written, so every module is compiled afresh, as in the
benchmark's children.  Exits with simulate's exit code.
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netspread import cli, diffusion, experiments  # noqa: E402


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--stub-model", choices=list(experiments.STUB_MODELS))
    args = parser.parse_args(argv)
    rows: list[list[float]] = []

    def after(owner, name: str, new_row: bool) -> None:
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            result = fn(*a, **kw)
            if new_row:
                rows.append([])
            if rows:  # a training set drawn before the first graph shows in its row
                rows[-1].append(max_rss_mb())
            return result

        setattr(owner, name, wrapper)

    # the names simulate's replicate loop looks up in these modules
    after(experiments, "generate_graph", True)
    after(experiments, "sample_population", False)
    after(diffusion, "diffusion_step", False)
    print(f"start {max_rss_mb():.1f} MB")
    with tempfile.TemporaryDirectory() as out:
        argv = ["simulate", "--config", args.config, "--out", out]
        code = cli.main(argv + (["--stub-model", args.stub_model] if args.stub_model else []))
    steps = max((len(row) - 2 for row in rows), default=0)
    print("run generate_graph sample_population " + " ".join(f"step{i}" for i in range(1, steps + 1)))
    for i, row in enumerate(rows):
        print(f"{i} " + " ".join(f"{mb:.1f}" for mb in row))
    print(f"end {max_rss_mb():.1f} MB")
    return code


if __name__ == "__main__":
    sys.exit(main())
