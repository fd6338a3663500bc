"""Print the max RSS after each stage of one `netspread simulate` run.

    python3 tools/rss_stages.py CONFIG [--stub-model NAME]

Runs `simulate` on CONFIG in this process, with its output written under a
temporary directory that is removed afterwards, and prints `getrusage`'s
max RSS in MB (KiB / 1024, as perfbench's peak_rss_mb) at the start, after
each training fit (`fit`, one line per fit; every fit precedes the runs),
after each replicate's generate_graph, sample_population and diffusion_step
calls, one row per replicate, after model.json is saved (`save`) and at the
end.  Max RSS never falls, so the first figure that rises to the peak names
the stage that set it.  Bytecode is not written, so every module is compiled
afresh, as in the benchmark's children.  Exits with simulate's exit code.
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

from netspread import classifier, cli, diffusion, experiments  # noqa: E402


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--stub-model", choices=list(experiments.STUB_MODELS))
    args = parser.parse_args(argv)
    rows: list[list[float]] = []
    fits: list[float] = []
    saves: list[float] = []

    def after(owner, name: str, record) -> None:
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            result = fn(*a, **kw)
            record(max_rss_mb())
            return result

        setattr(owner, name, wrapper)

    def in_row(mb: float) -> None:
        if rows:  # a training set drawn before the first graph shows in the fit line
            rows[-1].append(mb)

    # the names simulate looks up in these modules
    after(experiments, "train_pipeline", fits.append)
    after(experiments, "generate_graph", lambda mb: rows.append([mb]))
    after(experiments, "sample_population", in_row)
    after(diffusion, "diffusion_step", in_row)
    after(classifier.SvmModel, "save", saves.append)
    print(f"start {max_rss_mb():.1f} MB")
    with tempfile.TemporaryDirectory() as out:
        argv = ["simulate", "--config", args.config, "--out", out]
        code = cli.main(argv + (["--stub-model", args.stub_model] if args.stub_model else []))
    for mb in fits:
        print(f"fit {mb:.1f} MB")
    steps = max((len(row) - 2 for row in rows), default=0)
    print("run generate_graph sample_population " + " ".join(f"step{i}" for i in range(1, steps + 1)))
    for i, row in enumerate(rows):
        print(f"{i} " + " ".join(f"{mb:.1f}" for mb in row))
    for mb in saves:
        print(f"save {mb:.1f} MB")
    print(f"end {max_rss_mb():.1f} MB")
    return code


if __name__ == "__main__":
    sys.exit(main())
