"""Check that a commit and the working tree write byte-identical outputs.

    python3 tools/ab_outputs.py [--rev REV] [--configs CFG ...] [--stub] [--demos]

Exports REV (default HEAD) of the repository this script lives in with
`git archive`, and copies the working tree's files (tracked and untracked,
less what .gitignore names), each into its own temporary directory.  For
each config (default: the two demo configs) it runs `netspread simulate`
and then `netspread report` in each tree, into _ab_out/<config name>
there, and compares the two output directories and the two stdouts.  With
--stub it runs only `simulate --stub-model always-positive`, since report
retrains when the sweep's manifest is a stub's.  With --demos it also runs
every demos/*.py in each tree, in name order, and compares each demo's
stdout and then the demo_out/ directories.  A command runs with its tree as
cwd (so a relative config path is read in each tree), PYTHONPATH at the
tree's src/ and OPENBLAS_NUM_THREADS=1.

Prints the file count of each compared directory and the first differing
file with its first differing line.  Exits 1 on any difference or failed
command, else 0.  Only local git is used; the temporary directories are
removed at exit.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ["demos/configs/erdos_renyi.json", "demos/configs/small_world.json"]
OUT = "_ab_out"


def export_rev(rev: str, dest: Path) -> None:
    """The files of commit `rev` of ROOT's repository, written under dest."""
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                          stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed")


def copy_working_tree(dest: Path) -> None:
    """ROOT's tracked and untracked files, less the ignored ones, copied under dest."""
    listing = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, text=True, check=True).stdout
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def first_difference(a: Path, b: Path) -> str | None:
    """None when directories a and b hold the same files, byte for byte;
    else the first differing file by relative path, with its first
    differing line when both hold it."""
    files = {}
    for side in (a, b):
        files[side] = {p.relative_to(side) for p in side.rglob("*") if p.is_file()}
    for rel in sorted(files[a] | files[b]):
        if rel not in files[a] or rel not in files[b]:
            return f"{rel} only in {a if rel in files[a] else b}"
        left, right = (a / rel).read_bytes(), (b / rel).read_bytes()
        if left != right:
            return f"{rel}, {first_line_difference(left, right)}"
    return None


def first_line_difference(left: bytes, right: bytes) -> str:
    pairs = itertools.zip_longest(left.splitlines(True), right.splitlines(True))
    for number, (x, y) in enumerate(pairs, start=1):
        if x != y:
            return f"line {number}: {x!r} != {y!r}"
    return "no line differs"  # unreachable for unequal bytes


def file_count(path: Path) -> int:
    return sum(p.is_file() for p in path.rglob("*"))


def run(tree: Path, *argv: str) -> str:
    """stdout of `python argv` in tree; a RuntimeError on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


def compare(label: str, trees, commands, out: str) -> bool:
    """Run `commands` in both trees and compare stdouts, then the directories
    `out` under each tree; print one line and return whether all match."""
    for argv in commands:
        stdouts = [run(tree, *argv) for tree in trees]
        if stdouts[0] != stdouts[1]:
            print(f"{label}: stdout of {' '.join(argv)}, "
                  f"{first_line_difference(*(s.encode() for s in stdouts))}")
            return False
    dirs = [tree / out for tree in trees]
    difference = first_difference(*dirs)
    counts = "/".join(str(file_count(d)) for d in dirs)
    print(f"{label}: {counts} files, " + (f"first difference: {difference}"
                                           if difference else "identical"))
    return difference is None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="commit to compare with (default HEAD)")
    parser.add_argument("--configs", nargs="+", default=CONFIGS, help="experiment configs")
    parser.add_argument("--stub", action="store_true",
                        help="run only simulate --stub-model always-positive")
    parser.add_argument("--demos", action="store_true", help="also run and compare the demos")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_outputs_") as tmp:
        trees = [Path(tmp) / "rev", Path(tmp) / "work"]
        for tree in trees:
            tree.mkdir()
        export_rev(args.rev, trees[0])
        copy_working_tree(trees[1])
        print(f"comparing {args.rev} with the working tree")
        same = True
        try:
            for config in args.configs:
                out = f"{OUT}/{Path(config).stem}"
                cli = ["-m", "netspread.cli"]
                if args.stub:
                    commands = [[*cli, "simulate", "--config", config, "--out", out,
                                 "--stub-model", "always-positive"]]
                else:
                    commands = [[*cli, command, "--config", config, "--out", out]
                                for command in ("simulate", "report")]
                same &= compare(config, trees, commands, out)
            if args.demos:
                demos = sorted(p.relative_to(trees[1]).as_posix()
                               for p in (trees[1] / "demos").glob("*.py"))
                same &= compare("demos", trees, [[demo] for demo in demos], "demo_out")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
