"""netspread benchmark: one seeded workload, timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

Load model: a closed loop with one client.  The benchmark writes the
workload's inputs from --seed, then runs the workload again and again, one
fresh child process at a time, until --seconds have passed (at least once).
Each child's wall time, set-up time (process start to the first unit of
work) and peak RSS (its own rusage from wait4) are one sample.  A few
set-up-only children, which stop at the first unit of work, run first and
add set-up samples.  Before each workload child the fixed reference task
(reference.py) runs in a child of its own.  wall_rel is the workload
children's mean wall time over the reference runs' mean wall time: both
means cover the same stretch of the run, so the ratio cancels the drift in
the speed of a shared machine that both see.  setup_s is the median set-up
time corrected for the same drift, times REFERENCE_S over the reference
runs' mean wall time: the set-up time in seconds of a machine that runs the
reference task in REFERENCE_S.  peak_rss_mb is the median over the
children.  Every run's outputs are checked and each check is one operation
of the error rate; the rate itself is
`failed / attempted` on the last line.

With --trace 1 traced and untraced children alternate; the per-layer
metrics come from the traced children's spans and trace.overhead_s is the
traced minus the untraced median wall time.  The last traced child's spans
are kept in .perfbench_work/<workload>-s<seed>.spans.json.  Traced children also run the
oracles (BFS replay of stub diffusions, numpy rescoring of sampled pairs);
their time is left out of the overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import MAX_DECISION_DIFF, Checker  # noqa: E402

THREADS = 1  # BLAS / OpenMP threads per child; one client, no concurrency
SETUP_RUNS = 4  # set-up-only runs before the timed loop; set-up is their median too
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # stop starting children this long after the run began
REFERENCE_OUTPUT = "76891 314038.517264"  # what reference.py prints on every run
REFERENCE_S = 0.5  # setup_s is in seconds of a machine that runs reference.py in this time


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(THREADS)
    # every child compiles the sources afresh, so set-up does not depend on
    # whether an earlier run left __pycache__ behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def timed(cmd: list[str], log_path: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run `cmd` to its end; return its exit code, start, wall time and own peak RSS in MB."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end - start, usage.ru_maxrss / 1024.0


def run_reference(log_path: Path, timeout: float) -> tuple[float, str]:
    """Run the reference task once; return its wall time and what it printed."""
    code, _, wall, _ = timed([sys.executable, str(HERE / "reference.py")], log_path, timeout)
    text = log_path.read_text(encoding="utf-8", errors="replace").strip()
    return wall, text if code == 0 else f"exit {code}: {text[-500:]}"


def run_child(spec_path: Path, out: Path, mode: str, timeout: float) -> dict:
    """Run one child in `mode` (run, trace or setup); return its timings and result."""
    result_path = out.with_suffix(".result.json")
    cmd = [sys.executable, str(HERE / "child.py"), "--spec", str(spec_path),
           "--out", str(out), "--result", str(result_path)]
    cmd += {"run": [], "trace": ["--trace"], "setup": ["--setup-only"]}[mode]
    out.mkdir(parents=True)
    code, start, wall, rss = timed(cmd, out.with_suffix(".log"), timeout)
    sample = {"mode": mode, "exit_code": code, "wall_s": wall,
              "peak_rss_mb": rss, "setup_s": None, "result": {}}
    if result_path.is_file():
        sample["result"] = json.loads(result_path.read_text(encoding="utf-8"))
        first = sample["result"].get("first_work")
        if first is not None:
            sample["setup_s"] = first - start
    return sample


def check_sample(checker: Checker, spec: dict, out: Path, sample: dict) -> dict:
    """Check one child's outputs; return the digests of its deterministic files."""
    if not checker.check(sample["exit_code"] == 0 and sample["setup_s"] is not None,
                         f"{out.name} exited {sample['exit_code']}: {log_tail(out)}"):
        return {}
    if spec["kind"] == "analysis":
        return checker.analysis_output(out)
    if spec["argv"][0] == "train":
        return checker.train_output(out)
    return checker.simulate_output(out, spec["runs"], spec["rows"])


def log_tail(out: Path) -> str:
    lines = out.with_suffix(".log").read_text(encoding="utf-8", errors="replace").splitlines()
    return " | ".join(lines[-5:])


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "netspread").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
    }


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(args) -> int:
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    spans_file = work.parent / f"{args.workload}-s{args.seed}.spans.json"  # kept after the run
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker()
    samples: list[dict] = []
    digests: list[dict] = []
    references: list[float] = []

    def timeout() -> float:
        return min(CHILD_TIMEOUT_S, max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))

    def reference() -> None:
        wall, printed = run_reference(work / f"reference{len(references)}.log", timeout())
        if checker.check(printed == REFERENCE_OUTPUT,
                         f"reference task printed {printed!r}, want {REFERENCE_OUTPUT!r}"):
            references.append(wall)

    def run(mode: str) -> None:
        out = work / f"run{len(samples)}"
        sample = run_child(work / "spec.json", out, mode, timeout())
        samples.append(sample)
        if mode == "setup":
            checker.check(sample["exit_code"] == 0 and sample["setup_s"] is not None,
                          f"{out.name} (set-up only) exited {sample['exit_code']}: "
                          f"{log_tail(out)}")
        else:
            digest = check_sample(checker, spec, out, sample)
            if digests:
                checker.check(digest == digests[0],
                              f"{out.name}: output differs from the first run")
            digests.append(digest)
        rescored = sample["result"].get("rescore")
        if rescored is not None:
            checker.check(rescored["label_flips"] == 0
                          and rescored["max_abs_decision_diff"] <= MAX_DECISION_DIFF,
                          f"{out.name}: rescoring disagrees: {rescored}")
        if "spans" in sample["result"]:
            spans_file.write_text(json.dumps(sample["result"].pop("spans")), encoding="utf-8")
        oracle = sample["result"].get("oracle")
        if oracle is not None:
            checker.check(oracle["mismatches"] == 0,
                          f"{out.name}: stub diffusion differs from BFS: {oracle}")
        shutil.rmtree(out, ignore_errors=True)

    try:
        spec = workloads.prepare(args.workload, args.seed, work, args.scale, ROOT)
        deadline = started + args.seconds
        if not args.trace:
            for _ in range(SETUP_RUNS):
                run("setup")
        modes = ["run", "trace"] if args.trace else ["run"]
        while True:
            mode = modes[len(digests) % len(modes)]
            if not args.trace:
                reference()
            run(mode)
            now = time.monotonic()
            if now - started > RUN_LIMIT_S or (now >= deadline and len(digests) >= len(modes)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, samples, references, checker, digests[0] if digests else {})


def report(args, samples: list[dict], references: list[float], checker: Checker,
           digest: dict) -> int:
    units, layer_units = metric_units()
    ok = [s for s in samples if s["exit_code"] == 0 and s["setup_s"] is not None]
    by_mode = {mode: [s for s in ok if s["mode"] == mode] for mode in ("setup", "run", "trace")}
    plain, traced = by_mode["run"], by_mode["trace"]
    values = {
        "wall_s": [s["wall_s"] for s in plain],
        "reference_s": references,
        "setup_s": [s["setup_s"] for s in by_mode["setup"] + plain],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
    }
    found: dict[str, float] = {}
    if not args.trace and plain and references:
        found = {name: median(vals) for name, vals in values.items()}
        found["wall_rel"] = statistics.fmean(values["wall_s"]) / statistics.fmean(references)
        found["setup_s"] *= REFERENCE_S / statistics.fmean(references)
    if args.trace and plain and traced:
        layers = [s["result"]["layers"] for s in traced]
        found = {name: median(m[name] for m in layers) for name in layers[0]}
        rescored = [s["result"]["rescore"] for s in traced if "rescore" in s["result"]]
        found["classifier.label_flips"] = sum(r["label_flips"] for r in rescored)
        found["classifier.max_abs_decision_diff"] = max(
            (r["max_abs_decision_diff"] for r in rescored), default=0.0)
        found["trace.overhead_s"] = (
            median(s["wall_s"] - s["result"]["checks_s"] for s in traced)
            - median(s["wall_s"] for s in plain))
    wanted = layer_units if args.trace else units
    metrics = {name: {"value": found[name], "unit": unit}
               for name, unit in wanted.items() if name in found}
    if set(metrics) != set(wanted):
        checker.check(False, "some metrics could not be measured")
    failed = len(checker.failures)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{len(v)} {k} runs" for k, v in by_mode.items()))
    for name, vals in values.items():
        if vals:
            print(f"  {name:<12} median {median(vals):.4f} {units.get(name, 's')}"
                  f"  max {max(vals):.4f}  (n={len(vals)})")
    if "wall_rel" in found:
        print(f"  {'wall_rel':<12} {found['wall_rel']:.4f} {units['wall_rel']}"
              f"  (mean wall_s {statistics.fmean(values['wall_s']):.4f} s"
              f" / mean reference_s {statistics.fmean(references):.4f} s)")
        print(f"  {'setup_s':<12} {found['setup_s']:.4f} {units['setup_s']}"
              f"  at reference speed (median setup_s x {REFERENCE_S} s / mean reference_s)")
    rate = failed / max(checker.attempted, 1)
    print(f"  {'error_rate':<12} {rate:.4f}  ({failed} failed / {checker.attempted} operations)")
    for message in checker.failures:
        print(f"  FAILED {message}")
    print("record " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": {**{k: [round(s[k], 4) for s in samples if s[k] is not None]
                       for k in ("wall_s", "setup_s", "peak_rss_mb")},
                    "reference_s": [round(r, 4) for r in references]},
        "modes": [s["mode"] for s in samples],
        "digests": digest, "environment": environment()}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": max(checker.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh benchmark process, one after another."""
    results = {}
    for name in workloads.WHY:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="netspread benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/netspread/cli.py", "demos/configs/erdos_renyi.json",
                           "demos/configs/small_world.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a netspread checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
