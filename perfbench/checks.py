"""Output checks for one workload run, and the independent oracles.

Each check is one operation of the run's error rate: it either passes or
adds a message to `failures`.  The two oracles run in traced children:
`bfs_log` rebuilds an always-positive diffusion's log by breadth-first
search, and `rescore` recomputes decision values with plain numpy from the
saved model.json; neither shares code with what it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MAX_DECISION_DIFF = 1e-6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def run_dir(self, run: Path) -> None:
        """validate_log on one replicate's log.csv + summary.json, plus coverage."""
        from netspread.diffusion import read_log_csv, validate_log

        try:
            log = read_log_csv(run / "log.csv")
            summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
            seeds = summary["seeds"]
            wave = {v: 0 for v in seeds}
            wave.update({r: it for it, _, r in log})
            validate_log(log, seeds, wave)
            nu = summary["nu"]
            n = round(len(seeds) / summary["a"])
            informed = [len(seeds)] * len(nu)
            for it, _, _ in log:
                for t in range(it, len(nu)):
                    informed[t] += 1
            problem = None
            if any(b < a for a, b in zip(nu, nu[1:])):
                problem = "coverage not monotone"
            elif any(not math.isclose(c, k / n, rel_tol=1e-12) for c, k in zip(nu, informed)):
                problem = "coverage disagrees with the log"
        except (OSError, KeyError, ValueError) as exc:  # DiffusionError is a ValueError
            problem = f"{type(exc).__name__}: {exc}"
        self.check(problem is None, f"{run}: {problem}")

    def simulate_output(self, out: Path, runs: int, rows: int) -> dict[str, str]:
        """`runs` replicate directories and a sweep.csv of `rows` grid points."""
        found = sorted(p for p in (out / "runs").glob("*") if p.is_dir())
        self.check(len(found) == runs, f"{out}: {len(found)} run dirs, want {runs}")
        for run in found:
            self.run_dir(run)
        digests = {}
        sweep = out / "sweep.csv"
        if self.check(sweep.is_file(), f"{out}: no sweep.csv"):
            lines = sweep.read_text(encoding="utf-8").splitlines()
            self.check(len(lines) == rows + 1, f"{sweep}: {len(lines) - 1} rows, want {rows}")
            digests["sweep.csv"] = sha256(sweep)
        if (out / "model.json").is_file():
            digests["model.json"] = sha256(out / "model.json")
        return digests

    def train_output(self, out: Path) -> dict[str, str]:
        path = out / "model.json"
        if not self.check(path.is_file(), f"{out}: no model.json"):
            return {}
        doc = json.loads(path.read_text(encoding="utf-8"))
        coefs = np.array([s["coef"] for s in doc["support"]])
        self.check(len(coefs) > 0 and np.all(np.isfinite(coefs)) and math.isfinite(doc["bias"]),
                   f"{path}: empty or non-finite model")
        return {"model.json": sha256(path)}

    def analysis_output(self, out: Path) -> dict[str, str]:
        self.run_dir(out / "run")
        path = out / "report.json"
        if not self.check(path.is_file(), f"{out}: no report.json"):
            return {}
        doc = json.loads(path.read_text(encoding="utf-8"))
        graphs_ok = all(0.0 < g["transitivity"] <= 1.0 and g["mean_geodesic"] >= 1.0
                        and g["components"] >= 1 for g in doc["graphs"])
        self.check(graphs_ok, f"{path}: graph metrics out of range")
        tree = doc["tree"]
        self.check(
            tree["component_size"] >= 2 and 1 <= tree["clusters"] <= tree["component_size"]
            and -0.5 <= tree["modularity"] <= 1.0 and 0.0 <= tree["inter_cluster"] <= 1.0
            and sum(tree["cluster_sizes"]) == tree["component_size"],
            f"{path}: cluster analysis out of range")
        waves_ok = all(abs(sum(row) - 1.0) < 1e-9 or all(x == -1.0 for x in row)
                       for rows in doc["waves"].values() for row in rows)
        self.check(waves_ok, f"{path}: wave proportions do not sum to 1")
        return {"report.json": sha256(path)}


def bfs_log(neighbors, seeds, iterations: int) -> list[tuple[int, int, int]]:
    """The log an always-positive diffusion must write: BFS layers from the
    seeds, each receiver attributed to its smallest earlier-informed neighbour."""
    wave = {v: 0 for v in seeds}
    frontier = set(seeds)
    log = []
    for it in range(1, iterations + 1):
        reached = {v for u in frontier for v in neighbors(u) if v not in wave}
        log += [(it, min(u for u in neighbors(r) if u in wave), r) for r in sorted(reached)]
        wave.update((r, it) for r in reached)
        frontier = reached
    return log


def rescore(model_path: Path, X: np.ndarray) -> np.ndarray:
    """Decision values of raw pair rows under the saved model, in plain numpy."""
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    std = doc["standardizer"]
    Z = (X - np.asarray(std["means"])) / np.asarray(std["stds"]) if std else X
    sv = np.array([s["vector"] for s in doc["support"]], dtype=float)
    coef = np.array([s["coef"] for s in doc["support"]], dtype=float)
    if doc["kernel"] == "linear":
        K = Z @ sv.T
    else:
        d2 = ((Z[:, None, :] - sv[None, :, :]) ** 2).sum(axis=2)
        K = np.exp(-d2 / (2.0 * doc["sigma"] ** 2))
    return K @ coef + doc["bias"]
