"""Workload definitions and the seeded input generator.

Every input a workload run sees is written here from the workload seed:
the reduced experiment configs (derived from the two shipped demo configs)
and, for survey training, the egos / alter-pool / alters CSVs.  The program
under test only ever receives these files.

Each workload puts most of its time into a different layer and bypasses the
layers the others stress, so a change to one layer should move one workload
and leave the rest unchanged.  Sizes keep every run well under 2 GB of
resident memory; the full ER demo (about 6 GB peak) is never run.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "er_svm_sweep": (
        "simulate with a trained RBF SVM on ER n=2500: pair scoring dominates; "
        "the workload where pairwise-kernel scoring (ROADMAP item 4) shows"
    ),
    "er_stub_large": (
        "simulate with the always-positive stub on ER n=15000: graph generation "
        "dominates, no classifier runs; where the O(n+m) graph core (item 5) shows"
    ),
    "sw_analysis": (
        "small-world transitivity, geodesics, stub diffusion and modularity "
        "clustering of the largest tree: reads graphs (BFS) instead of building them"
    ),
    "survey_train": (
        "train in survey mode with a 2-point CV grid: the only completion workload, "
        "SMO fit dominates; bypasses graph and diffusion"
    ),
}

# Sizes at full scale and at the tiny scale the smoke test uses.  A full-scale
# child takes one to three seconds, so one run's median is taken over a dozen
# or more children and the machine's second-to-second speed swings average out.
SIZES = {
    "full": {
        "svm_n": 2500, "svm_sample": 1000,
        "stub_n": 15000,
        "metric_n": 400, "tree_n": 4000,
        "egos": 400, "pool": 300, "survey_sample": 500,
    },
    "tiny": {
        "svm_n": 500, "svm_sample": 200,
        "stub_n": 1000,
        "metric_n": 60, "tree_n": 600,
        "egos": 80, "pool": 60, "survey_sample": 300,
    },
}

# Which function call counts as the first unit of work (end of set-up).
FIRST_WORK = {
    "er_svm_sweep": "netspread.experiments:generate_graph",
    "er_stub_large": "netspread.experiments:generate_graph",
    "sw_analysis": "netspread.graph:gen_small_world",
    "survey_train": "netspread.completion:build_training_set",
}

ER_DEMO = ("demos", "configs", "erdos_renyi.json")
SW_DEMO = ("demos", "configs", "small_world.json")
STATS = ("src", "netspread", "data", "fixture_stats.json")


def _load(root: Path, parts) -> dict:
    return json.loads(root.joinpath(*parts).read_text(encoding="utf-8"))


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _sweep_size(doc: dict) -> dict:
    """Rows of sweep.csv and replicate run directories an ER config produces."""
    rows = len(doc["graph"]["edge_prob"]) * len(doc["initial_fraction"])
    return {"rows": rows, "runs": rows * doc["replicates"]}


def prepare(name: str, seed: int, work: Path, scale: str, root: Path) -> dict:
    """Write the inputs of one workload under `work`; return the run spec.

    The spec tells the child what to run; `{out}` in its argv is replaced
    by each run's own output directory.
    """
    size = SIZES[scale]
    spec = {"workload": name, "seed": seed, "first_work": FIRST_WORK[name]}
    if name == "er_svm_sweep":
        doc = _load(root, ER_DEMO)
        n = size["svm_n"]
        # the demo's sparse frontier (p=0.002, a=0.1) to dense (p=0.004, a=0.5) at
        # n=10000, kept as mean degree 20 and 40 at the smaller n
        doc["graph"].update(n=n, edge_prob=[20.0 / n, 40.0 / n])
        doc.update(initial_fraction=[0.1, 0.5], replicates=1, seed=seed)
        doc["training"]["sample_size"] = size["svm_sample"]
        cfg = _write_json(work / "er_svm_sweep.json", doc)
        spec.update(kind="cli", argv=["simulate", "--config", cfg, "--out", "{out}"],
                    rescore=True, **_sweep_size(doc))
    elif name == "er_stub_large":
        doc = _load(root, ER_DEMO)
        n = size["stub_n"]
        doc["graph"].update(n=n, edge_prob=[20.0 / (n - 1)])  # mean degree 20
        doc.update(initial_fraction=[0.01], replicates=1, seed=seed)
        cfg = _write_json(work / "er_stub_large.json", doc)
        spec.update(kind="cli", rescore=False, **_sweep_size(doc), argv=[
            "simulate", "--config", cfg, "--stub-model", "always-positive", "--out", "{out}"])
    elif name == "sw_analysis":
        doc = _load(root, SW_DEMO)
        spec.update(
            kind="analysis", rescore=False,
            # demo 01: transitivity and geodesics across rewiring values
            metric_n=size["metric_n"], metric_neighbors=10,
            metric_rewire=[0.01, 0.1],
            # demo 06: a few seeds grow deep stub-transmission trees
            tree_n=size["tree_n"], tree_neighbors=max(doc["graph"]["neighbors"]),
            tree_rewire=max(doc["graph"]["rewire_prob"]), tree_fraction=5.0 / size["tree_n"],
            iterations=doc["iterations"], report_fields=doc["report_fields"],
        )
    elif name == "survey_train":
        doc = _load(root, SW_DEMO)
        training = doc["training"]
        params = training["params"]
        rng = np.random.default_rng([seed, 1])
        files = write_survey(root, work, size["egos"], size["pool"], rng)
        doc.update(seed=seed, training={
            "mode": "survey", **files,
            "criteria": ["gender", "age_band"],
            "contact_fields": ["contact_friends", "contact_family"],
            "homophily": 0.7,
            "sample_size": size["survey_sample"],
            "grid": [params, {**params, "sigma": params["sigma"] / 2}],
            "cv_folds": 3,
        })
        cfg = _write_json(work / "survey_train.json", doc)
        spec.update(kind="cli", rescore=False,
                    argv=["train", "--config", cfg, "--out", "{out}"])
    else:
        raise KeyError(name)
    _write_json(work / "spec.json", spec)
    return spec


def sample_records(stats: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """n records drawn from the stats' Gaussian, decoded to valid field values.

    Written independently of the program's own sampler so that a change to
    the sampler does not change the benchmark's inputs.
    """
    z = rng.multivariate_normal(stats["mean"], stats["covariance"], size=n, method="eigh")
    columns, pos = [], 0
    for field in stats["schema"]:
        if field["kind"] == "categorical":
            width = len(field["categories"])
            columns.append(np.argmax(z[:, pos:pos + width], axis=1))
        elif field["kind"] == "binary":
            width = 1
            columns.append((z[:, pos] >= 0.5).astype(int))
        else:
            width = 1
            lo, hi = field["range"]
            columns.append(np.clip(np.floor(z[:, pos] + 0.5), lo, hi).astype(int))
        pos += width
    return np.column_stack(columns)


def _write_table(path: Path, header, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def write_survey(root: Path, work: Path, n_egos: int, n_pool: int, rng) -> dict:
    """Egos, alter pool and partially observed alters with a planted pattern.

    Egos with risk perception >= 4 report one or two alters, drawn from pool
    members with food-risk knowledge >= 6: the same rule the demo configs
    plant, so the classifier has something to learn.
    """
    stats = _load(root, STATS)
    ids = [f["id"] for f in stats["schema"]]
    egos = sample_records(stats, n_egos, rng)
    pool = sample_records(stats, n_pool, rng)
    knowing = np.nonzero(pool[:, ids.index("food_risk_knowledge")] >= 6)[0]
    if len(knowing) == 0:
        knowing = np.arange(n_pool)
    observed_ids = ["gender", "age_band", "education"]  # completion's match fields
    observed = [ids.index(f) for f in observed_ids]
    alters = []
    for ego in np.nonzero(egos[:, ids.index("risk_perception")] >= 4)[0]:
        for donor in rng.choice(knowing, size=1 + int(rng.random() < 0.5)):
            alters.append([int(ego)] + [int(pool[donor, j]) for j in observed])
    return {
        "egos_file": _write_table(work / "egos.csv", ids, egos.tolist()),
        "alter_pool_file": _write_table(work / "alter_pool.csv", ids, pool.tolist()),
        "alters_file": _write_table(work / "alters.csv", ["ego"] + observed_ids, alters),
    }
