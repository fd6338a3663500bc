"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest report.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from netspread.analysis import Clustering, cluster_by_modularity, modularity
from netspread.classifier import (
    ConstantModel,
    KernelSpec,
    SvmParams,
    balanced_error,
    train_svm,
)
from netspread.cli import main
from netspread.completion import generate_non_receivers, homophile_split
from netspread.diffusion import DiffusionConfig, compute_metrics, run_diffusion
from netspread.graph import clustering_coefficient, gen_erdos_renyi, gen_small_world
from netspread.experiments import ExperimentConfig, run_experiment
from netspread.population import VertexTable

from conftest import TINY_SCHEMA, make_graph, random_graph, random_record, written_runs
from oracles import (
    all_partitions,
    bfs_layers,
    check_simple,
    clustering_from_groups,
    dual_objective,
    svm_dual_reference,
    transitivity_centered,
)
from test_classifier import KERNELS, TOY_SETS, full_alpha


def report(criterion: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{status}] {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_01_metric_fixtures():
    tree_log = [(1, 0, 1), (2, 1, 2), (2, 1, 3)]  # 1 original sender, 2 senders
    star_log = [(1, 0, 1), (1, 0, 2), (1, 0, 3)]  # single sender
    ok = compute_metrics(tree_log, [0]) == (3.0, 1.5)
    ok = ok and compute_metrics(star_log, [0]) == (3.0, 3.0)
    report(1, "hand-encoded transmission trees give avg_hops/fanout (3, 3/2) and (3, 3)", ok)


def test_criterion_02_small_world_generator():
    ok = True
    for i, rewire in enumerate((0.0, 0.01, 0.1, 1.0)):
        g = gen_small_world(1000, 10, rewire, np.random.default_rng(100 + i))
        check_simple(g)
        ok = ok and g.edge_count == 10 * 1000
        if rewire == 0.0:
            ok = ok and bool((g.degrees() == 20).all())
            ok = ok and abs(
                clustering_coefficient(g) - transitivity_centered(g)
            ) <= 1e-12
    report(2, "small-world edge count kn, simplicity, lattice degrees and transitivity oracle", ok)


def test_criterion_03_erdos_renyi_moments():
    n, p, seeds = 2000, 0.003, 30
    degrees = [
        2 * gen_erdos_renyi(n, p, np.random.default_rng(s)).edge_count / n
        for s in range(seeds)
    ]
    pairs = n * (n - 1) / 2
    se = (2.0 * np.sqrt(pairs * p * (1 - p)) / n) / np.sqrt(seeds)
    deviation = abs(np.mean(degrees) - (n - 1) * p)
    report(3, f"ER mean degree within 4 binomial SE over {seeds} seeds", deviation < 4 * se)


def test_criterion_04_svm_oracle_equivalence():
    ok = True
    for name, X, y, C, weight in TOY_SETS:
        for kind, sigma in KERNELS:
            spec = KernelSpec(kind, sigma)
            model = train_svm(X, y.astype(float), SvmParams(C=C, weight=weight, kernel=spec))
            alpha = full_alpha(model, X)
            _, obj_ref, _, dec_ref = svm_dual_reference(X, y, C, C * weight, kind, sigma)
            obj = dual_objective(X, y.astype(float), alpha, spec)
            ok = ok and abs(obj - obj_ref) < 1e-3
            ok = ok and np.max(np.abs(model.decision_values(X) - dec_ref)) < 1e-3
            ok = ok and model.kkt_violation < 1e-3
            ok = ok and abs(np.sum(alpha * y)) < 1e-6
    report(4, "SMO matches the dense QP oracle on 5 toy sets under both kernels", ok)


def test_criterion_05_balanced_error():
    labels = np.array([1, 1, -1, -1, -1, -1, -1, 1])
    ok = balanced_error(-np.ones_like(labels), labels) == 0.5
    ok = ok and balanced_error(labels, labels) == 0.0
    report(5, "constant-negative predictor scores exactly 0.5; perfect predictor 0", ok)


def test_criterion_06_diffusion_bfs_oracle():
    gen = np.random.default_rng(77)
    ok = True
    for trial in range(100):
        n = int(gen.integers(5, 51))
        g = random_graph(n, float(gen.uniform(0.03, 0.25)), int(gen.integers(1 << 30)))
        records = [random_record(TINY_SCHEMA, gen) for _ in range(n)]
        table = VertexTable.from_records(TINY_SCHEMA, records)
        m = int(gen.integers(1, 5))
        result = run_diffusion(
            g, table, ConstantModel(1), DiffusionConfig(0.1, m),
            np.random.default_rng(trial),
        )
        layers = bfs_layers(g, result.seeds)
        ok = ok and result.wave == {v: d for v, d in layers.items() if d <= m}
        if not ok:
            break
    report(6, "always-positive diffusion equals multi-source BFS layers on 100 graphs", ok)


def test_criterion_07_qualitative_sweep_trends(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "graph": {"model": "erdos_renyi", "n": 2000,
                      "edge_prob": [0.001, 0.002, 0.003, 0.004]},
            "initial_fraction": [0.1, 0.5],
            "iterations": 3,
            "replicates": 5,
            "seed": 42,
            "stats_file": "builtin",
            "output_dir": str(tmp_path / "sweep"),
            "training": {
                "mode": "synthetic",
                "sample_size": 2500,
                "rule": {
                    "conditions": [
                        {"role": "receiver", "field": "food_risk_knowledge",
                         "op": ">=", "value": 6},
                        {"role": "sender", "field": "risk_perception",
                         "op": ">=", "value": 4},
                    ]
                },
                "params": {"kernel": "rbf", "sigma": 12.0, "C": 4.0, "weight": 8.0},
            },
        }
    )
    rows = run_experiment(config)
    # (a) coverage increments non-increasing within >= 90% of runs
    flags = []
    for run in written_runs(config):
        d = np.diff(run.coverage)
        flags.append(all(d[i] >= d[i + 1] - 1e-12 for i in range(len(d) - 1)))
    frac_monotone = np.mean(flags)
    # (b) mean avg_hops strictly increasing in edge probability at a = 0.1
    mus = [r["mu_h_mean"] for r in rows if r["initial_fraction"] == 0.1]
    increasing = all(a < b for a, b in zip(mus, mus[1:]))
    # (c) mean fanout lower at a = 0.5 than a = 0.1 on matched graphs
    lower = True
    for pe in (0.001, 0.002, 0.003, 0.004):
        xi = {
            r["initial_fraction"]: r["xi_mean"]
            for r in rows
            if r["edge_prob"] == pe
        }
        lower = lower and xi[0.5] < xi[0.1]
    ok = frac_monotone >= 0.9 and increasing and lower
    report(
        7,
        f"trained-model sweep trends: monotone deltas {frac_monotone:.0%}, "
        f"avg_hops rises with edge_prob {increasing}, fanout drops at high seeding {lower}",
        ok,
    )


def test_criterion_08_modularity():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    two_k4s = make_graph(8, edges)
    clustering = cluster_by_modularity(two_k4s)
    ok = clustering.n_clusters == 2
    ok = ok and set(clustering.assignment[:4]) != set(clustering.assignment[4:])
    ok = ok and modularity(two_k4s, clustering) == pytest.approx(0.5, abs=1e-12)
    ok = ok and modularity(two_k4s, Clustering((0,) * 8)) == 0.0
    fixtures = [two_k4s, random_graph(8, 0.3, 1), random_graph(9, 0.3, 2)]
    for g in fixtures:
        if g.edge_count == 0:
            continue
        best = max(
            modularity(g, clustering_from_groups(g.n, groups))
            for groups in all_partitions(list(range(g.n)))
        )
        achieved = modularity(g, cluster_by_modularity(g))
        ok = ok and achieved >= best - 1e-9
    report(8, "two K4s recovered at Q=0.5, one-cluster Q=0, greedy beats all partitions", ok)


def test_criterion_09_completion_split():
    me = {"gender": 0, "age_band": 2, "education": 1, "profession": 0,
          "contact_friends": 3, "contact_family": 2}
    pool = [dict(me, education=i % 4 + 1) for i in range(15)]
    pool += [dict(me, gender=1, age_band=4, education=i % 4 + 1) for i in range(15)]
    people = VertexTable.from_records(TINY_SCHEMA, [me] + pool)  # the person is row 0
    criteria = ("age_band", "gender")
    drawn = people.take(generate_non_receivers(0, people, criteria, h=0.7, count=10,
                                               rng=np.random.default_rng(0)))
    similar = (drawn.columns["gender"] == 0) & (drawn.columns["age_band"] == 2)
    ok = len(drawn) == 10 and similar.sum() == 7
    halves = homophile_split(0, people, criteria)
    ok = ok and len(halves[0]) + len(halves[1]) == len(pool)
    ok = ok and len(halves[0]) == 15 and len(halves[1]) == 15
    report(9, "h=0.7, N=10 yields exactly 7 homophile + 3 other draws; sets partition pool", ok)


def test_criterion_10_cli_determinism(tmp_path):
    doc = {
        "graph": {"model": "small_world", "n": 2000, "neighbors": [10],
                  "rewire_prob": [0.1]},
        "initial_fraction": [0.1],
        "iterations": 3,
        "replicates": 2,
        "seed": 2024,
        "stats_file": "builtin",
        "output_dir": str(tmp_path / "unused"),
        "training": {
            "mode": "synthetic",
            "sample_size": 1500,
            "rule": {
                "conditions": [
                    {"role": "receiver", "field": "food_risk_knowledge",
                     "op": ">=", "value": 6},
                    {"role": "sender", "field": "risk_perception", "op": ">=", "value": 4},
                ]
            },
            "params": {"kernel": "rbf", "sigma": 12.0, "C": 4.0, "weight": 8.0},
        },
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "r2")]) == 0
    files1 = sorted(
        p.relative_to(tmp_path / "r1") for p in (tmp_path / "r1").rglob("*") if p.is_file()
    )
    files2 = sorted(
        p.relative_to(tmp_path / "r2") for p in (tmp_path / "r2").rglob("*") if p.is_file()
    )
    ok = files1 == files2 and len(files1) > 0
    for rel in files1:
        ok = ok and (
            (tmp_path / "r1" / rel).read_bytes() == (tmp_path / "r2" / rel).read_bytes()
        )
    report(10, f"two identical CLI runs produced byte-identical artifacts ({len(files1)} files)", ok)
