"""One workload run in a fresh process: the unit whose wall time is measured.

    python3 perfbench/child.py --spec SPEC --out DIR --result FILE [--trace | --setup-only]

Runs the workload through the program's public entry points
(`netspread.cli.main` for simulate and train; the public functions of
graph, diffusion and analysis for the analysis workload) and writes the
time of the first unit of work, and with --trace the spans, to FILE.
With --setup-only the run stops at the first unit of work.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from checks import bfs_log, rescore
from spans import SetupDone, Tracer, layer_metrics


def run_analysis(spec: dict, out: Path) -> int:
    """Demo 01 graph metrics, then demo 06's sparse-seeded stub diffusion and tree analysis."""
    from netspread import analysis, diffusion, graph, population
    from netspread.classifier import ConstantModel
    from netspread.experiments import load_stats

    stats = load_stats("builtin")
    seed = spec["seed"]
    report: dict = {"graphs": []}
    for i, rewire in enumerate(spec["metric_rewire"]):
        g = graph.gen_small_world(spec["metric_n"], spec["metric_neighbors"], rewire,
                                  np.random.default_rng([seed, 2, i]))
        report["graphs"].append({
            "rewire_prob": rewire,
            "transitivity": graph.clustering_coefficient(g),
            "mean_geodesic": graph.mean_geodesic(g),
            "components": len(graph.connected_components(g)),
        })
    rng = np.random.default_rng([seed, 3])
    n = spec["tree_n"]
    g = graph.gen_small_world(n, spec["tree_neighbors"], spec["tree_rewire"], rng)
    people = population.sample_population(stats, n, rng)
    result = diffusion.run_diffusion(
        g, people, ConstantModel(1),
        diffusion.DiffusionConfig(spec["tree_fraction"], spec["iterations"]), rng)
    run_dir = out / "run"
    run_dir.mkdir(parents=True)
    diffusion.write_log_csv(result.log, run_dir / "log.csv")
    diffusion.write_summary_json(result, n, run_dir / "summary.json")

    clustering, component, sub_log = analysis.main_component_clustering(result.log, n)
    sub_graph = analysis.propagation_graph(sub_log, len(component))
    aggregated = analysis.cluster_graph(clustering, sub_log)
    largest = max(aggregated.sizes, key=aggregated.sizes.get)
    report["tree"] = {
        "component_size": len(component),
        "clusters": clustering.n_clusters,
        "modularity": analysis.modularity(sub_graph, clustering),
        "inter_cluster": analysis.inter_cluster_fraction(sub_log, clustering),
        "cluster_sizes": [aggregated.sizes[c] for c in sorted(aggregated.sizes)],
        "extended_largest": len(analysis.extend_cluster(clustering.members(largest), sub_log)),
    }
    report["waves"] = {
        fid: analysis.wave_distribution(result, people, fid).proportions.tolist()
        for fid in spec["report_fields"]
    }
    (out / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    out = Path(args.out)

    tracer = Tracer(seed=spec["seed"], rescore=spec["rescore"])
    if args.trace:
        tracer.install()
    tracer.mark_first_work(spec["first_work"], stop=args.setup_only)
    try:
        if spec["kind"] == "cli":
            from netspread import cli

            code = cli.main([a.replace("{out}", str(out)) for a in spec["argv"]])
        else:
            code = run_analysis(spec, out)
    except SetupDone:
        code = 0

    done = time.monotonic()
    result = {"exit_code": code, "first_work": tracer.first_work}
    if args.trace:
        result["layers"] = layer_metrics(tracer.spans, tracer.steps)
        result["spans"] = tracer.spans
    if tracer.samples:
        labels = np.concatenate([s[2] for s in tracer.samples])
        program = np.concatenate([m.decision_values(X) for m, X, _ in tracer.samples])
        independent = rescore(out / "model.json", np.vstack([s[1] for s in tracer.samples]))
        result["rescore"] = {
            "pairs": int(len(labels)),
            "label_flips": int(np.count_nonzero(np.where(independent > 0, 1, -1) != labels)),
            "max_abs_decision_diff": float(np.max(np.abs(independent - program))),
        }
    if tracer.stub_runs:
        result["oracle"] = {
            "runs": len(tracer.stub_runs),
            "mismatches": sum(list(r.log) != bfs_log(g.neighbors, r.seeds, iterations)
                              for g, iterations, r in tracer.stub_runs),
        }
    result["checks_s"] = time.monotonic() - done  # oracles, not charged to tracing
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
