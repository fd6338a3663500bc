"""Cluster the propagation graph of a run and measure where information flows.

The transmission log, orientation dropped, gives an undirected propagation
graph.  Because exactly one transmission is logged per receiver, that
graph is a forest of per-seed trees; sparse seeding grows fewer, deeper
trees, and the largest one is clustered by modularity maximization.  Most
transmissions should stay inside clusters, which justifies reading the
aggregated cluster graph instead of the raw one.  Also tabulates how the
receiver population shifts wave by wave.
"""

import os

import numpy as np

from netspread.analysis import (
    cluster_graph,
    extend_cluster,
    inter_cluster_fraction,
    main_component_clustering,
    modularity,
    propagation_graph,
    wave_distribution,
)
from netspread.classifier import KernelSpec, SvmParams, fit_pair_classifier
from netspread.diffusion import DiffusionConfig, run_diffusion
from netspread.experiments import PlantedRule, load_stats, stream, synthetic_pairs
from netspread.graph import gen_small_world
from netspread.population import sample_population

OUT = "demo_out"  # every file a demo writes goes here
os.makedirs(OUT, exist_ok=True)

stats = load_stats("builtin")
rule = PlantedRule.from_config(
    {
        "conditions": [
            {"role": "receiver", "field": "food_risk_knowledge", "op": ">=", "value": 6},
            {"role": "sender", "field": "risk_perception", "op": ">=", "value": 4},
        ]
    },
    "rule",
)
pairs = synthetic_pairs(stats, 2500, rule, stream(0, 0))
model = fit_pair_classifier(
    pairs.matrix(),
    pairs.labels,
    SvmParams(C=4.0, weight=8.0, kernel=KernelSpec("rbf", 12.0)),
    schema=stats.schema,
)

rng = np.random.default_rng(11)
graph = gen_small_world(10000, 15, 0.1, rng)
people = sample_population(stats, graph.n, rng)
result = run_diffusion(graph, people, model, DiffusionConfig(0.01, 3), rng)
print(f"recipients incl. seeds: {round(result.coverage[-1] * graph.n):.0f}")

clustering, component, sub_log = main_component_clustering(result.log, graph.n)
print(f"largest propagation component: {len(component)} people,"
      f" {clustering.n_clusters} clusters")
sub_graph = propagation_graph(sub_log, len(component))
print(f"modularity: {modularity(sub_graph, clustering):.3f}")
fraction = inter_cluster_fraction(sub_log, clustering)
print(f"share of transmissions between clusters: {fraction:.3%}")

aggregated = cluster_graph(clustering, sub_log)
largest = max(aggregated.sizes, key=aggregated.sizes.get)
members = set(clustering.members(largest))
extended = extend_cluster(members, sub_log)
print(f"largest cluster: {len(members)} people, {len(extended)} after extension")

with open(os.path.join(OUT, "clusters.dot"), "w") as fh:
    fh.write(aggregated.to_dot())
print(f"wrote {OUT}/clusters.dot")

print("\ngender shares by wave (category 1 = female):")
dist = wave_distribution(result, people, "gender")
for label, row, empty in zip(dist.row_labels, dist.proportions, dist.empty_rows):
    if not empty:
        print(f"  {label:<9} female={row[1]:.3f}")
dist.to_csv(os.path.join(OUT, "gender_by_wave.csv"))
print(f"wrote {OUT}/gender_by_wave.csv")
