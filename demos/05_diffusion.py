"""Run one full diffusion simulation and inspect its metrics.

A tenth of the population starts informed; each iteration scans the edges
out of the informed set and the trained classifier decides which contacts
receive the information.  avg_hops counts transmissions per seeding
vertex that actually transmitted; fanout is receivers per sender.
"""

import os

import numpy as np

from netspread.classifier import KernelSpec, SvmParams, fit_pair_classifier
from netspread.diffusion import DiffusionConfig, run_diffusion, write_log_csv, write_summary_json
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
print(f"trained on {len(pairs)} pairs ({len(model.coefs)} support vectors)")

rng = np.random.default_rng(42)
graph = gen_small_world(10000, 15, 0.1, rng)
people = sample_population(stats, graph.n, rng)
result = run_diffusion(graph, people, model, DiffusionConfig(0.1, 3), rng)

print(f"\nseeds: {len(result.seeds)}")
print(f"coverage by iteration: {[round(c, 4) for c in result.coverage]}")
print(f"newly informed per iteration: {result.new_by_iteration()}")
print(f"avg_hops={result.avg_hops:.3f}  fanout={result.fanout:.3f}")

write_log_csv(result.log, os.path.join(OUT, "transmissions.csv"))
write_summary_json(result, graph.n, os.path.join(OUT, "run_summary.json"))
print(f"wrote {OUT}/transmissions.csv and {OUT}/run_summary.json")
