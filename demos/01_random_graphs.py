"""Generate the two random-graph families and compare their structure.

A ring-lattice small world keeps a high clustering coefficient at low
rewiring while its mean geodesic distance collapses; the matched
Erdos-Renyi graph has short paths but almost no triangles.
"""

import os

import numpy as np

from netspread.graph import (
    clustering_coefficient,
    connected_components,
    gen_erdos_renyi,
    gen_small_world,
    mean_geodesic,
    to_dot,
    write_edge_list,
)

OUT = "demo_out"  # every file a demo writes goes here
os.makedirs(OUT, exist_ok=True)

rng = np.random.default_rng(7)

n, k = 1000, 10
print(f"small-world family, n={n}, neighbors={k} (edge count is always {k * n}):")
for rewire in (0.0, 0.01, 0.1, 1.0):
    g = gen_small_world(n, k, rewire, np.random.default_rng(7))
    cc = clustering_coefficient(g)
    dist = mean_geodesic(g)
    print(f"  rewire_prob={rewire:<5} clustering={cc:.4f}  mean_geodesic={dist:.3f}")

edge_prob = 2 * k / (n - 1)  # match the small-world mean degree of 2k
g = gen_erdos_renyi(n, edge_prob, rng)
print(f"\nerdos-renyi with matched mean degree ({2 * k}):")
print(f"  edges={g.edge_count}  clustering={clustering_coefficient(g):.4f}"
      f"  mean_geodesic={mean_geodesic(g):.3f}")
print(f"  components: {len(connected_components(g))}")

write_edge_list(g, os.path.join(OUT, "er_graph.tsv"))
small = gen_small_world(30, 3, 0.1, rng)
with open(os.path.join(OUT, "small_world.dot"), "w") as fh:
    fh.write(to_dot(small))
print(f"\nwrote {OUT}/er_graph.tsv and {OUT}/small_world.dot")
