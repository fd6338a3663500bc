"""Sample a synthetic population from the bundled statistics file.

The stats file carries a feature schema plus the mean vector and
covariance matrix of the encoded records; sampling draws multivariate
normals and decodes them back into valid person records.
"""

import os

import numpy as np

from netspread.experiments import load_stats
from netspread.population import fit_stats, sample_population

OUT = "demo_out"  # every file a demo writes goes here
os.makedirs(OUT, exist_ok=True)

stats = load_stats("builtin")
schema = stats.schema
print(f"schema: {len(schema.fields)} fields, encoded dimension {schema.encoded_dim}")
for f in schema.fields[:6]:
    print(f"  {f.id:<22} {f.kind:<12} {f.label}")
print("  ...")

table = sample_population(stats, 20000, np.random.default_rng(0))
print(f"\nsampled {table.n} people")
print(f"  fraction female        : {table.columns['gender'].mean():.3f}")
print(f"  mean age band          : {table.columns['age_band'].mean():.2f}")
print(f"  profession distribution: "
      f"{np.round(np.bincount(table.columns['profession'], minlength=8) / table.n, 3)}")

# refit statistics from the sample: the moments should come back close
refit = fit_stats(table)
drift = np.max(np.abs(refit.mean - stats.mean))
print(f"\nmax |refit mean - source mean| = {drift:.4f} (decoding rounds/clamps values)")

table.to_csv(os.path.join(OUT, "population.csv"))
print(f"wrote {OUT}/population.csv")
