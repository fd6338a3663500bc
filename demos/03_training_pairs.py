"""Build a labeled pair dataset from a small synthetic survey.

Egos report some receivers (partially observed: gender, age band,
education, profession) which are completed from the responding-contact
pool; non-receivers are generated from the ego pool with a 70% homophile
share and counted from the weekly-contact fields.
"""

import os

import numpy as np

from netspread.completion import build_training_set, homophile_split
from netspread.experiments import load_stats
from netspread.population import sample_population

OUT = "demo_out"  # every file a demo writes goes here
os.makedirs(OUT, exist_ok=True)

stats = load_stats("builtin")
rng = np.random.default_rng(3)

egos = sample_population(stats, 200, rng)
responders = sample_population(stats, 80, rng)

criteria = ("gender", "age_band", "education", "income_band")
similar, other = homophile_split(0, egos, criteria)
print(f"ego 0 homophiles on {criteria}: {len(similar)} of {egos.n - 1}")

# each of the first 50 egos reported one receiver (observed demographics only)
observed = ("gender", "age_band", "education", "profession")
listed = [[] for _ in range(egos.n)]
for i in range(50):
    donor = responders.row(int(rng.integers(responders.n)))
    listed[i] = [{k: donor[k] for k in observed}]

pairs = build_training_set(
    egos,
    listed,
    responders,
    criteria=("gender", "age_band"),
    contact_fields=("contact_friends", "contact_colleagues",
                    "contact_family", "contact_acquaintances"),
    h=0.7,
    rng=rng,
)
n_pos = int((pairs.labels == 1).sum())
print(f"built {len(pairs)} pairs: {n_pos} positive, {len(pairs) - n_pos} negative")
print(f"positive fraction: {n_pos / len(pairs):.3f}")

pairs.to_csv(os.path.join(OUT, "pairs.csv"))
print(f"wrote {OUT}/pairs.csv")
