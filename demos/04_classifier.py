"""Train the transmission classifier and pick parameters by cross-validation.

Pairs are labeled by a planted rule (receiver knows food risks well, sender
perceives the hazard as risky), standardized, and fed to the SMO-trained
kernel SVM.  The balanced error treats both classes equally, so the
all-negative baseline sits at exactly 0.5.
"""

import os

import numpy as np

from netspread.classifier import (
    KernelSpec,
    SvmModel,
    SvmParams,
    balanced_error,
    cross_validate,
    fit_pair_classifier,
)
from netspread.experiments import PlantedRule, load_stats, stream, synthetic_pairs

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
train = synthetic_pairs(stats, 2500, rule, stream(1, 0))
test = synthetic_pairs(stats, 5000, rule, stream(1, 1))
X_train, y_train = train.matrix(), train.labels
X_test, y_test = test.matrix(), test.labels
print(f"{len(y_train)} training pairs, positive rate {np.mean(y_train > 0):.3f}")

grid = [
    SvmParams(C=C, weight=8.0, kernel=KernelSpec("rbf", sigma))
    for C in (1.0, 4.0, 16.0)
    for sigma in (8.0, 12.0)
]
report = cross_validate(X_train, y_train, grid, k=3, rng=stream(1, 2))
print("\n3-fold cross-validation (balanced error):")
for entry in report.entries:
    marker = " <- selected" if entry.params == report.best else ""
    print(f"  C={entry.params.C:<5} sigma={entry.params.kernel.sigma:<5}"
          f" error={entry.balanced_error:.4f}{marker}")

model = fit_pair_classifier(X_train, y_train, report.best, schema=stats.schema)
err = balanced_error(model.predict_labels(X_test), y_test)
baseline = balanced_error(-np.ones_like(y_test), y_test)
print(f"\nheld-out balanced error: {err:.4f} (all-negative baseline: {baseline})")
print(f"support vectors: {len(model.coefs)} of {len(y_train)}")

model.save(os.path.join(OUT, "model.json"))
reloaded = SvmModel.load(os.path.join(OUT, "model.json"), schema=stats.schema)
assert np.allclose(reloaded.decision_values(X_test[:10]), model.decision_values(X_test[:10]))
print(f"wrote {OUT}/model.json (round-trips exactly)")
