"""netspread: word-of-mouth information diffusion on random social graphs.

Subpackages cover the pipeline end to end: random graphs and their metrics
(graph), synthetic populations (population), labeled-pair construction
(completion), the kernel SVM transmission classifier (classifier), the
diffusion simulation itself (diffusion), post-run analytics (analysis) and
the sweep/experiment runner (experiments, cli).
"""

# submodules are imported where they are used, so `netspread simulate` and
# `train` never import analysis
__all__ = [
    "analysis",
    "classifier",
    "completion",
    "diffusion",
    "graph",
    "population",
]

__version__ = "0.1.0"
