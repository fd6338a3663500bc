import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from netspread.diffusion import read_run
from netspread.graph import Graph
from netspread.population import Field, FeatureSchema


def make_graph(n, edges) -> Graph:
    return Graph(n, edges)


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star5():
    return make_graph(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def two_k4s():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    return make_graph(8, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    gen = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if gen.random() < edge_prob])


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex v hangs off a uniform earlier vertex."""
    parents = np.random.default_rng(seed).integers(np.arange(1, n))
    return Graph(n, [(int(p), v) for v, p in enumerate(parents, start=1)])


TINY_SCHEMA = FeatureSchema(
    (
        Field("gender", "binary", label="Gender"),
        Field("age_band", "ordinal", label="Age band", value_range=(1, 5)),
        Field("education", "ordinal", label="Education", value_range=(1, 4)),
        Field("profession", "categorical", categories=("a", "b", "c")),
        Field("contact_friends", "ordinal", value_range=(0, 6)),
        Field("contact_family", "ordinal", value_range=(0, 6)),
    )
)


@pytest.fixture
def tiny_schema():
    return TINY_SCHEMA


def random_record(schema: FeatureSchema, gen: np.random.Generator) -> dict:
    record = {}
    for f in schema.fields:
        if f.kind == "categorical":
            record[f.id] = int(gen.integers(len(f.categories)))
        elif f.kind == "binary":
            record[f.id] = int(gen.integers(2))
        else:
            lo, hi = f.value_range
            record[f.id] = int(gen.integers(lo, hi + 1))
    return record


def written_runs(config) -> list:
    """The runs a sweep wrote under config.output_dir, in sweep order."""
    runs_dir = Path(config.output_dir) / "runs"
    return [read_run(runs_dir / f"{point.tag}_r{rep}")
            for point in config.points for rep in range(config.replicates)]


def traced_peak(build):
    """build()'s result and the most bytes traced above the start while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
