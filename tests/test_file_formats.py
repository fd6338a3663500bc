"""The bytes of every file the package writes, and the one home of each format."""

import ast
from pathlib import Path

import numpy as np
import pytest

import netspread
from netspread import analysis, completion, diffusion, experiments
from netspread.classifier import KernelSpec, SvmModel
from netspread.population import Field, FeatureSchema, PopulationStats, Standardizer, VertexTable

SCHEMA = FeatureSchema((
    Field("g", "binary"),
    Field("age", "ordinal", label="Age", value_range=(1, 3)),
    Field("p", "categorical", categories=("a", "b")),
))
TABLE = VertexTable(SCHEMA, {"g": [0, 1], "age": [3, 1], "p": [1, 0]})
RESULT = diffusion.DiffusionResult(
    seeds=(0, 3), coverage=(0.2, 0.6), avg_hops=1.5, fanout=np.float64(2.0),
    log=((1, 0, 2),), wave={0: 0, 3: 0, 2: 1},
)
SWEEP_ROWS = [
    {"neighbors": 4, "rewire_prob": 0.1 + 0.2, "mu_h_mean": 1e16, "replicates": 2},
    {"neighbors": 10, "rewire_prob": 0.05, "mu_h_mean": -1.0, "replicates": 2},
]

STATS_JSON = """{
 "covariance": [
  [
   0.30000000000000004,
   0.0,
   0.0
  ],
  [
   0.0,
   0.5,
   0.0
  ],
  [
   0.0,
   0.0,
   0.5
  ]
 ],
 "mean": [
  2.0,
  0.25,
  0.75
 ],
 "schema": [
  {
   "id": "age",
   "kind": "ordinal",
   "label": "Age",
   "range": [
    1,
    3
   ]
  },
  {
   "categories": [
    "a",
    "b"
   ],
   "id": "p",
   "kind": "categorical"
  }
 ]
}
"""
MODEL_JSON = """{
 "bias": -0.25,
 "kernel": "rbf",
 "sigma": 2.0,
 "standardizer": {
  "means": [
   1.0,
   2.0
  ],
  "stds": [
   0.5,
   1.0
  ]
 },
 "support": [
  {
   "coef": 0.30000000000000004,
   "vector": [
    0.5,
    -1.0
   ]
  }
 ]
}
"""
SUMMARY_JSON = """{
 "a": 0.2,
 "m": 1,
 "mu_h": 1.5,
 "nu": [
  0.2,
  0.6
 ],
 "replicate": 0,
 "seeds": [
  0,
  3
 ],
 "tag": "ps0.1_k4_a0.2",
 "xi": 2.0
}
"""

# name -> (write(path), the exact bytes written)
WRITERS = {
    "vertex csv": (TABLE.to_csv, b"g,age,p\r\n0,3,1\r\n1,1,0\r\n"),
    "pairs csv": (
        completion.PairSet(TABLE, TABLE.take([1, 0]), [1, -1]).to_csv,
        b"sender_g,sender_age,sender_p,receiver_g,receiver_age,receiver_p,label\r\n"
        b"0,3,1,1,1,0,1\r\n1,1,0,0,3,1,-1\r\n",
    ),
    "log csv": (
        lambda path: diffusion.write_log_csv([(1, 0, 2), (2, 2, 5)], path),
        b"iteration,sender,receiver\r\n1,0,2\r\n2,2,5\r\n",
    ),
    "sweep csv": (
        lambda path: experiments._write_sweep_csv(SWEEP_ROWS, path),
        b"neighbors,rewire_prob,mu_h_mean,replicates\r\n"
        b"4,0.30000000000000004,1e+16,2\r\n10,0.05,-1.0,2\r\n",
    ),
    "wave distribution csv": (
        analysis.WaveDistribution(
            "p", ("a", "b"), ("All", "Egos"),
            np.array([[0.1 + 0.2, np.float64(0.7)], [analysis.EMPTY_ROW] * 2]),
        ).to_csv,
        b"wave,a,b\r\nAll,0.30000000000000004,0.7\r\nEgos,-1.0,-1.0\r\n",
    ),
    "stats json": (
        PopulationStats(
            FeatureSchema(SCHEMA.fields[1:]), np.array([2.0, 0.25, np.float64(0.75)]),
            np.diag([0.1 + 0.2, 0.5, 0.5]),
        ).to_json,
        STATS_JSON.encode(),
    ),
    "model json": (
        SvmModel(
            KernelSpec("rbf", 2.0), np.array([[0.5, -1.0]]), np.array([0.1 + 0.2]),
            np.float64(-0.25), Standardizer(np.array([1.0, 2.0]), np.array([0.5, 1.0])),
        ).save,
        MODEL_JSON.encode(),
    ),
    "summary json": (
        lambda path: diffusion.write_summary_json(
            RESULT, 10, path, extra={"tag": "ps0.1_k4_a0.2", "replicate": 0}
        ),
        SUMMARY_JSON.encode(),
    ),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_bytes(tmp_path, name):
    write, expected = WRITERS[name]
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("module,function", [
    ("csv", "reader"), ("csv", "writer"), ("json", "load"), ("json", "dump"),
])
def test_each_format_function_is_called_once(module, function):
    sites = []
    for path in sorted(Path(netspread.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == function and isinstance(func.value, ast.Name)
                    and func.value.id == module):
                sites.append(f"{path.name}:{node.lineno}")
    assert len(sites) == 1, sites
