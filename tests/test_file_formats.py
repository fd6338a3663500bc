"""The bytes of every file the package writes, and the one home of each format."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import netspread
from conftest import traced_peak
from netspread import analysis, completion, diffusion, experiments, population
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


FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 1e-05,
          0.1 + 0.2, -2.5, 1.0, 123456.789]
STRINGS = ["", "plain", "naïve café", "日本", 'say "hi"', "back\\slash", "tab\tnew\nline",
           "\x00\x1f\x7f", "😀", "</script>"]
INTS = [0, 1, -1, 42, -(2**70), 2**64 + 1]


def _document(gen, depth):
    """(a document for write_json, the same document with each array as its
    tolist()), drawn from every kind of value json writes."""
    kind = int(gen.integers(11 if depth < 4 else 6))
    if kind == 0:
        return (x := FLOATS[gen.integers(len(FLOATS))]), x
    if kind == 1:
        return (x := np.float64(FLOATS[gen.integers(len(FLOATS))])), x
    if kind == 2:
        return (x := INTS[gen.integers(len(INTS))]), x
    if kind == 3:
        return (x := STRINGS[gen.integers(len(STRINGS))]), x
    if kind == 4:
        return (x := [None, True, False][gen.integers(3)]), x
    if kind == 5:  # a list of plain floats, a list of ints (bools among them) or an array
        values = [FLOATS[i] for i in gen.integers(len(FLOATS), size=gen.integers(8))]
        ints = [(INTS + [True, False])[i] for i in gen.integers(len(INTS) + 2, size=gen.integers(8))]
        array = np.array(values if gen.random() < 0.5 else ints[:4], dtype=float)
        return [(values, values), (ints, ints), (array, array.tolist())][gen.integers(3)]
    if kind == 6:
        return ((x := np.arange(gen.integers(4))), x.tolist())
    if kind in (7, 8):
        pairs = [_document(gen, depth + 1) for _ in range(gen.integers(5))]
        docs, plains = [d for d, _ in pairs], [p for _, p in pairs]
        return (tuple(docs), tuple(plains)) if kind == 8 else (docs, plains)
    keys = [STRINGS[i] + str(j) for j, i in enumerate(gen.integers(len(STRINGS), size=gen.integers(5)))]
    pairs = [_document(gen, depth + 1) for _ in keys]
    return ({k: d for k, (d, _) in zip(keys, pairs)}, {k: p for k, (_, p) in zip(keys, pairs)})


def _written(tmp_path, doc) -> bytes:
    path = tmp_path / "doc.json"
    population.write_json(path, doc)
    return path.read_bytes()


@pytest.mark.parametrize("seed", range(40))
def test_write_json_gives_json_dump_bytes(tmp_path, seed):
    gen = np.random.default_rng(seed)
    doc, plain = _document(gen, 0) if seed % 4 else _document(gen, 3)
    expected = json.dumps({"doc": plain}, indent=1, sort_keys=True) + "\n"
    assert _written(tmp_path, {"doc": doc}) == expected.encode()
    expected = json.dumps(plain, indent=1, sort_keys=True) + "\n"
    assert _written(tmp_path, doc) == expected.encode()


def test_write_json_formats_values_past_the_float_table_cap(tmp_path):
    cap = population._FLOAT_TEXTS
    values = [i + 0.5 for i in range(2 * cap)] + [0.0, -0.0, float("nan")]
    doc = {"a": values * 2, "b": np.array(values[::-1]), "c": [-x for x in values], "d": 0.5}
    plain = dict(doc, b=doc["b"].tolist())
    assert _written(tmp_path, doc) == (json.dumps(plain, indent=1, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("doc,message", [
    ({"a": object()}, "Object of type object is not JSON serializable"),
    ([np.int64(1)], "Object of type int64 is not JSON serializable"),
    ({"a": np.zeros((2, 2))}, "Object of type ndarray is not JSON serializable"),
    ({"a": {1: "x"}}, "not int"),  # json would write the key as "1"; here keys must be str
    ({("a",): 1}, "not tuple"),
])
def test_write_json_rejects_what_it_cannot_write(tmp_path, doc, message):
    with pytest.raises(TypeError, match=f"{re.escape(message)}$"):
        _written(tmp_path, doc)


@pytest.mark.parametrize("values", ["integer codes", "all distinct"])
def test_model_save_memory_is_bounded(tmp_path, values):
    """Saving formats one support vector at a time from a float text table of
    fixed size, so at the ER demo's 2,518 x 54 support vectors it stays under
    half of the 4.83 MiB that building the whole document as float lists takes."""
    gen = np.random.default_rng(7)
    if values == "integer codes":  # standardized codes, at most 12 values per column
        codes = gen.integers(0, 12, size=(2518, 54)).astype(float)
        vectors = (codes - codes.mean(axis=0)) / codes.std(axis=0)
    else:
        vectors = gen.normal(size=(2518, 54))
    model = SvmModel(KernelSpec("rbf", 12.0), vectors, gen.normal(size=2518), 0.25,
                     Standardizer(gen.normal(size=54), gen.uniform(0.5, 2.0, size=54)))
    path = tmp_path / "model.json"
    _, peak = traced_peak(lambda: model.save(path))
    assert peak < 2 * 2**20
    assert SvmModel.load(path).support_vectors.tolist() == vectors.tolist()
