import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netspread import population
from netspread.completion import CompletionError, PairSet, read_alters_csv
from netspread.diffusion import DiffusionError, read_log_csv, write_log_csv
from netspread.experiments import load_stats
from netspread.population import (
    Field,
    FeatureSchema,
    PopulationError,
    PopulationStats,
    Standardizer,
    VertexTable,
    fit_stats,
    sample_population,
)

from conftest import TINY_SCHEMA, random_record
from oracles import covariance_two_pass, encode, reference_sample_population


def record_strategy(schema):
    parts = {}
    for f in schema.fields:
        if f.kind == "categorical":
            parts[f.id] = st.integers(0, len(f.categories) - 1)
        elif f.kind == "binary":
            parts[f.id] = st.integers(0, 1)
        else:
            lo, hi = f.value_range
            parts[f.id] = st.integers(lo, hi)
    return st.fixed_dictionaries(parts)


class TestSchema:
    def test_encoded_dimension(self, tiny_schema):
        # 5 scalar fields + one 3-category block
        assert tiny_schema.encoded_dim == 8

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PopulationError, match=r"^field ids must be unique$"):
            FeatureSchema((Field("x", "binary"), Field("x", "ordinal", value_range=(0, 3))))

    def test_categorical_needs_categories(self):
        message = r"^field 'p': categorical needs >= 2 categories$"
        with pytest.raises(PopulationError, match=message):
            Field("p", "categorical", categories=("only",))


def encoded_row(record: dict, schema: FeatureSchema) -> np.ndarray:
    return VertexTable.from_records(schema, [record]).encoded()[0]


def draw_mean(mean: np.ndarray, schema: FeatureSchema) -> VertexTable:
    """One sampled record from stats with zero covariance: the decoded mean."""
    d = schema.encoded_dim
    stats = PopulationStats(schema=schema, mean=mean, covariance=np.zeros((d, d)))
    return sample_population(stats, 1, np.random.default_rng(0))


class TestEncode:
    def test_one_hot_block(self):
        schema = FeatureSchema(
            (Field("profession", "categorical", categories=tuple("abcdefgh")),)
        )
        vec = encoded_row({"profession": 3}, schema)
        assert vec.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]

    def test_all_ordinal_identity(self):
        schema = FeatureSchema(
            (
                Field("u", "ordinal", value_range=(0, 9)),
                Field("v", "ordinal", value_range=(0, 9)),
            )
        )
        assert encoded_row({"u": 4, "v": 7}, schema).tolist() == [4.0, 7.0]

    def test_invalid_category(self, tiny_schema):
        bad = {f.id: 0 for f in tiny_schema.fields}
        bad["age_band"] = 1
        bad["education"] = 1
        bad["profession"] = 3
        message = r"^field 'profession': category index 3 outside \[0, 3\)$"
        with pytest.raises(PopulationError, match=message):
            encoded_row(bad, tiny_schema)

    @settings(max_examples=60, deadline=None)
    @given(record_strategy(TINY_SCHEMA))
    def test_round_trip(self, record):
        # with zero covariance every draw is the mean, which sampling decodes
        assert draw_mean(encoded_row(record, TINY_SCHEMA), TINY_SCHEMA).row(0) == record

    def test_decode_clamps_ordinals(self):
        schema = FeatureSchema((Field("z", "ordinal", value_range=(1, 5)),))
        assert draw_mean(np.array([99.0]), schema).row(0) == {"z": 5}
        assert draw_mean(np.array([-3.0]), schema).row(0) == {"z": 1}


class TestVertexTable:
    def test_from_records_and_rows(self, tiny_schema, rng):
        records = [random_record(tiny_schema, rng) for _ in range(10)]
        table = VertexTable.from_records(tiny_schema, records)
        assert table.n == 10
        assert [table.row(i) for i in range(table.n)] == records

    @pytest.mark.parametrize("field,values,message", [
        ("gender", [5, 0, 3, 1], "field 'gender': binary value 3"),
        ("age_band", [9, 2, 0, 7], "field 'age_band': value 0 outside [1, 5]"),
        ("profession", [4, 3, 0], "field 'profession': category index 3 outside [0, 3)"),
    ])
    def test_from_records_names_the_smallest_invalid_value(
        self, tiny_schema, rng, field, values, message
    ):
        records = [random_record(tiny_schema, rng) for _ in values]
        for record, value in zip(records, values):
            record[field] = value
        with pytest.raises(PopulationError, match=re.escape(message)):
            VertexTable.from_records(tiny_schema, records)

    def test_encoded_matches_per_record_encode(self, tiny_schema, rng):
        records = [random_record(tiny_schema, rng) for _ in range(20)]
        table = VertexTable.from_records(tiny_schema, records)
        expected = np.array([encode(r, tiny_schema) for r in records])
        assert np.array_equal(table.encoded(), expected)

    def test_csv_round_trip(self, tiny_schema, rng, tmp_path):
        records = [random_record(tiny_schema, rng) for _ in range(15)]
        table = VertexTable.from_records(tiny_schema, records)
        path = tmp_path / "people.csv"
        table.to_csv(path)
        again = VertexTable.from_csv(path, tiny_schema)
        assert [again.row(i) for i in range(again.n)] == records

    def test_csv_mode_imputation(self, tiny_schema, tmp_path):
        path = tmp_path / "holes.csv"
        header = ",".join(tiny_schema.field_ids)
        rows = [
            "0,1,3,0,2,3",
            "1,2,,1,2,3",
            "1,3,2,1,2,3",
            ",2,,1,2,3",  # missing gender -> mode over {0,1,1} is 1
        ]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        table = VertexTable.from_csv(path, tiny_schema)
        assert table.columns["gender"].tolist() == [0, 1, 1, 1]
        # education ties between 3 (seen first) and 2: the smaller value wins
        assert table.columns["education"].tolist() == [3, 2, 2, 2]


def write_people(path):
    gen = np.random.default_rng(4)
    records = [random_record(TINY_SCHEMA, gen) for _ in range(4)]
    VertexTable.from_records(TINY_SCHEMA, records).to_csv(path)


def read_people(path):
    return VertexTable.from_csv(path, TINY_SCHEMA).encoded().tolist()


def write_pairs(path):
    gen = np.random.default_rng(5)
    records = [random_record(TINY_SCHEMA, gen) for _ in range(4)]
    people = VertexTable.from_records(TINY_SCHEMA, records)
    PairSet(people, people, [1, -1, 1, -1]).to_csv(path)


def read_pairs(path):
    pairs = PairSet.from_csv(path, TINY_SCHEMA)
    return pairs.matrix().tolist(), pairs.labels.tolist()


# every reader of an integer CSV: file name, writer, reader, error class
CSV_READERS = {
    "vertex": ("people.csv", write_people, read_people, PopulationError),
    "pairs": ("pairs.csv", write_pairs, read_pairs, CompletionError),
    "alters": ("alters.csv",
               lambda path: path.write_text("ego,gender,age_band\n0,1,3\n2,0,\n1,1,1\n"),
               lambda path: read_alters_csv(path, TINY_SCHEMA, 3), CompletionError),
    "log": ("log.csv", lambda path: write_log_csv([(1, 0, 1), (1, 0, 2), (2, 1, 3)], path),
            read_log_csv, DiffusionError),
}


@pytest.mark.parametrize("reader", list(CSV_READERS))
@pytest.mark.parametrize("case", ["blank-lines", "short-row", "not-an-integer"])
def test_int_csv_readers_share_one_contract(tmp_path, reader, case):
    """Each reader skips blank lines and names the file, line and column of a fault."""
    name, write, read, error = CSV_READERS[reader]
    path = tmp_path / name
    write(path)
    plain = read(path)
    lines = path.read_text().splitlines()
    header, cells = lines[0].split(","), lines[2].split(",")
    if case == "blank-lines":
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n\n")
        assert read(path) == plain
        return
    if case == "short-row":
        lines[2] = ",".join(cells[:-1])
        message = f"{name}, line 3: {len(header) - 1} cells, expected {len(header)}"
    else:
        lines[2] = ",".join(["x"] + cells[1:])
        message = f"{name}, line 3, column 1 ({header[0]}): invalid literal"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=re.escape(message)):
        read(path)


class TestFitStats:
    def test_identical_rows(self, tiny_schema):
        record = {
            "gender": 1, "age_band": 3, "education": 2, "profession": 1,
            "contact_friends": 4, "contact_family": 2,
        }
        table = VertexTable.from_records(tiny_schema, [record] * 5)
        stats = fit_stats(table)
        assert np.allclose(stats.covariance, 1e-6 * np.eye(tiny_schema.encoded_dim))
        assert np.allclose(stats.mean, encode(record, tiny_schema))

    def test_two_row_variance(self):
        schema = FeatureSchema((Field("x", "ordinal", value_range=(0, 9)),))
        table = VertexTable.from_records(schema, [{"x": 0}, {"x": 2}])
        stats = fit_stats(table)
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.covariance[0, 0] == pytest.approx(2.0 + 1e-6)

    def test_matches_two_pass_oracle(self, tiny_schema, rng):
        records = [random_record(tiny_schema, rng) for _ in range(40)]
        table = VertexTable.from_records(tiny_schema, records)
        stats = fit_stats(table)
        mean, cov = covariance_two_pass(table.encoded())
        assert np.allclose(stats.mean, mean, atol=1e-9)
        assert np.allclose(stats.covariance - 1e-6 * np.eye(len(mean)), cov, atol=1e-9)

    def test_too_few_rows(self, tiny_schema, rng):
        table = VertexTable.from_records(tiny_schema, [random_record(tiny_schema, rng)])
        with pytest.raises(PopulationError, match=r"^need at least two rows to fit statistics$"):
            fit_stats(table)


class TestSampleAsOneExpression:
    """sample_population forms mean + z @ L.T in place, SAMPLE_BLOCK rows at
    a time; its rows, columns and generator state equal the one-expression
    draw's (tests/oracles.py).  A one-row last block would move bits (BLAS
    takes it as a matrix-vector product), so tails of one row, two rows and
    a block plus one row are pinned."""

    B = population.SAMPLE_BLOCK

    @staticmethod
    def stats(which):
        if which == "builtin":
            return load_stats("builtin")
        gen = np.random.default_rng(3)
        return fit_stats(VertexTable.from_records(
            TINY_SCHEMA, [random_record(TINY_SCHEMA, gen) for _ in range(60)]))

    @pytest.mark.parametrize("which", ["builtin", "fixture"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, B - 1, B, B + 1, B + 2, 2 * B + 1, 4096, 15000])
    def test_columns_equal_reference(self, which, n):
        stats = self.stats(which)
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = sample_population(stats, n, rng)
        want = reference_sample_population(stats, n, ref_rng)
        assert list(got.columns) == list(want.columns)
        for f, column in want.columns.items():
            assert got.columns[f].dtype == column.dtype
            assert got.columns[f].tobytes() == column.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("which", ["builtin", "fixture"])
    @pytest.mark.parametrize("n,sizes", [
        (1, [1]), (B + 1, [B + 1]), (B + 2, [B, 2]), (2 * B + 1, [B, B + 1]),
        (2 * B + 952, [B, B, 952]),
    ])
    def test_decoded_blocks_are_bitwise_the_sum(self, which, n, sizes, monkeypatch):
        stats = self.stats(which)
        seen, real = [], population._decode_into

        def decode_into(y, schema, columns):
            seen.append(y.copy())
            real(y, schema, columns)

        monkeypatch.setattr(population, "_decode_into", decode_into)
        sample_population(stats, n, np.random.default_rng(11))
        assert [len(y) for y in seen] == sizes
        z = np.random.default_rng(11).standard_normal((n, stats.schema.encoded_dim))
        want = stats.mean + z @ population._factor(stats.covariance).T
        assert np.concatenate(seen).tobytes() == want.tobytes()


class TestSamplePopulation:
    def test_degenerate_covariance_yields_mean_record(self, tiny_schema, rng):
        record = {
            "gender": 1, "age_band": 3, "education": 2, "profession": 2,
            "contact_friends": 4, "contact_family": 2,
        }
        table = VertexTable.from_records(tiny_schema, [record] * 4)
        stats = fit_stats(table)
        sampled = sample_population(stats, 50, rng)
        assert all(sampled.row(i) == record for i in range(sampled.n))

    def test_sample_mean_clt_bound(self):
        schema = FeatureSchema((Field("x", "ordinal", value_range=(-1000, 1000)),))
        stats = PopulationStats(
            schema=schema, mean=np.zeros(1), covariance=np.ones((1, 1))
        )
        n = 10000
        table = sample_population(stats, n, np.random.default_rng(0))
        assert abs(table.columns["x"].mean()) < 4.0 / np.sqrt(n)

    def test_ordinals_stay_in_range(self, tiny_schema, rng):
        records = [random_record(tiny_schema, rng) for _ in range(30)]
        stats = fit_stats(VertexTable.from_records(tiny_schema, records))
        sampled = sample_population(stats, 500, rng)
        sampled.validate()

    def test_determinism(self, tiny_schema, rng):
        records = [random_record(tiny_schema, rng) for _ in range(30)]
        stats = fit_stats(VertexTable.from_records(tiny_schema, records))
        t1 = sample_population(stats, 100, np.random.default_rng(42))
        t2 = sample_population(stats, 100, np.random.default_rng(42))
        assert all(np.array_equal(t1.columns[f], t2.columns[f]) for f in t1.columns)

    def test_column_means_converge(self):
        schema = FeatureSchema(
            (
                Field("x", "ordinal", value_range=(-10000, 10000)),
                Field("y", "ordinal", value_range=(-10000, 10000)),
            )
        )
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        stats = PopulationStats(schema=schema, mean=np.array([3.0, -2.0]), covariance=cov)
        n = 100_000
        table = sample_population(stats, n, np.random.default_rng(1))
        for fid, mu, var in (("x", 3.0, 4.0), ("y", -2.0, 2.0)):
            # rounding to integers adds at most 1/12 variance
            se = np.sqrt((var + 1 / 12) / n)
            assert abs(table.columns[fid].mean() - mu) < 4 * se

    def test_not_psd_rejected(self):
        schema = FeatureSchema(
            (
                Field("x", "ordinal", value_range=(0, 9)),
                Field("y", "ordinal", value_range=(0, 9)),
            )
        )
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        stats = PopulationStats(schema=schema, mean=np.zeros(2), covariance=bad)
        message = r"^covariance has negative eigenvalue -1\.000e\+00$"
        with pytest.raises(PopulationError, match=message):
            sample_population(stats, 10, np.random.default_rng(0))


class TestStatsJson:
    def test_round_trip(self, tiny_schema, rng, tmp_path):
        records = [random_record(tiny_schema, rng) for _ in range(25)]
        stats = fit_stats(VertexTable.from_records(tiny_schema, records))
        path = tmp_path / "stats.json"
        stats.to_json(path)
        again = PopulationStats.from_json(path)
        assert again.schema == stats.schema
        assert np.allclose(again.mean, stats.mean)
        assert np.allclose(again.covariance, stats.covariance)

    def test_document_keys(self, tiny_schema, rng, tmp_path):
        import json

        records = [random_record(tiny_schema, rng) for _ in range(5)]
        stats = fit_stats(VertexTable.from_records(tiny_schema, records))
        path = tmp_path / "stats.json"
        stats.to_json(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"schema", "mean", "covariance"}
        prof = next(d for d in doc["schema"] if d["id"] == "profession")
        assert prof["categories"] == ["a", "b", "c"]


    @staticmethod
    def write_doc(tmp_path, tiny_schema, rng, edit):
        import json

        records = [random_record(tiny_schema, rng) for _ in range(5)]
        path = tmp_path / "stats.json"
        fit_stats(VertexTable.from_records(tiny_schema, records)).to_json(path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["schema"][0].pop("id"), "schema[0]: missing 'id'"),
        (lambda doc: doc["schema"][2].pop("kind"), "schema[2]: missing 'kind'"),
        (lambda doc: doc["schema"].insert(1, "gender"), "schema[1]: must be an object"),
        (lambda doc: doc.update(schema={"id": "gender"}), "schema: must be a list"),
        (lambda doc: doc["schema"][1].update(id=doc["schema"][0]["id"]),
         "field ids must be unique"),
        (lambda doc: doc["schema"][1].update(kind="nominal"), "schema[1]: field"),
        (lambda doc: doc["schema"][1].update(range=[1]),
         "schema[1]: field 'age_band': range must be two integers, got [1]"),
        (lambda doc: doc["schema"][1].update(range="ab"),
         "schema[1]: field 'age_band': range must be two integers, got 'ab'"),
    ])
    def test_malformed_schema_entry_names_file_and_key(
        self, tiny_schema, rng, tmp_path, edit, message
    ):
        path = self.write_doc(tmp_path, tiny_schema, rng, edit)
        with pytest.raises(PopulationError) as info:
            PopulationStats.from_json(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("key,edit,shapes", [
        ("mean", lambda doc: doc["mean"].pop(), "shape (7,)"),
        ("covariance", lambda doc: doc.update(covariance=doc["covariance"][:3]), "shape (3, 8)"),
    ])
    def test_dimension_mismatch_names_file_and_both_sizes(
        self, tiny_schema, rng, tmp_path, key, edit, shapes
    ):
        d = tiny_schema.encoded_dim
        assert d == 8
        path = self.write_doc(tmp_path, tiny_schema, rng, edit)
        with pytest.raises(PopulationError) as info:
            PopulationStats.from_json(path)
        message = str(info.value)
        assert message.startswith(f"{path}: {key}: {shapes}")
        assert f"encoded width {d}" in message

class TestStandardizer:
    def test_three_point_column(self):
        std = Standardizer.fit(np.array([[1.0], [2.0], [3.0]]))
        out = std.transform(np.array([[1.0], [2.0], [3.0]]))
        root = np.sqrt(3.0 / 2.0)
        assert out[:, 0] == pytest.approx([-root, 0.0, root])
        assert out[1, 0] == 0.0

    def test_constant_column_passthrough(self):
        X = np.array([[5.0, 1.0], [5.0, 3.0]])
        std = Standardizer.fit(X)
        out = std.transform(X)
        assert np.allclose(out[:, 0], 0.0)
        assert std.stds[0] == 1.0

    def test_training_statistics_applied_to_held_out(self):
        train = np.array([[0.0], [2.0]])
        std = Standardizer.fit(train)
        held_out = std.transform(np.array([[4.0]]))
        assert held_out[0, 0] == pytest.approx(3.0)  # (4 - 1) / 1

    def test_transformed_training_matrix_is_centered(self, tiny_schema, rng):
        records = [random_record(tiny_schema, rng) for _ in range(50)]
        X = VertexTable.from_records(tiny_schema, records).encoded()
        out = Standardizer.fit(X).transform(X)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        stds = out.std(axis=0)
        varying = X.std(axis=0) > 0
        assert np.allclose(stds[varying], 1.0, atol=1e-9)
