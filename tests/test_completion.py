import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netspread.completion import (
    CompletionError,
    PairSet,
    build_training_set,
    complete_alter,
    generate_non_receivers,
    homophile_split,
    read_alters_csv,
)
from netspread.population import VertexTable, round_half_up

from conftest import TINY_SCHEMA, random_record
from oracles import encode, training_pairs_dicts

CRITERIA = ("age_band", "gender")


def table(records) -> VertexTable:
    return VertexTable.from_records(TINY_SCHEMA, records)


def person(gender=0, age=2, edu=1, prof=0, friends=3, family=2):
    return {
        "gender": gender,
        "age_band": age,
        "education": edu,
        "profession": prof,
        "contact_friends": friends,
        "contact_family": family,
    }


class TestHomophileSets:
    def test_exact_matches_found(self):
        pool = table([
            person(gender=1, age=3),  # the person, row 0
            person(gender=1, age=3, edu=2),
            person(gender=1, age=3, edu=4),
            person(gender=0, age=3),
            person(gender=1, age=2),
        ])
        matches = homophile_split(0, pool, CRITERIA)[0]
        assert matches.tolist() == [1, 2]

    def test_person_without_homophiles(self):
        pool = table([person(gender=0, age=1), person(gender=1, age=5), person(gender=0, age=2)])
        similar, others = homophile_split(1, pool, CRITERIA)
        assert similar.tolist() == []
        assert others.tolist() == [0, 2]

    def test_person_excluded_by_identity(self):
        # a twin with identical fields is a homophile; the person itself is not
        pool = table([person(gender=1, age=3), person(gender=1, age=3)])
        similar, others = homophile_split(0, pool, CRITERIA)
        assert similar.tolist() == [1] and others.tolist() == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    def test_partition_property(self, seed, pool_size):
        gen = np.random.default_rng(seed)
        pool = table([random_record(TINY_SCHEMA, gen) for _ in range(pool_size)])
        me = int(gen.integers(pool_size))
        similar, others = homophile_split(me, pool, CRITERIA)
        assert len(similar) + len(others) == pool_size - 1
        assert me not in similar and me not in others
        assert sorted(similar.tolist() + others.tolist() + [me]) == list(range(pool_size))


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4) == 2
        assert round_half_up(7.0) == 7


class TestGenerateNonReceivers:
    def _pool(self, me, n_similar=20, n_other=20) -> VertexTable:
        """The person as row 0, then its homophiles, then the others."""
        pool = [me]
        pool += [person(gender=me["gender"], age=me["age_band"], edu=i % 4 + 1) for i in range(n_similar)]
        pool += [person(gender=1 - me["gender"], age=me["age_band"] + 1, edu=i % 4 + 1) for i in range(n_other)]
        return table(pool)

    def test_seventy_thirty_split(self, rng):
        pool = self._pool(person(gender=0, age=2))
        out = generate_non_receivers(0, pool, CRITERIA, h=0.7, count=10, rng=rng)
        assert len(out) == 10
        drawn = pool.take(out)
        similar = (drawn.columns["gender"] == 0) & (drawn.columns["age_band"] == 2)
        assert similar.sum() == 7

    def test_zero_count(self, rng):
        out = generate_non_receivers(0, self._pool(person()), CRITERIA, 0.7, 0, rng)
        assert out.tolist() == []

    def test_all_homophile(self, rng):
        pool = self._pool(person(gender=0, age=2), n_similar=5, n_other=5)
        out = generate_non_receivers(0, pool, CRITERIA, h=1.0, count=3, rng=rng)
        assert len(out) == 3
        assert len(set(out.tolist())) == 3  # distinct draws
        drawn = pool.take(out)
        assert np.all(drawn.columns["gender"] == 0) and np.all(drawn.columns["age_band"] == 2)

    def test_empty_pool_raises(self, rng):
        message = r"^both homophile and non-homophile sets are empty$"
        with pytest.raises(CompletionError, match=message):
            generate_non_receivers(0, table([person()]), CRITERIA, 0.7, 4, rng)

    def test_one_side_empty_falls_back(self, rng):
        pool = table([person(gender=0, age=2)] + [person(gender=1, age=4) for _ in range(8)])
        out = generate_non_receivers(0, pool, CRITERIA, h=0.7, count=6, rng=rng)
        assert len(out) == 6

    def test_small_pool_replacement(self, rng):
        pool = self._pool(person(gender=0, age=2), n_similar=2, n_other=2)
        out = generate_non_receivers(0, pool, CRITERIA, h=0.7, count=10, rng=rng)
        assert len(out) == 10
        assert 0 not in out

    def test_exact_output_size_across_seeds(self):
        pool = self._pool(person(gender=0, age=2))
        for seed in range(10):
            out = generate_non_receivers(
                0, pool, CRITERIA, 0.7, 9, np.random.default_rng(seed)
            )
            assert len(out) == 9

    def test_determinism(self):
        pool = self._pool(person(gender=0, age=2))
        a = generate_non_receivers(0, pool, CRITERIA, 0.7, 8, np.random.default_rng(3))
        b = generate_non_receivers(0, pool, CRITERIA, 0.7, 8, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestCompleteAlter:
    MATCH = ("gender", "age_band", "education")

    def test_single_candidate_adopted(self, rng):
        partial = {"gender": 1, "age_band": 3, "education": 2, "profession": 1}
        pool = table([
            person(gender=1, age=3, edu=2, friends=6, family=5),
            person(gender=0, age=3, edu=2),
        ])
        full = complete_alter(partial, pool, rng)
        assert full["contact_friends"] == 6 and full["contact_family"] == 5

    def test_observed_fields_never_overwritten(self, rng):
        gen = np.random.default_rng(99)
        records = [random_record(TINY_SCHEMA, gen) for _ in range(40)]
        pool = table(records)
        for _ in range(25):
            donor = records[int(gen.integers(len(records)))]
            partial = {
                "gender": donor["gender"],
                "age_band": donor["age_band"],
                "education": donor["education"],
                "profession": int(gen.integers(3)),
            }
            full = complete_alter(partial, pool, rng)
            for fid, value in partial.items():
                assert full[fid] == value
            assert set(full) == set(TINY_SCHEMA.field_ids)

    def test_deterministic_choice(self):
        partial = {"gender": 0, "age_band": 2, "education": 1, "profession": 0}
        pool = table([person(friends=1), person(friends=5)])
        a = complete_alter(partial, pool, np.random.default_rng(4))
        b = complete_alter(partial, pool, np.random.default_rng(4))
        assert a == b

    def test_idempotent_on_fully_observed(self, rng):
        full = person(gender=1, age=4, edu=3)
        out = complete_alter(full, table([person()]), rng)
        assert out == full

    def test_fallback_relaxes_education_then_age(self, rng):
        partial = {"gender": 0, "age_band": 2, "education": 4, "profession": 0}
        pool = table([person(gender=0, age=5, edu=1, friends=2)])  # gender-only match
        full = complete_alter(partial, pool, rng)
        assert full["education"] == 4  # observed kept despite relaxed match
        assert full["contact_friends"] == 2

    def test_no_match_raises(self, rng):
        partial = {"gender": 0, "age_band": 2, "education": 1, "profession": 0}
        pool = table([person(gender=1, age=2, edu=1)])
        message = r"^no pool member matches even \('gender',\) for the partial record$"
        with pytest.raises(CompletionError, match=message):
            complete_alter(partial, pool, rng)


class TestBuildTrainingSet:
    CONTACTS = ("contact_friends", "contact_family")

    def test_counts(self, rng):
        ego = person(prof=2, friends=3, family=2)  # 5 generated non-receivers
        others = [person(gender=g, age=a) for g in (0, 1) for a in (1, 2, 3, 4)]
        listed = [[{"gender": 1, "age_band": 2, "education": 1, "profession": 0}] * 2]
        pool = [person(gender=1, age=2, edu=1)]
        pairs = build_training_set(
            table([ego] + others),
            [listed[0]] + [[] for _ in others],
            table(pool),
            criteria=CRITERIA,
            contact_fields=self.CONTACTS,
            h=0.7,
            rng=rng,
        )
        ego_labels = [pairs.labels[i] for i in range(len(pairs)) if pairs.senders.row(i) == ego]
        assert ego_labels.count(1) == 2
        assert ego_labels.count(-1) == 5

    def test_positive_fraction_matches_counts(self, rng):
        gen = np.random.default_rng(5)
        egos = [random_record(TINY_SCHEMA, gen) for _ in range(6)]
        pool = [random_record(TINY_SCHEMA, gen) for _ in range(30)]
        listed = [
            [{k: r[k] for k in ("gender", "age_band", "education", "profession")}]
            for r in pool[:6]
        ]
        pairs = build_training_set(
            table(egos), listed, table(pool), CRITERIA, self.CONTACTS, 0.7, rng,
        )
        n_pos = int(np.sum(pairs.labels == 1))
        n_gen = sum(round_half_up(e["contact_friends"] + e["contact_family"]) for e in egos)
        assert n_pos == 6
        assert len(pairs) == 6 + n_gen

    def test_determinism(self):
        gen = np.random.default_rng(5)
        egos = table([random_record(TINY_SCHEMA, gen) for _ in range(5)])
        pool = table([random_record(TINY_SCHEMA, gen) for _ in range(20)])
        listed = [[] for _ in range(egos.n)]
        a = build_training_set(
            egos, listed, pool, CRITERIA, self.CONTACTS, 0.7, np.random.default_rng(1)
        )
        b = build_training_set(
            egos, listed, pool, CRITERIA, self.CONTACTS, 0.7, np.random.default_rng(1)
        )
        assert a.matrix().tobytes() == b.matrix().tobytes()
        assert np.array_equal(a.labels, b.labels)


class TestPairSet:
    def random_pairs(self, seed: int, labels) -> PairSet:
        gen = np.random.default_rng(seed)
        senders = table([random_record(TINY_SCHEMA, gen) for _ in labels])
        receivers = table([random_record(TINY_SCHEMA, gen) for _ in labels])
        return PairSet(senders, receivers, labels)

    def test_matrix_rows_are_concatenated_encodings(self):
        pairs = self.random_pairs(8, [1, -1] * 3)
        X = pairs.matrix()
        assert len(pairs) == 6
        assert X.shape == (6, 2 * TINY_SCHEMA.encoded_dim)
        for i in range(6):
            expected = np.concatenate([
                encode(pairs.senders.row(i), TINY_SCHEMA),
                encode(pairs.receivers.row(i), TINY_SCHEMA),
            ])
            assert np.array_equal(X[i], expected)
        assert pairs.labels.tolist() == [1, -1, 1, -1, 1, -1]

    def test_take_selects_pairs_in_order(self):
        pairs = self.random_pairs(7, [1, -1, -1, 1])
        picked = pairs.take(np.array([3, 0, 2]))
        assert picked.matrix().tobytes() == pairs.matrix()[[3, 0, 2]].tobytes()
        assert picked.labels.tolist() == [1, 1, -1]

    def test_labels_must_be_plus_or_minus_one(self):
        with pytest.raises(CompletionError, match="label must be"):
            self.random_pairs(1, [1, 0, -1])

    def test_lengths_must_agree(self):
        pairs = self.random_pairs(2, [1, -1])
        with pytest.raises(CompletionError, match="length"):
            PairSet(pairs.senders, pairs.receivers, [1])

    def test_csv_round_trip(self, tmp_path):
        pairs = self.random_pairs(9, [-1, -1, 1, -1])
        path = tmp_path / "pairs.csv"
        pairs.to_csv(path)
        again = PairSet.from_csv(path, TINY_SCHEMA)
        for table, before in ((again.senders, pairs.senders), (again.receivers, pairs.receivers)):
            assert [table.row(i) for i in range(4)] == [before.row(i) for i in range(4)]
        assert again.labels.tolist() == [-1, -1, 1, -1]

    def test_csv_format(self, tmp_path):
        pairs = self.random_pairs(3, [1])
        path = tmp_path / "pairs.csv"
        pairs.to_csv(path)
        header, row = path.read_text().splitlines()
        fields = TINY_SCHEMA.field_ids
        assert header.split(",") == (
            [f"sender_{f}" for f in fields] + [f"receiver_{f}" for f in fields] + ["label"]
        )
        expected = [pairs.senders.row(0)[f] for f in fields]
        expected += [pairs.receivers.row(0)[f] for f in fields] + [1]
        assert row == ",".join(map(str, expected))

    def test_csv_row_of_wrong_length_rejected(self, tmp_path):
        pairs = self.random_pairs(4, [1, -1, 1])
        path = tmp_path / "pairs.csv"
        pairs.to_csv(path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 2)[0]  # drop two cells of the second pair
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CompletionError, match=r"pairs\.csv, line 3: 11 cells, expected 13"):
            PairSet.from_csv(path, TINY_SCHEMA)

    def test_csv_non_integer_cell_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        self.random_pairs(5, [1, -1]).to_csv(path)
        path.write_text(path.read_text().replace(",-1", ",x"))
        with pytest.raises(
            CompletionError, match=r"pairs\.csv, line 3, column 13 \(label\): invalid literal"
        ):
            PairSet.from_csv(path, TINY_SCHEMA)


class TestReadAlters:
    HEADER = "ego,gender,age_band,education,profession\n"

    def read(self, tmp_path, text, n_egos=3):
        path = tmp_path / "alters.csv"
        path.write_text(text)
        return read_alters_csv(path, TINY_SCHEMA, n_egos)

    def test_partial_records_grouped_by_ego(self, tmp_path):
        listed = self.read(tmp_path, self.HEADER + "2,1,3,2,\n0,0,1,4,2\n\n2,0,2,1,1\n")
        assert listed == [
            [{"gender": 0, "age_band": 1, "education": 4, "profession": 2}],
            [],
            [{"gender": 1, "age_band": 3, "education": 2},
             {"gender": 0, "age_band": 2, "education": 1, "profession": 1}],
        ]

    @pytest.mark.parametrize("ego", ["-1", "3", "400"])
    def test_ego_outside_the_egos_table(self, tmp_path, ego):
        text = self.HEADER + "0,1,3,2,1\n" + ego + ",1,3,2,1\n"
        with pytest.raises(CompletionError, match=r"alters\.csv, line 3, column 1 \(ego\)"):
            self.read(tmp_path, text)

    def test_unknown_column(self, tmp_path):
        text = "ego,gender,age,education\n0,1,3,2\n"
        with pytest.raises(CompletionError, match=r"alters\.csv, line 1, column 3: 'age'"):
            self.read(tmp_path, text)

    def test_repeated_column(self, tmp_path):
        text = "ego,gender,gender\n0,1,\n"
        with pytest.raises(
            CompletionError, match=r"alters\.csv, line 1, column 3: 'gender' named twice"
        ):
            self.read(tmp_path, text)

    def test_invalid_value(self, tmp_path):
        text = self.HEADER + "0,1,3,2,1\n1,7,3,2,1\n"
        with pytest.raises(
            CompletionError, match=r"alters\.csv, line 3, column 2 \(gender\).*binary value 7"
        ):
            self.read(tmp_path, text)


def random_survey(seed: int):
    """A small random survey whose builds reach every completion branch.

    Few pool rows make relaxed matches common; many criteria fields leave
    homophile sides empty; counts above a side's size force draws with
    replacement; about a quarter of the egos report no weekly contacts.
    """
    gen = np.random.default_rng(seed)
    egos = [random_record(TINY_SCHEMA, gen) for _ in range(int(gen.integers(2, 25)))]
    for ego in egos:
        if gen.random() < 0.25:
            ego["contact_friends"] = ego["contact_family"] = 0
    pool = [random_record(TINY_SCHEMA, gen) for _ in range(int(gen.integers(2, 12)))]
    pool[0]["gender"], pool[1]["gender"] = 0, 1  # every gender has a donor
    listed = []
    for _ in egos:
        reported = []
        for _ in range(int(gen.integers(0, 3))):
            record = random_record(TINY_SCHEMA, gen)
            reported.append({f: v for f, v in record.items()
                             if f in TestCompleteAlter.MATCH or gen.random() < 0.4})
        listed.append(reported)
    criteria = [("gender",), CRITERIA, ("gender", "age_band", "education", "profession")][seed % 3]
    h = (0.0, 0.3, 0.5, 0.7, 1.0)[seed % 5]
    return egos, listed, pool, criteria, h


def test_build_matches_dict_reference(caplog):
    """Table-based builds equal the record-dict algorithm byte for byte."""
    contacts = ("contact_friends", "contact_family")
    match = TestCompleteAlter.MATCH
    caplog.set_level("INFO", logger="netspread.completion")
    zero_contacts = partial_alters = 0
    for seed in range(30):
        egos, listed, pool, criteria, h = random_survey(seed)
        zero_contacts += sum(e["contact_friends"] + e["contact_family"] == 0 for e in egos)
        partial_alters += sum(len(p) < len(TINY_SCHEMA.field_ids) for r in listed for p in r)
        rng_ref = np.random.default_rng(seed)
        X, y = training_pairs_dicts(
            egos, listed, pool, criteria, contacts, h, rng_ref, match, TINY_SCHEMA
        )
        rng = np.random.default_rng(seed)
        pairs = build_training_set(
            table(egos), listed, table(pool), criteria, contacts, h, rng
        )
        assert pairs.matrix().tobytes() == X.tobytes(), seed
        assert np.array_equal(pairs.labels, y), seed
        assert rng.bit_generator.state == rng_ref.bit_generator.state, seed
    # the seeds reach every branch of the build
    logged = caplog.text
    assert "completion relaxed match" in logged
    assert "homophile set empty" in logged
    assert "with replacement" in logged
    assert zero_contacts > 0 and partial_alters > 0
