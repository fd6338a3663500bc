import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netspread.completion import (
    EmptyPoolError,
    LabeledPair,
    NoMatchError,
    build_training_set,
    complete_alter,
    generate_non_receivers,
    homophile_split,
    pairs_to_arrays,
    read_pairs_csv,
    write_pairs_csv,
)
from netspread.population import encode, round_half_up

from conftest import TINY_SCHEMA, random_record

CRITERIA = ("age_band", "gender")


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
        me = person(gender=1, age=3)
        pool = [
            person(gender=1, age=3, edu=2),
            person(gender=1, age=3, edu=4),
            person(gender=0, age=3),
            person(gender=1, age=2),
        ]
        matches = homophile_split(me, pool, CRITERIA)[0]
        assert matches == pool[:2]

    def test_person_not_in_pool_no_matches(self):
        me = person(gender=1, age=5)
        pool = [person(gender=0, age=1), person(gender=0, age=2)]
        similar, others = homophile_split(me, pool, CRITERIA)
        assert similar == []
        assert others == pool

    def test_person_excluded_by_identity(self):
        me = person(gender=1, age=3)
        twin = person(gender=1, age=3)
        pool = [me, twin]
        similar, others = homophile_split(me, pool, CRITERIA)
        assert similar == [twin] and others == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    def test_partition_property(self, seed, pool_size):
        gen = np.random.default_rng(seed)
        pool = [random_record(TINY_SCHEMA, gen) for _ in range(pool_size)]
        me = pool[int(gen.integers(pool_size))]
        similar, others = homophile_split(me, pool, CRITERIA)
        assert len(similar) + len(others) == len(pool) - 1


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4) == 2
        assert round_half_up(7.0) == 7


class TestGenerateNonReceivers:
    def _pool(self, me, n_similar=20, n_other=20):
        pool = [person(gender=me["gender"], age=me["age_band"], edu=i % 4 + 1) for i in range(n_similar)]
        pool += [person(gender=1 - me["gender"], age=me["age_band"] + 1, edu=i % 4 + 1) for i in range(n_other)]
        return pool

    def test_seventy_thirty_split(self, rng):
        me = person(gender=0, age=2)
        pool = self._pool(me)
        out = generate_non_receivers(me, pool, CRITERIA, h=0.7, count=10, rng=rng)
        assert len(out) == 10
        similar = [r for r in out if r["gender"] == 0 and r["age_band"] == 2]
        assert len(similar) == 7

    def test_zero_count(self, rng):
        me = person()
        assert generate_non_receivers(me, self._pool(me), CRITERIA, 0.7, 0, rng) == []

    def test_all_homophile(self, rng):
        me = person(gender=0, age=2)
        pool = self._pool(me, n_similar=5, n_other=5)
        out = generate_non_receivers(me, pool, CRITERIA, h=1.0, count=3, rng=rng)
        assert len(out) == 3
        assert len({id(r) for r in out}) == 3  # distinct draws
        assert all(r["gender"] == 0 and r["age_band"] == 2 for r in out)

    def test_empty_pool_raises(self, rng):
        with pytest.raises(EmptyPoolError):
            generate_non_receivers(person(), [], CRITERIA, 0.7, 4, rng)

    def test_one_side_empty_falls_back(self, rng):
        me = person(gender=0, age=2)
        pool = [person(gender=1, age=4) for _ in range(8)]  # no homophiles
        out = generate_non_receivers(me, pool, CRITERIA, h=0.7, count=6, rng=rng)
        assert len(out) == 6

    def test_small_pool_replacement(self, rng):
        me = person(gender=0, age=2)
        pool = self._pool(me, n_similar=2, n_other=2)
        out = generate_non_receivers(me, pool, CRITERIA, h=0.7, count=10, rng=rng)
        assert len(out) == 10

    def test_exact_output_size_across_seeds(self):
        me = person(gender=0, age=2)
        pool = self._pool(me)
        for seed in range(10):
            out = generate_non_receivers(
                me, pool, CRITERIA, 0.7, 9, np.random.default_rng(seed)
            )
            assert len(out) == 9

    def test_determinism(self):
        me = person(gender=0, age=2)
        pool = self._pool(me)
        a = generate_non_receivers(me, pool, CRITERIA, 0.7, 8, np.random.default_rng(3))
        b = generate_non_receivers(me, pool, CRITERIA, 0.7, 8, np.random.default_rng(3))
        assert a == b


class TestCompleteAlter:
    MATCH = ("gender", "age_band", "education")

    def test_single_candidate_adopted(self, rng):
        partial = {"gender": 1, "age_band": 3, "education": 2, "profession": 1}
        pool = [
            person(gender=1, age=3, edu=2, friends=6, family=5),
            person(gender=0, age=3, edu=2),
        ]
        full = complete_alter(partial, pool, rng, match_fields=self.MATCH)
        assert full["contact_friends"] == 6 and full["contact_family"] == 5

    def test_observed_fields_never_overwritten(self, rng):
        gen = np.random.default_rng(99)
        pool = [random_record(TINY_SCHEMA, gen) for _ in range(40)]
        for _ in range(25):
            donor = pool[int(gen.integers(len(pool)))]
            partial = {
                "gender": donor["gender"],
                "age_band": donor["age_band"],
                "education": donor["education"],
                "profession": int(gen.integers(3)),
            }
            full = complete_alter(partial, pool, rng, match_fields=self.MATCH)
            for fid, value in partial.items():
                assert full[fid] == value
            assert set(full) == set(TINY_SCHEMA.field_ids)

    def test_deterministic_choice(self):
        partial = {"gender": 0, "age_band": 2, "education": 1, "profession": 0}
        pool = [person(friends=1), person(friends=5)]
        a = complete_alter(partial, pool, np.random.default_rng(4), match_fields=self.MATCH)
        b = complete_alter(partial, pool, np.random.default_rng(4), match_fields=self.MATCH)
        assert a == b

    def test_idempotent_on_fully_observed(self, rng):
        full = person(gender=1, age=4, edu=3)
        out = complete_alter(full, [person()], rng, match_fields=self.MATCH)
        assert out == full

    def test_fallback_relaxes_education_then_age(self, rng):
        partial = {"gender": 0, "age_band": 2, "education": 4, "profession": 0}
        pool = [person(gender=0, age=5, edu=1, friends=2)]  # gender-only match
        full = complete_alter(partial, pool, rng, match_fields=self.MATCH)
        assert full["education"] == 4  # observed kept despite relaxed match
        assert full["contact_friends"] == 2

    def test_no_match_raises(self, rng):
        partial = {"gender": 0, "age_band": 2, "education": 1, "profession": 0}
        pool = [person(gender=1, age=2, edu=1)]
        with pytest.raises(NoMatchError):
            complete_alter(partial, pool, rng, match_fields=self.MATCH)


class TestBuildTrainingSet:
    CONTACTS = ("contact_friends", "contact_family")
    MATCH = ("gender", "age_band", "education")

    def test_counts(self, rng):
        ego = person(prof=2, friends=3, family=2)  # 5 generated non-receivers
        others = [person(gender=g, age=a) for g in (0, 1) for a in (1, 2, 3, 4)]
        listed = [[{"gender": 1, "age_band": 2, "education": 1, "profession": 0}] * 2]
        pool = [person(gender=1, age=2, edu=1)]
        pairs = build_training_set(
            [ego] + others,
            [listed[0]] + [[] for _ in others],
            pool,
            criteria=CRITERIA,
            contact_fields=self.CONTACTS,
            h=0.7,
            rng=rng,
            match_fields=self.MATCH,
        )
        ego_pairs = [p for p in pairs if p.sender == ego]
        assert sum(1 for p in ego_pairs if p.label == 1) == 2
        assert sum(1 for p in ego_pairs if p.label == -1) == 5

    def test_positive_fraction_matches_counts(self, rng):
        gen = np.random.default_rng(5)
        egos = [random_record(TINY_SCHEMA, gen) for _ in range(6)]
        pool = [random_record(TINY_SCHEMA, gen) for _ in range(30)]
        listed = [
            [{k: r[k] for k in ("gender", "age_band", "education", "profession")}]
            for r in pool[:6]
        ]
        pairs = build_training_set(
            egos, listed, pool, CRITERIA, self.CONTACTS, 0.7, rng, match_fields=self.MATCH
        )
        n_pos = sum(1 for p in pairs if p.label == 1)
        n_gen = sum(round_half_up(e["contact_friends"] + e["contact_family"]) for e in egos)
        assert n_pos == 6
        assert len(pairs) == 6 + n_gen

    def test_determinism(self):
        gen = np.random.default_rng(5)
        egos = [random_record(TINY_SCHEMA, gen) for _ in range(5)]
        pool = [random_record(TINY_SCHEMA, gen) for _ in range(20)]
        listed = [[] for _ in egos]
        a = build_training_set(
            egos, listed, pool, CRITERIA, self.CONTACTS, 0.7,
            np.random.default_rng(1), match_fields=self.MATCH,
        )
        b = build_training_set(
            egos, listed, pool, CRITERIA, self.CONTACTS, 0.7,
            np.random.default_rng(1), match_fields=self.MATCH,
        )
        assert a == b


class TestPairSerialization:
    def test_arrays_are_concatenated_encodings(self, rng):
        gen = np.random.default_rng(8)
        pairs = [
            LabeledPair(
                sender=random_record(TINY_SCHEMA, gen),
                receiver=random_record(TINY_SCHEMA, gen),
                label=1 if i % 2 == 0 else -1,
            )
            for i in range(6)
        ]
        X, y = pairs_to_arrays(pairs, TINY_SCHEMA)
        assert X.shape == (6, 2 * TINY_SCHEMA.encoded_dim)
        assert np.array_equal(
            X[0],
            np.concatenate(
                [encode(pairs[0].sender, TINY_SCHEMA), encode(pairs[0].receiver, TINY_SCHEMA)]
            ),
        )
        assert y.tolist() == [1, -1, 1, -1, 1, -1]

    def test_csv_round_trip(self, tmp_path):
        gen = np.random.default_rng(9)
        pairs = [
            LabeledPair(
                sender=random_record(TINY_SCHEMA, gen),
                receiver=random_record(TINY_SCHEMA, gen),
                label=-1,
            )
            for _ in range(4)
        ]
        path = tmp_path / "pairs.csv"
        write_pairs_csv(pairs, TINY_SCHEMA, path)
        again = read_pairs_csv(path, TINY_SCHEMA)
        assert again == pairs
