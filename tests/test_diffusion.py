import functools
import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from netspread.classifier import ConstantModel, KernelSpec, SvmParams, fit_pair_classifier
from netspread.diffusion import (
    DiffusionConfig,
    DiffusionError,
    compute_metrics,
    diffusion_step,
    read_log_csv,
    read_run,
    run_diffusion,
    seed_information,
    validate_log,
    write_log_csv,
    write_summary_json,
)
from netspread.experiments import load_stats
from netspread.graph import Graph, gen_erdos_renyi, gen_small_world
from netspread.population import VertexTable, sample_population

from conftest import TINY_SCHEMA, make_graph, random_graph, random_record, traced_peak
from oracles import bfs_layers, reference_diffusion_step, reference_step_pairs

# hand-encoded transmission-tree fixtures: the first has one original
# sender (0), two senders in total and three transmissions; the second a
# single sender with three transmissions
TREE_LOG = [(1, 0, 1), (2, 1, 2), (2, 1, 3)]
STAR_LOG = [(1, 0, 1), (1, 0, 2), (1, 0, 3)]


def table_for(graph: Graph, seed: int = 0) -> VertexTable:
    gen = np.random.default_rng(seed)
    return VertexTable.from_records(
        TINY_SCHEMA, [random_record(TINY_SCHEMA, gen) for _ in range(graph.n)]
    )


class RuleModel:
    """Transmits only toward receivers whose gender field is 1."""

    def predict_pairs(self, table, senders, receivers):
        gender = table.columns["gender"][np.asarray(receivers)]
        return np.where(gender == 1, 1, -1)


class PositivePairs:
    """Transmits along the listed (sender, receiver) pairs only."""

    def __init__(self, pairs):
        self.pairs = set(pairs)

    def predict_pairs(self, table, senders, receivers):
        return np.array([1 if (s, r) in self.pairs else -1
                         for s, r in zip(senders.tolist(), receivers.tolist())])


class HashModel:
    """Random but deterministic labels: a hash of the pair's field values."""

    def __init__(self, salt: int, share: float):
        self.salt = salt
        self.share = share

    def predict_pairs(self, table, senders, receivers):
        cols = [table.columns[f] for f in ("gender", "age_band", "education", "profession")]
        return np.array([
            1 if (hash((self.salt, tuple(int(c[s]) for c in cols),
                        tuple(int(c[r]) for c in cols))) % 1000) < 1000 * self.share
            else -1
            for s, r in zip(senders, receivers)
        ], dtype=int)


class PairLog:
    """Wraps a model and records the (senders, receivers) arrays of every
    predict_pairs call."""

    def __init__(self, model):
        self.model = model
        self.calls: list[tuple[np.ndarray, np.ndarray]] = []

    def predict_pairs(self, table, senders, receivers):
        self.calls.append((senders, receivers))
        return self.model.predict_pairs(table, senders, receivers)


def full_scan(graph, table, model, config, rng):
    """run_diffusion's loop with every informed vertex as a sender each step."""
    seeds = seed_information(graph, config.initial_fraction, rng)
    informed = set(seeds)
    wave = {v: 0 for v in seeds}
    coverage = [len(informed) / graph.n]
    log = []
    for iteration in range(1, config.iterations + 1):
        new, entries = diffusion_step(
            graph, table, informed, model, iteration, frontier=informed
        )
        informed |= new
        wave.update((v, iteration) for v in new)
        log.extend(entries)
        coverage.append(len(informed) / graph.n)
    return tuple(log), wave, tuple(coverage)


def trained_svm(seed: int = 5):
    """RBF SVM fitted on random record pairs with a planted receiver/sender rule."""
    gen = np.random.default_rng(seed)
    table = VertexTable.from_records(
        TINY_SCHEMA, [random_record(TINY_SCHEMA, gen) for _ in range(240)]
    )
    enc = table.encoded()
    X = np.hstack([enc[:120], enc[120:]])
    y = np.where(
        (table.columns["age_band"][120:] >= 3) & (table.columns["contact_friends"][:120] >= 2),
        1.0, -1.0,
    )
    return fit_pair_classifier(
        X, y, SvmParams(C=10.0, weight=2.0, kernel=KernelSpec("rbf", 2.0)), schema=TINY_SCHEMA
    )


class TestFrontierEquivalence:
    """run_diffusion scores only new senders; a full scan must give the same run."""

    MODELS = {
        "svm": trained_svm,
        "positive": lambda: ConstantModel(1),
        "negative": lambda: ConstantModel(-1),
        "rule": RuleModel,
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_log_wave_coverage_equal_full_scan(self, name):
        model = self.MODELS[name]()
        gen = np.random.default_rng(31)
        for trial in range(12):
            n = int(gen.integers(5, 51))
            g = random_graph(n, float(gen.uniform(0.03, 0.25)), int(gen.integers(1 << 30)))
            table = table_for(g, trial)
            config = DiffusionConfig(float(gen.choice([0.05, 0.1, 0.3])), int(gen.integers(1, 6)))
            result = run_diffusion(g, table, model, config, np.random.default_rng(trial))
            log, wave, coverage = full_scan(g, table, model, config, np.random.default_rng(trial))
            assert (result.log, result.wave, result.coverage) == (log, wave, coverage)

    def test_svm_fixture_spreads_partially(self):
        # the equivalence above is only informative if the model says both
        # yes and no along edges that a full scan would score again
        g = random_graph(50, 0.12, 4)
        result = run_diffusion(
            g, table_for(g, 4), trained_svm(), DiffusionConfig(0.1, 4), np.random.default_rng(4)
        )
        assert 0 < len(result.log) < g.n - len(result.seeds)

    def test_senders_are_the_previous_step_receivers(self):
        g = random_graph(50, 0.12, 4)
        model = PairLog(trained_svm())
        result = run_diffusion(
            g, table_for(g, 4), model, DiffusionConfig(0.1, 4), np.random.default_rng(4)
        )
        # one call per step that has an edge to score, each from the last wave
        for wave_index, (senders, _) in enumerate(model.calls):
            expected = {v for v, w in result.wave.items() if w == wave_index}
            assert set(senders.tolist()) <= expected
            assert len(senders)

    @pytest.mark.parametrize("graph", [
        pytest.param(lambda rng: gen_erdos_renyi(400, 0.02, rng), id="erdos_renyi"),
        pytest.param(lambda rng: gen_small_world(400, 4, 0.1, rng), id="small_world"),
    ])
    @pytest.mark.parametrize("scan", ["frontier", "full"])
    def test_senders_and_receivers_are_disjoint(self, graph, scan):
        # senders are informed and receivers are not, so one call needs at
        # most n half-kernel rows: SvmModel's bounded path has no traffic
        g = graph(np.random.default_rng(6))
        model = PairLog(trained_svm())
        config = DiffusionConfig(0.05, 6)
        if scan == "frontier":
            run_diffusion(g, table_for(g, 6), model, config, np.random.default_rng(6))
        else:
            full_scan(g, table_for(g, 6), model, config, np.random.default_rng(6))
        assert len(model.calls) > 2
        for senders, receivers in model.calls:
            assert not set(senders.tolist()) & set(receivers.tolist())
            assert len(np.unique(senders)) + len(np.unique(receivers)) <= g.n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    edge_prob=st.floats(0.0, 0.5),
    graph_seed=st.integers(0, 2**31),
    run_seed=st.integers(0, 2**31),
    salt=st.integers(0, 2**31),
    share=st.floats(0.0, 1.0),
    fraction=st.sampled_from([0.05, 0.1, 0.3, 1.0]),
    iterations=st.integers(1, 5),
)
def test_random_deterministic_models_frontier_equals_full_scan(
    n, edge_prob, graph_seed, run_seed, salt, share, fraction, iterations
):
    g = random_graph(n, edge_prob, graph_seed)
    table = table_for(g, graph_seed)
    model = HashModel(salt, share)
    config = DiffusionConfig(fraction, iterations)
    result = run_diffusion(g, table, model, config, np.random.default_rng(run_seed))
    validate_log(result.log, result.seeds, result.wave)
    log, wave, coverage = full_scan(g, table, model, config, np.random.default_rng(run_seed))
    assert (result.log, result.wave, result.coverage) == (log, wave, coverage)


def handed_pairs(g, informed, frontier):
    """The (senders, receivers) diffusion_step hands the model, or None when
    it makes no call."""
    model = PairLog(ConstantModel(-1))
    diffusion_step(g, None, informed, model, 1, frontier)
    assert len(model.calls) <= 1
    return model.calls[0] if model.calls else None


def assert_forward_scan_pairs(g, informed, frontier) -> None:
    """diffusion_step hands the model the forward-only scan's arrays, bytes
    and dtypes, whichever side it reads."""
    want = reference_step_pairs(g, informed, frontier)
    got = handed_pairs(g, informed, frontier)
    if got is None:
        assert len(want[0]) == 0
        return
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@functools.cache
def stub_large(seed: int = 7):
    """er_stub_large's graph and table: ER n = 15,000 with mean degree 20
    and the builtin population, both drawn from `seed`."""
    g = gen_erdos_renyi(15000, 20 / 14999, np.random.default_rng(seed))
    return g, sample_population(load_stats("builtin"), g.n, np.random.default_rng(seed))


def stub_large_run(model, seed: int = 7):
    """stub_large's seeded run of 1% seeds and 3 iterations: er_stub_large's."""
    g, table = stub_large(seed)
    return run_diffusion(g, table, model, DiffusionConfig(0.01, 3), np.random.default_rng(seed))


def late_step(seed: int = 5):
    """ER n = 15,000 with mean degree 20, 300 vertices uninformed and a
    frontier of 12,700 of the informed ones: a late step of er_stub_large."""
    g = gen_erdos_renyi(15000, 20 / 14999, np.random.default_rng(seed))
    order = np.random.default_rng(seed + 1).permutation(g.n)
    return g, set(order[300:].tolist()), set(order[300:13000].tolist())


class TestSmallerSideScan:
    """diffusion_step reads the edges of the frontier or of the uninformed
    vertices, whichever are fewer; the model must see the same arrays as
    the forward-only scan's (tests/oracles.py)."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        edge_prob=st.floats(0.0, 0.6),
        graph_seed=st.integers(0, 2**31),
        set_seed=st.integers(0, 2**31),
        informed_share=st.floats(0.0, 1.0),
        frontier_share=st.floats(0.0, 1.0),
    )
    def test_random_sets_match_forward_scan(
        self, n, edge_prob, graph_seed, set_seed, informed_share, frontier_share
    ):
        g = random_graph(n, edge_prob, graph_seed)
        gen = np.random.default_rng(set_seed)
        informed = {v for v in range(n) if gen.random() < informed_share}
        frontier = {v for v in sorted(informed) if gen.random() < frontier_share}
        assert_forward_scan_pairs(g, informed, frontier)

    def test_empty_frontier(self):
        g = random_graph(30, 0.2, 1)
        assert handed_pairs(g, {1, 4, 9}, set()) is None
        assert_forward_scan_pairs(g, {1, 4, 9}, set())

    def test_frontier_is_informed(self):
        for seed in range(8):
            g = random_graph(30, 0.2, seed)
            informed = set(range(0, 30, 1 + seed % 4))
            assert_forward_scan_pairs(g, informed, informed)

    def test_all_informed(self):
        g = random_graph(30, 0.2, 2)
        assert handed_pairs(g, set(range(30)), {0, 3, 7}) is None
        assert_forward_scan_pairs(g, set(range(30)), {0, 3, 7})

    def test_equal_degree_sums(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])  # frontier {0, 1} and {2, 3} both sum to 3
        degrees = g.degrees()
        assert degrees[[0, 1]].sum() == degrees[[2, 3]].sum()
        senders, receivers = handed_pairs(g, {0, 1}, {0, 1})
        assert senders.tolist() == [1] and receivers.tolist() == [2]
        assert_forward_scan_pairs(g, {0, 1}, {0, 1})

    def test_reads_the_side_with_fewer_edges(self, monkeypatch):
        g, informed, frontier = late_step()
        rows_read = []
        out_edges = Graph.out_edges

        def recording(graph, vertices):
            rows_read.append(np.asarray(vertices).tolist())
            return out_edges(graph, vertices)

        monkeypatch.setattr(Graph, "out_edges", recording)
        handed_pairs(g, informed, frontier)
        handed_pairs(g, {0, 1, 2}, {0, 1, 2})
        assert rows_read == [sorted(set(range(g.n)) - informed), [0, 1, 2]]

    def test_seeded_late_step(self):
        g, informed, frontier = late_step()
        senders, _ = handed_pairs(g, informed, frontier)
        assert 0 < len(senders) < 10000
        assert_forward_scan_pairs(g, informed, frontier)

    def test_seeded_run_every_step(self):
        g, _ = stub_large()
        model = PairLog(ConstantModel(1))
        result = stub_large_run(model)
        # steps 1-2 read the frontier's rows and step 3 the uninformed vertices', so both scans run
        assert len(model.calls) == 3
        for step, got in enumerate(model.calls, start=1):
            informed = {v for v, w in result.wave.items() if w < step}
            frontier = {v for v, w in result.wave.items() if w == step - 1}
            want = reference_step_pairs(g, informed, frontier)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDiffusionMemory:
    """At er_stub_large's size sample_population holds the table's int
    columns (20 fields, 0.74 n*d*8 bytes) and two block-sized arrays, and a
    late step reads the few uninformed vertices' edges.  The one-expression
    draw peaked at 3.02 n*d*8 bytes, the whole-matrix in-place draw at 2.0,
    and the forward-only scan of the late step at 4.37 MiB."""

    def test_sample_population_peak(self):
        stats = load_stats("builtin")
        sample_population(stats, 10, np.random.default_rng(0))  # first-call work is not the draw's
        n, d = 15000, stats.schema.encoded_dim
        table, peak = traced_peak(lambda: sample_population(stats, n, np.random.default_rng(1)))
        assert len(table) == n
        assert peak <= 1.25 * n * d * 8, peak / (n * d * 8)

    def test_seeded_step_2_peak(self):
        # er_stub_large's largest step: 11,751 receivers from 44,210 pairs.
        # Finding each receiver's sender with a stable sort, and holding the
        # step's arrays while its Python results were built, peaked at 3.01 MiB.
        g, table = stub_large()
        model = ConstantModel(1)
        result = stub_large_run(model)
        informed = {v for v, w in result.wave.items() if w < 2}
        frontier = {v for v, w in result.wave.items() if w == 1}
        (new, _), peak = traced_peak(
            lambda: diffusion_step(g, table, informed, model, 2, frontier)
        )
        assert len(new) == 11751
        assert peak <= 2.35 * 2**20, peak / 2**20

    def test_seeded_run_peak(self):
        # the run keeps 2.34 MiB of log and wave; with the step 2 above and
        # a second set of the informed vertices it peaked at 3.76 MiB
        model = ConstantModel(1)
        stub_large_run(model)  # first-call work is not the run's
        result, peak = traced_peak(lambda: stub_large_run(model))
        assert len(result.log) == 14850
        assert peak <= 3.45 * 2**20, peak / 2**20

    def test_late_step_peak(self):
        g, informed, frontier = late_step()
        model = ConstantModel(1)
        (new, _), peak = traced_peak(
            lambda: diffusion_step(g, None, informed, model, 3, frontier)
        )
        assert len(new) > 250
        assert peak <= 2**20, peak / 2**20


class TestConfig:
    def test_validation(self):
        with pytest.raises(DiffusionError):
            DiffusionConfig(0.0, 3)
        with pytest.raises(DiffusionError):
            DiffusionConfig(1.5, 3)
        with pytest.raises(DiffusionError):
            DiffusionConfig(0.1, 0)


class TestSeeding:
    def test_counts(self):
        g = Graph(10000)
        rng = np.random.default_rng(0)
        assert len(seed_information(g, 0.1, rng)) == 1000

    def test_full_seeding(self):
        g = Graph(25)
        assert seed_information(g, 1.0, np.random.default_rng(0)) == list(range(25))

    def test_minimum_one_seed(self):
        g = Graph(10)
        assert len(seed_information(g, 0.05, np.random.default_rng(0))) == 1

    def test_round_half_up(self):
        g = Graph(10)
        # 0.25 * 10 = 2.5 rounds up to 3
        assert len(seed_information(g, 0.25, np.random.default_rng(0))) == 3

    def test_deterministic_and_distinct(self):
        g = Graph(100)
        a = seed_information(g, 0.3, np.random.default_rng(9))
        b = seed_information(g, 0.3, np.random.default_rng(9))
        assert a == b
        assert len(set(a)) == 30


class TestDiffusionStep:
    def test_always_negative_no_spread(self, path3):
        table = table_for(path3)
        new, entries = diffusion_step(path3, table, {0}, ConstantModel(-1), 1, frontier={0})
        assert new == set() and entries == []

    def test_always_positive_is_one_bfs_layer(self):
        for seed in range(6):
            g = random_graph(30, 0.1, seed)
            table = table_for(g, seed)
            informed = {0, 5, 11}
            new, entries = diffusion_step(
                g, table, informed, ConstantModel(1), 1, frontier=informed
            )
            expected = {v for u in informed for v in g.neighbors(u)} - informed
            assert new == expected
            assert {r for _, _, r in entries} == expected

    def test_both_endpoints_informed_edge_skipped(self, triangle):
        table = table_for(triangle)
        new, entries = diffusion_step(
            triangle, table, {0, 1, 2}, ConstantModel(1), 1, frontier={0, 1, 2}
        )
        assert new == set() and entries == []

    def test_attribution_smallest_positive_sender(self):
        g = make_graph(4, [(0, 3), (2, 3), (1, 3)])
        table = table_for(g)
        _, entries = diffusion_step(g, table, {0, 1, 2}, ConstantModel(1), 1, frontier={0, 1, 2})
        assert entries == [(1, 0, 3)]
        # receiver 5 hears from senders 1, 2 and 3, and the pair (1, 5) is negative
        g = make_graph(6, [(1, 5), (2, 5), (3, 5), (3, 4), (0, 2)])
        model = PositivePairs({(2, 5), (3, 5), (3, 4)})
        new, entries = diffusion_step(g, None, {0, 1, 2, 3}, model, 4, {0, 1, 2, 3})
        assert new == {4, 5} and entries == [(4, 3, 4), (4, 2, 5)]

    def test_prediction_direction_is_sender_to_receiver(self):
        g = make_graph(2, [(0, 1)])
        records = [
            {"gender": 0, "age_band": 1, "education": 1, "profession": 0,
             "contact_friends": 0, "contact_family": 0},
            {"gender": 1, "age_band": 1, "education": 1, "profession": 0,
             "contact_friends": 0, "contact_family": 0},
        ]
        table = VertexTable.from_records(TINY_SCHEMA, records)
        model = RuleModel()
        # informed 0 -> receiver 1 has gender 1: transmitted
        new, _ = diffusion_step(g, table, {0}, model, 1, frontier={0})
        assert new == {1}
        # informed 1 -> receiver 0 has gender 0: not transmitted
        new, _ = diffusion_step(g, table, {1}, model, 1, frontier={1})
        assert new == set()


class TestAttribution:
    """diffusion_step credits each new receiver to its smallest positive
    sender, as the plain loop of tests/oracles.py does, whether `informed`
    is a set or a dict's keys view (run_diffusion passes its wave's)."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        edge_prob=st.floats(0.0, 0.7),
        graph_seed=st.integers(0, 2**31),
        set_seed=st.integers(0, 2**31),
        salt=st.integers(0, 2**31),
        share=st.floats(0.0, 1.0),
        informed_share=st.floats(0.0, 1.0),
        frontier_share=st.floats(0.0, 1.0),
    )
    def test_random_steps_match_oracle(
        self, n, edge_prob, graph_seed, set_seed, salt, share, informed_share, frontier_share
    ):
        g = random_graph(n, edge_prob, graph_seed)
        gen = np.random.default_rng(set_seed)
        informed = {v for v in range(n) if gen.random() < informed_share}
        frontier = {v for v in sorted(informed) if gen.random() < frontier_share}
        assert_step_matches_oracle(g, table_for(g, graph_seed), informed,
                                   HashModel(salt, share), frontier)

    def test_receivers_with_several_positive_senders(self):
        several = smaller_negative = 0
        for seed in range(6):
            g = random_graph(40, 0.3, seed)
            table = table_for(g, seed)
            informed = set(range(0, 40, 3))
            model = HashModel(seed, 0.5)
            senders, receivers = reference_step_pairs(g, informed, informed)
            labels = model.predict_pairs(table, senders, receivers)
            for r in set(receivers.tolist()):
                heard, positive = senders[receivers == r], senders[(receivers == r) & (labels > 0)]
                several += len(positive) > 1
                smaller_negative += len(positive) > 0 and heard.min() < positive.min()
            assert_step_matches_oracle(g, table, informed, model, informed)
        assert several > 20 and smaller_negative > 20

    def test_step_with_no_positive_pair(self):
        g = random_graph(30, 0.3, 3)
        table = table_for(g, 3)
        informed = set(range(0, 30, 4))
        assert handed_pairs(g, informed, informed) is not None
        for model in (ConstantModel(-1), HashModel(3, 0.0)):
            assert diffusion_step(g, table, informed, model, 1, informed) == (set(), [])
            assert_step_matches_oracle(g, table, informed, model, informed)

    def test_seeded_steps_take_a_keys_view(self):
        g, table = stub_large()
        model = HashModel(7, 0.3)
        result = stub_large_run(model)
        for step in (1, 2, 3):
            informed = {v for v, w in result.wave.items() if w < step}
            frontier = {v for v, w in result.wave.items() if w == step - 1}
            want = diffusion_step(g, table, informed, model, step, frontier)
            keys = dict.fromkeys(sorted(informed)).keys()
            assert diffusion_step(g, table, keys, model, step, frontier) == want
            assert want[1] == [e for e in result.log if e[0] == step]


def assert_step_matches_oracle(g, table, informed, model, frontier) -> None:
    """diffusion_step's new set and log equal the oracle's, given `informed`
    as a set and as a dict's keys view."""
    want = reference_diffusion_step(g, table, informed, model, 2, frontier)
    assert diffusion_step(g, table, informed, model, 2, frontier) == want
    keys = dict.fromkeys(sorted(informed)).keys()
    assert diffusion_step(g, table, keys, model, 2, frontier) == want


class TestComputeMetrics:
    def test_transmission_tree_fixture(self):
        avg_hops, fanout = compute_metrics(TREE_LOG, [0])
        assert avg_hops == 3.0
        assert fanout == 1.5

    def test_single_sender_fixture(self):
        avg_hops, fanout = compute_metrics(STAR_LOG, [0])
        assert avg_hops == 3.0
        assert fanout == 3.0

    def test_empty_log(self):
        assert compute_metrics([], [0, 1]) == (0.0, 0.0)

    def test_silent_seeds_not_original_senders(self):
        # seeds 0 and 7; only 0 transmitted
        avg_hops, fanout = compute_metrics(TREE_LOG, [0, 7])
        assert avg_hops == 3.0


class TestRunDiffusion:
    def test_wave_equals_bfs_layers_with_positive_stub(self):
        config = DiffusionConfig(0.1, 3)
        for seed in range(10):
            g = random_graph(40, 0.08, seed)
            table = table_for(g, seed)
            rng = np.random.default_rng(seed)
            result = run_diffusion(g, table, ConstantModel(1), config, rng)
            layers = bfs_layers(g, result.seeds)
            expected = {v: d for v, d in layers.items() if d <= 3}
            assert result.wave == expected

    def test_always_negative_constant_coverage(self, star5):
        table = table_for(star5)
        result = run_diffusion(
            star5, table, ConstantModel(-1), DiffusionConfig(0.4, 3),
            np.random.default_rng(2),
        )
        assert result.coverage == (0.4, 0.4, 0.4, 0.4)
        assert result.avg_hops == 0.0 and result.fanout == 0.0
        assert result.log == ()

    def test_coverage_bookkeeping_identity(self):
        for seed in range(5):
            g = random_graph(35, 0.1, seed)
            table = table_for(g, seed)
            result = run_diffusion(
                g, table, RuleModel(), DiffusionConfig(0.2, 3), np.random.default_rng(seed)
            )
            for it in range(len(result.coverage)):
                informed = len(result.seeds) + sum(
                    1 for rec in result.log if rec[0] <= it
                )
                assert result.coverage[it] * g.n == pytest.approx(informed)

    def test_monotone_coverage_and_log_integrity(self):
        for seed in range(5):
            g = random_graph(35, 0.1, seed)
            table = table_for(g, seed)
            result = run_diffusion(
                g, table, RuleModel(), DiffusionConfig(0.2, 4), np.random.default_rng(seed)
            )
            assert all(
                a <= b for a, b in zip(result.coverage, result.coverage[1:])
            )
            validate_log(result.log, result.seeds, result.wave)

    def test_determinism(self):
        g = random_graph(40, 0.1, 3)
        table = table_for(g, 3)
        runs = [
            run_diffusion(
                g, table, RuleModel(), DiffusionConfig(0.2, 3), np.random.default_rng(77)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_table_size_mismatch(self, star5):
        table = table_for(Graph(3))
        with pytest.raises(DiffusionError):
            run_diffusion(
                star5, table, ConstantModel(1), DiffusionConfig(0.5, 1),
                np.random.default_rng(0),
            )


class TestSerialization:
    def test_log_csv_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log_csv(TREE_LOG, path)
        assert read_log_csv(path) == TREE_LOG
        assert path.read_text().splitlines()[0] == "iteration,sender,receiver"

    def test_summary_json(self, tmp_path):
        g = random_graph(30, 0.15, 1)
        table = table_for(g, 1)
        result = run_diffusion(
            g, table, ConstantModel(1), DiffusionConfig(0.1, 2), np.random.default_rng(5)
        )
        path = tmp_path / "summary.json"
        write_summary_json(result, g.n, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"a", "m", "nu", "mu_h", "xi", "seeds"}
        assert doc["m"] == 2
        assert doc["nu"] == list(result.coverage)
        assert doc["seeds"] == list(result.seeds)

    @staticmethod
    def written(tmp_path, model=ConstantModel(1)):
        g = random_graph(40, 0.1, 2)
        result = run_diffusion(
            g, table_for(g, 2), model, DiffusionConfig(0.1, 3), np.random.default_rng(6)
        )
        write_log_csv(result.log, tmp_path / "log.csv")
        write_summary_json(result, g.n, tmp_path / "summary.json")
        return result

    def test_read_run_round_trip(self, tmp_path):
        result = self.written(tmp_path)
        assert result.log and read_run(tmp_path) == result

    @pytest.mark.parametrize("doc,problem", [
        ({"seeds": [0], "nu": [0.1], "mu_h": 0.0}, "KeyError: 'xi'"),
        ([1, 2], "TypeError"),
    ])
    def test_read_run_names_a_malformed_summary(self, tmp_path, doc, problem):
        self.written(tmp_path)
        (tmp_path / "summary.json").write_text(json.dumps(doc))
        with pytest.raises(DiffusionError, match=f"summary.json: not a run summary .*{problem}"):
            read_run(tmp_path)

    def test_read_run_validates_the_log(self, tmp_path):
        result = self.written(tmp_path)
        u, w = sorted(set(range(40)) - set(result.seeds))[:2]
        write_log_csv([(1, u, w)], tmp_path / "log.csv")  # u was never informed
        with pytest.raises(DiffusionError, match=f"^{tmp_path}: sender {u} not informed"):
            read_run(tmp_path)
