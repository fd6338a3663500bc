import time

import numpy as np
import pytest

from netspread.analysis import (
    EMPTY_ROW,
    Clustering,
    WaveDistribution,
    cluster_by_modularity,
    cluster_graph,
    extend_cluster,
    inter_cluster_fraction,
    main_component_clustering,
    modularity,
    propagation_graph,
    wave_distribution,
)
from netspread.classifier import ConstantModel
from netspread.diffusion import DiffusionConfig, run_diffusion
from netspread.graph import Graph, GraphError, gen_small_world
from netspread.population import Field, FeatureSchema, VertexTable

from conftest import TINY_SCHEMA, make_graph, random_graph, random_record, random_tree
from oracles import all_partitions, clustering_from_groups, edge_set, modularity_pairwise


class TestModularity:
    def test_single_cluster_is_zero(self, two_k4s):
        clustering = Clustering((0,) * 8)
        assert modularity(two_k4s, clustering) == 0.0

    def test_two_k4s_split_is_half(self, two_k4s):
        clustering = Clustering((0, 0, 0, 0, 1, 1, 1, 1))
        assert modularity(two_k4s, clustering) == pytest.approx(0.5)

    def test_matches_pairwise_oracle(self):
        gen = np.random.default_rng(4)
        for seed in range(6):
            g = random_graph(10, 0.35, seed)
            if g.edge_count == 0:
                continue
            assignment = tuple(int(c) for c in gen.integers(0, 3, size=10))
            dense, ids = [], {}
            for c in assignment:
                dense.append(ids.setdefault(c, len(ids)))
            clustering = Clustering(tuple(dense))
            assert modularity(g, clustering) == pytest.approx(
                modularity_pairwise(g, dense), abs=1e-12
            )

    def test_relabeling_invariance(self, two_k4s):
        a = Clustering((0, 0, 0, 0, 1, 1, 1, 1))
        b = Clustering((1, 1, 1, 1, 0, 0, 0, 0))
        assert modularity(two_k4s, a) == modularity(two_k4s, b)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            modularity(Graph(3), Clustering((0, 1, 2)))


class TestClusterByModularity:
    def test_two_k4s_recovered(self, two_k4s):
        clustering = cluster_by_modularity(two_k4s)
        assert clustering.n_clusters == 2
        assert len(set(clustering.assignment[:4])) == 1
        assert len(set(clustering.assignment[4:])) == 1
        assert modularity(two_k4s, clustering) == pytest.approx(0.5)

    def test_single_edge_merged(self):
        g = make_graph(2, [(0, 1)])
        clustering = cluster_by_modularity(g)
        assert clustering.n_clusters == 1
        assert modularity(g, clustering) == 0.0

    def test_beats_every_partition_on_small_fixtures(self):
        fixtures = [
            make_graph(2, [(0, 1)]),
            make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            random_graph(7, 0.4, 0),
            random_graph(8, 0.3, 1),
            random_graph(8, 0.35, 2),
        ]
        for g in fixtures:
            if g.edge_count == 0:
                continue
            best = max(
                modularity(g, clustering_from_groups(g.n, groups))
                for groups in all_partitions(list(range(g.n)))
            )
            achieved = modularity(g, cluster_by_modularity(g))
            assert achieved == pytest.approx(best, abs=1e-9)

    def test_equal_gain_moves_go_to_the_smallest_cluster_id(self):
        # on a 4-cycle and a 5-vertex path some vertices gain equally from two
        # neighbouring clusters; the smaller cluster id must win the tie
        cycle = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert cluster_by_modularity(cycle).assignment == (0, 0, 1, 1)
        path = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert cluster_by_modularity(path).assignment == (0, 0, 0, 1, 1)

    def test_ring_lattice_beats_trivial_partition(self):
        g = gen_small_world(20, 3, 0.0, np.random.default_rng(0))
        clustering = cluster_by_modularity(g)
        assert modularity(g, clustering) >= 0.0

    def test_local_maximum_under_single_vertex_moves(self):
        graphs = [random_graph(30, 0.12, seed) for seed in range(6)]
        graphs.append(random_tree(200, 0))
        # isolated vertices 0, 5, 11 and 12 around two components
        graphs.append(make_graph(13, [(1, 2), (2, 3), (3, 4), (1, 3), (6, 7), (7, 8),
                                      (8, 9), (9, 10), (10, 6), (6, 8)]))
        for g in graphs:
            if g.edge_count == 0:
                continue
            clustering = cluster_by_modularity(g)
            base = modularity(g, clustering)
            c = clustering.n_clusters
            for v in range(g.n):
                for target in range(c + 1):  # c existing + one fresh cluster
                    if target == clustering.cluster_of(v):
                        continue
                    moved = list(clustering.assignment)
                    moved[v] = target
                    dense, ids = [], {}
                    for x in moved:
                        dense.append(ids.setdefault(x, len(ids)))
                    q = modularity(g, Clustering(tuple(dense)))
                    assert q <= base + 1e-9

    def test_large_tree_clusters_in_linear_time(self):
        # a pass quadratic in the vertex count takes over a minute on this tree
        g = random_tree(40_000, 40)
        start = time.perf_counter()
        clustering = cluster_by_modularity(g)
        assert time.perf_counter() - start < 10.0
        assert modularity(g, clustering) > 0.9

    def test_deterministic(self):
        g = random_graph(40, 0.1, 9)
        assert cluster_by_modularity(g) == cluster_by_modularity(g)

    def test_isolated_vertices_fall_back_to_singletons(self):
        clustering = cluster_by_modularity(Graph(4))
        assert clustering.n_clusters == 4


class TestPropagationGraph:
    LOG = [(1, 0, 1), (1, 2, 3), (2, 1, 4), (2, 3, 5), (3, 4, 6)]

    def test_orientation_dropped(self):
        g = propagation_graph(self.LOG, 8)
        assert {(1, 0), (4, 1)} <= edge_set(g)
        assert g.edge_count == 5

    def test_main_component_keeps_and_renumbers_its_records(self):
        # components {0, 1, 4, 6} and {2, 3, 5}: the larger one is kept
        clustering, component, sub_log = main_component_clustering(self.LOG, 8)
        assert component == [0, 1, 4, 6]
        assert sub_log == [(1, 0, 1), (2, 1, 2), (3, 2, 3)]
        assert clustering == cluster_by_modularity(propagation_graph(sub_log, 4))

    def test_main_component_clustering(self):
        log = [(1, 0, 1), (1, 1, 2), (1, 5, 6)]
        clustering, component, sub_log = main_component_clustering(log, 10)
        assert component == [0, 1, 2]
        assert len(sub_log) == 2
        assert clustering.n_clusters >= 1


class TestInterClusterFraction:
    def test_all_within(self):
        clustering = Clustering((0, 0, 0, 1, 1))
        log = [(1, 0, 1), (2, 1, 2), (1, 3, 4)]
        assert inter_cluster_fraction(log, clustering) == 0.0

    def test_all_across(self):
        clustering = Clustering((0, 1, 0, 1))
        log = [(1, 0, 1), (1, 2, 3)]
        assert inter_cluster_fraction(log, clustering) == 1.0

    def test_mixed_hand_fixture(self):
        clustering = Clustering((0, 0, 0, 0, 1, 1, 1, 1))
        log = [
            (1, 0, 1), (1, 1, 2), (1, 2, 3),  # inside cluster 0
            (1, 4, 5), (1, 5, 6), (1, 6, 7),  # inside cluster 1
            (2, 0, 4),  # across
            (2, 1, 5),  # across
        ]
        assert inter_cluster_fraction(log, clustering) == 0.25

    def test_empty_log(self):
        assert inter_cluster_fraction([], Clustering((0,))) == 0.0

    def test_unclustered_vertex_rejected(self):
        with pytest.raises(ValueError):
            inter_cluster_fraction([(1, 0, 9)], Clustering((0, 0)))


class TestExtendCluster:
    def test_no_outgoing_unchanged(self):
        log = [(1, 5, 6)]
        assert extend_cluster({0, 1}, log) == {0, 1}

    def test_external_receivers_added(self):
        members = {0, 1, 2}
        log = [(1, 0, 7), (2, 1, 8), (1, 5, 9)]
        assert extend_cluster(members, log) == {0, 1, 2, 7, 8}

    def test_monotone(self):
        gen = np.random.default_rng(3)
        log = [(1, int(gen.integers(10)), 10 + i) for i in range(12)]
        members = {0, 1, 2, 3}
        assert extend_cluster(members, log) >= members

    def test_idempotent_when_added_receivers_do_not_send(self):
        members = {0, 1}
        log = [(1, 0, 5), (1, 1, 6), (1, 2, 7)]  # 5 and 6 never send
        extended = extend_cluster(members, log)
        assert extend_cluster(extended, log) == extended


class TestClusterGraph:
    def test_single_cluster(self):
        clustering = Clustering((0, 0, 0))
        cg = cluster_graph(clustering, [(1, 0, 1), (2, 1, 2)])
        assert cg.sizes == {0: 3}
        assert cg.edge_weights == {}

    def test_cross_counts(self):
        clustering = Clustering((0, 0, 1, 1))
        log = [(1, 0, 2), (1, 1, 3), (2, 0, 3), (2, 2, 3)]
        cg = cluster_graph(clustering, log)
        assert cg.edge_weights == {(0, 1): 3}

    def test_sizes_sum_to_vertex_count(self):
        clustering = Clustering((0, 1, 0, 2, 1))
        cg = cluster_graph(clustering, [])
        assert sum(cg.sizes.values()) == 5

    def test_edge_weights_sum_to_cross_records(self):
        gen = np.random.default_rng(8)
        assignment = tuple(int(x) for x in gen.integers(0, 3, size=12))
        dense, ids = [], {}
        for x in assignment:
            dense.append(ids.setdefault(x, len(ids)))
        clustering = Clustering(tuple(dense))
        log = []
        receiver = 0
        for i in range(11):
            sender = int(gen.integers(12))
            receiver = (receiver + 1) % 12
            if sender != receiver:
                log.append((1 + i % 3, sender, receiver))
        crossing = sum(
            1 for _, s, r in log if clustering.cluster_of(s) != clustering.cluster_of(r)
        )
        cg = cluster_graph(clustering, log)
        assert sum(cg.edge_weights.values()) == crossing

    def test_dot_export(self):
        clustering = Clustering((0, 0, 1))
        cg = cluster_graph(clustering, [(1, 0, 2)])
        dot = cg.to_dot()
        assert "c0 [size=2];" in dot
        assert "c0 -> c1 [weight=1];" in dot


class TestTransmissionPipeline:
    """End-to-end: diffusion log -> main component -> clusters -> aggregates."""

    def test_full_chain_on_small_world_run(self):
        g = gen_small_world(600, 8, 0.1, np.random.default_rng(21))
        gen = np.random.default_rng(21)
        table = VertexTable.from_records(
            TINY_SCHEMA, [random_record(TINY_SCHEMA, gen) for _ in range(600)]
        )

        class Receptive:
            # receiver age below the midpoint transmits
            def predict_pairs(self, table, senders, receivers):
                age = table.columns["age_band"][np.asarray(receivers)]
                return np.where(age <= 3, 1, -1)

        result = run_diffusion(
            g, table, Receptive(), DiffusionConfig(0.1, 3), np.random.default_rng(5)
        )
        assert len(result.log) > 50
        clustering, component, sub_log = main_component_clustering(result.log, g.n)
        assert len(sub_log) <= len(result.log)
        q = modularity(propagation_graph(sub_log, len(component)), clustering)
        assert -0.5 <= q <= 1.0
        fraction = inter_cluster_fraction(sub_log, clustering)
        assert 0.0 <= fraction <= 1.0
        cg = cluster_graph(clustering, sub_log)
        assert sum(cg.sizes.values()) == len(component)
        assert sum(cg.edge_weights.values()) == round(fraction * len(sub_log))
        largest = max(cg.sizes, key=cg.sizes.get)
        members = set(clustering.members(largest))
        extended = extend_cluster(members, sub_log)
        assert extended >= members
        dot = cg.to_dot()
        assert dot.startswith("digraph clusters {")


def run_stub_diffusion(n=60, seed=4):
    g = random_graph(n, 0.08, seed)
    gen = np.random.default_rng(seed)
    table = VertexTable.from_records(
        TINY_SCHEMA, [random_record(TINY_SCHEMA, gen) for _ in range(n)]
    )
    result = run_diffusion(
        g, table, ConstantModel(1), DiffusionConfig(0.1, 3), np.random.default_rng(seed)
    )
    return result, table


class TestWaveDistribution:
    def test_row_labels_match_table_layout(self):
        result, table = run_stub_diffusion()
        dist = wave_distribution(result, table, "gender")
        assert dist.row_labels == ("All", "Egos", "Alters 1", "Alters 2", "Alters 3")

    def test_rows_sum_to_one(self):
        result, table = run_stub_diffusion()
        for fid in ("gender", "age_band", "profession"):
            dist = wave_distribution(result, table, fid)
            for i, empty in enumerate(dist.empty_rows):
                if not empty:
                    assert dist.proportions[i].sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_wave_flagged(self):
        g = Graph(10)  # no edges: nothing spreads
        gen = np.random.default_rng(0)
        table = VertexTable.from_records(
            TINY_SCHEMA, [random_record(TINY_SCHEMA, gen) for _ in range(10)]
        )
        result = run_diffusion(
            g, table, ConstantModel(1), DiffusionConfig(0.2, 2), np.random.default_rng(1)
        )
        dist = wave_distribution(result, table, "gender")
        assert dist.empty_rows == (False, False, True, True)

    def test_empty_rows_read_from_proportions(self):
        # only an all-placeholder row is empty; a real proportion of 0 is not
        rows = np.array([[0.0, 1.0], [0.0, 0.0], [EMPTY_ROW, EMPTY_ROW], [EMPTY_ROW, 1.0]])
        dist = WaveDistribution("f", ("a", "b"), ("All", "Egos", "Alters 1", "Alters 2"), rows)
        assert dist.empty_rows == (False, False, True, False)

    def test_uniform_seeding_matches_population_rate(self):
        schema = FeatureSchema((Field("gender", "binary"),))
        n = 4000
        gen = np.random.default_rng(10)
        table = VertexTable.from_records(
            schema, [{"gender": int(gen.integers(2))} for _ in range(n)]
        )
        g = Graph(n)
        result = run_diffusion(
            g, table, ConstantModel(-1), DiffusionConfig(0.5, 1), np.random.default_rng(3)
        )
        dist = wave_distribution(result, table, "gender")
        seeds = len(result.seeds)
        all_row, egos_row = (dist.proportions[dist.row_labels.index(k)] for k in ("All", "Egos"))
        rate = all_row[1]
        sigma = np.sqrt(rate * (1 - rate) / seeds)
        assert abs(egos_row[1] - rate) < 4 * sigma

    def test_unknown_field(self):
        result, table = run_stub_diffusion()
        with pytest.raises(ValueError):
            wave_distribution(result, table, "bogus")

    def test_csv_export(self, tmp_path):
        result, table = run_stub_diffusion()
        dist = wave_distribution(result, table, "profession")
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "wave,a,b,c"
        assert lines[1].startswith("All,")
