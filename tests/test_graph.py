import numpy as np
import pytest

from netspread.graph import (
    DegenerateGraphError,
    DuplicateEdgeError,
    Graph,
    GraphParams,
    NoTriplesError,
    SelfEdgeError,
    VertexRangeError,
    clustering_coefficient,
    connected_components,
    gen_erdos_renyi,
    gen_small_world,
    generate_graph,
    mean_geodesic,
    read_edge_list,
    to_dot,
    write_edge_list,
)

from conftest import make_graph, random_graph
from oracles import mean_geodesic_floyd, transitivity_all_triples


class TestGraphBasics:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.edge_count == 0
        g = Graph(5)
        assert g.n == 5 and g.edge_count == 0
        g = Graph(10000)
        assert g.n == 10000 and g.edge_count == 0

    def test_add_edge(self):
        g = Graph(4)
        g.add_edge(0, 1)
        assert g.edge_count == 1 and g.has_edge(1, 0)

    def test_self_edge_rejected(self):
        g = Graph(4)
        with pytest.raises(SelfEdgeError):
            g.add_edge(3, 3)

    def test_duplicate_edge_rejected_unordered(self):
        g = Graph(4)
        g.add_edge(0, 1)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(1, 0)

    def test_out_of_range(self):
        g = Graph(4)
        with pytest.raises(VertexRangeError):
            g.add_edge(0, 4)
        with pytest.raises(VertexRangeError):
            g.add_edge(-1, 2)

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1)


class TestClusteringCoefficient:
    def test_triangle(self, triangle):
        assert clustering_coefficient(triangle) == 1.0

    def test_path(self, path3):
        assert clustering_coefficient(path3) == 0.0

    def test_no_triples(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(NoTriplesError):
            clustering_coefficient(g)

    def test_matches_exhaustive_oracle_on_random_graphs(self):
        for seed in range(8):
            g = random_graph(12, 0.3, seed)
            try:
                expected = transitivity_all_triples(g)
            except ValueError:
                continue
            assert clustering_coefficient(g) == pytest.approx(expected, abs=1e-12)


class TestMeanGeodesic:
    def test_complete_graph(self):
        g = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert mean_geodesic(g) == 1.0

    def test_path3(self, path3):
        assert mean_geodesic(path3) == pytest.approx(4.0 / 3.0)

    def test_star(self, star5):
        # 4 pairs at distance 1, 6 pairs at distance 2
        assert mean_geodesic(star5) == pytest.approx(8.0 / 5.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateGraphError):
            mean_geodesic(Graph(3))

    def test_disconnected_uses_largest_component(self):
        g = make_graph(6, [(0, 1), (1, 2), (3, 4)])
        assert mean_geodesic(g) == pytest.approx(4.0 / 3.0)

    def test_matches_floyd_warshall_oracle(self):
        for seed in range(8):
            g = random_graph(11, 0.25, seed)
            if g.edge_count == 0:
                continue
            assert mean_geodesic(g) == pytest.approx(mean_geodesic_floyd(g), abs=1e-12)


class TestConnectedComponents:
    def test_isolated(self):
        assert connected_components(Graph(3)) == [[0], [1], [2]]

    def test_path(self, path3):
        assert connected_components(path3) == [[0, 1, 2]]

    def test_two_triangles(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_partition_property(self):
        for seed in range(5):
            g = random_graph(15, 0.1, seed)
            comps = connected_components(g)
            flattened = sorted(v for comp in comps for v in comp)
            assert flattened == list(range(g.n))


class TestErdosRenyi:
    def test_zero_prob(self, rng):
        assert gen_erdos_renyi(50, 0.0, rng).edge_count == 0

    def test_full_prob(self, rng):
        assert gen_erdos_renyi(50, 1.0, rng).edge_count == 1225

    def test_mean_degree_matches_binomial_moments(self):
        n, p, seeds = 2000, 0.003, 30
        degrees = []
        for seed in range(seeds):
            g = gen_erdos_renyi(n, p, np.random.default_rng(seed))
            degrees.append(2 * g.edge_count / n)
        pairs = n * (n - 1) / 2
        expected = (n - 1) * p
        # degree estimate variance from Binomial(pairs, p) edge count
        se_one = 2.0 * np.sqrt(pairs * p * (1 - p)) / n
        se = se_one / np.sqrt(seeds)
        assert abs(np.mean(degrees) - expected) < 4 * se

    def test_determinism(self):
        g1 = gen_erdos_renyi(100, 0.05, np.random.default_rng(7))
        g2 = gen_erdos_renyi(100, 0.05, np.random.default_rng(7))
        assert list(g1.edges()) == list(g2.edges())

    def test_simplicity(self):
        g = gen_erdos_renyi(200, 0.02, np.random.default_rng(3))
        g.check_simple()


class TestSmallWorld:
    def test_lattice_no_rewiring(self, rng):
        g = gen_small_world(20, 3, 0.0, rng)
        assert g.edge_count == 60
        assert all(g.degree(v) == 6 for v in range(20))

    def test_edge_count_preserved_any_rewire_prob(self):
        for p in (0.0, 0.01, 0.1, 0.5, 1.0):
            g = gen_small_world(200, 5, p, np.random.default_rng(11))
            assert g.edge_count == 1000
            g.check_simple()

    def test_lattice_transitivity_matches_all_triples_oracle(self):
        g = gen_small_world(200, 10, 0.0, np.random.default_rng(0))
        assert clustering_coefficient(g) == pytest.approx(
            transitivity_all_triples(g), abs=1e-12
        )

    def test_determinism(self):
        g1 = gen_small_world(100, 4, 0.2, np.random.default_rng(5))
        g2 = gen_small_world(100, 4, 0.2, np.random.default_rng(5))
        assert list(g1.edges()) == list(g2.edges())

    def test_lattice_too_dense_rejected(self, rng):
        with pytest.raises(ValueError):
            gen_small_world(10, 5, 0.1, rng)

    def test_rewiring_changes_lattice(self):
        g = gen_small_world(300, 5, 1.0, np.random.default_rng(9))
        lattice = gen_small_world(300, 5, 0.0, np.random.default_rng(9))
        assert list(g.edges()) != list(lattice.edges())


class TestGraphParams:
    def test_dispatch(self, rng):
        g = generate_graph(GraphParams("erdos_renyi", 30, edge_prob=0.1), rng)
        assert g.n == 30
        g = generate_graph(
            GraphParams("small_world", 30, neighbors=2, rewire_prob=0.1), rng
        )
        assert g.edge_count == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphParams("bogus", 10)
        with pytest.raises(ValueError):
            GraphParams("erdos_renyi", 10, edge_prob=1.5)
        with pytest.raises(ValueError):
            GraphParams("small_world", 10, neighbors=5, rewire_prob=0.1)


class TestSerialization:
    def test_edge_list_round_trip(self, tmp_path, rng):
        g = gen_erdos_renyi(40, 0.1, rng)
        path = tmp_path / "graph.tsv"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.n == g.n
        assert list(g2.edges()) == list(g.edges())

    def test_edge_list_header(self, tmp_path, star5):
        path = tmp_path / "star.tsv"
        write_edge_list(star5, path)
        first = path.read_text().splitlines()[0]
        assert first == "# vertices=5"

    def test_dot_export(self, path3):
        dot = to_dot(path3)
        assert dot.startswith("graph G {")
        assert "0 -- 1;" in dot and "1 -- 2;" in dot

    def test_dot_lists_isolated_vertices(self):
        g = make_graph(3, [(0, 1)])
        assert "  2;" in to_dot(g)
