import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netspread import graph as graph_module
from netspread.graph import (
    Graph,
    GraphError,
    GraphParams,
    clustering_coefficient,
    connected_components,
    gen_erdos_renyi,
    gen_small_world,
    generate_graph,
    mean_geodesic,
    to_dot,
    write_edge_list,
)

from conftest import make_graph, random_graph, traced_peak
from oracles import (
    check_simple,
    edge_set,
    mean_geodesic_floyd,
    reference_csr,
    reference_gen_erdos_renyi,
    reference_gen_small_world,
    transitivity_all_triples,
)


class TestGraphBasics:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.edge_count == 0
        g = Graph(5)
        assert g.n == 5 and g.edge_count == 0
        g = Graph(10000)
        assert g.n == 10000 and g.edge_count == 0

    def test_add_edge(self):
        g = Graph(4, [(0, 1)])
        assert g.edge_count == 1 and (1, 0) in edge_set(g)

    def test_self_edge_rejected(self):
        with pytest.raises(GraphError, match=r"^self edge \(3, 3\) not allowed$"):
            Graph(4, [(0, 1), (3, 3)])

    def test_duplicate_edge_rejected_unordered(self):
        with pytest.raises(GraphError, match=r"^edge \(1, 0\) already present$"):
            Graph(4, [(0, 1), (2, 3), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(GraphError, match=r"^vertex 4 outside \[0, 4\)$"):
            Graph(4, [(0, 4)])
        with pytest.raises(GraphError, match=r"^vertex -1 outside \[0, 4\)$"):
            Graph(4, [(-1, 2)])

    @pytest.mark.parametrize("method", [
        "constructor", "out_edges", "edges_between_sources", "edges_between_targets",
    ])
    def test_out_of_range_names_the_bad_endpoint(self, method):
        g = make_graph(4, [(0, 1)])
        call = {
            "constructor": lambda u, v: Graph(4, [(0, 1), (u, v)]),
            "out_edges": lambda u, v: g.out_edges([1, u, v]),
            "edges_between_sources": lambda u, v: g.edges_between([1, u, v], [0]),
            "edges_between_targets": lambda u, v: g.edges_between([0], [1, u, v]),
        }[method]
        for u, v, bad in ((0, 4, 4), (4, 0, 4), (-1, 2, -1), (2, -1, -1), (5, 7, 5)):
            with pytest.raises(GraphError, match=rf"^vertex {bad} outside \[0, 4\)$"):
                call(u, v)
        assert list(g.edges()) == [(0, 1)]

    def test_rows_are_sorted_and_orientation_free(self):
        g = Graph(5, np.array([(3, 0), (0, 1), (4, 0)]))
        assert g.neighbors(0) == [1, 3, 4] and g.degrees().tolist() == [3, 1, 0, 1, 1]
        assert list(g.edges()) == [(0, 1), (0, 3), (0, 4)]
        sources, targets = g.out_edges([4, 0, 2])
        assert sources.tolist() == [4, 0, 0, 0] and targets.tolist() == [0, 1, 3, 4]
        with pytest.raises(GraphError):
            Graph(5, [(0, 1, 2)])

    def test_degrees(self):
        for seed in range(6):
            g = random_graph(25, 0.15, seed)
            degrees = g.degrees()
            assert degrees.dtype == np.int64
            assert degrees.tolist() == [len(g.neighbors(v)) for v in range(g.n)]
        assert Graph(0).degrees().tolist() == []

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 30),
        edge_prob=st.floats(0.0, 0.7),
        seed=st.integers(0, 2**31),
        source_share=st.floats(0.0, 1.0),
        target_share=st.floats(0.0, 1.0),
    )
    def test_edges_between_is_every_edge_from_sources_to_targets(
        self, n, edge_prob, seed, source_share, target_share
    ):
        g = random_graph(n, edge_prob, seed)
        gen = np.random.default_rng(seed)
        sources = [v for v in range(n) if gen.random() < source_share]
        targets = [v for v in range(n) if gen.random() < target_share]  # may share vertices
        s, t = g.edges_between(sources, targets)
        assert s.dtype == t.dtype == np.int64
        adjacent = edge_set(g)
        want = [(u, v) for u in sources for v in targets if (u, v) in adjacent]
        assert list(zip(s.tolist(), t.tolist())) == want

    @pytest.mark.parametrize("indices,message", [
        ([1, 0, 2, 0], r"^asymmetric adjacency$"),  # 2 -> 0 without 0 -> 2
        ([1, 1, 2, 1], r"^self edge at 1$"),
        ([1, 0, 0, 1], r"^adjacency rows must strictly increase$"),
        ([1, 0, 3, 1], r"^neighbour outside \[0, 3\)$"),
    ])
    def test_check_simple_catches_corrupt_rows(self, path3, indices, message):
        check_simple(path3)
        path3._indices = np.array(indices)
        with pytest.raises(GraphError, match=message):
            check_simple(path3)

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1)

    @pytest.mark.parametrize("build", [
        lambda: Graph(2**31),
        lambda: Graph(2**31, [(0, 1)]),
        lambda: gen_erdos_renyi(2**31, 1e-9, np.random.default_rng(0)),
    ])
    def test_vertex_count_past_int32_ids_rejected_before_allocating(self, monkeypatch, build):
        monkeypatch.setattr(graph_module, "np", _NumpyWithoutArrays())
        with pytest.raises(GraphError, match=r"^vertex count must be below 2\*\*31 .*, got 2147483648$"):
            build()


class TestClusteringCoefficient:
    def test_triangle(self, triangle):
        assert clustering_coefficient(triangle) == 1.0

    def test_path(self, path3):
        assert clustering_coefficient(path3) == 0.0

    def test_no_triples(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError, match=r"^graph has no connected triples$"):
            clustering_coefficient(g)

    def test_matches_exhaustive_oracle_on_random_graphs(self):
        for seed in range(8):
            g = random_graph(12, 0.3, seed)
            try:
                expected = transitivity_all_triples(g)
            except ValueError:
                continue
            assert clustering_coefficient(g) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("budget", [1, 7, graph_module.PATH_BUDGET])
    def test_any_path_budget_matches_exhaustive_oracle(self, monkeypatch, budget):
        # hubs joined to most vertices start more paths per edge than a small
        # budget, and their rows are cut across batches
        monkeypatch.setattr(graph_module, "PATH_BUDGET", budget)
        for seed in range(6):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(12, 30))
            edges = set(edge_set(random_graph(n, 0.15, seed)))
            for hub in gen.choice(n, size=2, replace=False).tolist():
                edges |= {(min(hub, v), max(hub, v)) for v in range(n)
                          if v != hub and gen.random() < 0.8}
            g = Graph(n, sorted(e for e in edges if e[0] < e[1]))
            if budget < 8:  # a hub's edges are cut into several batches
                assert g.degrees().max() > 2 * budget
            assert clustering_coefficient(g) == transitivity_all_triples(g)
        g = gen_small_world(60, 5, 0.2, np.random.default_rng(4))
        assert clustering_coefficient(g) == transitivity_all_triples(g)


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
        with pytest.raises(GraphError, match=r"^largest component has fewer than two vertices$"):
            mean_geodesic(Graph(3))
        with pytest.raises(GraphError, match=r"^need at least two vertices$"):
            mean_geodesic(Graph(1))

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
        n = 50
        g = gen_erdos_renyi(n, 1.0, rng)
        check_simple(g)
        assert g.edge_count == 1225
        assert list(g.edges()) == [(u, v) for u in range(n) for v in range(u + 1, n)]

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
        check_simple(g)


class _CountingRng:
    """Counts geometric draws; they come from a seeded generator, or are
    all `gaps` when that is given."""

    def __init__(self, seed, gaps=None):
        self._gen = np.random.default_rng(seed)
        self._gaps = gaps
        self.drawn = 0

    def geometric(self, p, size):
        self.drawn += size
        if self._gaps is not None:
            return np.full(size, self._gaps, dtype=np.int64)
        return self._gen.geometric(p, size=size)


class TestErdosRenyiSkipping:
    """Geometric edge skipping: exact G(n, p) law, block-independent output."""

    def test_per_pair_inclusion_is_uniform(self):
        # an off-by-one in the triangle decode would starve or double a pair
        n, p, seeds = 8, 0.3, 2000
        counts = {(u, v): 0 for u in range(n) for v in range(u + 1, n)}
        for seed in range(seeds):
            g = gen_erdos_renyi(n, p, np.random.default_rng(seed))
            check_simple(g)
            for e in g.edges():
                counts[e] += 1
        assert len(counts) == 28
        sd = math.sqrt(seeds * p * (1 - p))
        for pair, count in counts.items():
            assert abs(count - seeds * p) < 5 * sd, pair

    def test_degrees_follow_binomial(self):
        n, p = 2000, 0.005
        degrees = []
        for seed in range(5):
            g = gen_erdos_renyi(n, p, np.random.default_rng(seed))
            check_simple(g)
            degrees += g.degrees().tolist()
        degrees = np.array(degrees)
        pmf = np.array([math.comb(n - 1, k) * p**k * (1 - p) ** (n - 1 - k) for k in range(31)])
        observed = np.bincount(degrees, minlength=31)[:31] / len(degrees)
        # each bin within 5 standard errors of its Binomial(n-1, p) share
        se = np.sqrt(pmf * (1 - pmf) / len(degrees))
        assert np.all(np.abs(observed - pmf) < 5 * se + 1e-12)
        assert degrees.mean() == pytest.approx((n - 1) * p, rel=0.02)
        assert degrees.var() == pytest.approx((n - 1) * p * (1 - p), rel=0.05)

    @pytest.mark.parametrize("n,p", [(50, 1.0), (300, 0.05), (1000, 0.002), (40, 0.5)])
    def test_block_size_does_not_change_the_graph(self, monkeypatch, n, p):
        default = gen_erdos_renyi(n, p, np.random.default_rng(17))
        monkeypatch.setattr(graph_module, "ER_BLOCK", 16)
        small = gen_erdos_renyi(n, p, np.random.default_rng(17))
        check_simple(small)
        assert default.edge_count > 16
        assert list(small.edges()) == list(default.edges())

    @pytest.mark.parametrize("p", [1e-18, 1e-300])
    @pytest.mark.parametrize("n", [2, 100, 5000])
    def test_tiny_prob_gives_no_edges(self, n, p):
        g = gen_erdos_renyi(n, p, np.random.default_rng(0))
        check_simple(g)
        assert g.edge_count == 0

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_tiny_vertex_counts(self, n, p):
        g = gen_erdos_renyi(n, p, np.random.default_rng(3))
        check_simple(g)
        assert g.n == n
        if p in (0.0, 1.0):
            assert g.edge_count == p * n * (n - 1) // 2
        assert g.edge_count <= n * (n - 1) // 2

    def test_draws_are_linear_in_edges(self):
        # O(m) draws, not one per vertex pair (about 12.5 M here)
        n, p = 5000, 0.0004
        counting = _CountingRng(9)
        g = gen_erdos_renyi(n, p, counting)
        assert list(g.edges()) == list(gen_erdos_renyi(n, p, np.random.default_rng(9)).edges())
        assert g.edge_count > 0
        assert counting.drawn <= g.edge_count + 1 + graph_module.ER_BLOCK

    @pytest.mark.parametrize("gap", [0, -3])
    def test_non_positive_gap_rejected(self, gap):
        with pytest.raises(GraphError, match="gap"):
            gen_erdos_renyi(50, 0.1, _CountingRng(0, gaps=gap))

    def test_huge_gaps_are_clipped_not_wrapped(self):
        g = gen_erdos_renyi(100, 0.1, _CountingRng(0, gaps=np.iinfo(np.int64).max))
        assert g.edge_count == 0


def random_pairs(n, m, gen):
    """m distinct vertex pairs of an n-vertex graph as an (m, 2) int64
    array, in random order and orientation."""
    number = np.sort(gen.choice(n * (n - 1) // 2, size=m, replace=False))
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(row_start, number, side="right") - 1
    e = gen.permutation(np.column_stack([u, number - row_start[u] + u + 1]))
    flip = gen.random(m) < 0.5
    e[flip] = e[flip, ::-1]
    return e


def assert_same_csr(g, indptr, indices):
    for got, want in ((g._indptr, indptr), (g._indices, indices)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def assert_same_build(n, edges):
    """Graph(n, edges) stores reference_csr's arrays, or raises its error."""
    try:
        indptr, indices = reference_csr(n, edges)
    except GraphError as exc:
        with pytest.raises(GraphError) as raised:
            Graph(n, edges)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    assert_same_csr(Graph(n, edges), indptr, indices)


def assert_same_erdos_renyi(n, p, seed):
    """gen_erdos_renyi gives reference_gen_erdos_renyi's arrays and leaves the
    generator where it does."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_csr(gen_erdos_renyi(n, p, fast), *reference_gen_erdos_renyi(n, p, slow))
    assert fast.bit_generator.state == slow.bit_generator.state, (n, p, seed)
    assert fast.random() == slow.random()


class TestInPlaceBuild:
    """The constructor and gen_erdos_renyi build in place; the whole-array
    versions they replaced, in oracles.py, pin every stored byte, each error
    message and the generator's next draw."""

    def test_every_small_graph_in_both_forms(self):
        gen = np.random.default_rng(0)
        for n in range(5):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(2 ** len(pairs)):
                chosen = [e for i, e in enumerate(pairs) if mask >> i & 1]
                edges = [(v, u) if gen.random() < 0.5 else (u, v) for u, v in chosen]
                assert_same_build(n, edges)
                assert_same_build(n, np.array(edges, dtype=np.int64).reshape(-1, 2))

    @pytest.mark.parametrize("n,edges", [
        (4, [(0, 4)]), (4, [(4, 0)]), (4, [(-1, 2)]), (4, [(2, -1)]), (4, [(5, 7)]),
        (0, [(0, 0)]), (1, [(0, 0)]), (4, [(0, 1), (3, 3)]), (4, [(2, 2), (1, 1)]),
        (4, [(0, 1), (2, 3), (1, 0)]), (4, [(1, 0), (0, 1)]), (4, [(0, 1), (0, 1)]),
        (5, [(2, 3), (0, 4), (3, 2), (4, 0)]), (5, [(0, 1), (1, 2), (3, 4), (2, 1)]),
        (5, [(0, 1, 2)]), (-1, []),
    ])
    def test_error_messages_unchanged(self, n, edges):
        with pytest.raises(GraphError):
            reference_csr(n, edges)
        assert_same_build(n, edges)
        if edges:
            assert_same_build(n, np.array(edges))

    # 46,340 is the last n whose keys row * n + column fit in int32 and
    # 46,341 the first whose keys, and so ids, are int64
    @pytest.mark.parametrize("n,m", [
        (2000, 20000), (300, 44850), (100000, 5000), (46340, 60000), (46341, 60000),
    ])
    def test_large_random_graphs(self, n, m):
        e = random_pairs(n, m, np.random.default_rng(n + m))
        assert_same_build(n, e)
        assert_same_build(n, e.T.copy().T)  # an (m, 2) view that is not C-ordered
        assert_same_build(n, e.astype(np.int32))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=30),
        st.booleans(),
    )))
    def test_any_pair_list_matches(self, case):
        n, edges, as_array = case
        assert_same_build(n, np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_simple_graphs_match(self, data):
        n = data.draw(st.integers(0, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
        assert_same_build(n, edges)
        assert_same_build(n, np.array(edges, dtype=np.int64).reshape(-1, 2))

    @pytest.mark.parametrize("p", [0.0, 1e-300, 1e-18, 0.003, 0.2, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 700])
    def test_erdos_renyi_matches_reference(self, monkeypatch, n, p):
        for seed, block in enumerate((graph_module.ER_BLOCK, 16)):
            monkeypatch.setattr(graph_module, "ER_BLOCK", block)
            assert_same_erdos_renyi(n, p, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 300),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-300, 1e-18, 1e-6, 1.0])),
        st.integers(0, 2**32),
        st.sampled_from([16384, 64, 7]),
    )
    def test_erdos_renyi_matches_reference_anywhere(self, n, p, seed, block):
        original = graph_module.ER_BLOCK
        graph_module.ER_BLOCK = block
        try:
            assert_same_erdos_renyi(n, p, seed)
        finally:
            graph_module.ER_BLOCK = original


class TestGraphMemory:
    """At er_stub_large's size (n = 15,000, mean degree 20) the graph keeps
    4 bytes per neighbour id, builds stay within a fixed number of bytes,
    and out_edges holds at most two edge-long int64 arrays at once.

    The bounds are absolute bytes, each at most the one the int64 layout
    was held to (a multiple of its 2.53 MB of CSR bytes, here or at the
    graphs below), and tighter where the int32 ids lowered the peak: the
    constructor (2.71 MB above its input with int64 keys and ids, bound
    3.79 MB) and gen_small_world (2.76 and 1.52 MB, bounds 2.98 and
    1.74 MB).  The whole-array versions reached 6.7x the CSR bytes in
    gen_erdos_renyi, 4.1x above its input in the constructor and 1.5x the
    returned arrays in out_edges.

    gen_small_world writes the lattice into the (m, 2) array Graph takes
    and keeps only the accepted rewires' keys, and clustering_coefficient
    checks at most PATH_BUDGET 2-paths per batch.  The versions they
    replaced held all n * k lattice keys in a set (7.1x the CSR bytes at
    n = 4000, k = 15, p = 0.1, and 10.2x at n = 1000, p = 1.0) and 4,096
    edges' 2-paths at once (4.2 MB on the 400-vertex graph below)."""

    N, EDGE_PROB = 15000, 20 / 14999

    def test_kept_bytes_are_4_per_id(self):
        g = gen_erdos_renyi(self.N, self.EDGE_PROB, np.random.default_rng(5))
        assert g._indices.dtype == np.int32
        assert g._indices.nbytes == 4 * 2 * g.edge_count
        assert g._indptr.nbytes == 8 * (g.n + 1)

    def test_erdos_renyi_peak(self):
        gen_erdos_renyi(50, 0.1, np.random.default_rng(0))  # first-call imports are not the build's
        g, peak = traced_peak(lambda: gen_erdos_renyi(self.N, self.EDGE_PROB, np.random.default_rng(5)))
        assert g.edge_count > 140000
        assert peak <= 4_500_000, peak  # int64 ids: 6.31 MB (2.5x their CSR bytes)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_constructor_peak_above_its_input(self, dtype):
        g = gen_erdos_renyi(self.N, self.EDGE_PROB, np.random.default_rng(5))
        rows, cols = g.out_edges(np.arange(g.n))
        e = np.column_stack([rows[rows < cols], cols[rows < cols]]).astype(dtype)
        assert e.flags.c_contiguous
        built, peak = traced_peak(lambda: Graph(g.n, e))
        assert_same_csr(built, g._indptr, g._indices)
        assert peak <= 1_800_000, peak  # int64 keys and ids: 3.79 MB

    def test_out_edges_peak(self):
        g = gen_erdos_renyi(self.N, self.EDGE_PROB, np.random.default_rng(5))
        vertices = np.arange(0, g.n, 2)
        (sources, targets), peak = traced_peak(lambda: g.out_edges(vertices))
        assert len(targets) > 70000
        assert sources.dtype == targets.dtype == np.int64
        assert peak <= 2_998_000, peak  # 1.25x the 2.40 MB returned

    @pytest.mark.parametrize("n,rewire_prob,bound", [
        (4000, 0.1, 2_100_000),  # int64 ids: 2.98 MB
        (1000, 1.0, 1_450_000),  # int64 ids: 1.74 MB
    ])
    def test_small_world_peak(self, n, rewire_prob, bound):
        # at p = 1.0 every edge is rewired, so the set of added keys holds
        # about all m of them; tracing each of their ints is slow, hence n = 1000
        gen_small_world(50, 3, 0.1, np.random.default_rng(0))  # first-call imports
        g, peak = traced_peak(
            lambda: gen_small_world(n, 15, rewire_prob, np.random.default_rng(5)))
        assert g.edge_count == 15 * n
        assert peak <= bound, peak

    def test_transitivity_peak(self):
        g = gen_small_world(400, 10, 0.1, np.random.default_rng(1))
        expected = clustering_coefficient(g)
        value, peak = traced_peak(lambda: clustering_coefficient(g))
        assert value == expected
        assert peak <= 1_000_000, peak


class TestSmallWorld:
    def test_lattice_no_rewiring(self, rng):
        g = gen_small_world(20, 3, 0.0, rng)
        assert g.edge_count == 60
        assert (g.degrees() == 6).all()

    def test_edge_count_preserved_any_rewire_prob(self):
        for p in (0.0, 0.01, 0.1, 0.5, 1.0):
            g = gen_small_world(200, 5, p, np.random.default_rng(11))
            assert g.edge_count == 1000
            check_simple(g)

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


class _NumpyWithoutArrays:
    """Stands in for numpy in the graph module: np.random is there, and any
    other attribute, such as np.repeat, fails the test."""

    random = np.random

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called")


class TestSmallWorldStream:
    """gen_small_world reads the generator's stream in bulk; the per-edge loop
    it replaced, reference_gen_small_world, pins its graphs and the state."""

    @staticmethod
    def assert_same_stream(n, k, p, seed, buffered, half=None):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (fast, slow):
            if buffered:  # integers(10) keeps the high half word for the next draw
                rng.integers(10)
            if half is not None:  # or put a chosen half word there
                state = rng.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, half
                rng.bit_generator.state = state
        g = gen_small_world(n, k, p, fast)
        ref = reference_gen_small_world(n, k, p, slow)
        assert list(g.edges()) == list(ref.edges()), (n, k, p, seed, buffered)
        assert fast.bit_generator.state == slow.bit_generator.state, (n, k, p, seed)
        assert fast.random() == slow.random()
        assert fast.integers(n) == slow.integers(n)
        assert fast.integers(7) == slow.integers(7)

    def test_matches_per_edge_loop_over_seeds(self, monkeypatch):
        sizes = np.random.default_rng(2024)
        default = graph_module.SW_BLOCK
        for seed in range(320):
            # small blocks make coins and integer draws cross block ends often;
            # at the default size the draws spill past the first block
            monkeypatch.setattr(graph_module, "SW_BLOCK", (default, 5, 64)[seed % 3])
            n = int(sizes.integers(3, 120))
            k = int(sizes.integers(1, min((n - 1) // 2, 8) + 1))
            p = (0.0, 1e-4, 0.1, 1.0)[seed % 4]
            self.assert_same_stream(n, k, p, seed, buffered=seed // 4 % 2)

    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (9, 4), (11, 5)])
    def test_retry_exhaustion_matches(self, n, k, caplog):
        # the lattice is already the complete graph, so no replacement is free
        caplog.set_level("DEBUG", logger="netspread.graph")
        for seed in range(10):
            self.assert_same_stream(n, k, 1.0, seed, buffered=seed % 2)
        assert "kept" in caplog.text and "retry exhaustion" in caplog.text

    @pytest.mark.parametrize("n", [7, 100, 3000])
    def test_rejected_draw_matches(self, n):
        # a half word of 0 falls below Lemire's threshold 2**32 % n, so the
        # first edge's first replacement draw is rejected and drawn again
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
        rng.integers(n)
        assert rng.bit_generator.state["has_uint32"] == 1  # a fresh word was split
        for seed in range(5):
            self.assert_same_stream(n, 3, 1.0, seed, buffered=False, half=0)

    @pytest.mark.parametrize("n,k", [(7, 3), (8, 3), (10, 4), (13, 6), (14, 6), (21, 10)])
    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_largest_lattices_match(self, monkeypatch, n, k, p):
        # with 2k + 1 or 2k + 2 vertices every vertex is a lattice neighbour
        # of nearly all others, many across the wrap from n - 1 to 0, so most
        # draws hit a lattice slot, and at p = 1.0 retries run out
        for seed in range(12):
            monkeypatch.setattr(graph_module, "SW_BLOCK", (16384, 5)[seed % 2])
            self.assert_same_stream(n, k, p, seed, buffered=seed // 2 % 2)

    def test_draws_past_a_full_block_match(self):
        # 72,000 lattice edges: the coins alone fill more than one default block
        self.assert_same_stream(4000, 18, 0.1, 3, buffered=True)

    @pytest.mark.parametrize("n,bitgen", [
        (100, np.random.MT19937),
        (100, np.random.Philox),
        (2**31, np.random.PCG64),
        (2**32, np.random.PCG64),
    ])
    def test_unsupported_stream_rejected_before_allocating(self, monkeypatch, n, bitgen):
        rng = np.random.Generator(bitgen(0))
        with monkeypatch.context() as patched:
            patched.setattr(graph_module, "np", _NumpyWithoutArrays())
            with pytest.raises(GraphError, match="PCG64|2\\*\\*31"):
                gen_small_world(n, 2, 0.1, rng)
        assert rng.random() == np.random.Generator(bitgen(0)).random()  # nothing drawn


class TestGraphParams:
    def test_dispatch(self, rng):
        g = generate_graph(GraphParams("erdos_renyi", 30, edge_prob=0.1), rng)
        assert g.n == 30
        g = generate_graph(
            GraphParams("small_world", 30, neighbors=2, rewire_prob=0.1), rng
        )
        assert g.edge_count == 60

    def test_validation(self):
        too_many = r"^vertex count must be below 2\*\*31 \(int32 vertex ids\), got 2147483648$"
        with pytest.raises(GraphError, match=too_many):
            GraphParams("small_world", 2**31, neighbors=2, rewire_prob=0.1)
        with pytest.raises(GraphError, match=too_many):
            GraphParams("erdos_renyi", 2**31, edge_prob=0.1)
        with pytest.raises(GraphError, match=r"got 4294967296$"):
            GraphParams("small_world", 2**32, neighbors=2, rewire_prob=0.1)
        GraphParams("small_world", 2**31 - 1, neighbors=2, rewire_prob=0.1)
        GraphParams("erdos_renyi", 2**31 - 1, edge_prob=0.1)
        with pytest.raises(ValueError):
            GraphParams("bogus", 10)
        with pytest.raises(ValueError):
            GraphParams("erdos_renyi", 10, edge_prob=1.5)
        with pytest.raises(ValueError):
            GraphParams("small_world", 10, neighbors=5, rewire_prob=0.1)


class TestSerialization:
    def test_edge_list_text_is_the_header_then_each_edge(self, tmp_path, rng):
        path = tmp_path / "graph.tsv"
        write_edge_list(Graph(6, [(3, 0), (5, 4), (1, 2), (0, 1)]), path)
        assert path.read_bytes() == b"# vertices=6\n0\t1\n0\t3\n1\t2\n4\t5\n"
        g = gen_erdos_renyi(40, 0.1, rng)
        write_edge_list(g, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == ["# vertices=40", *(f"{u}\t{v}" for u, v in g.edges()), ""]

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
