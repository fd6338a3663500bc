"""networkx as an independent oracle on graphs of 300-1000 vertices.

The brute-force oracles in oracles.py (all triples, Floyd-Warshall) only
reach a few hundred vertices; networkx checks transitivity, geodesics,
components and modularity on larger Erdős–Rényi and small-world graphs,
including graphs where most vertices are isolated.  networkx is a test
dependency only: without it these tests are skipped.
"""

import numpy as np
import pytest

from netspread.analysis import cluster_by_modularity, modularity
from netspread.graph import (
    clustering_coefficient,
    connected_components,
    gen_erdos_renyi,
    gen_small_world,
    mean_geodesic,
)

nx = pytest.importorskip("networkx")

GRAPHS = {
    # below the giant-component threshold: 402 isolated vertices, largest component 42
    "er_1000_isolated": lambda: gen_erdos_renyi(1000, 0.8 / 999, np.random.default_rng(2)),
    # a 312-vertex largest component beside 263 isolated vertices
    "er_1000_sparse": lambda: gen_erdos_renyi(1000, 1.2 / 999, np.random.default_rng(2)),
    "er_400": lambda: gen_erdos_renyi(400, 6.0 / 399, np.random.default_rng(3)),
    "sw_300_lattice": lambda: gen_small_world(300, 3, 0.0, np.random.default_rng(4)),
    "sw_500": lambda: gen_small_world(500, 4, 0.1, np.random.default_rng(5)),
    "sw_300_random": lambda: gen_small_world(300, 3, 1.0, np.random.default_rng(6)),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def graphs(request):
    g = GRAPHS[request.param]()
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return g, G


def test_transitivity(graphs):
    g, G = graphs
    assert clustering_coefficient(g) == pytest.approx(nx.transitivity(G), abs=1e-12)


def test_connected_components(graphs):
    g, G = graphs
    assert connected_components(g) == sorted(sorted(c) for c in nx.connected_components(G))


def test_mean_geodesic(graphs):
    g, G = graphs
    # the largest component, ties going to the one with the smallest vertex
    comps = sorted(nx.connected_components(G), key=min)
    largest = max(comps, key=len)
    dist = nx.floyd_warshall_numpy(G.subgraph(largest))
    expected = dist.sum() / (len(largest) * (len(largest) - 1))
    assert mean_geodesic(g) == pytest.approx(expected, rel=1e-12)


def test_modularity_of_returned_clustering(graphs):
    g, G = graphs
    clustering = cluster_by_modularity(g)
    communities = [set(clustering.members(c)) for c in range(clustering.n_clusters)]
    q = modularity(g, clustering)
    assert q == pytest.approx(nx.community.modularity(G, communities), abs=1e-12)
    assert q > 0.3
