"""Undirected simple graphs, random generators and structural metrics.

Vertices are dense integers 0..n-1 and adjacency is kept as one set per
vertex, so neighbor iteration is O(degree).  Graphs are treated as
immutable once a generator has returned them; replicated experiments may
share them freely across threads.

Erdős–Rényi graphs are built by geometric edge skipping in O(n + m) and
filled straight into the adjacency sets; the generator checks the
simple-graph invariants with numpy once per block of edges instead of
once per edge.  Small-world graphs are built and rewired through
add_edge / remove_edge.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

ERDOS_RENYI = "erdos_renyi"
SMALL_WORLD = "small_world"

REWIRE_RETRIES = 100
ER_BLOCK = 16384  # geometric gaps drawn per batch by gen_erdos_renyi


class GraphError(ValueError):
    """Base class for graph construction and metric errors."""


class SelfEdgeError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexRangeError(GraphError):
    pass


class NoTriplesError(GraphError):
    """Raised when the transitivity denominator (connected triples) is zero."""


class DegenerateGraphError(GraphError):
    """Raised when the largest component has fewer than two vertices."""


class Graph:
    """Undirected simple graph: no self edges, no duplicate edges.

    add_edge and remove_edge are the public mutators and enforce both;
    gen_erdos_renyi fills the sets directly after checking each block of
    edges for both.  So a generator's output needs no re-check.
    """

    __slots__ = ("n", "_adj", "_edge_count")

    def __init__(self, n: int):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._edge_count = 0

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexRangeError(f"vertex {v} outside [0, {self.n})")

    def _range_error(self, u: int, v: int) -> None:
        """Raise the VertexRangeError for whichever of u, v is out of range."""
        self._check_vertex(u)
        self._check_vertex(v)

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._range_error(u, v)
        if u == v:
            raise SelfEdgeError(f"self edge ({u}, {v}) not allowed")
        if v in self._adj[u]:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edge_count += 1

    def remove_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._range_error(u, v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_count -= 1

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            self._range_error(u, v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield u, v

    def check_simple(self) -> None:
        """Re-verify the invariants that add_edge and remove_edge enforce."""
        count = 0
        for u in range(self.n):
            if u in self._adj[u]:
                raise SelfEdgeError(f"self edge at {u}")
            for v in self._adj[u]:
                self._check_vertex(v)
                if u not in self._adj[v]:
                    raise GraphError(f"asymmetric adjacency ({u}, {v})")
            count += len(self._adj[u])
        if count != 2 * self._edge_count:
            raise GraphError("edge count does not match adjacency")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


def connected_components(g: Graph) -> list[list[int]]:
    """Partition vertices into connected components (sorted, by smallest member)."""
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comp.sort()
        components.append(comp)
    return components


def largest_component(g: Graph) -> list[int]:
    comps = connected_components(g)
    if not comps:
        return []
    return max(comps, key=len)


def clustering_coefficient(g: Graph) -> float:
    """Global transitivity: 3 * triangles / connected triples.

    This is the probability that a path of length two closes into a
    triangle.  Raises NoTriplesError when the graph has no path of length
    two, where the ratio is undefined.
    """
    triples = sum(len(adj) * (len(adj) - 1) // 2 for adj in g._adj)
    if triples == 0:
        raise NoTriplesError("graph has no connected triples")
    # each triangle is counted once per incident edge, i.e. three times
    closed = 0
    for u, v in g.edges():
        closed += len(g.neighbors(u) & g.neighbors(v))
    return closed / triples


def _bfs_distances(g: Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def mean_geodesic(g: Graph) -> float:
    """Mean shortest-path length over unordered pairs of the largest component.

    Disconnected graphs are handled by restricting to the largest
    component, which keeps the average finite.
    """
    if g.n < 2:
        raise DegenerateGraphError("need at least two vertices")
    comp = largest_component(g)
    if len(comp) < 2:
        raise DegenerateGraphError("largest component has fewer than two vertices")
    total = 0
    for u in comp:
        total += sum(_bfs_distances(g, u).values())
    pairs = len(comp) * (len(comp) - 1)
    return total / pairs


@dataclass(frozen=True)
class GraphParams:
    """Parameters for one random-graph model.

    erdos_renyi uses (n, edge_prob); small_world uses (n, neighbors,
    rewire_prob) where the ring lattice joins each vertex to its
    `neighbors` nearest clockwise vertices.
    """

    model: str
    n: int
    edge_prob: float = 0.0
    neighbors: int = 0
    rewire_prob: float = 0.0

    def __post_init__(self):
        if self.model not in (ERDOS_RENYI, SMALL_WORLD):
            raise GraphError(f"unknown graph model {self.model!r}")
        if self.n < 0:
            raise GraphError("n must be non-negative")
        if self.model == ERDOS_RENYI:
            if not 0.0 <= self.edge_prob <= 1.0:
                raise GraphError("edge_prob must lie in [0, 1]")
        else:
            if self.neighbors < 1:
                raise GraphError("neighbors must be >= 1")
            if 2 * self.neighbors >= self.n:
                raise GraphError("ring lattice needs 2 * neighbors < n")
            if not 0.0 <= self.rewire_prob <= 1.0:
                raise GraphError("rewire_prob must lie in [0, 1]")


def gen_erdos_renyi(n: int, edge_prob: float, rng: np.random.Generator) -> Graph:
    """G(n, p): every unordered pair gets an edge independently with edge_prob.

    Geometric edge skipping (Batagelj & Brandes 2005, Phys. Rev. E 71,
    036113): the pairs (u, v), u < v, are numbered in row order, and the
    gap from one edge's number to the next is Geometric(edge_prob), so the
    skipped pairs are never looked at.  O(n + m) time and O(m) draws.  Gaps
    are drawn ER_BLOCK at a time; the graph does not depend on ER_BLOCK,
    but the generator's state afterwards does, since the last block draws
    past the final pair.  Each block is checked with numpy before its
    edges go into the adjacency sets without add_edge: the numbers
    strictly increase (no duplicate edge) and decode to in-range u < v
    (no self edge).  A failure raises GraphError.
    """
    GraphParams(ERDOS_RENYI, n, edge_prob=edge_prob)
    g = Graph(n)
    pairs = n * (n - 1) // 2
    if pairs == 0 or edge_prob == 0.0:
        return g
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2  # number of pair (u, u + 1)
    ids = list(range(n))  # one int object per vertex, shared by all sets
    adj = g._adj
    last = -1
    while last < pairs:
        # a gap past the last pair ends the graph; clipping it keeps the
        # running sum from wrapping when a tiny edge_prob draws INT64_MAX
        gaps = np.minimum(rng.geometric(edge_prob, size=ER_BLOCK), pairs + 1)
        if gaps.min() < 1:
            raise GraphError("edge skip gap must be positive")
        idx = last + np.cumsum(gaps)
        if idx[0] <= last or not np.all(idx[1:] > idx[:-1]):
            raise GraphError("edge numbers must strictly increase")
        last = int(idx[-1])
        idx = idx[: np.searchsorted(idx, pairs)]
        us = np.searchsorted(row_start, idx, side="right") - 1
        vs = idx - row_start[us] + us + 1
        if len(idx) and not (np.all(us < vs) and us[0] >= 0 and vs.max() < n):
            raise GraphError("edge numbers must decode to vertices u < v < n")
        for u, v in zip(us.tolist(), vs.tolist()):
            adj[u].add(ids[v])
            adj[v].add(ids[u])
        g._edge_count += len(idx)
    return g


def gen_small_world(
    n: int, neighbors: int, rewire_prob: float, rng: np.random.Generator
) -> Graph:
    """Ring lattice joined k spaces away, then per-edge random rewiring.

    Every vertex starts connected to its `neighbors` nearest clockwise
    vertices (neighbors*n edges total).  Each lattice edge is visited once,
    in construction order, and with probability rewire_prob its far
    endpoint is replaced with a uniformly random vertex.  Replacements that
    would create a self or duplicate edge are resampled up to
    REWIRE_RETRIES times, after which the edge is kept as-is (logged).  The
    edge count is therefore exactly neighbors*n for any rewire_prob.
    """
    GraphParams(SMALL_WORLD, n, neighbors=neighbors, rewire_prob=rewire_prob)
    k = neighbors
    g = Graph(n)
    lattice = [(u, (u + j) % n) for u in range(n) for j in range(1, k + 1)]
    for u, v in lattice:
        g.add_edge(u, v)
    kept = 0
    for u, v in lattice:
        if rng.random() >= rewire_prob:
            continue
        for _ in range(REWIRE_RETRIES):
            w = int(rng.integers(n))
            if w != u and not g.has_edge(u, w):
                g.remove_edge(u, v)
                g.add_edge(u, w)
                break
        else:
            kept += 1
    if kept:
        logger.debug("small-world rewiring kept %d edges after retry exhaustion", kept)
    assert g.edge_count == k * n
    return g


def generate_graph(params: GraphParams, rng: np.random.Generator) -> Graph:
    if params.model == ERDOS_RENYI:
        return gen_erdos_renyi(params.n, params.edge_prob, rng)
    return gen_small_world(params.n, params.neighbors, params.rewire_prob, rng)


def write_edge_list(g: Graph, path) -> None:
    """One `u<TAB>v` pair per line under a `# vertices=<n>` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices={g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u}\t{v}\n")


def read_edge_list(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# vertices="):
            raise GraphError(f"missing '# vertices=<n>' header in {path}")
        g = Graph(int(header.split("=", 1)[1]))
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split("\t")
            g.add_edge(int(u), int(v))
    return g


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT text for external rendering; isolated vertices are listed too."""
    lines = [f"graph {name} {{"]
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    for v in isolated:
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
