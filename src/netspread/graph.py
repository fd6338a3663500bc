"""Undirected simple graphs, random generators and structural metrics.

Vertices are dense integers 0..n-1.  A Graph is immutable: its
constructor takes the vertex count and the whole edge list, checks the
simple-graph rules (endpoints in range, no self edge, no duplicate edge)
in that one place, and stores the adjacency in compressed sparse rows,
each row sorted.  Replicated experiments may share graphs freely across
threads.

`edges_between` lists the edges from one vertex set to another by
reading the adjacency rows of whichever side has fewer edges; diffusion
steps use it to find the frontier's edges into uninformed vertices.

Generators build an edge list and hand it to the constructor.
Erdős–Rényi graphs are drawn by geometric edge skipping in O(n + m);
small-world graphs write the ring lattice into the edge array the
constructor takes and rewire its far ends in place, telling a lattice edge
by arithmetic and keeping a set of keys of the rewired edges only.  The
small-world generator needs a PCG64 generator: it reads
the per-edge coin flips and replacement draws in bulk, bit-identical to
drawing them one by one, and leaves the generator in the same state.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

ERDOS_RENYI = "erdos_renyi"
SMALL_WORLD = "small_world"

REWIRE_RETRIES = 100
ER_BLOCK = 16384  # geometric gaps drawn per batch by gen_erdos_renyi
SW_BLOCK = 16384  # raw words drawn per batch by gen_small_world
PATH_BUDGET = 8192  # 2-paths clustering_coefficient checks per batch (one edge may start more)
GEODESIC_SOURCES = 64  # BFS sources per bit-parallel sweep of mean_geodesic


class GraphError(ValueError):
    """A graph construction or metric error."""


class Graph:
    """Immutable undirected simple graph in compressed sparse rows.

    `edges` holds each edge once, as a (u, v) pair in either orientation
    (a sequence of pairs or an (m, 2) integer array).  The constructor is
    the only place the simple-graph rules are checked; there is no
    mutator.

    Memory: the build holds the input (as int64; an (m, 2) int64 array is
    not copied) plus one 2m-long int64 key array, sorted in place and
    reduced in place to `_indices`.  Its other temporaries are the n + 1
    row offsets and boolean masks of at most 2m bytes.
    """

    __slots__ = ("n", "_indptr", "_indices", "_ptr", "_idx")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        bad = (e < 0) | (e >= n)
        if bad.any():  # name the first bad endpoint, u before v
            raise GraphError(f"vertex {e.flat[np.argmax(bad)]} outside [0, {n})")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            u = e[np.argmax(loops), 0]
            raise GraphError(f"self edge ({u}, {u}) not allowed")
        del bad, loops
        # both orientations as row * n + column, sorted: the CSR entries in order
        keys = np.empty(2 * len(e), dtype=np.int64)
        forward, backward = keys[: len(e)], keys[len(e) :]
        np.multiply(e[:, 0], n, out=forward)
        forward += e[:, 1]
        np.multiply(e[:, 1], n, out=backward)
        backward += e[:, 0]
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):  # name the first repeat, as given
            lo, hi = e.min(axis=1), e.max(axis=1)
            _, first = np.unique(lo * n + hi, return_index=True)
            u, v = e[np.setdiff1d(np.arange(len(e)), first)[0]]
            raise GraphError(f"edge ({u}, {v}) already present")
        # row r's entries are the keys in [r * n, (r + 1) * n)
        self._indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        self._indices = np.remainder(keys, max(n, 1), out=keys)
        self._indptr.flags.writeable = self._indices.flags.writeable = False
        # Python-int views of the same buffers, for fast scalar lookups
        self._ptr, self._idx = memoryview(self._indptr), memoryview(self._indices)
        self.n = n

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} outside [0, {self.n})")

    def neighbors(self, v: int) -> list[int]:
        """v's neighbours in ascending order."""
        self._check_vertex(v)
        return self._idx[self._ptr[v] : self._ptr[v + 1]].tolist()

    def degrees(self) -> np.ndarray:
        """Every vertex's degree, as an int64 array of length n."""
        return np.diff(self._indptr)

    @property
    def edge_count(self) -> int:
        return len(self._idx) // 2

    def out_edges(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) of every edge out of `vertices`, as int64 arrays.

        Each vertex's edges come in the order the vertices are given, and
        within a vertex in ascending target order.
        """
        vs = self._vertex_array(vertices)
        starts = self._indptr[vs]
        counts = self._indptr[vs + 1] - starts
        offsets = np.cumsum(counts) - counts  # where each vertex's run begins
        positions = np.repeat(starts - offsets, counts)
        positions += np.arange(len(positions))
        targets = self._indices[positions]
        del positions  # before the sources exist: at most two edge-long arrays at once
        return np.repeat(vs, counts), targets

    def edges_between(self, sources, targets) -> tuple[np.ndarray, np.ndarray]:
        """(s, t) of every edge from a vertex of `sources` to one of `targets`,
        as int64 arrays sorted by s, then by t.

        Both arguments are ascending sequences of distinct vertices.  Only
        the adjacency rows of the side with the smaller degree sum are read,
        as direction-optimizing BFS picks between the frontier and the
        unvisited vertices (Beamer, Asanović & Patterson, SC 2012).  Both
        scans find the same edges in the same order: out_edges(sources)
        comes sorted by (s, t), since the sources ascend and each row is
        sorted; out_edges(targets) comes sorted by (t, s), and a stable sort
        on s makes that (s, t).  A tie reads the sources' rows.
        """
        sources, targets = self._vertex_array(sources), self._vertex_array(targets)
        degrees = self.degrees()
        forward = degrees[sources].sum() <= degrees[targets].sum()
        del degrees
        near, far = (sources, targets) if forward else (targets, sources)
        rows, cols = self.out_edges(near)
        wanted = np.zeros(self.n, dtype=bool)
        wanted[far] = True
        keep = wanted[cols]
        rows, cols = rows[keep], cols[keep]
        if forward:
            return rows, cols
        order = np.argsort(cols, kind="stable")
        return cols[order], rows[order]

    def _vertex_array(self, vertices) -> np.ndarray:
        """`vertices` as a flat int64 array; GraphError names the
        first one outside [0, n)."""
        vs = np.asarray(vertices, dtype=np.int64).reshape(-1)
        if len(vs) and (vs.min() < 0 or vs.max() >= self.n):
            self._check_vertex(int(vs[(vs < 0) | (vs >= self.n)][0]))
        return vs

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        ptr, idx = self._ptr, self._idx
        for u in range(self.n):
            for v in idx[ptr[u] : ptr[u + 1]]:
                if u < v:
                    yield u, v

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def connected_components(g: Graph) -> list[list[int]]:
    """Partition vertices into connected components (sorted, by smallest member)."""
    ptr, idx = g._ptr, g._idx
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for u in comp:  # comp grows while it is scanned, as a BFS queue
            for v in idx[ptr[u] : ptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        comp.sort()
        components.append(comp)
    return components


def clustering_coefficient(g: Graph) -> float:
    """Global transitivity: 3 * triangles / connected triples.

    This is the probability that a path of length two closes into a
    triangle.  Raises GraphError when the graph has no path of length
    two, where the ratio is undefined.

    Memory: three 2m-long int64 arrays (the edges' targets, their sorted
    entries and the running path count), and per batch a few int64 arrays
    of at most PATH_BUDGET paths, or of one vertex's degree when that is
    larger.
    """
    degrees = g.degrees()
    triples = int(np.sum(degrees * (degrees - 1))) // 2
    if triples == 0:
        raise GraphError("graph has no connected triples")
    entries, cols = g.out_edges(np.arange(g.n))
    entries *= g.n
    entries += cols  # row * n + column, sorted, so membership is a binary search
    # a path c - a - b with b adjacent to c closes the triangle {c, a, b};
    # each triangle is found six times, once per ordered pair (c, b).  Edge
    # (c, a) starts deg(a) paths; blocks of edges hold at most PATH_BUDGET
    # paths, or one edge when that edge alone starts more
    reach = np.cumsum(degrees[cols])  # paths started by edges 0..i
    found = s = 0
    while s < len(entries):
        before = int(reach[s - 1]) if s else 0
        t = max(int(np.searchsorted(reach, before + PATH_BUDGET, side="right")), s + 1)
        a = cols[s:t]
        _, b = g.out_edges(a)
        paths = np.repeat(entries[s:t] - a, degrees[a]) + b  # c * n + b
        at = np.minimum(np.searchsorted(entries, paths), len(entries) - 1)
        found += int(np.count_nonzero(entries[at] == paths))
        s = t
    return found // 2 / triples  # closed triples: three per triangle


def mean_geodesic(g: Graph) -> float:
    """Mean shortest-path length over unordered pairs of the largest component.

    Disconnected graphs are handled by restricting to the largest
    component, which keeps the average finite.  Breadth-first search runs
    level by level for GEODESIC_SOURCES sources at once, one bit per
    source in a uint64 per vertex.
    """
    if g.n < 2:
        raise GraphError("need at least two vertices")
    comp = np.asarray(max(connected_components(g), key=len), dtype=np.int64)
    c = len(comp)
    if c < 2:
        raise GraphError("largest component has fewer than two vertices")
    sources, targets = g.out_edges(comp)
    targets = np.searchsorted(comp, targets)  # component-local ids
    # every component vertex has an edge, so no row is empty, as reduceat needs
    starts = np.flatnonzero(np.r_[True, sources[1:] != sources[:-1]])
    total = 0
    for first in range(0, c, GEODESIC_SOURCES):
        block = np.arange(first, min(first + GEODESIC_SOURCES, c))
        seen = np.zeros(c, dtype=np.uint64)
        seen[block] = np.left_shift(np.uint64(1), (block - first).astype(np.uint64))
        frontier, level = seen.copy(), 0
        while frontier.any():
            level += 1
            frontier = np.bitwise_or.reduceat(frontier[targets], starts) & ~seen
            seen |= frontier
            total += level * int(np.unpackbits(frontier.view(np.uint8)).sum())
    return total / (c * (c - 1))


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
        self.check_n(self.model, self.n)
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

    @staticmethod
    def check_n(model: str, n: int) -> None:
        """Raise GraphError unless `model` takes n vertices: small-world
        rewiring emulates numpy's 32-bit integer draws, so needs n < 2**32."""
        if n < 0:
            raise GraphError("n must be non-negative")
        if model == SMALL_WORLD and n >= 2**32:
            raise GraphError(f"small-world rewiring needs n < 2**32, got {n}")


def gen_erdos_renyi(n: int, edge_prob: float, rng: np.random.Generator) -> Graph:
    """G(n, p): every unordered pair gets an edge independently with edge_prob.

    Geometric edge skipping (Batagelj & Brandes 2005, Phys. Rev. E 71,
    036113): the pairs (u, v), u < v, are numbered in row order, and the
    gap from one edge's number to the next is Geometric(edge_prob), so the
    skipped pairs are never looked at.  O(n + m) time and O(m) draws.  Gaps
    are drawn ER_BLOCK at a time; the graph does not depend on ER_BLOCK,
    but the generator's state afterwards does, since the last block draws
    past the final pair.
    """
    GraphParams(ERDOS_RENYI, n, edge_prob=edge_prob)
    pairs = n * (n - 1) // 2
    if pairs == 0 or edge_prob == 0.0:
        return Graph(n)
    blocks = []
    last = -1
    while last < pairs:
        # a gap past the last pair ends the graph; clipping it keeps the
        # running sum from wrapping when a tiny edge_prob draws INT64_MAX
        gaps = np.minimum(rng.geometric(edge_prob, size=ER_BLOCK), pairs + 1)
        if gaps.min() < 1:  # a zero gap would never pass the last pair
            raise GraphError("edge skip gap must be positive")
        idx = np.cumsum(gaps, out=gaps)
        idx += last
        last = int(idx[-1])
        blocks.append(idx[: np.searchsorted(idx, pairs)])
    idx = np.concatenate(blocks)
    # each m-long temporary goes before the next comes, so the peak is the
    # constructor's: the (m, 2) edges plus its 2m keys
    del blocks, gaps
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2  # number of pair (u, u + 1)
    edges = np.empty((len(idx), 2), dtype=np.int64)
    us, vs = edges[:, 0], edges[:, 1]
    us[:] = np.searchsorted(row_start, idx, side="right")
    us -= 1
    np.subtract(idx, row_start[us], out=vs)  # how far pair (u, v) lies past (u, u + 1)
    del idx, rows, row_start
    vs += us
    vs += 1
    return Graph(n, edges)


def _coin_block(bitgen, size: int, cut: int):
    """Draw `size` raw words; return them and the offsets of rewiring coins.

    A word w read as a coin is `Generator.random()`'s double (w >> 11) * 2**-53,
    which lies below rewire_prob exactly when w >> 11 lies below
    cut = ceil(rewire_prob * 2**53): the product is exact.  Both come back as
    memoryviews, which index to Python ints.
    """
    words = bitgen.random_raw(size)
    return memoryview(words), memoryview(np.flatnonzero((words >> np.uint64(11)) < cut))


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

    Memory: the lattice is written once into the (m, 2) int64 array handed
    to Graph, edge e = u * k + d - 1 joining u to (u + d) % n, and a rewire
    overwrites its far end.  A pair (lo, hi) is a lattice pair when it lies
    at most k apart around the ring, d = hi - lo <= k (slot lo * k + d - 1)
    or n - d <= k (slot hi * k + n - d - 1), and it is still an edge while
    that slot holds its original far end.  A rewired slot never does: the
    pair it held was an edge when the replacement was drawn, so it could
    not be drawn back.  Any other edge was made by a rewire, and its key
    lo * n + hi is kept in a set.  The edge being rewired is always still
    its own lattice edge, so the write alone removes it.  The bookkeeping
    thus grows with the accepted rewires, about rewire_prob * m keys.

    Stream contract: the graph and the generator's state afterwards are
    bit-identical to a loop that calls `rng.random()` per lattice edge and
    `rng.integers(n)` per replacement draw.  The coins are read in bulk
    from `bit_generator.random_raw`, SW_BLOCK words at a time, and each
    `integers(n)` is emulated as numpy's scalar 32-bit Lemire rejection on
    the generator's buffered half words (`has_uint32` / `uinteger`).  Then
    the start state is advanced past the words used.  This leans on the
    PCG64 bit generator and numpy's `Generator` internals, so any other bit
    generator, and n >= 2**32 (a 64-bit draw; GraphParams.check_n), raise
    GraphError.
    """
    GraphParams(SMALL_WORLD, n, neighbors=neighbors, rewire_prob=rewire_prob)
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise GraphError(
            f"small-world rewiring needs a PCG64 generator, got {type(bitgen).__name__}"
        )
    k = neighbors
    total = k * n
    edges = np.empty((total, 2), dtype=np.int64)  # the lattice, rewired in place
    lattice, ring = edges.reshape(n, k, 2), np.arange(n)[:, None]
    lattice[:, :, 0] = ring
    np.add(ring, np.arange(1, k + 1), out=lattice[:, :, 1])
    np.remainder(lattice[:, :, 1], n, out=lattice[:, :, 1])
    del lattice, ring
    far_ends = memoryview(edges[:, 1])  # indexes to Python ints, as a list would
    added = set()  # keys lo * n + hi of the edges rewiring made
    start = bitgen.state
    has, half = start["has_uint32"], start["uinteger"]
    cut = math.ceil(rewire_prob * 2**53)
    reject = 2**32 % n  # Lemire: a low product word below this is redrawn
    kept = 0
    i = pos = 0  # next edge whose coin is due; words used so far
    base = end = 0  # the current block holds words [base, end)
    words = hits = memoryview(b"")
    while i < total:
        if pos == end:
            base = pos
            words, hits = _coin_block(bitgen, min(total - i, SW_BLOCK), cut)
            end = base + len(words)
        h = bisect_left(hits, pos - base)  # the next rewiring coin at or after pos
        # coins before it (or before the block's end) keep their edge
        skip = min((hits[h] + base if h < len(hits) else end) - pos, total - i)
        i += skip
        pos += skip
        if i == total or pos == end:
            continue
        e = i  # word `pos` is edge e's rewiring coin
        i += 1
        pos += 1
        u = e // k
        for _ in range(REWIRE_RETRIES):
            while True:  # one integers(n) draw
                if has:
                    x, has = half, 0
                else:
                    if pos == end:
                        base = pos
                        words, hits = _coin_block(bitgen, min(total - i + 1, SW_BLOCK), cut)
                        end = base + len(words)
                    word = words[pos - base]
                    pos += 1
                    x, half, has = word & 0xFFFFFFFF, word >> 32, 1
                m = x * n
                if m & 0xFFFFFFFF >= reject:
                    break
            w = m >> 32
            if w == u:
                continue
            lo, hi = (u, w) if u < w else (w, u)
            d = hi - lo  # a lattice pair lies at most k apart around the ring
            if d <= k:
                taken = far_ends[lo * k + d - 1] == hi
            else:
                taken = n - d <= k and far_ends[hi * k + n - d - 1] == lo
            key = lo * n + hi
            if not taken and key not in added:
                added.add(key)
                far_ends[e] = w  # edge e was its own lattice edge until now
                break
        else:
            kept += 1
    bitgen.state = start
    bitgen.advance(pos)  # also clears the half-word buffer, so put it back
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has, half
    bitgen.state = state
    if kept:
        logger.debug("small-world rewiring kept %d edges after retry exhaustion", kept)
    return Graph(n, edges)


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


def to_dot(g: Graph) -> str:
    """DOT text (graph G) for external rendering; isolated vertices are listed too."""
    lines = ["graph G {"]
    for v in np.flatnonzero(g.degrees() == 0).tolist():
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
