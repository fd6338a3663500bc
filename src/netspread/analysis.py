"""Post-run analytics: modularity clustering of the propagation graph,
cluster-level aggregation, and per-wave characteristic distributions.

Clustering operates on an undirected view of the transmission log
(orientation dropped), normally restricted to the largest connected
component.  The clusterer is a deterministic multi-level local-move
method: vertices are repeatedly moved to the neighboring cluster with the
best modularity gain, the partition is aggregated, and the process
recurses; a final single-vertex refinement pass on the original graph
guarantees the returned partition cannot be improved by moving any single
vertex anywhere (including into a fresh singleton).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, connected_components
from .population import BINARY, CATEGORICAL, VertexTable, write_csv

EMPTY_ROW = -1.0  # placeholder proportion for waves with no members


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class Clustering:
    """Total partition of 0..n-1 into dense cluster ids 0..c-1."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        if self.n_clusters and set(self.assignment) != set(range(self.n_clusters)):
            raise AnalysisError("cluster ids must be dense 0..c-1")

    @property
    def n_clusters(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0

    def cluster_of(self, v: int) -> int:
        if not 0 <= v < len(self.assignment):
            raise AnalysisError(f"vertex {v} is not clustered")
        return self.assignment[v]

    def members(self, cluster: int) -> list[int]:
        return [v for v, c in enumerate(self.assignment) if c == cluster]


def modularity(graph: Graph, clustering: Clustering) -> float:
    """Q = sum_c (intra_c / m - (degree_c / 2m)^2)."""
    if len(clustering.assignment) != graph.n:
        raise AnalysisError("clustering does not cover the graph")
    m = graph.edge_count
    if m == 0:
        raise GraphError("modularity undefined on a graph with no edges")
    c = clustering.n_clusters
    cluster = np.asarray(clustering.assignment)
    rows, cols = graph.out_edges(np.arange(graph.n))  # each edge in both directions
    cu, cv = cluster[rows], cluster[cols]
    degree = np.bincount(cu, minlength=c)
    intra = np.bincount(cu[cu == cv], minlength=c) / 2
    return float(np.sum(intra / m - (degree / (2.0 * m)) ** 2))


class _LevelGraph:
    """Weighted graph for one aggregation level of the clusterer."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[dict[int, float]] = [dict() for _ in range(n)]
        self.self_loops = [0.0] * n  # intra-weight absorbed by aggregation
        self.strength = [0.0] * n  # degree incl. 2 * self loop
        self.total_weight = 0.0  # sum of edge weights, self loops once

    @classmethod
    def from_graph(cls, g: Graph) -> "_LevelGraph":
        lg = cls(g.n)
        _, targets = g.out_edges(np.arange(g.n))  # row by row, each row ascending
        targets = targets.tolist()
        degrees = g.degrees()
        ends = np.cumsum(degrees).tolist()
        lg.adj = [dict.fromkeys(targets[end - d : end], 1.0)
                  for d, end in zip(degrees.tolist(), ends)]
        lg.strength = degrees.astype(float).tolist()
        lg.total_weight = float(g.edge_count)
        return lg

    def aggregate(self, assignment: list[int], n_clusters: int) -> "_LevelGraph":
        out = _LevelGraph(n_clusters)
        for v in range(self.n):
            cv = assignment[v]
            out.self_loops[cv] += self.self_loops[v]
            for u, w in self.adj[v].items():
                cu = assignment[u]
                if cu == cv:
                    out.self_loops[cv] += w / 2.0  # each intra edge seen twice
                elif cu > cv:
                    out.adj[cv][cu] = out.adj[cv].get(cu, 0.0) + w
                    out.adj[cu][cv] = out.adj[cu].get(cv, 0.0) + w
        for v in range(out.n):
            out.strength[v] = 2.0 * out.self_loops[v] + sum(out.adj[v].values())
        out.total_weight = self.total_weight
        return out


def _local_moves(lg: _LevelGraph, initial: list[int] | None = None) -> list[int]:
    """Move vertices greedily until no single move improves modularity.

    Candidate targets are the clusters of the vertex's neighbors.  On the
    flat graph no other target can win, so the fixpoint is a true local
    maximum under single-vertex moves.  Write a move's gain as
    h(c) - h(c_v) with h(c) = w_c / m - s_v * S_c / (2 m^2), where w_c is
    v's weight into c and S_c is c's strength without v.  A fresh
    singleton has h = 0 and a cluster v shares no edge with has h <= 0.
    Summed over the clusters of v's neighbors, 2 m^2 * h is at least
    2 m s_v - s_v (2 m - s_v) = s_v^2, because v has no self loop and
    those clusters hold at most 2 m - s_v of strength besides v.  So one
    of them, or v's own cluster, beats every target v shares no edge
    with; an isolated vertex gains 0 anywhere.  Ties break toward the
    smallest cluster id.
    """
    if initial is None:
        assignment = list(range(lg.n))
    else:
        assignment, _ = _densify(list(initial))
    cluster_strength = [0.0] * lg.n
    for v in range(lg.n):
        cluster_strength[assignment[v]] += lg.strength[v]
    min_gain = 1e-12
    improved = True
    while improved:
        improved = False
        for v in range(lg.n):
            cv = assignment[v]
            sv = lg.strength[v]
            # weight from v to each adjacent cluster
            to_cluster: dict[int, float] = {}
            for u, w in lg.adj[v].items():
                to_cluster[assignment[u]] = to_cluster.get(assignment[u], 0.0) + w
            w_own = to_cluster.pop(cv, 0.0)
            base_strength = cluster_strength[cv] - sv
            best_gain, best_c = min_gain, -1
            for c, w_c in sorted(to_cluster.items()):
                gain = (w_c - w_own) / lg.total_weight - sv * (
                    cluster_strength[c] - base_strength
                ) / (2.0 * lg.total_weight**2)
                if gain > best_gain:
                    best_gain, best_c = gain, c
            if best_c >= 0:
                cluster_strength[cv] -= sv
                cluster_strength[best_c] += sv
                assignment[v] = best_c
                improved = True
    return assignment


def _densify(assignment: list[int]) -> tuple[list[int], int]:
    """Relabel cluster ids densely, ordered by smallest member vertex."""
    order: dict[int, int] = {}
    for v in range(len(assignment)):
        c = assignment[v]
        if c not in order:
            order[c] = len(order)
    return [order[c] for c in assignment], len(order)


def cluster_by_modularity(graph: Graph) -> Clustering:
    """Deterministic modularity clustering, locally maximal under vertex moves."""
    if graph.n == 0:
        raise GraphError("cannot cluster an empty graph")
    if graph.edge_count == 0:
        return Clustering(tuple(range(graph.n)))
    # multi-level phase: local moves, aggregate, repeat
    mapping = list(range(graph.n))  # original vertex -> current-level node
    flat = lg = _LevelGraph.from_graph(graph)
    while True:
        assignment = _local_moves(lg)
        assignment, n_clusters = _densify(assignment)
        if n_clusters == lg.n:
            break
        mapping = [assignment[node] for node in mapping]
        lg = lg.aggregate(assignment, n_clusters)
    # flat refinement on the original graph until locally maximal
    final = _local_moves(flat, initial=mapping)
    final, _ = _densify(final)
    return Clustering(tuple(final))


def propagation_graph(log, n: int) -> Graph:
    """Undirected graph over the log's transmissions (orientation dropped)."""
    return Graph(n, list({(min(s, r), max(s, r)) for _, s, r in log}))


def main_component_clustering(log, n: int) -> tuple[Clustering, list[int], list]:
    """Cluster the largest connected component of the propagation graph.

    Returns (clustering over the component subgraph, component vertices in
    subgraph order, the log restricted to the component).  Subgraph vertex
    i corresponds to component[i] in the original ids.  A component holds
    both ends of each of its edges, so a record is in it when its sender is.
    """
    comps = [c for c in connected_components(propagation_graph(log, n)) if len(c) > 1]
    if not comps:
        raise AnalysisError("propagation graph has no component with an edge")
    component = max(comps, key=len)
    index = {v: i for i, v in enumerate(component)}
    sub_log = [(it, index[s], index[r]) for it, s, r in log if s in index]
    return cluster_by_modularity(propagation_graph(sub_log, len(component))), component, sub_log


def inter_cluster_fraction(log, clustering: Clustering) -> float:
    """Fraction of log records whose endpoints lie in different clusters."""
    log = list(log)
    if not log:
        return 0.0
    crossing = 0
    for _, sender, receiver in log:
        if clustering.cluster_of(sender) != clustering.cluster_of(receiver):
            crossing += 1
    return crossing / len(log)


def extend_cluster(members, log) -> set[int]:
    """Add receivers of records sent from inside the cluster; applied once."""
    members = set(members)
    extra = {r for _, s, r in log if s in members}
    return members | extra


@dataclass(frozen=True)
class ClusterGraph:
    """Aggregated view: one node per cluster, directed transmission edges."""

    sizes: dict[int, int]
    edge_weights: dict[tuple[int, int], int]

    def to_dot(self) -> str:
        lines = ["digraph clusters {"]
        for cid in sorted(self.sizes):
            lines.append(f'  c{cid} [size={self.sizes[cid]}];')
        for (a, b) in sorted(self.edge_weights):
            lines.append(f"  c{a} -> c{b} [weight={self.edge_weights[(a, b)]}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def cluster_graph(clustering: Clustering, log) -> ClusterGraph:
    """Aggregate a transmission log over a clustering.

    Node sizes are cluster member counts; a directed edge (a, b) counts the
    log's transmissions from cluster a to a different cluster b.
    """
    sizes = {c: 0 for c in range(clustering.n_clusters)}
    for c in clustering.assignment:
        sizes[c] += 1
    edge_weights: dict[tuple[int, int], int] = {}
    for _, sender, receiver in log:
        key = (clustering.cluster_of(sender), clustering.cluster_of(receiver))
        if key[0] != key[1]:
            edge_weights[key] = edge_weights.get(key, 0) + 1
    return ClusterGraph(sizes=sizes, edge_weights=edge_weights)


@dataclass(frozen=True)
class WaveDistribution:
    """Per-wave category proportions of one schema field.

    Row labels are "All", "Egos", then "Alters 1".."Alters m".  Rows with
    no members hold EMPTY_ROW placeholders; a real proportion is >= 0.
    """

    field_id: str
    categories: tuple[str, ...]
    row_labels: tuple[str, ...]
    proportions: np.ndarray  # shape (rows, categories)

    @property
    def empty_rows(self) -> tuple[bool, ...]:
        """Whether each row has no members."""
        return tuple(bool(np.all(row == EMPTY_ROW)) for row in self.proportions)

    def to_csv(self, path) -> None:
        rows = zip(self.row_labels, self.proportions.tolist())
        write_csv(path, ["wave", *self.categories], ([label, *row] for label, row in rows))


def _field_categories(field) -> tuple[list[str], list[int]]:
    if field.kind == CATEGORICAL:
        return list(field.categories), list(range(len(field.categories)))
    if field.kind == BINARY:
        return ["0", "1"], [0, 1]
    lo, hi = field.value_range
    return [str(v) for v in range(lo, hi + 1)], list(range(lo, hi + 1))


def wave_distribution(result, table: VertexTable, field_id: str) -> WaveDistribution:
    """Distribution of one field for the population, seeds, and each wave."""
    field = table.schema.field(field_id)
    names, values = _field_categories(field)
    column = table.columns[field_id]
    m = result.iterations
    groups: list[tuple[str, np.ndarray]] = [
        ("All", np.arange(len(table))),
        ("Egos", np.asarray(result.seeds, dtype=int)),
    ]
    for it in range(1, m + 1):
        members = np.array(
            sorted(v for v, w in result.wave.items() if w == it), dtype=int
        )
        groups.append((f"Alters {it}", members))
    rows = np.zeros((len(groups), len(values)))
    for i, (_, members) in enumerate(groups):
        if len(members) == 0:
            rows[i, :] = EMPTY_ROW
            continue
        counts = np.array(
            [np.count_nonzero(column[members] == v) for v in values], dtype=float
        )
        rows[i] = counts / len(members)
    return WaveDistribution(
        field_id=field_id,
        categories=tuple(names),
        row_labels=tuple(label for label, _ in groups),
        proportions=rows,
    )
