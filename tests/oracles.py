"""Independent brute-force oracles used to pin expected test values.

Everything here deliberately avoids the library's own algorithms: graph
invariants are re-checked from a Graph's stored arrays, adjacency and
degrees come from an edge set built once from its edges(), the constructor's
CSR build, Erdős–Rényi generation and small-world rewiring are kept as
first written, with whole-array temporaries and per-edge draws, metrics are
recomputed by exhaustive enumeration, diffusion by plain BFS layers, a
step's pairs by the forward-only scan and their attribution by a loop over
them, population sampling by its one-expression draw, the SVM dual by
projected gradient descent with Dykstra's alternating projection onto the
feasible set, record encoding one record at a time, and training-set
completion over lists of record dicts.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from netspread import graph as graph_module
from netspread.analysis import Clustering
from netspread.graph import (
    ERDOS_RENYI,
    REWIRE_RETRIES,
    Graph,
    GraphError,
    GraphParams,
)
from netspread.population import VertexTable, _factor


def check_simple(g) -> None:
    """Re-verify, from a Graph's stored arrays, the rules its constructor checks."""
    n, ptr, idx = g.n, g._indptr, g._indices
    counts = np.diff(ptr)
    if len(ptr) != n + 1 or ptr[0] != 0 or ptr[-1] != len(idx) or np.any(counts < 0):
        raise GraphError("row offsets do not match adjacency")
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise GraphError(f"neighbour outside [0, {n})")
    rows = np.repeat(np.arange(n), counts)
    if np.any(rows == idx):
        raise GraphError(f"self edge at {rows[np.argmax(rows == idx)]}")
    idx = idx.astype(np.int64)  # int32 ids times n would wrap
    entries = rows * n + idx
    if np.any(entries[1:] <= entries[:-1]):
        raise GraphError("adjacency rows must strictly increase")
    if not np.array_equal(np.sort(idx * n + rows), entries):
        raise GraphError("asymmetric adjacency")


def reference_csr(n: int, edges=()) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) as Graph's constructor first built them: the sorted
    concatenation of both orientations' int64 keys, split by divmod, with
    the row offsets from bincount and cumsum; the ids are then stored as
    int32 when n * n < 2**31, as the keys are.  Raises the constructor's errors with its messages, so the
    in-place build can be compared on bad input too.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    bad = (e < 0) | (e >= n)
    if bad.any():
        raise GraphError(f"vertex {e.flat[np.argmax(bad)]} outside [0, {n})")
    loops = e[:, 0] == e[:, 1]
    if loops.any():
        u = e[np.argmax(loops), 0]
        raise GraphError(f"self edge ({u}, {u}) not allowed")
    lo, hi = e.min(axis=1), e.max(axis=1)
    entries = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
    if np.any(entries[1:] == entries[:-1]):
        _, first = np.unique(lo * n + hi, return_index=True)
        u, v = e[np.setdiff1d(np.arange(len(e)), first)[0]]
        raise GraphError(f"edge ({u}, {v}) already present")
    rows, indices = np.divmod(entries, max(n, 1))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, indices.astype(np.int32 if n * n < 2**31 else np.int64)


def reference_gen_erdos_renyi(n: int, edge_prob: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """gen_erdos_renyi as first written, returning reference_csr of its edges:
    each block's running sum as a fresh array, the blocks kept to the end,
    and the edge columns decoded by whole-array expressions and stacked.
    Reads graph.ER_BLOCK when called, so a patched block size applies.
    """
    GraphParams(ERDOS_RENYI, n, edge_prob=edge_prob)
    pairs = n * (n - 1) // 2
    if pairs == 0 or edge_prob == 0.0:
        return reference_csr(n)
    blocks = []
    last = -1
    while last < pairs:
        gaps = np.minimum(rng.geometric(edge_prob, size=graph_module.ER_BLOCK), pairs + 1)
        if gaps.min() < 1:
            raise GraphError("edge skip gap must be positive")
        idx = last + np.cumsum(gaps)
        last = int(idx[-1])
        blocks.append(idx[: np.searchsorted(idx, pairs)])
    idx = np.concatenate(blocks)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    us = np.searchsorted(row_start, idx, side="right") - 1
    return reference_csr(n, np.column_stack([us, idx - row_start[us] + us + 1]))


def reference_gen_small_world(n: int, neighbors: int, rewire_prob: float, rng) -> Graph:
    """Small-world rewiring as first written: one `rng.random()` per lattice
    edge and one `rng.integers(n)` per replacement draw, from Python.

    gen_small_world reads the same stream in bulk; this loop pins that the
    graphs and the generator's state afterwards are the same.
    """
    k = neighbors
    near = np.repeat(np.arange(n, dtype=np.int64), k)
    far = (near + np.tile(np.arange(1, k + 1), n)) % n  # rewired in place
    present = set((np.minimum(near, far) * n + np.maximum(near, far)).tolist())
    for i in range(k * n):
        if rng.random() >= rewire_prob:
            continue
        u, v = int(near[i]), int(far[i])  # edge i is still the lattice edge
        for _ in range(REWIRE_RETRIES):
            w = int(rng.integers(n))
            key = min(u, w) * n + max(u, w)
            if w != u and key not in present:
                present.remove(min(u, v) * n + max(u, v))
                present.add(key)
                far[i] = w
                break
    return Graph(n, np.column_stack([near, far]))


def reference_step_pairs(g, informed, frontier) -> tuple[np.ndarray, np.ndarray]:
    """The (senders, receivers) diffusion_step first handed to the model:
    every edge out of the sorted frontier, then those into informed
    vertices dropped, whatever the two sides' degree sums."""
    senders, receivers = g.out_edges(sorted(frontier))
    known = np.zeros(g.n, dtype=bool)
    known[list(informed)] = True
    fresh = ~known[receivers]
    return senders[fresh], receivers[fresh]


def reference_diffusion_step(g, table, informed, model, iteration, frontier):
    """diffusion_step by a plain loop over the forward-only scan's pairs:
    each receiver keeps its smallest positive sender."""
    senders, receivers = reference_step_pairs(g, informed, frontier)
    if not len(senders):
        return set(), []
    labels = model.predict_pairs(table, senders, receivers)
    source: dict[int, int] = {}
    for s, r, label in zip(senders.tolist(), receivers.tolist(), np.asarray(labels).tolist()):
        if label > 0 and (r not in source or s < source[r]):
            source[r] = s
    return set(source), [(iteration, source[r], r) for r in sorted(source)]


def reference_sample_population(stats, n: int, rng):
    """sample_population as first written: one expression holding z,
    z @ L.T and their mean-shifted sum at once."""
    L = _factor(stats.covariance)
    z = rng.standard_normal((n, stats.schema.encoded_dim))
    return reference_decode(stats.mean + z @ L.T, stats.schema)


def reference_decode(samples: np.ndarray, schema) -> VertexTable:
    """Each encoded-space row as its nearest valid record: argmax over each
    one-hot block, a binary 1 at >= 0.5, an ordinal floor(x + 0.5) clamped
    to its range."""
    columns, pos = {}, 0
    for f in schema.fields:
        if f.kind == "categorical":
            columns[f.id] = samples[:, pos : pos + len(f.categories)].argmax(axis=1)
            pos += len(f.categories)
            continue
        x = samples[:, pos]
        if f.kind == "binary":
            columns[f.id] = (x >= 0.5).astype(int)
        else:
            lo, hi = f.value_range
            columns[f.id] = np.clip(np.floor(x + 0.5), lo, hi).astype(int)
        pos += 1
    return VertexTable(schema, columns)


def edge_set(g) -> set[tuple[int, int]]:
    """Every edge of g in both orientations, from one pass over g.edges()."""
    pairs = set(g.edges())
    return pairs | {(v, u) for u, v in pairs}


def transitivity_all_triples(g) -> float:
    """Enumerate every 3-subset of vertices; count paths and triangles."""
    adjacent = edge_set(g)
    connected = 0
    closed = 0
    for a, b, c in itertools.combinations(range(g.n), 3):
        edges = ((a, b) in adjacent, (b, c) in adjacent, (a, c) in adjacent)
        k = sum(edges)
        if k == 3:
            closed += 3  # three closed triples, one per center
            connected += 3
        elif k == 2:
            connected += 1
    if connected == 0:
        raise ValueError("no connected triples")
    return closed / connected


def transitivity_centered(g) -> float:
    """Enumerate connected triples center by center; check closure."""
    adjacent = edge_set(g)
    neighbors = [[] for _ in range(g.n)]
    for u, v in sorted(adjacent):
        neighbors[u].append(v)
    connected = 0
    closed = 0
    for neigh in neighbors:
        for a, b in itertools.combinations(neigh, 2):
            connected += 1
            if (a, b) in adjacent:
                closed += 1
    if connected == 0:
        raise ValueError("no connected triples")
    return closed / connected


def pairwise_distances_floyd(g) -> np.ndarray:
    """All-pairs shortest paths by Floyd-Warshall (small graphs only)."""
    dist = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges():
        dist[u, v] = dist[v, u] = 1.0
    for k in range(g.n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def mean_geodesic_floyd(g) -> float:
    """Average finite distance over unordered pairs in the largest component."""
    dist = pairwise_distances_floyd(g)
    # largest component = row with the most finite entries
    finite_counts = np.isfinite(dist).sum(axis=1)
    root = int(np.argmax(finite_counts))
    members = np.nonzero(np.isfinite(dist[root]))[0]
    if len(members) < 2:
        raise ValueError("largest component too small")
    sub = dist[np.ix_(members, members)]
    total = sub.sum() / 2.0
    pairs = len(members) * (len(members) - 1) / 2
    return float(total / pairs)


def bfs_layers(g, sources) -> dict[int, int]:
    """Multi-source BFS: vertex -> hop distance from the nearest source."""
    layer = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in layer:
                layer[v] = layer[u] + 1
                queue.append(v)
    return layer


def covariance_two_pass(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Textbook two-pass sample mean and covariance (divisor n - 1)."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mean = np.array([X[:, j].sum() / n for j in range(d)])
    cov = np.zeros((d, d))
    for i in range(n):
        diff = X[i] - mean
        cov += np.outer(diff, diff)
    return mean, cov / (n - 1)


def _kernel(kind: str, sigma, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if kind == "linear":
        return A @ B.T
    sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / (2.0 * sigma**2))


def svm_dual_reference(
    X: np.ndarray,
    y: np.ndarray,
    C_neg: float,
    C_pos: float,
    kind: str,
    sigma=None,
    iterations: int = 300_000,
):
    """Projected-gradient solver for the weighted SVM dual (tiny problems).

    Minimizes 0.5 a'Qa - sum(a) over the box [0, C_i] intersected with the
    hyperplane y'a = 0.  The projection onto the feasible set is exact:
    clip(x - lam * y) with the multiplier lam found by bisection, since
    y' clip(x - lam y) is monotone non-increasing in lam.
    Returns (alpha, objective, bias, decision values at X).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    K = _kernel(kind, sigma, X, X)
    Q = np.outer(y, y) * K
    upper = np.where(y > 0, C_pos, C_neg)
    step = 1.0 / (np.linalg.norm(Q, 2) + 1.0)

    def project(x: np.ndarray) -> np.ndarray:
        span = float(np.abs(x).max() + upper.max() + 1.0)
        lo, hi = -span, span
        for _ in range(200):
            lam = (lo + hi) / 2.0
            if y @ np.clip(x - lam * y, 0.0, upper) > 0.0:
                lo = lam
            else:
                hi = lam
        return np.clip(x - (lo + hi) / 2.0 * y, 0.0, upper)

    alpha = project(np.zeros(len(y)))
    for _ in range(iterations):
        new = project(alpha - step * (Q @ alpha - 1.0))
        if np.max(np.abs(new - alpha)) < 1e-13:
            alpha = new
            break
        alpha = new
    objective = 0.5 * alpha @ Q @ alpha - alpha.sum()
    margins = K @ (alpha * y)
    free = (alpha > 1e-6) & (alpha < upper - 1e-6)
    if np.any(free):
        bias = float(np.mean(y[free] - margins[free]))
    else:
        bias = float(np.median(y - margins))
    return alpha, float(objective), bias, margins + bias


def dual_objective(X: np.ndarray, y: np.ndarray, alpha: np.ndarray, spec) -> float:
    """0.5 a'Qa - sum(a) for a full alpha vector under a KernelSpec (small problems)."""
    K = _kernel(spec.kind, spec.sigma, X, X)
    Q = (y[:, None] * y[None, :]) * K
    return float(0.5 * alpha @ Q @ alpha - alpha.sum())


def all_partitions(items: list):
    """Every set partition of `items` (Bell-number many; keep them small)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        yield partition + [[first]]


def clustering_from_groups(n: int, groups) -> Clustering:
    """The Clustering that puts the vertices of groups[c] in cluster c."""
    assignment = [-1] * n
    for cid, group in enumerate(groups):
        for v in group:
            assignment[v] = cid
    if any(c < 0 for c in assignment):
        raise ValueError("groups do not cover all vertices")
    return Clustering(tuple(assignment))


def modularity_pairwise(g, assignment) -> float:
    """Q via the pairwise definition (1/2m) sum_ij (A_ij - d_i d_j / 2m) delta."""
    adjacent = edge_set(g)
    degree = [0] * g.n
    for u, _ in adjacent:
        degree[u] += 1
    two_m = float(len(adjacent))
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if assignment[i] != assignment[j]:
                continue
            a_ij = 1.0 if (i, j) in adjacent else 0.0
            total += a_ij - degree[i] * degree[j] / two_m
    return total / two_m


def encode(record: dict, schema) -> np.ndarray:
    """One record: one-hot expand categoricals, pass ordinals and binaries through."""
    vec = np.zeros(schema.encoded_dim)
    for f, pos in schema.offsets():
        value = record[f.id]
        f.validate(value)
        if f.kind == "categorical":
            vec[pos + int(value)] = 1.0
        else:
            vec[pos] = float(value)
    return vec


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _draw_records(source: list, count: int, rng):
    if count == 0:
        return []
    idx = rng.choice(len(source), size=count, replace=len(source) < count)
    return [source[int(i)] for i in idx]


def training_pairs_dicts(egos, listed_alters, pool, criteria, contact_fields, h, rng,
                         match_fields, schema):
    """(X, y) of the labeled training pairs, built record dict by record dict.

    Egos and pool are lists of record dicts.  A person's homophiles are the
    other egos equal to it on every criteria field (excluded by identity);
    a reported receiver takes its unobserved fields from a pool donor that
    matches it on the match fields, relaxed from the right until one does.
    """
    pairs = []
    for ego, reported in zip(egos, listed_alters):
        for partial in reported:
            receiver = dict(partial)
            if not all(f in partial for f in schema.field_ids):
                for level in range(len(match_fields), 0, -1):
                    candidates = [d for d in pool
                                  if all(d[f] == partial[f] for f in match_fields[:level])]
                    if candidates:
                        donor = candidates[int(rng.integers(len(candidates)))]
                        receiver = {**donor, **partial}
                        break
                else:
                    raise ValueError("no pool member matches the partial record")
            pairs.append((ego, receiver, 1))
        count = _round_half_up(sum(float(ego[f]) for f in contact_fields))
        if count == 0:
            continue
        similar = [m for m in egos if m is not ego and all(m[f] == ego[f] for f in criteria)]
        others = [m for m in egos if m is not ego and not all(m[f] == ego[f] for f in criteria)]
        n_similar = _round_half_up(h * count)
        if not similar:
            n_similar = 0
        elif not others:
            n_similar = count
        drawn = _draw_records(similar, n_similar, rng)
        drawn += _draw_records(others, count - n_similar, rng)
        pairs += [(ego, contact, -1) for contact in drawn]
    X = np.array([np.concatenate([encode(s, schema), encode(r, schema)]) for s, r, _ in pairs])
    y = np.array([label for _, _, label in pairs], dtype=int)
    return X.reshape(len(pairs), 2 * schema.encoded_dim), y


def reference_train_svm(X, y, params, tol=None):
    """The SMO loop as first written: every step rebuilds the up/down masks,
    gathers their members with np.nonzero and allocates the gradient update.

    train_svm keeps the same iterate sequence with incremental bookkeeping;
    this copy pins that it does, bit for bit.
    """
    from netspread import classifier
    from netspread.classifier import ClassifierError, SvmModel, _RowCache

    def _violating_sets(y, alpha, C):
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        down = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        return up, down

    def _snap(value, limit):
        eps = 1e-10 * (1.0 + limit)
        if value < eps:
            return 0.0
        if value > limit - eps:
            return limit
        return value

    tol = classifier.KKT_TOL if tol is None else tol
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if X.shape[0] != n:
        raise ClassifierError("X and y lengths differ")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ClassifierError("training data must contain both classes")

    C = np.where(y > 0, params.C * params.weight, params.C)
    cache = _RowCache(
        params.kernel, X,
        max(64, min(n, int(classifier.KERNEL_ROWS_BYTES / (8 * max(n, 1))))),
    )
    max_iter = max(100_000, 30 * n)

    alpha = np.zeros(n)
    grad = -np.ones(n)
    violation = np.inf
    converged = False
    iterations = 0

    while True:
        vals = -y * grad
        up, down = _violating_sets(y, alpha, C)
        up_idx = np.nonzero(up)[0]
        down_idx = np.nonzero(down)[0]
        if len(up_idx) == 0 or len(down_idx) == 0:
            converged = True
            violation = 0.0
            break
        i = int(up_idx[np.argmax(vals[up_idx])])
        j = int(down_idx[np.argmin(vals[down_idx])])
        violation = float(vals[i] - vals[j])
        if violation <= tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1

        Ki = cache.row(i)
        Kj = cache.row(j)
        eta = Ki[i] + Kj[j] - 2.0 * Ki[j]
        if eta < 1e-12:
            eta = 1e-12
        Fi = y[i] * grad[i]
        Fj = y[j] * grad[j]
        a_i, a_j = alpha[i], alpha[j]
        new_j = a_j + y[j] * (Fi - Fj) / eta
        if y[i] != y[j]:
            low = max(0.0, a_j - a_i)
            high = min(C[j], C[i] + a_j - a_i)
        else:
            low = max(0.0, a_i + a_j - C[i])
            high = min(C[j], a_i + a_j)
        new_j = min(high, max(low, new_j))
        delta_j = new_j - a_j
        if abs(delta_j) < 1e-14:
            break
        new_i = _snap(a_i - y[i] * y[j] * delta_j, C[i])
        new_j = _snap(new_j, C[j])
        delta_i = new_i - a_i
        delta_j = new_j - a_j
        alpha[i] = new_i
        alpha[j] = new_j
        grad += (y * Ki) * (y[i] * delta_i) + (y * Kj) * (y[j] * delta_j)

    F = y * grad
    free = (alpha > classifier.SUPPORT_EPS) & (alpha < C - classifier.SUPPORT_EPS)
    if np.any(free):
        bias = float(-F[free].mean())
    else:
        vals = -y * grad
        up, down = _violating_sets(y, alpha, C)
        candidates = []
        if np.any(up):
            candidates.append(float(np.max(vals[up])))
        if np.any(down):
            candidates.append(float(np.min(vals[down])))
        bias = sum(candidates) / len(candidates) if candidates else 0.0

    keep = alpha > classifier.SUPPORT_EPS
    return SvmModel(
        kernel=params.kernel,
        support_vectors=X[keep],
        coefs=(alpha * y)[keep],
        bias=bias,
        converged=converged,
        kkt_violation=violation,
        iterations=iterations,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        params=params,
    )
