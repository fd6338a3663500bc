"""Kernel SVM for pairwise transmission prediction.

The soft-margin dual

    min_a  0.5 * a' Q a - sum(a)   s.t.  0 <= a_i <= C_i,  sum(a_i y_i) = 0,

with Q_ij = y_i y_j K(x_i, x_j), is solved by sequential minimal
optimization using maximal-KKT-violation pair selection.  The negative
class uses penalty C and the (minority) positive class C * weight, so
errors on positives cost more.  Kernel rows are memoized in a bounded LRU
cache and training stops early if the kernel-evaluation budget runs out,
returning the best iterate with ``converged=False``.

Input vectors are expected standardized; ``fit_pair_classifier`` takes
pair rows that are already encoded (``completion.PairSet.matrix``),
standardizes and trains on them, and attaches the fitted Standardizer so
the model can score unstandardized pairs.
"""

from __future__ import annotations

import bisect
import json
import logging
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .population import FeatureSchema, Standardizer

logger = logging.getLogger(__name__)

LINEAR = "linear"
RBF = "rbf"

KKT_TOL = 1e-3
MAX_KERNEL_EVALS = 10_000_000
SUPPORT_EPS = 1e-8
# Vertex rows per kernel_matrix call in predict_pairs.  It fixes the GEMM row
# blocking, so changing it changes the last bits of decision values.
KERNEL_BLOCK = 1024
# Gathered sender + receiver row bytes per row-wise dot product in
# predict_pairs, sized to stay in L2.  Each pair is reduced on its own, so any
# value gives the same bits.
PAIR_CHUNK_BYTES = 1 << 19
# Kernel-row bytes held at once: the SMO row cache, and the sender plus
# receiver half-kernel rows of one predict_pairs block.
KERNEL_ROWS_BYTES = 256_000_000


class ClassifierError(ValueError):
    pass


class DimensionMismatchError(ClassifierError):
    pass


class SingleClassError(ClassifierError):
    pass


class SchemaMismatchError(ClassifierError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR, RBF):
            raise ClassifierError(f"unknown kernel {self.kind!r}")
        if self.kind == RBF:
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ClassifierError("rbf kernel needs finite sigma > 0")


def kernel_matrix(
    spec: KernelSpec, A: np.ndarray, B: np.ndarray, b_sq: np.ndarray | None = None
) -> np.ndarray:
    """K[i, j] = kernel(A[i], B[j]), vectorized over both arguments.

    `b_sq` is sum(B**2, axis=1) when the caller already has it.  The RBF
    block is built in place from |a|^2 + |b|^2 - 2 a.b with the same
    floating-point operations in the same order as the textbook expression,
    so it is bit-identical to it.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(f"dimensions {A.shape[1]} and {B.shape[1]} differ")
    if spec.kind == LINEAR:
        return A @ B.T
    if b_sq is None:
        b_sq = np.sum(B**2, axis=1)
    G = A @ B.T
    G *= 2.0
    K = np.sum(A**2, axis=1)[:, None] + b_sq[None, :]
    K -= G
    np.clip(K, 0.0, None, out=K)
    K /= -(2.0 * spec.sigma**2)
    np.exp(K, out=K)
    return K


@dataclass(frozen=True)
class SvmParams:
    C: float
    weight: float
    kernel: KernelSpec

    def __post_init__(self):
        if self.C <= 0:
            raise ClassifierError("C must be positive")
        if self.weight <= 0:
            raise ClassifierError("positive-class weight must be positive")

    def sort_key(self):
        # deterministic tie-breaking: smaller C, then sigma, then weight
        return (self.C, self.kernel.sigma or 0.0, self.weight)


class _RowCache:
    """LRU cache of kernel rows against the training matrix.

    The squared row norms of X are summed once; a miss is one 1 x n
    kernel_matrix block.
    """

    def __init__(self, spec: KernelSpec, X: np.ndarray, capacity: int):
        self.spec = spec
        self.X = X
        self.sq = np.sum(X**2, axis=1)
        self.capacity = max(2, capacity)
        self.rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def evals(self) -> int:
        """Kernel entries computed so far."""
        return self.misses * self.X.shape[0]

    def row(self, i: int) -> np.ndarray:
        cached = self.rows.get(i)
        if cached is not None:
            self.rows.move_to_end(i)
            self.hits += 1
            return cached
        self.misses += 1
        row = kernel_matrix(self.spec, self.X[i : i + 1], self.X, b_sq=self.sq)[0]
        self.rows[i] = row
        if len(self.rows) > self.capacity:
            self.rows.popitem(last=False)
        return row


@dataclass
class SvmModel:
    """Trained decision function f(x) = sum_i coef_i K(sv_i, x) + bias.

    support_vectors live in the standardized training space; coef_i is
    alpha_i * y_i.  When a Standardizer (and schema) is attached, raw
    encoded pair rows and index pairs into a vertex table can be scored
    directly.  converged, kkt_violation, iterations, cache_hits and
    cache_misses describe the fit and are not saved.
    """

    kernel: KernelSpec
    support_vectors: np.ndarray
    coefs: np.ndarray
    bias: float
    standardizer: Standardizer | None = None
    schema: FeatureSchema | None = None
    alphas: np.ndarray | None = None
    support_labels: np.ndarray | None = None
    converged: bool = True
    kkt_violation: float = 0.0
    iterations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    params: SvmParams | None = None
    training_size: int | None = None

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Decision values for encoded pair rows (standardized if attached)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        if self.support_vectors.shape[0] == 0:
            return np.full(X.shape[0], self.bias)
        K = kernel_matrix(self.kernel, X, self.support_vectors)
        return K @ self.coefs + self.bias

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        """+1 where the decision value is strictly positive, else -1."""
        values = self.decision_values(X)
        return np.where(values > 0.0, 1, -1)

    def predict_pairs(self, table, senders, receivers) -> np.ndarray:
        """`diffusion.TransmissionModel`: +1 where `pair_decision_values` is
        strictly positive, else -1."""
        values = self.pair_decision_values(table, senders, receivers)
        return np.where(values > 0.0, 1, -1)

    def pair_decision_values(self, table, senders, receivers) -> np.ndarray:
        """Decision values of the [sender, receiver] rows of index pairs.

        A pair row is the concatenation of two encoded records and the
        standardizer is column-wise, so the decision value factors at the
        record width d.  For RBF, K(x, sv) = k(s, sv[:d]) * k(r, sv[d:]):
        half-kernel rows S (times the coefs) and R are computed once per
        unique sender and receiver, and a pair's value is the dot product of
        its two rows, taken PAIR_CHUNK_BYTES of gathered rows at a time.  A
        linear model collapses to the primal weight vector, one scalar per
        vertex half.  Memory is bounded: when the unique senders plus
        receivers need more than KERNEL_ROWS_BYTES of rows, the pairs,
        ordered by sender, are scored in blocks whose S + R fit in it.  No
        pairs x SVs array is built.
        """
        if self.schema is not None and table.schema.field_ids != self.schema.field_ids:
            raise SchemaMismatchError("vertex table schema differs from model schema")
        senders = np.asarray(senders, dtype=int)
        receivers = np.asarray(receivers, dtype=int)
        if self.support_vectors.shape[0] == 0:
            return np.full(len(senders), self.bias)
        enc = table.encoded()
        d = enc.shape[1]
        if self.support_vectors.shape[1] != 2 * d:
            raise DimensionMismatchError(
                f"model dimension {self.support_vectors.shape[1]} is not twice "
                f"the record width {d}"
            )
        send_ids, send_of = np.unique(senders, return_inverse=True)
        recv_ids, recv_of = np.unique(receivers, return_inverse=True)
        Zs, Zr = enc[send_ids], enc[recv_ids]
        if self.standardizer is not None:
            Zs = self.standardizer.columns(slice(0, d)).transform(Zs)
            Zr = self.standardizer.columns(slice(d, 2 * d)).transform(Zr)
        if self.kernel.kind == LINEAR:
            w = self.coefs @ self.support_vectors
            return (Zs @ w[:d])[send_of] + (Zr @ w[d:])[recv_of] + self.bias
        max_rows = max(2, KERNEL_ROWS_BYTES // (8 * len(self.coefs)))
        if len(send_ids) + len(recv_ids) <= max_rows:
            return self._rbf_pair_values(Zs, Zr, send_of, recv_of) + self.bias
        order = np.argsort(send_of, kind="stable")
        values = np.empty(len(senders))
        for block in _sender_blocks(send_of[order], recv_of[order], max_rows):
            pairs = order[block]
            s_ids, s_of = np.unique(send_of[pairs], return_inverse=True)
            r_ids, r_of = np.unique(recv_of[pairs], return_inverse=True)
            values[pairs] = self._rbf_pair_values(Zs[s_ids], Zr[r_ids], s_of, r_of)
        return values + self.bias

    def _rbf_pair_values(self, Zs, Zr, send_of, recv_of) -> np.ndarray:
        """sum_k coef_k k(Zs[send_of], sv_k[:d]) k(Zr[recv_of], sv_k[d:]), no bias."""
        d = Zs.shape[1]
        S = self._half_kernel(Zs, slice(0, d))
        S *= self.coefs
        R = self._half_kernel(Zr, slice(d, 2 * d))
        values = np.empty(len(send_of))
        step = max(1, PAIR_CHUNK_BYTES // (16 * S.shape[1]))
        for start in range(0, len(send_of), step):
            chunk = slice(start, start + step)
            values[chunk] = np.einsum("ij,ij->i", S[send_of[chunk]], R[recv_of[chunk]])
        return values

    def _half_kernel(self, Z: np.ndarray, cols: slice) -> np.ndarray:
        """kernel(Z[i], sv[cols]) for every row, KERNEL_BLOCK rows at a time."""
        sv = np.ascontiguousarray(self.support_vectors[:, cols])
        out = np.empty((Z.shape[0], sv.shape[0]))
        for start in range(0, Z.shape[0], KERNEL_BLOCK):
            out[start : start + KERNEL_BLOCK] = kernel_matrix(
                self.kernel, Z[start : start + KERNEL_BLOCK], sv
            )
        return out

    def save(self, path) -> None:
        doc = {
            "kernel": self.kernel.kind,
            "bias": self.bias,
            "support": [
                {"coef": float(c), "vector": v.tolist()}
                for c, v in zip(self.coefs, self.support_vectors)
            ],
            "standardizer": self.standardizer.to_dict() if self.standardizer else None,
        }
        if self.kernel.kind == RBF:
            doc["sigma"] = self.kernel.sigma
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path, schema: FeatureSchema | None = None) -> "SvmModel":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        kernel = KernelSpec(doc["kernel"], doc.get("sigma"))
        support = doc["support"]
        vectors = np.array([s["vector"] for s in support], dtype=float)
        coefs = np.array([s["coef"] for s in support], dtype=float)
        if vectors.size == 0:
            vectors = vectors.reshape(0, 0)
        std = doc.get("standardizer")
        return cls(
            kernel=kernel,
            support_vectors=vectors,
            coefs=coefs,
            bias=float(doc["bias"]),
            standardizer=Standardizer.from_dict(std) if std else None,
            schema=schema,
        )


class ConstantModel:
    """Stub predictor returning one fixed label; used for oracle testing."""

    def __init__(self, label: int):
        if label not in (1, -1):
            raise ClassifierError("constant label must be +1 or -1")
        self.label = label

    def predict_pairs(self, table, senders, receivers) -> np.ndarray:
        """`diffusion.TransmissionModel`: the fixed label for every pair."""
        return np.full(len(np.asarray(senders)), self.label, dtype=int)


def _sender_blocks(send_of: np.ndarray, recv_of: np.ndarray, max_rows: int):
    """Slices of pairs sorted by sender, each with at most max_rows unique
    senders plus unique receivers.

    Blocks are taken greedily and end at a sender boundary, unless one
    sender's pairs alone need more rows; then that sender's run is cut too.
    max_rows must be at least 2.
    """
    ends = np.append(np.flatnonzero(np.diff(send_of)) + 1, len(send_of))
    start = 0

    def rows(stop) -> int:
        return len(np.unique(send_of[start:stop])) + len(np.unique(recv_of[start:stop]))

    while start < len(send_of):
        # a block holds at most max_rows senders, so at most max_rows runs
        first = np.searchsorted(ends, start, side="right")
        run_ends = ends[first : first + max_rows]
        fit = bisect.bisect_right(run_ends, max_rows, key=rows)
        if fit:
            stop = int(run_ends[fit - 1])
        else:
            stop = start + bisect.bisect_right(
                range(start + 1, int(run_ends[0])), max_rows, key=rows
            )
        yield slice(start, stop)
        start = stop


def _violating_sets(y: np.ndarray, alpha: np.ndarray, C: np.ndarray):
    """Masks of the SMO "up" set (alpha_i y_i can grow) and "down" set (can shrink)."""
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    down = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    return up, down


def _snap(value: float, limit: float) -> float:
    """value, set to the bound 0 or limit when within float dust of it, so
    up/down set membership is not decided by rounding noise."""
    eps = 1e-10 * (1.0 + limit)
    if value < eps:
        return 0.0
    if value > limit - eps:
        return limit
    return value


def train_svm(
    X: np.ndarray,
    y: np.ndarray,
    params: SvmParams,
    tol: float = KKT_TOL,
    max_kernel_evals: int = MAX_KERNEL_EVALS,
) -> SvmModel:
    """Solve the weighted soft-margin dual on standardized vectors via SMO.

    Each step selects the maximal violating pair (i from the "up" set with
    the largest -y grad, j from the "down" set with the smallest) and
    solves the two-variable subproblem analytically.  Convergence is
    m(alpha) - M(alpha) <= tol.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if X.shape[0] != n:
        raise DimensionMismatchError("X and y lengths differ")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClassError("training data must contain both classes")

    C = np.where(y > 0, params.C * params.weight, params.C)
    # keep the cache near KERNEL_ROWS_BYTES worth of rows, at least 64 rows
    cache = _RowCache(
        params.kernel, X, max(64, min(n, int(KERNEL_ROWS_BYTES / (8 * max(n, 1)))))
    )
    max_iter = max(100_000, 30 * n)

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
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
        if cache.evals >= max_kernel_evals:
            logger.warning(
                "SMO stopped at kernel-eval budget %d with violation %.3g",
                max_kernel_evals, violation,
            )
            break
        if iterations >= max_iter:
            logger.warning(
                "SMO stopped at iteration cap %d with violation %.3g",
                max_iter, violation,
            )
            break
        iterations += 1

        Ki = cache.row(i)
        Kj = cache.row(j)
        eta = Ki[i] + Kj[j] - 2.0 * Ki[j]
        if eta < 1e-12:
            eta = 1e-12
        # F_k = y_k * grad_k is the decision residual without bias
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
            # numerically stuck pair; treat as converged at this violation
            logger.debug("SMO made no progress at violation %.3g", violation)
            break
        new_i = _snap(a_i - y[i] * y[j] * delta_j, C[i])
        new_j = _snap(new_j, C[j])
        delta_i = new_i - a_i
        delta_j = new_j - a_j
        alpha[i] = new_i
        alpha[j] = new_j
        grad += (y * Ki) * (y[i] * delta_i) + (y * Kj) * (y[j] * delta_j)

    # bias from free support vectors, else midpoint of the violating bounds
    F = y * grad
    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
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

    keep = alpha > SUPPORT_EPS
    model = SvmModel(
        kernel=params.kernel,
        support_vectors=X[keep],
        coefs=(alpha * y)[keep],
        bias=bias,
        alphas=alpha[keep],
        support_labels=y[keep].astype(int),
        converged=converged,
        kkt_violation=violation,
        iterations=iterations,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        params=params,
    )
    if not converged:
        logger.warning("SMO returned a non-converged model (violation %.3g)", violation)
    return model


def dual_objective(
    X: np.ndarray, y: np.ndarray, alpha: np.ndarray, spec: KernelSpec
) -> float:
    """0.5 a'Qa - sum(a) for a full alpha vector (small problems only)."""
    K = kernel_matrix(spec, X, X)
    Q = (y[:, None] * y[None, :]) * K
    return float(0.5 * alpha @ Q @ alpha - alpha.sum())


def balanced_error(predictions, labels) -> float:
    """Mean of the per-class error rates."""
    pos_err, neg_err = per_class_errors(predictions, labels)
    return (pos_err + neg_err) / 2.0


def per_class_errors(predictions, labels) -> tuple[float, float]:
    """(error rate on the positive class, error rate on the negative class)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DimensionMismatchError("predictions and labels differ in length")
    pos = labels > 0
    neg = labels < 0
    if not (np.any(pos) and np.any(neg)):
        raise SingleClassError("labels must contain both classes")
    return (
        float(np.mean(predictions[pos] != labels[pos])),
        float(np.mean(predictions[neg] != labels[neg])),
    )


def stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split indices into k folds preserving the class ratio, shuffled."""
    if k < 2:
        raise ClassifierError("need k >= 2 folds")
    y = np.asarray(y)
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0  # rotate the fold taking the remainder so sizes stay within 1
    for cls in (1, -1):
        idx = np.nonzero(y == cls)[0]
        if len(idx) < k:
            raise SingleClassError(
                f"class {cls} has {len(idx)} members, fewer than {k} folds"
            )
        idx = idx[rng.permutation(len(idx))]
        for pos, index in enumerate(idx):
            folds[(pos + offset) % k].append(int(index))
        offset = (offset + len(idx)) % k
    return [np.array(sorted(f), dtype=int) for f in folds]


@dataclass(frozen=True)
class CvEntry:
    params: SvmParams
    balanced_error: float
    positive_error: float
    negative_error: float


@dataclass(frozen=True)
class CvReport:
    entries: tuple[CvEntry, ...]
    best: SvmParams

    def entry(self, params: SvmParams) -> CvEntry:
        for e in self.entries:
            if e.params == params:
                return e
        raise KeyError(params)


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    grid,
    k: int,
    rng: np.random.Generator,
    max_kernel_evals: int = MAX_KERNEL_EVALS,
) -> CvReport:
    """Mean balanced error of each parameter set over k stratified folds.

    Standardization is fitted on each training split only.  The winner is
    the entry with the lowest mean balanced error; ties break toward
    smaller C, then sigma, then class weight.
    """
    grid = list(grid)
    if not grid:
        raise ClassifierError("parameter grid is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    folds = stratified_folds(y, k, rng)
    all_idx = np.arange(len(y))
    entries = []
    for params in grid:
        bal, pos, neg = [], [], []
        for fold in folds:
            test_mask = np.zeros(len(y), dtype=bool)
            test_mask[fold] = True
            train_idx = all_idx[~test_mask]
            std = Standardizer.fit(X[train_idx])
            model = train_svm(
                std.transform(X[train_idx]),
                y[train_idx],
                params,
                max_kernel_evals=max_kernel_evals,
            )
            preds = model.predict_labels(std.transform(X[fold]))
            bal.append(balanced_error(preds, y[fold]))
            p, q = per_class_errors(preds, y[fold])
            pos.append(p)
            neg.append(q)
        entries.append(
            CvEntry(
                params=params,
                balanced_error=float(np.mean(bal)),
                positive_error=float(np.mean(pos)),
                negative_error=float(np.mean(neg)),
            )
        )
    best = min(entries, key=lambda e: (e.balanced_error,) + e.params.sort_key())
    return CvReport(entries=tuple(entries), best=best.params)


def fit_pair_classifier(
    X_raw: np.ndarray,
    y: np.ndarray,
    params: SvmParams,
    schema: FeatureSchema | None = None,
    max_kernel_evals: int = MAX_KERNEL_EVALS,
) -> SvmModel:
    """Standardize raw encoded pair rows, train, and attach the pieces."""
    std = Standardizer.fit(X_raw)
    model = train_svm(std.transform(X_raw), y, params, max_kernel_evals=max_kernel_evals)
    model.standardizer = std
    model.schema = schema
    return model
