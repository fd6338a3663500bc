"""Kernel SVM for pairwise transmission prediction.

The soft-margin dual

    min_a  0.5 * a' Q a - sum(a)   s.t.  0 <= a_i <= C_i,  sum(a_i y_i) = 0,

with Q_ij = y_i y_j K(x_i, x_j), is solved by sequential minimal
optimization using maximal-KKT-violation pair selection.  The negative
class uses penalty C and the (minority) positive class C * weight, so
errors on positives cost more.  A small fit builds its whole kernel matrix
at once; a larger one memoizes kernel rows in a bounded LRU cache.
Training stops when the KKT violation is within tolerance; a fit that
reaches the iteration cap or a pair it cannot move first returns its last
iterate with ``converged=False``.

Each SMO step makes four whole-array numpy passes over buffers allocated
once, plus the two passes that pick the pair.  It carries -y * gradient
instead of the gradient, the up and down sets are additive bias arrays (0
for members, -inf or +inf for the rest) whose entries change only at the
step's two indices, and the two-variable step runs on Python floats.  The
iterates are, bit for bit, those of the direct form that keeps the gradient
and rebuilds the set masks and gathers their members every step;
``train_svm`` says why.

Input vectors are expected standardized; ``fit_pair_classifier`` takes
pair rows that are already encoded (``completion.PairSet.matrix``),
standardizes and trains on them, and attaches the fitted Standardizer so
the model can score unstandardized pairs.

``SvmModel.predict_pairs`` labels RBF pairs from a faster float64 form of
the decision value whose sign a rigorous error bound certifies (a
floating-point filter, Shewchuk 1997; the dot-product bound follows
Higham 2002, ch. 3), and scores any call it cannot certify by the
reference path, ``pair_decision_values``, so its labels are always the
reference path's.  The error model is IEEE-754 binary64 with
round-to-nearest and ``np.exp`` within 1 ulp on float64, as numpy's
``_core/tests/data/umath-validation-set-exp.csv`` tests it; the bound
carries a safety factor of 2, and a range guard sends calls whose exp
factors could leave the normal range to the reference path.
``predict_pairs`` states the bound and the guard.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .population import FeatureSchema, Standardizer, read_json, write_json

logger = logging.getLogger(__name__)

LINEAR = "linear"
RBF = "rbf"

KKT_TOL = 1e-3
SUPPORT_EPS = 1e-8
# Vertex rows per half-row block on the reference path (_pair_dots): the
# senders' rows are built this many at a time, and the receivers' rows one
# block at a time.  It fixes the GEMM row blocking, so changing it changes the
# last bits of reference decision values.
KERNEL_BLOCK = 1024
# The same for the certified fast path.  Its bits reach no output, so it is
# sized from a measured time and memory curve (2-vCPU VM, one BLAS thread):
# on ER demo calls with 2,518 SVs, 256 rows held the largest call's traced
# peak to 47 MB, against 203 MB for whole receiver rows, and scored 10%
# faster; 512 and 1,024 rows were about 4% faster again but held 5 and 16 MB
# more.
FAST_BLOCK = 256
# Gathered sender + receiver row bytes per row-wise dot product in
# _pair_dots, sized to stay in L2.  Each pair is reduced on its own, so any
# value gives the same bits.
PAIR_CHUNK_BYTES = 1 << 19
# Bytes of an RBF block's one temporary, the |a|^2 + |b|^2 of a row sub-block;
# the block itself is built in the array it is returned in.  Each element is
# computed on its own, so any value gives the same bits; 128 KiB keeps the
# temporary and the sub-block it updates in L2.
_RBF_SUB_BYTES = 1 << 17
# Kernel-row bytes held at once: the SMO row cache, and the sender half rows
# plus one receiver block of one pair-scoring call or span (_pair_dots).
# Spans start where the sender plus receiver rows would pass it, so a span's
# rows, and the reference path's bits, do not depend on the block size.
# Both paths write their half rows in place; the reference path's
# kernel_matrix calls add only row norms and _RBF_SUB_BYTES.
KERNEL_ROWS_BYTES = 256_000_000
# Bytes of the whole n x n kernel matrix that a fit whose rows all fit the
# row cache builds at once instead (train_svm).  2 MiB takes n <= 512.
FIT_GRAM_BYTES = 1 << 21
# The certified pair scorer's range guard (_PairScorer): a call whose P exceeds
# it takes the reference path.  Below it every exp factor of the fast form is
# a normal float.
_RANGE_LIMIT = 600.0
# The factor on the certified scorer's error bound; it covers the rounding of
# the bound's own arithmetic.
_BOUND_SAFETY = 2.0
_U = 2.0**-53  # unit roundoff of binary64 under round-to-nearest
_TINY = 2.0**-1022  # the smallest normal binary64


class ClassifierError(ValueError):
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
            # the kernel divides by 2 sigma^2; a product overflows to inf, not an error
            if not 0.0 < 2.0 * (self.sigma * self.sigma) < np.inf:
                raise ClassifierError(
                    f"rbf kernel needs 2 sigma^2 in (0, inf) as a float, got sigma {self.sigma!r}"
                )


def kernel_matrix(
    spec: KernelSpec,
    A: np.ndarray,
    B: np.ndarray,
    b_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """K[i, j] = kernel(A[i], B[j]), vectorized over both arguments.

    `b_sq` is sum(B**2, axis=1) when the caller already has it; `out`, an
    (len(A), len(B)) float array, receives the block and is returned.

    An RBF block is built in the array it is returned in: A @ B.T is written
    there and doubled, then each row sub-block of _RBF_SUB_BYTES (the whole
    block, when it is no larger) becomes
    exp(max(|a|^2 + |b|^2 - 2 a.b, 0) / -(2 sigma^2)), with the norm sum in
    one sub-block-sized buffer.  So the block allocates no array of its own
    size, and every element goes through the same floating-point operations
    in the same order as the textbook expression: the block is bitwise equal
    to it, with or without `out`.  Negative squared distances are raised to
    0 with np.maximum rather than np.clip, which is cheaper; the two can
    differ only on -0.0, and exp(-0.0) is exp(0.0).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ClassifierError(f"dimensions {A.shape[1]} and {B.shape[1]} differ")
    K = np.matmul(A, B.T, out)  # out by position: the keyword costs ~0.5 us a call
    if spec.kind == LINEAR:
        return K
    if b_sq is None:
        b_sq = np.sum(B**2, axis=1)
    _finish_rbf(spec, K, np.sum(A**2, axis=1), b_sq)
    return K


def _finish_rbf(spec: KernelSpec, K, a_sq, b_sq) -> None:
    """K, holding A @ B.T, becomes the RBF block of rows with squared norms
    a_sq against columns with b_sq, in place, one row sub-block of
    _RBF_SUB_BYTES at a time (kernel_matrix says how)."""
    K *= 2.0
    a_sq = a_sq[:, None]
    scale = -(2.0 * spec.sigma**2)
    # a block no larger than a sub-block, such as an SMO row of up to 16,384
    # columns, takes one pass: the loop's set-up would cost such a row ~1.5 us
    if 8 * K.size <= _RBF_SUB_BYTES:
        _finish_rbf_rows(K, a_sq, b_sq, scale)
        return
    step = max(1, _RBF_SUB_BYTES // (8 * len(b_sq)))
    norms = np.empty((step, len(b_sq)))
    for start in range(0, len(K), step):
        sub = K[start : start + step]
        _finish_rbf_rows(sub, a_sq[start : start + step], b_sq, scale, norms[: len(sub)])


def _finish_rbf_rows(K, a_sq, b_sq, scale, norms=None) -> None:
    """K, holding 2 a.b, becomes exp(max(|a|^2 + |b|^2 - 2 a.b, 0) / scale) in
    place; |a|^2 + |b|^2 is written into `norms` when it is given."""
    sq = np.add(a_sq, b_sq, out=norms)
    np.subtract(sq, K, out=K)
    np.maximum(K, 0.0, out=K)
    if scale <= -1.0:  # K / scale is no larger than K
        K /= scale
    else:  # a tiny 2 sigma^2 sends far pairs to -inf, and exp(-inf) is the right 0
        with np.errstate(over="ignore"):
            K /= scale
    np.exp(K, out=K)


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
        # train_svm bounds the positive class by C * weight; a product
        # overflows to inf or underflows to 0, not an error
        if not 0.0 < self.C * self.weight < np.inf:
            raise ClassifierError(
                f"positive-class box C * weight must lie in (0, inf) as a float, "
                f"got C {self.C!r} and weight {self.weight!r}"
            )


class _RowCache:
    """LRU cache of kernel rows against the training matrix.

    The squared row norms of X are summed once; a miss is one 1 x n
    kernel_matrix block.  train_svm uses it for a fit whose whole kernel
    matrix exceeds FIT_GRAM_BYTES or whose rows do not all fit the cache,
    and _GramRows for the rest.
    """

    def __init__(self, spec: KernelSpec, X: np.ndarray, capacity: int):
        self.spec = spec
        self.X = X
        self.sq = np.sum(X**2, axis=1)
        self.capacity = max(2, capacity)
        self.rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

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


class _GramRows:
    """Every kernel row of the training matrix, built at once; a row is a
    view.  Its first request counts as a miss and later ones as hits, as in
    a _RowCache that never evicts.

    np.matmul(X[:, None, :], X.T) makes one 1 x n product per row, which
    numpy hands to the same BLAS routine as the lone 1 x n product of a
    _RowCache miss, and the RBF finish is kernel_matrix's own, whose every
    element is computed on its own.  So each row has the bits of the
    _RowCache row (TestGramRows pins both for the running numpy).
    """

    def __init__(self, spec: KernelSpec, X: np.ndarray):
        n = len(X)
        self.K = np.matmul(X[:, None, :], X.T).reshape(n, n)
        if spec.kind == RBF:
            sq = np.sum(X**2, axis=1)
            _finish_rbf(spec, self.K, sq, sq)
        self.seen = bytearray(n)
        self.hits = 0
        self.misses = 0

    def row(self, i: int) -> np.ndarray:
        if self.seen[i]:
            self.hits += 1
        else:
            self.seen[i] = 1
            self.misses += 1
        return self.K[i]


@dataclass
class SvmModel:
    """Trained decision function f(x) = sum_i coef_i K(sv_i, x) + bias.

    support_vectors live in the standardized training space; coef_i is
    alpha_i * y_i.  When a Standardizer (and schema) is attached, raw
    encoded pair rows and index pairs into a vertex table can be scored
    directly.  converged, kkt_violation, iterations, cache_hits and
    cache_misses describe the fit; fast_calls and fallback_calls count the
    predict_pairs calls the certified fast path and the reference path
    scored, and min_margin_ratio is the smallest |f^| / 2B a fast-path
    evaluation has seen (predict_pairs says what these are).  None of them
    is saved.
    """

    kernel: KernelSpec
    support_vectors: np.ndarray
    coefs: np.ndarray
    bias: float
    standardizer: Standardizer | None = None
    schema: FeatureSchema | None = None
    converged: bool = True
    kkt_violation: float = 0.0
    iterations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    params: SvmParams | None = None
    training_size: int | None = None
    fast_calls: int = 0
    fallback_calls: int = 0
    min_margin_ratio: float = math.inf
    _scorer: _PairScorer | None = field(default=None, init=False, repr=False, compare=False)

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
        strictly positive, else -1.

        An RBF model scores a call through a certified fast form, and the
        labels are still those of `pair_decision_values`, the reference
        path.  The fast form is exp(-|s-a|^2 / 2 sigma^2) =
        e(s) e(a) exp(s.a / sigma^2) with e(x) = exp(-|x|^2 / 2 sigma^2),
        so a half-kernel row is one GEMM against the SV half divided by
        sigma^2 and one in-place exp, the coefs carry e(a_k) e(b_k), and
        f^ = e(s) e(r) g + b, where g is the gathered row dot product of
        the reference path.  Each call bounds the error of both paths by

            B = 2 [((1 + gamma_{K+18}) e^D - 1) sum|c_k| + u |b|
                   + 2 (K + 1) 2^-1074 e^600],   D = gamma_{d+5} P,

        against the exact decision value of the stored floats, where K is
        the SV count, d the record width, u = 2^-53, gamma_n =
        n u / (1 - n u), and P = ((max|s| + max|a|)^2 + (max|r| +
        max|b|)^2) / 2 sigma^2 over the call's sender rows s, receiver
        rows r and SV halves (a, b).  The error model: IEEE-754 binary64
        with round-to-nearest; a GEMM and an einsum that may sum in any
        order, with or without FMA; np.exp within 1 ulp of float64 results,
        as numpy's accuracy test checks it against
        _core/tests/data/umath-validation-set-exp.csv.  The 2 in front is
        a safety factor for the rounding of B's own arithmetic; _PairScorer
        derives the rest.  When every pair has |f^| > 2B, each f^ and each
        reference value has the sign of the exact value, so the fast labels
        are returned; a call with any |f^| <= 2B is scored whole by the
        reference path, which gives its labels bit for bit.

        The range guard: a call with P > 600 takes the reference path, and
        so does every call of a model whose 2 sigma^2 is not normal, whose
        SV halves alone reach P > 600, whose sum|c_k| exceeds 1e40 or whose
        folded coefs underflow, of a linear model and of one without SVs.
        Both paths reduce their half rows by _pair_dots, in the same
        KERNEL_ROWS_BYTES spans; the reference path builds rows in
        KERNEL_BLOCK blocks, and the fast path in FAST_BLOCK blocks, which
        the bound allows, since it holds for any blocking.  So a call holds
        the sender rows and one FAST_BLOCK of receiver rows, and a fallback
        call one KERNEL_BLOCK.  fast_calls or fallback_calls counts the
        call; a call that computed f^ lowers min_margin_ratio to its
        min |f^| / 2B.
        """
        rows = self._pair_rows(table, senders, receivers)
        fast = self._fast_values(*rows)
        if fast is not None:
            values, bound = fast
            smallest = float(np.min(np.abs(values))) if len(values) else math.inf
            self.min_margin_ratio = min(self.min_margin_ratio, smallest / (2.0 * bound))
            if smallest > 2.0 * bound:
                self.fast_calls += 1
                return np.where(values > 0.0, 1, -1)
        self.fallback_calls += 1
        return np.where(self._pair_values(*rows) > 0.0, 1, -1)

    def pair_decision_values(self, table, senders, receivers) -> np.ndarray:
        """Decision values of the [sender, receiver] rows of index pairs.

        A pair row is the concatenation of two encoded records and the
        standardizer is column-wise, so the decision value factors at the
        record width d.  For RBF, K(x, sv) = k(s, sv[:d]) * k(r, sv[d:]):
        half-kernel rows S (times the coefs) and R are computed once per
        unique sender and receiver, and a pair's value is the dot product of
        its two rows, taken PAIR_CHUNK_BYTES of gathered rows at a time.  S
        is held whole; R is built and used one KERNEL_BLOCK of receivers at
        a time, with the pairs grouped by their receiver's block.  A linear
        model collapses to the primal weight vector, one scalar per vertex
        half.  Memory is bounded: when the unique senders plus receivers
        need more than KERNEL_ROWS_BYTES of rows, the pairs are scored in
        the order given, in spans of max_rows // 2 pairs; a span has at
        most that many senders and as many receivers, so its S and one
        block fit in it.  No pairs x SVs array is built.

        senders and receivers must be integer arrays of one length that
        index rows of table; else a ClassifierError names the fault, and
        for an index outside the table the first pair that holds one.
        """
        return self._pair_values(*self._pair_rows(table, senders, receivers))

    def _pair_rows(self, table, senders, receivers) -> tuple:
        """(Zs, Zr, send_of, recv_of): the standardized rows of the unique
        senders and receivers, and each pair's index into them; for a model
        without SVs, (None, None, senders, receivers).  Checks the pairs as
        pair_decision_values says."""
        if self.schema is not None and table.schema.field_ids != self.schema.field_ids:
            raise ClassifierError("vertex table schema differs from model schema")
        senders, receivers = _pair_arrays(senders, receivers)
        n = len(table)
        outside = (senders < 0) | (senders >= n) | (receivers < 0) | (receivers >= n)
        if outside.any():
            k = int(outside.argmax())
            bad_sender = not 0 <= senders[k] < n
            role, index = ("sender", senders[k]) if bad_sender else ("receiver", receivers[k])
            raise ClassifierError(f"pair {k}: {role} index {index} is outside the table's "
                                  f"rows [0, {n})")
        if self.support_vectors.shape[0] == 0:
            return None, None, senders, receivers
        enc = table.encoded()
        d = enc.shape[1]
        if self.support_vectors.shape[1] != 2 * d:
            raise ClassifierError(
                f"model dimension {self.support_vectors.shape[1]} is not twice "
                f"the record width {d}"
            )
        send_ids, send_of = _unique_indices(senders, n)
        recv_ids, recv_of = _unique_indices(receivers, n)
        Zs, Zr = enc[send_ids], enc[recv_ids]
        if self.standardizer is not None:
            Zs = self.standardizer.columns(slice(0, d)).transform(Zs)
            Zr = self.standardizer.columns(slice(d, 2 * d)).transform(Zr)
        return Zs, Zr, send_of, recv_of

    def _pair_values(self, Zs, Zr, send_of, recv_of) -> np.ndarray:
        """The reference path: pair_decision_values of _pair_rows' rows."""
        if self.support_vectors.shape[0] == 0:
            return np.full(len(send_of), self.bias)
        d = Zs.shape[1]
        if self.kernel.kind == LINEAR:
            w = self.coefs @ self.support_vectors
            return (Zs @ w[:d])[send_of] + (Zr @ w[d:])[recv_of] + self.bias
        halves = [np.ascontiguousarray(h) for h in np.hsplit(self.support_vectors, 2)]
        return _pair_dots(lambda Z, h, out: kernel_matrix(self.kernel, Z, halves[h], out=out),
                          self.coefs, Zs, Zr, send_of, recv_of, KERNEL_BLOCK) + self.bias

    def _fast_values(self, Zs, Zr, send_of, recv_of) -> tuple[np.ndarray, float] | None:
        """(f^, B) of _pair_rows' rows by the fast form, or None when the
        range guard sends the call to the reference path (predict_pairs)."""
        if self.kernel.kind != RBF or self.support_vectors.shape[0] == 0:
            return None
        scorer = self._scorer
        if scorer is None or not scorer.built_from(self):
            scorer = self._scorer = _PairScorer(self)
        sq_s, sq_r = np.einsum("ij,ij->i", Zs, Zs), np.einsum("ij,ij->i", Zr, Zr)
        bound = scorer.bound(sq_s, sq_r, self.bias)
        if bound is None:
            return None
        halves = scorer.halves
        values = _pair_dots(lambda Z, h, out: np.exp(np.matmul(Z, halves[h].T, out), out=out),
                            scorer.folded, Zs, Zr, send_of, recv_of, FAST_BLOCK)
        values *= np.exp(sq_s / -scorer.two_sig2)[send_of]
        values *= np.exp(sq_r / -scorer.two_sig2)[recv_of]
        values += self.bias
        return values, bound

    def save(self, path) -> None:
        doc = {
            "kernel": self.kernel.kind,
            "bias": self.bias,
            "support": [  # rows as arrays: write_json formats one at a time
                {"coef": c, "vector": v}
                for c, v in zip(self.coefs.tolist(), self.support_vectors)
            ],
            "standardizer": None,
        }
        if self.standardizer is not None:
            doc["standardizer"] = {"means": self.standardizer.means,
                                   "stds": self.standardizer.stds}
        if self.kernel.kind == RBF:
            doc["sigma"] = self.kernel.sigma
        write_json(path, doc)

    @classmethod
    def load(cls, path, schema: FeatureSchema | None = None) -> "SvmModel":
        """The model saved at path.  A malformed file is a ClassifierError
        naming it and the missing key or the bad value: a document that is
        not an object, a support that is not a list of objects, a coef,
        vector, bias, mean, std or sigma that is not a number or is NaN or
        infinite, a std <= 0, and vectors, means and stds of different
        lengths."""
        doc = read_json(path, ClassifierError)
        try:
            if not isinstance(doc, dict):
                raise ClassifierError("not a JSON object")
            sigma = doc.get("sigma")
            kernel = KernelSpec(doc["kernel"],
                                None if sigma is None else float(_finite("sigma", sigma, 0)))
            support = doc["support"]
            if not (isinstance(support, list) and all(isinstance(s, dict) for s in support)):
                raise ClassifierError("support: not a list of objects")
            rows = [_finite(f"support[{i}].vector", s["vector"], 1) for i, s in enumerate(support)]
            widths = {len(v) for v in rows}
            if len(widths) > 1:
                raise ClassifierError("support: vectors of different lengths")
            vectors = np.array(rows) if rows else np.empty((0, 0))
            coefs = np.array([_finite(f"support[{i}].coef", s["coef"], 0)
                              for i, s in enumerate(support)])
            bias = float(_finite("bias", doc["bias"], 0))
            std = doc.get("standardizer")
            standardizer = None
            if std:
                if not isinstance(std, dict):
                    raise ClassifierError("standardizer: not an object")
                standardizer = Standardizer(means=_finite("standardizer.means", std["means"], 1),
                                            stds=_finite("standardizer.stds", std["stds"], 1))
                if (standardizer.stds <= 0).any():
                    raise ClassifierError("standardizer.stds: holds a std <= 0")
                if len(widths | {len(standardizer.means), len(standardizer.stds)}) > 1:
                    raise ClassifierError("standardizer: means, stds and vectors differ in length")
        except KeyError as exc:
            raise ClassifierError(f"{path}: missing key {exc}") from None
        except ValueError as exc:  # a ClassifierError above or from KernelSpec
            raise ClassifierError(f"{path}: {exc}") from None
        return cls(kernel=kernel, support_vectors=vectors, coefs=coefs, bias=bias,
                   standardizer=standardizer, schema=schema)


def _finite(key: str, value, ndim: int) -> np.ndarray:
    """value as a float array of ndim dimensions (0, a number, or 1, a list
    of numbers) whose entries are all finite; else a ClassifierError naming key."""
    try:
        values = np.array(value)
    except ValueError:  # a ragged list
        values = None
    if values is None or values.dtype.kind not in "iuf" or values.ndim != ndim:
        raise ClassifierError(f"{key}: not {('a number', 'a list of numbers')[ndim]}")
    if not np.isfinite(values).all():
        raise ClassifierError(f"{key}: holds NaN or an infinity")
    return values.astype(float)


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


class _PairScorer:
    """The fast form of an RBF model's pair decision values and their error
    bound (SvmModel.predict_pairs states both), prepared once per model.

    It holds copies of the kernel, SVs and coefs it was built from, so a
    model whose coefs or SVs change gets a new one; the bias is read per
    call.  The SV halves are stored contiguous and divided by the rounded
    sigma^2, and the coefs as fl(fl(c_k e(a_k)) e(b_k)).  `usable` is False
    when 2 sigma^2 is not a normal float, the SV halves alone give
    |a|^2 / 2 sigma^2 + |b|^2 / 2 sigma^2 > _RANGE_LIMIT, sum|c_k| > 1e40 or
    a nonzero coef folds below the normal range; nothing that could
    overflow is computed first.

    Derivation of B.  Each term t_k = c_k k(s, a_k) k(r, b_k) of the exact
    f = sum_k t_k + b has |t_k| <= |c_k|.  Exponents: the fast form's
    squared norms err by at most gamma_d relatively, sigma^2 and the
    division by it round once each, and the GEMM's s.a / sigma^2 errs by at
    most gamma_{d+2} |s||a| / sigma^2, so the six exps of a term (e(s),
    e(r), e(a), e(b) and the two row entries) have arguments whose errors
    sum to at most gamma_{d+2} P.  The reference path computes
    |s|^2 + |a|^2 - 2 s.a within gamma_{d+2} (|s| + |a|)^2 and divides it
    by 2 sigma**2, rounded twice (pow within 1 ulp) and once by the
    division, which gives gamma_{d+5} (|s| + |a|)^2 / 2 sigma^2 per half; its
    clamp at 0 only moves a value toward the exact one.  So D bounds both.
    Roundings: a fast term goes through six products (two folding the coef,
    S times it, the gathered product, and the scaling by e(s) and by e(r))
    and six exps of 1 ulp, each within (1 + u)^2: (1 + theta_18).  The
    reference path has fewer.  The K-term sum adds gamma_{K-1} in any order
    and the bias one rounding, which gives
    |f^ - f| <= ((1 + gamma_{K+18}) e^D - 1) sum|c_k| + u |b|.  Range:
    with P <= 600 every exp result lies in [e^-600, e^600], normal, and g
    stays below sum|c_k| e^600, finite.  Underflow: a product that falls
    below the normal range errs by at most 2^-1075 absolutely; there are at
    most 2K + 2 such products per pair, and the factors applied after any
    of them stay below e^600, so underflow adds at most
    (K + 1) 2^-1074 e^600, which B holds twice.  Underflow inside an
    exponent's sum moves it by at most d 2^-1075, which the safety factor
    covers.
    """

    def __init__(self, model: SvmModel):
        self.kernel = model.kernel
        self.support_vectors = model.support_vectors.copy()
        self.coefs = model.coefs.copy()
        sv, coefs = self.support_vectors, self.coefs
        d = sv.shape[1] // 2
        sig2 = self.kernel.sigma * self.kernel.sigma
        self.two_sig2 = 2.0 * sig2
        sq = [np.einsum("ij,ij->i", h, h) for h in (sv[:, :d], sv[:, d:])]
        self.reach = [math.sqrt(float(q.max())) for q in sq]  # max |a|, max |b|
        self.abs_sum = float(np.sum(np.abs(coefs)))
        self.usable = (sig2 >= _TINY and self.abs_sum <= 1e40
                       and (float(sq[0].max()) + float(sq[1].max())) / self.two_sig2
                       <= _RANGE_LIMIT)
        if not self.usable:
            return
        self.halves = [np.ascontiguousarray(sv[:, :d] / sig2),
                       np.ascontiguousarray(sv[:, d:] / sig2)]
        self.folded = coefs * np.exp(sq[0] / -self.two_sig2)
        self.folded *= np.exp(sq[1] / -self.two_sig2)
        self.usable = bool(np.all((np.abs(self.folded) >= _TINY) | (coefs == 0.0)))
        K = len(coefs)
        self.gamma_sum = _gamma(K + 18)
        self.gamma_exp = _gamma(d + 5)
        self.underflow = 2.0 * (K + 1) * 2.0**-1074 * math.exp(_RANGE_LIMIT)

    def built_from(self, model: SvmModel) -> bool:
        return (model.kernel == self.kernel
                and np.array_equal(model.support_vectors, self.support_vectors)
                and np.array_equal(model.coefs, self.coefs))

    def bound(self, sq_s, sq_r, bias: float) -> float | None:
        """B of a call whose sender and receiver rows have squared norms sq_s
        and sq_r, or None when the range guard fails."""
        if not self.usable:
            return None
        P = 0.0
        for sq, reach in zip((sq_s, sq_r), self.reach):
            row = math.sqrt(float(np.max(sq, initial=0.0)))
            P += (row + reach) * (row + reach) / self.two_sig2
        if not P <= _RANGE_LIMIT:  # NaN fails too
            return None
        D = self.gamma_exp * P
        return _BOUND_SAFETY * ((self.gamma_sum * math.exp(D) + math.expm1(D)) * self.abs_sum
                                + _U * abs(bias) + self.underflow)


class ConstantModel:
    """Stub predictor returning one fixed label; used for oracle testing."""

    def __init__(self, label: int):
        if label not in (1, -1):
            raise ClassifierError("constant label must be +1 or -1")
        self.label = label

    def predict_pairs(self, table, senders, receivers) -> np.ndarray:
        """`diffusion.TransmissionModel`: the fixed label for every pair."""
        senders, _ = _pair_arrays(senders, receivers)
        return np.full(len(senders), self.label, dtype=int)


def _pair_arrays(senders, receivers) -> tuple[np.ndarray, np.ndarray]:
    """senders and receivers as int arrays; a ClassifierError when one holds
    non-integers (an empty list may) or their lengths differ."""
    senders, receivers = np.asarray(senders), np.asarray(receivers)
    for role, x in (("senders", senders), ("receivers", receivers)):
        if x.dtype.kind not in "iu" and x.size:
            raise ClassifierError(f"{role} must be integer indices, got dtype {x.dtype}")
    if len(senders) != len(receivers):
        raise ClassifierError(f"{len(senders)} senders but {len(receivers)} receivers")
    return senders.astype(int, copy=False), receivers.astype(int, copy=False)


def _unique_indices(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) for indices in [0, n), by a scatter
    into n slots instead of a sort."""
    rank = np.zeros(n, dtype=np.intp)
    rank[ids] = 1
    unique = np.flatnonzero(rank)
    rank[unique] = np.arange(len(unique))
    return unique, rank[ids]


def _pair_dots(half_rows, coefs, Zs, Zr, send_of, recv_of, block: int) -> np.ndarray:
    """sum_k coefs_k S[send_of, k] R[recv_of, k] of each pair, where
    half_rows(Z, h, out) writes the half rows S of the senders Zs (h = 0) and
    R of the receivers Zr (h = 1) into out, `block` rows of Z a call.

    Spans are as pair_decision_values states them.  A span's S is built
    whole and multiplied by the coefs.  Its R is built one block of `block`
    receivers at a time into one buffer, and the pairs of that block are
    reduced against S and it: a stable sort by receiver block keeps each
    block's pairs in the order given (by sender, from diffusion, so S is
    read in order), and each value is written to its pair's place.  So
    every receiver row is built once per span, as when R is built whole,
    and scoring holds S, one block and the chunk buffers.
    Gathered rows are read into two buffers made once, PAIR_CHUNK_BYTES of
    them at a time: a fresh array per gather costs more than the dot
    products.  Each pair is reduced on its own, so its value's bits depend
    only on the blocks half_rows is given.  S is built before the buffers
    are allocated: other orders made glibc's heap keep freed rows and
    raised peak RSS by up to 8% on some inputs.
    """
    K, count = len(coefs), len(send_of)
    if not count:
        return np.empty(0)
    max_rows = max(2, KERNEL_ROWS_BYTES // (8 * K))
    span = max_rows // 2 if len(Zs) + len(Zr) > max_rows else count
    step = max(1, PAIR_CHUNK_BYTES // (16 * K))
    for start in range(0, count, span):
        s_of, r_of = send_of[start : start + span], recv_of[start : start + span]
        zs, zr = Zs, Zr
        if span < count:  # the span's own unique senders and receivers
            s_ids, s_of = _unique_indices(s_of, len(Zs))
            r_ids, r_of = _unique_indices(r_of, len(Zr))
            zs, zr = Zs[s_ids], Zr[r_ids]
        S = np.empty((len(zs), K))
        for i in range(0, len(zs), block):
            half_rows(zs[i : i + block], 0, S[i : i + block])
        S *= coefs
        if not start:
            values = np.empty(count)
            R = np.empty((min(block, span, len(Zr)), K))
            rows_s = np.empty((min(step, count), K))
            rows_r = np.empty_like(rows_s)
        # every receiver block of the span has a pair: zr holds its receivers
        # only.  Keys of 16 bits or fewer take numpy's radix sort.
        blocks = (r_of // block).astype(np.min_scalar_type(len(zr) // block))
        ends = np.cumsum(np.bincount(blocks)).tolist()
        order = np.argsort(blocks, kind="stable")
        span_values = values[start : start + span]
        first = 0
        for base, end in zip(range(0, len(zr), block), ends):
            rows = zr[base : base + block]
            half_rows(rows, 1, R[: len(rows)])
            at = order[first:end]
            s, r, dots = s_of[at], r_of[at] - base, np.empty(end - first)
            for lo in range(0, len(at), step):
                n = min(step, len(at) - lo)
                # the indices are in range, and "clip" skips the buffered copy "raise" makes
                np.take(S, s[lo : lo + n], axis=0, out=rows_s[:n], mode="clip")
                np.take(R, r[lo : lo + n], axis=0, out=rows_r[:n], mode="clip")
                np.einsum("ij,ij->i", rows_s[:n], rows_r[:n], out=dots[lo : lo + n])
            span_values[at] = dots
            first = end
    return values


def _snap(value: float, limit: float) -> float:
    """value, set to the bound 0 or limit when within float dust of it, so
    up/down set membership is not decided by rounding noise."""
    eps = 1e-10 * (1.0 + limit)
    if value < eps:
        return 0.0
    if value > limit - eps:
        return limit
    return value


def train_svm(X: np.ndarray, y: np.ndarray, params: SvmParams) -> SvmModel:
    """Solve the weighted soft-margin dual on standardized vectors via SMO.

    Each step selects the maximal violating pair (i from the "up" set with
    the largest -y grad, j from the "down" set with the smallest) and
    solves the two-variable subproblem analytically.  Convergence is
    m(alpha) - M(alpha) <= KKT_TOL, read when the fit starts.  The fit
    stops short of it only at the iteration cap max(100_000, 30 n) or at a
    pair whose step is below 1e-14; either logs one warning and returns
    converged=False.  Labels other than exactly +1 and -1, and non-finite
    entries of X, are a ClassifierError before any kernel work.

    Kernel rows come from _GramRows, the whole matrix built at once, when
    all n rows fit the row cache and 8 n^2 <= FIT_GRAM_BYTES (n <= 512);
    else from a _RowCache, one 1 x n kernel_matrix block per miss.  The
    rows have the same bits either way (_GramRows says why), so the fit,
    its iterations and its cache counters do not depend on the path.

    Loop invariants, each bit-exact against the direct form it replaces,
    which keeps grad and takes -y * grad every step:

    - vals = -y * grad is carried instead of grad.  It starts at y, which
      is -y * (-1) exactly, and each step adds
      Ki * -(y_i * delta_i) + Kj * -(y_j * delta_j) through two reused
      buffers: -y times the direct form's update
      (y * Ki) * (y_i * delta_i) + (y * Kj) * (y_j * delta_j).  y is +-1,
      and under round-to-nearest negating an operand negates a product or
      a sum exactly, so vals equals the direct form's -y * grad as a real
      number at every step.  Only the sign of an exact zero can differ: a
      sum that cancels is +0, so the zeros of vals are +0 and those of the
      direct form are -y_k * (+0).
    - A zero's sign changes no step.  vals + 0 is +0 for either zero, so
      the biased arrays below are bitwise equal, and within a step
      Fi - Fj = -violation is not zero (violation > KKT_TOL >= 0).  Nor
      does it reach the model: bias is a numpy mean or a Python sum, and
      both sums start from +0, which absorbs a zero's sign; a converged
      violation of exactly zero is given the direct form's sign.
    - up_bias[k] is 0 when k is in the up set (alpha_k y_k can grow), else
      -inf; down_bias[k] is 0 when k is in the down set (alpha_k y_k can
      shrink), else +inf.  A step changes only alpha_i and alpha_j, so only
      entries i and j are recomputed.  For finite vals, vals + 0 is vals, so
      argmax(vals + up_bias) is the first index of the up set's largest
      value, as up_idx[argmax(vals[up_idx])] is; argmin with down_bias
      likewise.  A maximum of -inf (minimum of +inf) means an empty set.
    - The two-variable step runs on Python floats mirroring y, C and
      alpha: the same IEEE-754 double operations as on numpy scalars.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if X.shape[0] != n:
        raise ClassifierError("X and y lengths differ")
    bad = y[(y != 1.0) & (y != -1.0)]
    if len(bad):
        raise ClassifierError(
            f"labels must be +1 or -1: {len(bad)} are not, the first is {bad.item(0)!r}"
        )
    nonfinite = X.size - int(np.count_nonzero(np.isfinite(X)))
    if nonfinite:
        raise ClassifierError(f"training vectors hold {nonfinite} non-finite entries")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ClassifierError("training data must contain both classes")

    C = np.where(y > 0, params.C * params.weight, params.C)
    # keep the cache near KERNEL_ROWS_BYTES worth of rows, at least 64 rows
    capacity = max(64, min(n, int(KERNEL_ROWS_BYTES / (8 * n))))
    if n <= capacity and 8 * n * n <= FIT_GRAM_BYTES:
        cache = _GramRows(params.kernel, X)
    else:
        cache = _RowCache(params.kernel, X, capacity)
    max_iter = max(100_000, 30 * n)
    tol = KKT_TOL

    vals = y.copy()  # -y * grad; the dual gradient at alpha = 0 is -1
    picked = np.empty(n)  # vals plus one set's bias, for its argmax or argmin
    step_i = np.empty(n)
    step_j = np.empty(n)
    # the sets at alpha = 0
    up_bias = np.where((y > 0) & (C > 0), 0.0, -np.inf)
    down_bias = np.where((y < 0) & (C > 0), 0.0, np.inf)
    ys, Cs = y.tolist(), C.tolist()
    alpha = [0.0] * n
    inf = np.inf
    violation = inf
    stopped_at = None  # what ended a non-converged fit
    iterations = 0

    while True:
        np.add(vals, up_bias, out=picked)
        i = int(picked.argmax())
        no_up = picked.item(i) == -inf
        np.add(vals, down_bias, out=picked)
        j = int(picked.argmin())
        if no_up or picked.item(j) == inf:  # an empty up or down set
            violation = 0.0
            break
        v_i, v_j = vals.item(i), vals.item(j)
        violation = v_i - v_j
        if violation <= tol:
            if v_i == 0.0 == v_j:  # the direct form's zeros are -y_k * (+0)
                violation = -ys[i] * 0.0 + ys[j] * 0.0
            break
        if iterations >= max_iter:
            stopped_at = f"the iteration cap {max_iter}"
            break
        iterations += 1

        Ki = cache.row(i)
        Kj = cache.row(j)
        eta = Ki.item(i) + Kj.item(j) - 2.0 * Ki.item(j)
        if eta < 1e-12:
            eta = 1e-12
        # F_k = y_k * grad_k is the decision residual without bias
        Fi, Fj = -v_i, -v_j
        y_i, y_j = ys[i], ys[j]
        a_i, a_j = alpha[i], alpha[j]
        new_j = a_j + y_j * (Fi - Fj) / eta
        if y_i != y_j:
            low = max(0.0, a_j - a_i)
            high = min(Cs[j], Cs[i] + a_j - a_i)
        else:
            low = max(0.0, a_i + a_j - Cs[i])
            high = min(Cs[j], a_i + a_j)
        new_j = min(high, max(low, new_j))
        delta_j = new_j - a_j
        if abs(delta_j) < 1e-14:
            stopped_at = "a stuck pair"
            break
        new_i = _snap(a_i - y_i * y_j * delta_j, Cs[i])
        new_j = _snap(new_j, Cs[j])
        alpha[i] = new_i
        alpha[j] = new_j
        # vals += Ki * -(y_i * delta_i) + Kj * -(y_j * delta_j)
        np.multiply(Ki, -(y_i * (new_i - a_i)), out=step_i)
        np.multiply(Kj, -(y_j * (new_j - a_j)), out=step_j)
        step_i += step_j
        vals += step_i
        # the sets at the two indices, for labels that are exactly +-1
        for k, y_k, a_k in ((i, y_i, new_i), (j, y_j, new_j)):
            below, above = a_k < Cs[k], a_k > 0.0
            up_bias[k] = 0.0 if (below if y_k > 0 else above) else -inf
            down_bias[k] = 0.0 if (above if y_k > 0 else below) else inf
    alpha = np.array(alpha)

    # bias from free support vectors, else midpoint of the violating bounds
    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
    if np.any(free):
        F = -vals  # y * grad
        bias = float(-F[free].mean())
    else:
        up, down = up_bias == 0.0, down_bias == 0.0
        candidates = []
        if np.any(up):
            candidates.append(float(np.max(vals[up])))
        if np.any(down):
            candidates.append(float(np.min(vals[down])))
        bias = sum(candidates) / len(candidates) if candidates else 0.0

    if stopped_at is not None:
        logger.warning("SMO stopped at %s with violation %.3g; the model is not converged",
                       stopped_at, violation)
    keep = alpha > SUPPORT_EPS
    return SvmModel(
        kernel=params.kernel,
        support_vectors=X[keep],
        coefs=(alpha * y)[keep],
        bias=bias,
        converged=stopped_at is None,
        kkt_violation=violation,
        iterations=iterations,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        params=params,
    )


def balanced_error(predictions, labels) -> float:
    """Mean of the error rates on the positive and on the negative class."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ClassifierError("predictions and labels differ in length")
    pos = labels > 0
    neg = labels < 0
    if not (np.any(pos) and np.any(neg)):
        raise ClassifierError("labels must contain both classes")
    pos_err = float(np.mean(predictions[pos] != labels[pos]))
    neg_err = float(np.mean(predictions[neg] != labels[neg]))
    return (pos_err + neg_err) / 2.0


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
            raise ClassifierError(f"class {cls} has {len(idx)} members, fewer than {k} folds")
        idx = idx[rng.permutation(len(idx))]
        for pos, index in enumerate(idx):
            folds[(pos + offset) % k].append(int(index))
        offset = (offset + len(idx)) % k
    return [np.array(sorted(f), dtype=int) for f in folds]


@dataclass(frozen=True)
class CvEntry:
    params: SvmParams
    balanced_error: float


@dataclass(frozen=True)
class CvReport:
    entries: tuple[CvEntry, ...]
    best: SvmParams


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    grid,
    k: int,
    rng: np.random.Generator,
) -> CvReport:
    """Mean balanced error of each parameter set over k stratified folds.

    Each training split is fitted by fit_pair_classifier, so its
    standardization comes from that split only.  The winner is
    the entry with the lowest mean balanced error; ties break toward
    smaller C, then sigma, then class weight.
    """
    grid = list(grid)
    if not grid:
        raise ClassifierError("parameter grid is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    folds = stratified_folds(y, k, rng)
    entries = []
    for params in grid:
        bal = []
        for fold in folds:
            # without assume_unique, setdiff1d calls np.unique, which imports numpy.ma
            train_idx = np.setdiff1d(np.arange(len(y)), fold, assume_unique=True)
            model = fit_pair_classifier(X[train_idx], y[train_idx], params)
            bal.append(balanced_error(model.predict_labels(X[fold]), y[fold]))
        entries.append(CvEntry(params=params, balanced_error=float(np.mean(bal))))
    best = min(entries, key=lambda e: (
        e.balanced_error, e.params.C, e.params.kernel.sigma or 0.0, e.params.weight))
    return CvReport(entries=tuple(entries), best=best.params)


def fit_pair_classifier(
    X_raw: np.ndarray,
    y: np.ndarray,
    params: SvmParams,
    schema: FeatureSchema | None = None,
) -> SvmModel:
    """Standardize raw encoded pair rows, train, and attach the pieces."""
    std = Standardizer.fit(X_raw)
    model = train_svm(std.transform(X_raw), y, params)
    model.standardizer = std
    model.schema = schema
    return model
