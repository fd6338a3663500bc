import itertools
import logging
import sys

import numpy as np
import pytest

from netspread import classifier
from netspread.classifier import (
    ClassifierError,
    ConstantModel,
    CvReport,
    KernelSpec,
    SvmModel,
    SvmParams,
    balanced_error,
    cross_validate,
    fit_pair_classifier,
    kernel_matrix,
    stratified_folds,
    train_svm,
)
from netspread.population import FeatureSchema, Standardizer, VertexTable

from conftest import TINY_SCHEMA, random_record, traced_peak
from oracles import dual_objective, encode, reference_train_svm, svm_dual_reference

LIN = KernelSpec("linear")
RBF1 = KernelSpec("rbf", 1.0)

# (name, X, y, C, positive-class weight): small 2-D sets spanning the
# separable, overlapping, imbalanced-weighted and non-linear regimes
TOY_SETS = [
    (
        "sym4",
        np.array([[-1.0, 0.0], [-2.0, 1.0], [1.0, 0.0], [2.0, -1.0]]),
        np.array([-1, -1, 1, 1]),
        10.0,
        1.0,
    ),
    (
        "overlap6",
        np.array([[0.0, 0.0], [1.0, 1.0], [0.5, -0.5], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
        np.array([-1, -1, -1, 1, 1, 1]),
        1.0,
        1.0,
    ),
    (
        "imbal8",
        np.array(
            [
                [-2.0, 0.0],
                [-1.0, -1.0],
                [-1.5, 0.5],
                [-0.5, -1.5],
                [-2.5, -0.5],
                [-1.0, 0.3],
                [1.5, 1.0],
                [2.0, 0.5],
            ]
        ),
        np.array([-1, -1, -1, -1, -1, -1, 1, 1]),
        5.0,
        4.0,
    ),
    (
        "xor4",
        np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
        np.array([1, 1, -1, -1]),
        50.0,
        1.0,
    ),
    (
        "rand8",
        np.round(np.random.default_rng(17).normal(size=(8, 2)), 3),
        np.array([1, -1, 1, -1, 1, -1, 1, -1]),
        5.0,
        2.0,
    ),
]

KERNELS = [("linear", None), ("rbf", 1.0)]


def full_alpha(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Scatter the kept support alphas, |coef|, back onto the training rows."""
    full = np.zeros(len(X))
    used: set[int] = set()
    for a, v in zip(np.abs(model.coefs), model.support_vectors):
        for i in range(len(X)):
            if i not in used and np.array_equal(X[i], v):
                full[i] = a
                used.add(i)
                break
    return full


def one(spec, x, z) -> float:
    """kernel_matrix on two 1-row inputs, as a scalar."""
    K = kernel_matrix(spec, np.asarray(x, dtype=float)[None, :], np.asarray(z, dtype=float)[None, :])
    assert K.shape == (1, 1)
    return float(K[0, 0])


def textbook_kernel(spec, A, B) -> np.ndarray:
    """The kernel block written out with full-size temporaries and no norm reuse."""
    if spec.kind == "linear":
        return A @ B.T
    sq = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * (A @ B.T)
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-sq / (2.0 * spec.sigma**2))


class TestKernels:
    def test_rbf_identical_points(self):
        # kernel_matrix expands ||x - z||^2 = |x|^2 + |z|^2 - 2 x.z, so a
        # self-distance is zero only to rounding
        x = np.array([0.3, -1.2])
        assert one(RBF1, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_rbf_at_two_sigma_squared(self):
        spec = KernelSpec("rbf", 2.0)
        x = np.zeros(2)
        z = np.array([np.sqrt(2.0) * 2.0, 0.0])  # ||x-z||^2 = 2 sigma^2
        assert one(spec, x, z) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_linear_dot(self):
        assert one(LIN, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_symmetry(self):
        gen = np.random.default_rng(2)
        x, z = gen.normal(size=2), gen.normal(size=2)
        for spec in (LIN, RBF1):
            assert one(spec, x, z) == pytest.approx(one(spec, z, x))

    def test_dimension_mismatch(self):
        with pytest.raises(ClassifierError, match=r"^dimensions 1 and 2 differ$"):
            one(LIN, [1.0], [1.0, 2.0])

    def test_matrix_matches_pointwise(self):
        # elementwise oracle: the textbook formula per (i, j) entry
        gen = np.random.default_rng(3)
        A, B = gen.normal(size=(4, 3)), gen.normal(size=(5, 3))
        for spec in (LIN, KernelSpec("rbf", 0.7)):
            K = kernel_matrix(spec, A, B)
            for i in range(4):
                for j in range(5):
                    if spec.kind == "linear":
                        expected = float(np.dot(A[i], B[j]))
                    else:
                        d2 = float(np.sum((A[i] - B[j]) ** 2))
                        expected = float(np.exp(-d2 / (2.0 * spec.sigma**2)))
                    assert K[i, j] == pytest.approx(expected, abs=1e-12)
                    assert one(spec, A[i], B[j]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("given_b_sq", [False, True])
    @pytest.mark.parametrize("cols", [1, 277, 2518])
    @pytest.mark.parametrize("rows", ["sub-1", "sub", "sub+1", 1, 64, 1023, 1024, 1025])
    def test_in_place_block_is_bitwise_the_textbook_expression(self, rows, cols, given_b_sq):
        # an RBF block is finished in row sub-blocks of this many rows, in one
        # pass when it has no more
        sub = max(1, classifier._RBF_SUB_BYTES // (8 * cols))
        if isinstance(rows, str):
            rows = sub + int(rows[3:] or 0)
        gen = np.random.default_rng(rows * cols)
        A, B = gen.normal(size=(rows, 27)), gen.normal(size=(cols, 27))
        A[0] = B[0]  # a zero distance, where rounding can go negative and is clipped
        b_sq = np.sum(B**2, axis=1) if given_b_sq else None
        for spec in (LIN, KernelSpec("rbf", 4.0)):
            K = kernel_matrix(spec, A, B, b_sq=b_sq)
            assert K.tobytes() == textbook_kernel(spec, A, B).tobytes()
            # out as the reference path passes it: a row slice of a larger array
            whole = np.full((rows + 3, cols), np.nan)
            out = whole[1 : rows + 1]
            assert kernel_matrix(spec, A, B, b_sq=b_sq, out=out) is out
            assert out.tobytes() == K.tobytes()
            assert np.isnan(whole[0]).all() and np.isnan(whole[rows + 1 :]).all()

    def test_rbf_block_into_out_allocates_no_block_sized_array(self):
        # the reference path's call: one KERNEL_BLOCK x SVs block of the ER demo
        # model (2,518 SVs, 27 columns), 19.7 MiB, written into `out`
        gen = np.random.default_rng(8)
        A = gen.normal(size=(classifier.KERNEL_BLOCK, 27))
        B = gen.normal(size=(2518, 27))
        out = np.empty((len(A), len(B)))
        _, peak = traced_peak(lambda: kernel_matrix(KernelSpec("rbf", 4.0), A, B, out=out))
        assert peak < 2**20, peak / 2**20

    def test_rbf_block_is_the_textbook_expression_at_zero_distance(self):
        # duplicate, near-duplicate and zero rows: the squared distance comes
        # out as an exact zero or a rounding-level negative, raised to 0
        gen = np.random.default_rng(11)
        B = gen.normal(size=(40, 27)) * 10.0
        B[1] = 0.0
        B[2] = -0.0
        A = np.vstack([B[:3], np.nextafter(B[3:20], np.inf), B[20:] * (1 + 2**-52)])
        raw = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * (A @ B.T)
        assert (raw < 0).any() and (raw == 0).any()
        for sigma in (0.5, 4.0):
            spec = KernelSpec("rbf", sigma)
            expected = textbook_kernel(spec, A, B)
            assert kernel_matrix(spec, A, B).tobytes() == expected.tobytes()
            for i in range(len(A)):  # the 1-row blocks of the SMO row cache
                row = textbook_kernel(spec, A[i : i + 1], B)
                assert kernel_matrix(spec, A[i], B).tobytes() == row.tobytes()

    def test_rbf_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        # 2 sigma^2 overflows to inf at 1e154 and underflows to 0 at 1e-200
        for sigma in (1e200, 1e154, 1e-200):
            with pytest.raises(ClassifierError, match=r"2 sigma\^2 in \(0, inf\)"):
                KernelSpec("rbf", sigma)
        for sigma in (1e153, 1e-150):  # 2 sigma^2 is finite and above 0
            spec = KernelSpec("rbf", sigma)
            assert np.isfinite(kernel_matrix(spec, [[0.0], [1.0]], [[0.0]])).all()

    @pytest.mark.filterwarnings("error")
    def test_tiny_sigma_gives_exact_zeros_without_an_overflow_warning(self):
        # 2 sigma^2 is about 2e-320, so d^2 / 2 sigma^2 overflows to inf for
        # any d^2 above about 4e-12, and exp(-inf) is the right 0; the third
        # row's d^2 underflows to 0
        K = kernel_matrix(KernelSpec("rbf", 1e-160), [[0.0], [1.0], [1e-170]], [[0.0]])
        assert K.tolist() == [[1.0], [0.0], [1.0]]


class TestTrainSvm:
    def test_symmetric_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = train_svm(X, y, SvmParams(C=1e6, weight=1.0, kernel=LIN))
        values = model.decision_values(X)
        assert values[0] == pytest.approx(-1.0, abs=1e-9)
        assert values[1] == pytest.approx(1.0, abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name,X,y,C,weight", TOY_SETS)
    @pytest.mark.parametrize("kind,sigma", KERNELS)
    def test_matches_qp_oracle(self, name, X, y, C, weight, kind, sigma):
        spec = KernelSpec(kind, sigma)
        model = train_svm(X, y.astype(float), SvmParams(C=C, weight=weight, kernel=spec))
        assert model.converged
        alpha = full_alpha(model, X)
        _, obj_ref, _, dec_ref = svm_dual_reference(X, y, C, C * weight, kind, sigma)
        assert dual_objective(X, y.astype(float), alpha, spec) == pytest.approx(
            obj_ref, abs=1e-3
        )
        assert np.max(np.abs(model.decision_values(X) - dec_ref)) < 1e-3

    @pytest.mark.parametrize("name,X,y,C,weight", TOY_SETS)
    def test_dual_feasibility(self, name, X, y, C, weight):
        model = train_svm(X, y.astype(float), SvmParams(C=C, weight=weight, kernel=RBF1))
        # coef = alpha * y with y = +-1, so alpha = |coef| and y = sign(coef)
        alphas = np.abs(model.coefs)
        upper = np.where(model.coefs > 0, C * weight, C)
        assert np.all(alphas > classifier.SUPPORT_EPS)
        assert np.all(alphas <= upper)
        assert abs(np.sum(model.coefs)) < 1e-6
        assert model.kkt_violation < 1e-3

    def test_duplicated_points_same_decision_function(self):
        name, X, y, C, weight = TOY_SETS[0]
        params = SvmParams(C=C, weight=weight, kernel=LIN)
        base = train_svm(X, y.astype(float), params)
        doubled = train_svm(np.vstack([X, X]), np.concatenate([y, y]).astype(float), params)
        grid = np.random.default_rng(0).normal(size=(20, 2))
        assert np.max(np.abs(base.decision_values(grid) - doubled.decision_values(grid))) < 1e-6

    def test_row_permutation_invariance(self, monkeypatch):
        # tight tol so both runs reach the unique optimum, not just tol-close
        monkeypatch.setattr(classifier, "KKT_TOL", 1e-9)
        name, X, y, C, weight = TOY_SETS[2]
        params = SvmParams(C=C, weight=weight, kernel=RBF1)
        base = train_svm(X, y.astype(float), params)
        perm = np.random.default_rng(1).permutation(len(y))
        shuffled = train_svm(X[perm], y[perm].astype(float), params)
        grid = np.random.default_rng(2).normal(size=(20, 2))
        assert np.max(np.abs(base.decision_values(grid) - shuffled.decision_values(grid))) < 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ClassifierError, match=r"^training data must contain both classes$"):
            train_svm(np.ones((3, 1)), np.ones(3), SvmParams(C=1.0, weight=1.0, kernel=LIN))

    @pytest.mark.parametrize("y,message", [
        ([-1.0, 0.0, 2.0, 1.0], "2 are not, the first is 0.0"),
        ([-1.0, 1.0, np.nan, 1.0], "1 are not, the first is nan"),
        ([-1.0, 1.0, 1.0 + 2**-52, 1.0], "1 are not, the first is 1.0000000000000002"),
    ])
    def test_labels_other_than_plus_minus_one_rejected(self, monkeypatch, y, message):
        monkeypatch.setattr(classifier, "kernel_matrix", None)  # no kernel work
        X = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ClassifierError, match=f"labels must be \\+1 or -1: {message}"):
            train_svm(X, np.array(y), SvmParams(C=1.0, weight=1.0, kernel=RBF1))

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf, -np.inf, np.nan]])
    def test_non_finite_vectors_rejected(self, monkeypatch, bad):
        monkeypatch.setattr(classifier, "kernel_matrix", None)  # no kernel work
        X = np.arange(8.0).reshape(4, 2)
        X.flat[: len(bad)] = bad
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ClassifierError, match=f"hold {len(bad)} non-finite entries"):
            train_svm(X, y, SvmParams(C=1.0, weight=1.0, kernel=LIN))


def xor_set(n: int = 400, seed: int = 17):
    """A non-linear, overlapping training set with hundreds of SMO steps."""
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 6))
    y = np.where(X[:, 0] * X[:, 1] + 0.3 * gen.normal(size=n) > 0, 1.0, -1.0)
    return X, y, SvmParams(C=4.0, weight=2.0, kernel=KernelSpec("rbf", 1.5))


class TestRowCache:
    @pytest.mark.parametrize("spec", [LIN, KernelSpec("rbf", 2.0)])
    def test_row_is_bitwise_the_kernel_matrix_row(self, spec):
        X = np.random.default_rng(7).normal(size=(300, 54))
        cache = classifier._RowCache(spec, X, capacity=2)
        for i in (0, 5, 299, 5, 0):
            assert cache.row(i).tobytes() == kernel_matrix(spec, X[i : i + 1], X)[0].tobytes()
        assert (cache.hits, cache.misses) == (1, 4)

    @pytest.mark.parametrize("gram_bytes", [classifier.FIT_GRAM_BYTES, 0],
                             ids=["whole-matrix", "row-cache"])
    def test_fit_is_bitwise_the_fit_on_textbook_rows(self, monkeypatch, gram_bytes):
        X, y, params = xor_set()
        monkeypatch.setattr(classifier, "FIT_GRAM_BYTES", gram_bytes)
        model = train_svm(X, y, params)
        # the textbook fit goes through _RowCache, whose rows are replaced
        monkeypatch.setattr(classifier, "FIT_GRAM_BYTES", 0)
        textbook_rows = []

        def textbook_row(self, i):
            textbook_rows.append(i)
            return textbook_kernel(self.spec, self.X[i : i + 1], self.X)[0]

        monkeypatch.setattr(classifier._RowCache, "row", textbook_row)
        plain = train_svm(X, y, params)
        assert len(textbook_rows) == 2 * plain.iterations
        assert model.coefs.tobytes() == plain.coefs.tobytes()
        assert model.bias == plain.bias
        assert model.support_vectors.tobytes() == plain.support_vectors.tobytes()

    @pytest.mark.parametrize("budget,gram_bytes", [
        pytest.param(classifier.KERNEL_ROWS_BYTES, classifier.FIT_GRAM_BYTES,
                     id="whole-matrix"),
        pytest.param(classifier.KERNEL_ROWS_BYTES, 0, id="row-cache"),
        pytest.param(1, classifier.FIT_GRAM_BYTES, id="evicting-row-cache"),
    ])
    def test_fit_counts_iterations_and_cache_traffic(self, monkeypatch, budget, gram_bytes):
        # budget 1 leaves the 64-row minimum cache, so rows are evicted and
        # recomputed, and the fit takes the row cache whatever FIT_GRAM_BYTES is
        monkeypatch.setattr(classifier, "KERNEL_ROWS_BYTES", budget)
        monkeypatch.setattr(classifier, "FIT_GRAM_BYTES", gram_bytes)
        X, y, params = xor_set()
        entries = []
        real = classifier.kernel_matrix

        def counting(*args, **kwargs):
            K = real(*args, **kwargs)
            entries.append(K.size)
            return K

        monkeypatch.setattr(classifier, "kernel_matrix", counting)
        model = train_svm(X, y, params)
        assert model.converged
        assert model.iterations > 100 and model.cache_hits > 0
        assert model.cache_hits + model.cache_misses == 2 * model.iterations
        if gram_bytes and budget > 1:
            # the whole matrix is one batched product, no kernel_matrix call;
            # a miss is a row's first request
            assert entries == []
            assert model.cache_misses <= len(y)
        else:
            assert sum(entries) == model.cache_misses * len(y)
        if budget == 1:
            assert model.cache_misses > 64


class TestGramRows:
    """A fit whose kernel matrix fits FIT_GRAM_BYTES builds it at once
    (_GramRows); every row must have the bits of the _RowCache row."""

    def test_batched_rows_are_the_lone_rows(self):
        # numpy hands each 1 x n product of a stacked matmul to the routine
        # that a lone 1 x n product takes; a numpy or BLAS that does not
        # trips here before any fit moves
        gen = np.random.default_rng(24)
        for case in range(9):
            n, d = int(gen.integers(2, 1501)), int(gen.integers(1, 71))
            X = gen.normal(size=(n, d))
            if case % 3 == 0:
                X = np.round(X, 1)
            batched = np.matmul(X[:, None, :], X.T)[:, 0]
            sq = np.sum(X**2, axis=1)
            for i in range(n):
                lone = X[i : i + 1]
                assert batched[i].tobytes() == np.matmul(lone, X.T)[0].tobytes(), (n, d, i)
                assert sq[i] == np.sum(lone**2, axis=1)[0], (n, d, i)

    @pytest.mark.parametrize("spec", [LIN, KernelSpec("rbf", 0.7)])
    def test_rows_are_the_row_cache_rows(self, spec):
        X = np.random.default_rng(9).normal(size=(300, 54))
        gram = classifier._GramRows(spec, X)
        cache = classifier._RowCache(spec, X, capacity=300)
        for i in (0, 7, 299, 7, 0, 150):
            assert gram.row(i).tobytes() == cache.row(i).tobytes()
        assert (gram.hits, gram.misses) == (cache.hits, cache.misses) == (2, 4)

    @pytest.mark.parametrize("spec", [LIN, KernelSpec("rbf", 1.5), KernelSpec("rbf", 4.0)])
    @pytest.mark.parametrize("n", [60, 400])
    def test_fit_is_the_row_cache_fit(self, monkeypatch, spec, n):
        X, y, _ = xor_set(n=n)
        params = SvmParams(C=4.0, weight=2.0, kernel=spec)
        real = classifier._GramRows
        built = []
        monkeypatch.setattr(classifier, "_GramRows",
                            lambda *args: built.append(args) or real(*args))
        model = train_svm(X, y, params)
        assert len(built) == 1
        monkeypatch.setattr(classifier, "FIT_GRAM_BYTES", 0)
        reference = train_svm(X, y, params)
        assert len(built) == 1
        assert_same_fit(model, reference)

    def test_large_fit_takes_the_row_cache(self, monkeypatch):
        # 513 rows need more than FIT_GRAM_BYTES for the whole matrix
        monkeypatch.setattr(classifier, "_GramRows", None)
        X, y, params = xor_set(n=513)
        assert 8 * len(y) ** 2 > classifier.FIT_GRAM_BYTES
        assert train_svm(X, y, params).converged


def assert_same_fit(model, reference):
    assert model.coefs.tobytes() == reference.coefs.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(reference.bias).tobytes()
    assert model.support_vectors.tobytes() == reference.support_vectors.tobytes()
    assert (
        np.float64(model.kkt_violation).tobytes() == np.float64(reference.kkt_violation).tobytes()
    )
    for name in ("iterations", "converged", "cache_hits", "cache_misses"):
        assert getattr(model, name) == getattr(reference, name), name


_GRID = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=2)))
# (name, X, y): small integer sets, with ties, exact zeros and zero biases;
# at line6's converged pair both -y * grad values are exactly zero
INTEGER_SETS = [
    ("grid3x3", _GRID, np.where((_GRID[:, 0] > 0) | ((_GRID[:, 0] == 0) & (_GRID[:, 1] > 0)), 1, -1)),
    ("line6", np.array([[-2.0], [0.0], [2.0], [2.0], [-2.0], [1.0]]), np.array([-1, -1, 1, 1, -1, 1])),
    ("grid4x2", np.array(list(itertools.product([0.0, 1.0, 2.0, 3.0], [0.0, 1.0]))),
     np.repeat([-1, 1], 4)),
]
SEEDED_KERNELS = (LIN, KernelSpec("rbf", 0.5), KernelSpec("rbf", 1.5), KernelSpec("rbf", 4.0))


def seeded_problem(seed: int):
    """(X, y, params) of a random fit; the seed picks the kernel, C and
    weight in turn and rounds X to one decimal every third seed (ties and
    exact zeros).  Seed 29 stops at the iteration cap."""
    gen = np.random.default_rng(seed)
    n, d = int(gen.integers(10, 121)), int(gen.integers(1, 6))
    X = gen.normal(size=(n, d))
    if seed % 3 == 0:
        X = np.round(X, 1)
    y = np.where(X @ gen.normal(size=d) + 0.2 * gen.normal(size=n) > 0, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    params = SvmParams(
        C=(0.01, 1.0, 4.0, 100.0)[seed // 4 % 4],
        weight=(1.0, 8.0)[seed // 16 % 2],
        kernel=SEEDED_KERNELS[seed % 4],
    )
    return X, y, params


class TestIncrementalSmo:
    """train_svm carries -y * grad and keeps the up/down sets incrementally;
    the fit must be the reference loop's, which keeps grad and rebuilds the
    sets every step, bit for bit."""

    @pytest.mark.parametrize("first", range(0, 320, 32))
    def test_seeded_fits_are_bitwise_the_reference(self, first, caplog):
        for seed in range(first, first + 32):
            X, y, params = seeded_problem(seed)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="netspread.classifier"):
                model = train_svm(X, y, params)
            assert_same_fit(model, reference_train_svm(X, y, params))
            # one warning per non-converged fit, naming why it stopped
            warned = [r.getMessage() for r in caplog.records]
            if model.converged:
                assert warned == []
            else:
                assert len(warned) == 1
                assert f"with violation {model.kkt_violation:.3g}; the model is not" in warned[0]
            if seed == 29:
                cap = max(100_000, 30 * len(y))
                assert model.iterations == cap
                assert warned[0].startswith(f"SMO stopped at the iteration cap {cap} ")

    @pytest.mark.parametrize(
        "X,y", [pytest.param(X, y, id=name) for name, X, y, *_ in TOY_SETS + INTEGER_SETS]
    )
    def test_small_sets_are_bitwise_the_reference(self, X, y):
        for spec in (LIN, RBF1, KernelSpec("rbf", 0.5)):
            for C in (0.01, 0.1, 0.5, 1.0, 10.0, 100.0):
                for weight in (1.0, 4.0):
                    params = SvmParams(C=C, weight=weight, kernel=spec)
                    model = train_svm(X, y.astype(float), params)
                    assert_same_fit(model, reference_train_svm(X, y.astype(float), params))

    @staticmethod
    def problem():
        gen = np.random.default_rng(31)
        X = gen.normal(size=(80, 5))
        y = np.where(X[:, 0] + 0.3 * gen.normal(size=80) > 0, 1.0, -1.0)
        return X, y

    @pytest.mark.parametrize("weight", [1.0, 8.0])
    @pytest.mark.parametrize("C", [0.01, 4.0, 100.0])
    @pytest.mark.parametrize("spec", [LIN, KernelSpec("rbf", 1.5)])
    def test_fit_is_bitwise_the_reference(self, spec, C, weight):
        X, y = self.problem()
        params = SvmParams(C=C, weight=weight, kernel=spec)
        model = train_svm(X, y, params)
        assert_same_fit(model, reference_train_svm(X, y, params))
        # alphas sit at 0 (not kept) and at the upper bound
        upper = np.where(model.coefs > 0, C * weight, C)
        assert 0 < len(model.coefs) < len(y)
        assert np.any(np.abs(model.coefs) == upper)

    def test_evicting_cache_is_bitwise_the_reference(self, monkeypatch):
        # budget 1 leaves the 64-row minimum cache, so rows are evicted and recomputed
        monkeypatch.setattr(classifier, "KERNEL_ROWS_BYTES", 1)
        X, y, params = xor_set()
        model = train_svm(X, y, params)
        assert model.cache_misses > 64
        assert_same_fit(model, reference_train_svm(X, y, params))


class TestPredict:
    def _record_model(self, rng):
        gen = np.random.default_rng(21)
        records = [random_record(TINY_SCHEMA, gen) for _ in range(60)]
        table = VertexTable.from_records(TINY_SCHEMA, records)
        enc = table.encoded()
        X = np.hstack([enc[:30], enc[30:]])
        # learnable rule: receiver age above the sender's
        y = np.where(
            table.columns["age_band"][30:] > table.columns["age_band"][:30], 1.0, -1.0
        )
        if len(set(y)) == 1:
            raise AssertionError("fixture degenerate")
        model = fit_pair_classifier(
            X, y, SvmParams(C=10.0, weight=1.0, kernel=RBF1), schema=TINY_SCHEMA
        )
        return model, records

    def test_sign_zero_is_negative(self):
        model = SvmModel(
            kernel=LIN,
            support_vectors=np.zeros((0, 2)),
            coefs=np.zeros(0),
            bias=0.0,
        )
        assert model.predict_labels(np.zeros((1, 2)))[0] == -1

    def test_positive_query(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = train_svm(X, y, SvmParams(C=1e6, weight=1.0, kernel=LIN))
        assert model.predict_labels(np.array([[1.0]]))[0] == 1

    def test_batch_equals_per_item(self, rng):
        model, records = self._record_model(rng)
        table = VertexTable.from_records(TINY_SCHEMA, records)
        senders = np.arange(0, 20)
        receivers = np.arange(20, 40)
        batch = model.predict_pairs(table, senders, receivers)
        singles = [
            model.predict_labels(
                np.concatenate([encode(records[s], TINY_SCHEMA), encode(records[r], TINY_SCHEMA)])
            )[0]
            for s, r in zip(senders, receivers)
        ]
        assert batch.tolist() == singles

    def test_schema_mismatch(self, rng):
        model, _ = self._record_model(rng)
        reordered = FeatureSchema(TINY_SCHEMA.fields[::-1])
        table = VertexTable.from_records(
            reordered, [random_record(reordered, rng) for _ in range(4)]
        )
        message = r"^vertex table schema differs from model schema$"
        with pytest.raises(ClassifierError, match=message):
            model.predict_pairs(table, [0, 1], [2, 3])


def pair_table(n: int = 90, seed: int = 21) -> VertexTable:
    gen = np.random.default_rng(seed)
    return VertexTable.from_records(TINY_SCHEMA, [random_record(TINY_SCHEMA, gen) for _ in range(n)])


def pair_model(kind: str, standardized: bool) -> SvmModel:
    """A model trained on pairs of `pair_table` records, rule: receiver older."""
    table = pair_table()
    enc = table.encoded()
    X = np.hstack([enc[:45], enc[45:]])
    y = np.where(table.columns["age_band"][45:] > table.columns["age_band"][:45], 1.0, -1.0)
    params = SvmParams(C=10.0, weight=1.0, kernel=KernelSpec(kind, 2.0 if kind == "rbf" else None))
    if standardized:
        return fit_pair_classifier(X, y, params, schema=TINY_SCHEMA)
    return train_svm(X, y, params)


def row_values(model: SvmModel, table: VertexTable, senders, receivers) -> np.ndarray:
    """The unfactored reference: decision values of the hstacked pair rows."""
    enc = table.encoded()
    return model.decision_values(np.hstack([enc[senders], enc[receivers]]))


# a call's values by either RBF scoring path: the reference path
# (pair_decision_values) or the certified fast form, which must take the call
SCORING_PATHS = {
    "reference": lambda model, *call: model.pair_decision_values(*call),
    "fast": lambda model, *call: fast_values(model, *call)[0],
}


# the block constant each scoring path passes to classifier._pair_dots, by the
# SvmModel method that calls it
PATH_BLOCKS = {"_pair_values": "KERNEL_BLOCK", "_fast_values": "FAST_BLOCK"}


def record_spans(monkeypatch) -> list:
    """[sender rows, receiver rows] of each span of every classifier._pair_dots
    call from now on, counted from the half rows it asks for.  A call whose
    block is not the one of the path that made it, or a request for more
    rows than that block, fails the call."""
    spans = []
    real = classifier._pair_dots

    def wrapped(half_rows, *args):
        caller = sys._getframe(1).f_code.co_name
        block = args[-1]
        assert block == getattr(classifier, PATH_BLOCKS[caller])

        def recording(Z, h, out):
            assert 0 < len(Z) <= block
            if h == 0 and (not spans or spans[-1][1]):  # a span's first sender block
                spans.append([0, 0])
            spans[-1][h] += len(Z)
            return half_rows(Z, h, out)

        return real(recording, *args)

    monkeypatch.setattr(classifier, "_pair_dots", wrapped)
    return spans


def unique_spans(senders, receivers, span: int) -> list:
    """[unique senders, unique receivers] of each run of `span` pairs."""
    return [[len(np.unique(senders[k : k + span])), len(np.unique(receivers[k : k + span]))]
            for k in range(0, len(senders), span)]


# index arrays of floats or booleans, which a cast to int would truncate
NON_INTEGER_PAIRS = [
    pytest.param([0.7], [1], r"^senders must be integer indices, got dtype float64$",
                 id="float-senders"),
    pytest.param(np.array([0.0, 1.0]), [2, 3],
                 r"^senders must be integer indices, got dtype float64$", id="whole-floats"),
    pytest.param([0, 1], [True, False], r"^receivers must be integer indices, got dtype bool$",
                 id="bool-receivers"),
    pytest.param(np.array([0], dtype=np.int32), np.array([1.9], dtype=np.float32),
                 r"^receivers must be integer indices, got dtype float32$",
                 id="float32-receivers"),
]


class TestFactoredPairScoring:
    @pytest.mark.parametrize("standardized", [True, False])
    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_matches_row_matrix_path(self, kind, standardized):
        model = pair_model(kind, standardized)
        assert len(model.coefs) > 0
        table = pair_table(seed=8)
        gen = np.random.default_rng(3)
        # more pairs than two chunks, with every sender and receiver repeated
        chunk = max(1, classifier.PAIR_CHUNK_BYTES // (16 * len(model.coefs)))
        count = 2 * chunk + 17
        senders = gen.integers(0, 30, size=count)
        receivers = gen.integers(0, len(table), size=count)
        expected = row_values(model, table, senders, receivers)
        values = model.pair_decision_values(table, senders, receivers)
        assert np.max(np.abs(values - expected)) <= 1e-9
        labels = model.predict_pairs(table, senders, receivers)
        assert np.array_equal(labels, np.where(expected > 0.0, 1, -1))  # 0 label flips

    def test_empty_pair_list(self):
        model = pair_model("rbf", True)
        labels = model.predict_pairs(pair_table(), [], [])
        assert labels.shape == (0,)

    @pytest.mark.parametrize("bias,label", [(0.5, 1), (0.0, -1), (-0.5, -1)])
    def test_no_support_vectors_is_the_bias_sign(self, bias, label):
        model = SvmModel(kernel=RBF1, support_vectors=np.zeros((0, 0)), coefs=np.zeros(0),
                         bias=bias)
        assert model.predict_pairs(pair_table(), [0, 1, 1], [2, 3, 4]).tolist() == [label] * 3

    def test_repeated_pair_same_value(self):
        model = pair_model("rbf", True)
        table = pair_table()
        values = model.pair_decision_values(table, [5, 5, 7, 5], [9, 9, 9, 9])
        assert values[0] == values[1] == values[3]
        assert values[2] == pytest.approx(row_values(model, table, [7], [9])[0], abs=1e-9)

    def test_wrong_model_width_rejected(self):
        model = SvmModel(kernel=RBF1, support_vectors=np.zeros((2, 3)), coefs=np.ones(2),
                         bias=0.0)
        message = r"^model dimension 3 is not twice the record width \d+$"
        with pytest.raises(ClassifierError, match=message):
            model.predict_pairs(pair_table(), [0], [1])

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("senders,receivers", [
        ([0], [1, 2, 3]), ([1, 2, 3], [0]), ([0, 1, 2], [3]), ([3], [0, 1, 2]),
    ])
    def test_pair_arrays_of_different_lengths_rejected(self, kind, senders, receivers):
        model = pair_model(kind, True)
        with pytest.raises(ClassifierError, match=f"^{len(senders)} senders but "
                           f"{len(receivers)} receivers$"):
            model.predict_pairs(pair_table(), senders, receivers)

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("senders,receivers,message", [
        ([0, -1, -2], [3, 4, 5], "pair 1: sender index -1 "),
        ([0, 1, 2], [3, 90, 91], "pair 1: receiver index 90 "),
        ([0, 1, 95], [3, -3, 5], "pair 1: receiver index -3 "),
        ([0, 1, 95], [3, 4, 5], "pair 2: sender index 95 "),
        ([90], [-1], "pair 0: sender index 90 "),
    ])
    def test_index_outside_the_table_rejected(self, kind, senders, receivers, message):
        model = pair_model(kind, True)
        rows = r"is outside the table's rows \[0, 90\)"
        with pytest.raises(ClassifierError, match=message + rows):
            model.predict_pairs(pair_table(), senders, receivers)

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("senders,receivers,message", NON_INTEGER_PAIRS)
    def test_non_integer_index_arrays_rejected(self, kind, senders, receivers, message):
        model = pair_model(kind, True)
        with pytest.raises(ClassifierError, match=message):
            model.predict_pairs(pair_table(), senders, receivers)

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_empty_pair_lists_score_nothing(self, kind):
        assert pair_model(kind, True).predict_pairs(pair_table(), [], []).tolist() == []

    def test_kernel_rows_once_per_unique_vertex_in_blocks(self, monkeypatch):
        model = pair_model("rbf", True)
        table = pair_table(n=600, seed=4)
        monkeypatch.setattr(classifier, "KERNEL_BLOCK", 64)
        shapes = []
        real = classifier.kernel_matrix

        def recording(spec, A, B, **kwargs):
            K = real(spec, A, B, **kwargs)
            shapes.append(K.shape)
            return K

        monkeypatch.setattr(classifier, "kernel_matrix", recording)
        gen = np.random.default_rng(9)
        senders = gen.integers(0, 200, size=5000)
        receivers = gen.integers(0, 600, size=5000)
        model.pair_decision_values(table, senders, receivers)
        svs = len(model.coefs)
        assert all(rows <= 64 and cols == svs for rows, cols in shapes)
        assert sum(rows for rows, _ in shapes) == (
            len(np.unique(senders)) + len(np.unique(receivers))
        )

    @pytest.mark.parametrize("max_rows", [40, 2])
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("path", SCORING_PATHS)
    def test_blocks_fit_the_row_budget(self, monkeypatch, path, ascending, max_rows):
        model = pair_model("rbf", True)
        table = pair_table(n=600, seed=4)
        svs = len(model.coefs)
        monkeypatch.setattr(classifier, "KERNEL_ROWS_BYTES", max_rows * 8 * svs)
        for name in PATH_BLOCKS.values():  # a span's rows in blocks
            monkeypatch.setattr(classifier, name, 16)
        gen = np.random.default_rng(12)
        senders = gen.integers(0, 200, size=3000)
        senders[:150] = 7  # one sender's pairs fill several spans
        receivers = gen.integers(0, 600, size=3000)
        if ascending:  # as diffusion_step passes them
            order = np.argsort(senders, kind="stable")
            senders, receivers = senders[order], receivers[order]
        spans = record_spans(monkeypatch)
        values = SCORING_PATHS[path](model, table, senders, receivers)
        # spans of max_rows // 2 pairs, each with rows once per unique vertex
        assert spans == unique_spans(senders, receivers, max_rows // 2)
        assert all((s + r) * 8 * svs <= classifier.KERNEL_ROWS_BYTES for s, r in spans)
        expected = row_values(model, table, senders, receivers)
        assert np.max(np.abs(values - expected)) <= 1e-9
        labels = model.predict_pairs(table, senders, receivers)
        assert np.array_equal(labels, np.where(expected > 0.0, 1, -1))  # 0 label flips


EXTENDED_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63


def random_pair_model(table: VertexTable, svs: int, sigma: float, scale: float,
                      seed: int) -> SvmModel:
    """An RBF model over pairs of `table` rows whose standardizer multiplies
    every column by `scale`; half of its SV halves are standardized table
    rows, so some kernel values are near 1 at any sigma, and the rest are
    those rows plus noise."""
    gen = np.random.default_rng(seed)
    enc = table.encoded() * scale
    d = enc.shape[1]
    halves = [enc[gen.integers(0, len(enc), size=svs)] for _ in range(2)]
    for half in halves:
        half[svs // 2 :] += gen.normal(scale=scale, size=(svs - svs // 2, d))
    return SvmModel(kernel=KernelSpec("rbf", sigma), support_vectors=np.hstack(halves),
                    coefs=gen.normal(scale=3.0, size=svs), bias=float(gen.normal()),
                    standardizer=Standardizer(means=np.zeros(2 * d),
                                              stds=np.full(2 * d, 1.0 / scale)))


def guard_reach(model: SvmModel, table: VertexTable, senders, receivers) -> float:
    """P of predict_pairs' docstring times 2 sigma^2, recomputed from its definition."""
    enc = model.standardizer.transform(np.hstack([table.encoded()[senders],
                                                  table.encoded()[receivers]]))
    d = enc.shape[1] // 2
    reach = 0.0
    for cols in (slice(0, d), slice(d, 2 * d)):
        rows = np.sqrt(np.sum(enc[:, cols] ** 2, axis=1)).max()
        svs = np.sqrt(np.sum(model.support_vectors[:, cols] ** 2, axis=1)).max()
        reach += (rows + svs) ** 2
    return reach


def near_guard_model(table, senders, receivers) -> SvmModel:
    """A large-norm random model whose sigma puts the call's P at 590."""
    model = random_pair_model(table, 60, 1.0, 25.0, seed=4)
    sigma = float(np.sqrt(guard_reach(model, table, senders, receivers) / (2 * 590.0)))
    model.kernel = KernelSpec("rbf", sigma)
    return model


def c100_model(table, senders, receivers) -> SvmModel:
    """A C = 100 fit to random labels, so many coefs sit at +-100."""
    enc = pair_table().encoded()
    X = np.hstack([enc[:45], enc[45:]])
    y = np.where(np.random.default_rng(2).random(45) < 0.5, 1.0, -1.0)
    return fit_pair_classifier(X, y, SvmParams(C=100.0, weight=1.0, kernel=KernelSpec("rbf", 8.0)),
                               schema=TINY_SCHEMA)


def tiny_coef_model(table, senders, receivers) -> SvmModel:
    """Coefs near 1e-50 and no bias, where B's underflow term is not negligible."""
    model = random_pair_model(table, 40, 2.0, 1.0, seed=5)
    model.coefs *= 1e-50
    model.bias = 0.0
    return model


# (id, build(table, senders, receivers)): unit norms, large norms, sigma near
# the range guard, a trained C = 100 model and tiny coefs
BOUND_MODELS = [
    ("unit", lambda t, s, r: random_pair_model(t, 40, 2.0, 1.0, seed=1)),
    ("large-norms", lambda t, s, r: random_pair_model(t, 300, 40.0, 30.0, seed=2)),
    ("near-guard", near_guard_model),
    ("C100", c100_model),
    ("tiny-coefs", tiny_coef_model),
]


def bound_call(seed: int = 5):
    table = pair_table(n=300, seed=seed)
    gen = np.random.default_rng(seed)
    senders = np.sort(gen.integers(0, 120, size=2500))
    return table, senders, gen.integers(0, 300, size=2500)


def fast_values(model: SvmModel, table, senders, receivers):
    """(f^, B) of the certified fast path, which must take the call."""
    fast = model._fast_values(*model._pair_rows(table, senders, receivers))
    assert fast is not None
    return fast


def exact_values(model: SvmModel, table, senders, receivers) -> np.ndarray:
    """The decision values in extended precision: sum_k c_k exp(-(|s - a_k|^2
    + |r - b_k|^2) / 2 sigma^2) + b over the standardized float rows."""
    enc = table.encoded()
    X = model.standardizer.transform(np.hstack([enc[senders], enc[receivers]]))
    X, sv = X.astype(np.longdouble), model.support_vectors.astype(np.longdouble)
    two_sig2 = 2 * np.longdouble(model.kernel.sigma) ** 2
    values = np.empty(len(X), dtype=np.longdouble)
    for start in range(0, len(X), 256):
        rows = X[start : start + 256]
        sq = np.sum((rows[:, None, :] - sv[None, :, :]) ** 2, axis=2)
        values[start : start + 256] = np.exp(-sq / two_sig2) @ model.coefs.astype(np.longdouble)
    return values + np.longdouble(model.bias)


class TestCertifiedPairScoring:
    @pytest.mark.parametrize("build", [b for _, b in BOUND_MODELS], ids=[i for i, _ in BOUND_MODELS])
    def test_fast_values_are_within_the_bound_of_the_reference(self, build):
        table, senders, receivers = bound_call()
        model = build(table, senders, receivers)
        values, bound = fast_values(model, table, senders, receivers)
        reference = model.pair_decision_values(table, senders, receivers)
        assert np.max(np.abs(values - reference)) <= bound
        # the labels are the reference's, by the fast path or the fallback
        labels = model.predict_pairs(table, senders, receivers)
        assert np.array_equal(labels, np.where(reference > 0.0, 1, -1))

    @pytest.mark.skipif(not EXTENDED_LONG_DOUBLE, reason="needs an extended long double")
    @pytest.mark.parametrize("build", [b for _, b in BOUND_MODELS], ids=[i for i, _ in BOUND_MODELS])
    def test_both_paths_are_within_the_bound_of_the_exact_value(self, build):
        table, senders, receivers = bound_call(seed=6)
        model = build(table, senders, receivers)
        values, bound = fast_values(model, table, senders, receivers)
        exact = exact_values(model, table, senders, receivers)
        reference = model.pair_decision_values(table, senders, receivers)
        assert np.max(np.abs(values - exact)) <= bound
        assert np.max(np.abs(reference - exact)) <= bound

    @pytest.mark.parametrize("build", [b for _, b in BOUND_MODELS], ids=[i for i, _ in BOUND_MODELS])
    def test_bound_is_the_documented_formula(self, build):
        # B = 2 [((1 + gamma_{K+18}) e^D - 1) sum|c_k| + u |b| + 2 (K + 1) 2^-1074 e^600],
        # D = gamma_{d+5} P, as predict_pairs states it
        table, senders, receivers = bound_call()
        model = build(table, senders, receivers)
        _, bound = fast_values(model, table, senders, receivers)
        u = 2.0**-53
        K, d = model.support_vectors.shape[0], model.support_vectors.shape[1] // 2

        def gamma(n):
            return n * u / (1 - n * u)

        D = gamma(d + 5) * guard_reach(model, table, senders, receivers) / (
            2 * model.kernel.sigma**2)
        # (1 + g) e^D - 1 written as g e^D + expm1(D), which does not cancel
        expected = 2 * ((gamma(K + 18) * np.exp(D) + np.expm1(D)) * np.sum(np.abs(model.coefs))
                        + u * abs(model.bias) + 2 * (K + 1) * 2.0**-1074 * np.exp(600.0))
        assert bound == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_near_guard_model_sits_just_inside_the_guard(self):
        table, senders, receivers = bound_call()
        model = near_guard_model(table, senders, receivers)
        assert 580 < guard_reach(model, table, senders, receivers) / (
            2 * model.kernel.sigma**2) <= 600
        fast_values(model, table, senders, receivers)
        model.kernel = KernelSpec("rbf", model.kernel.sigma * 0.99)  # P above 600
        assert model._fast_values(*model._pair_rows(table, senders, receivers)) is None

    def test_a_pair_within_2b_sends_the_call_to_the_reference_path(self):
        table, senders, receivers = bound_call()
        model = random_pair_model(table, 40, 2.0, 1.0, seed=1)
        first = model.pair_decision_values(table, senders, receivers)
        model.bias -= float(first[7])  # pair 7's decision value is now about 0
        values, bound = fast_values(model, table, senders, receivers)
        assert abs(values[7]) <= 2 * bound
        labels = model.predict_pairs(table, senders, receivers)
        reference = model.pair_decision_values(table, senders, receivers)
        assert np.array_equal(labels, np.where(reference > 0.0, 1, -1))
        assert (model.fast_calls, model.fallback_calls) == (0, 1)
        assert model.min_margin_ratio == np.min(np.abs(values)) / (2 * bound) <= 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma,coef_scale", [
        (1e-160, 1.0), (1e-100, 1.0), (0.05, 1.0),  # a small sigma
        (2.0, 1e-310),  # folded coefs below the normal range
        (2.0, 1e45),  # sum|c_k| above 1e40
    ])
    def test_models_outside_the_range_guard_take_the_reference_path(self, sigma, coef_scale):
        table, senders, receivers = bound_call()
        model = random_pair_model(table, 40, sigma, 1.0, seed=3)
        model.coefs *= coef_scale
        assert model._fast_values(*model._pair_rows(table, senders, receivers)) is None
        labels = model.predict_pairs(table, senders, receivers)
        reference = model.pair_decision_values(table, senders, receivers)
        assert np.array_equal(labels, np.where(reference > 0.0, 1, -1))
        assert (model.fast_calls, model.fallback_calls) == (0, 1)
        assert model.min_margin_ratio == np.inf

    def test_linear_and_empty_models_take_the_reference_path(self):
        table, senders, receivers = bound_call()
        for model in (pair_model("linear", True),
                      SvmModel(kernel=RBF1, support_vectors=np.zeros((0, 0)), coefs=np.zeros(0),
                               bias=0.5)):
            model.predict_pairs(table, senders, receivers)
            assert (model.fast_calls, model.fallback_calls) == (0, 1)

    @pytest.mark.parametrize("max_rows", [40, 2])
    @pytest.mark.parametrize("path", SCORING_PATHS)
    def test_spans_keep_the_row_budget_and_the_bound(self, monkeypatch, path, max_rows):
        table, senders, receivers = bound_call()
        model = random_pair_model(table, 40, 2.0, 1.0, seed=1)
        monkeypatch.setattr(classifier, "KERNEL_ROWS_BYTES", max_rows * 8 * 40)
        spans = record_spans(monkeypatch)
        SCORING_PATHS[path](model, table, senders, receivers)
        assert spans == unique_spans(senders, receivers, max_rows // 2)
        assert all((s + r) * 8 * 40 <= classifier.KERNEL_ROWS_BYTES for s, r in spans)
        values, bound = fast_values(model, table, senders, receivers)
        reference = model.pair_decision_values(table, senders, receivers)
        assert np.max(np.abs(values - reference)) <= bound
        labels = model.predict_pairs(table, senders, receivers)
        assert np.array_equal(labels, np.where(reference > 0.0, 1, -1))
        assert model.fast_calls == 1

    def test_changed_bias_coefs_or_svs_are_not_scored_stale(self):
        table, senders, receivers = bound_call()
        model = random_pair_model(table, 40, 2.0, 1.0, seed=1)

        def check():
            labels = model.predict_pairs(table, senders, receivers)
            reference = model.pair_decision_values(table, senders, receivers)
            assert np.array_equal(labels, np.where(reference > 0.0, 1, -1))
            return reference

        first = check()
        model.bias -= float(np.median(first)) + 1e-6  # about half the labels flip
        assert np.count_nonzero((check() > 0) != (first > 0)) > len(first) // 4
        model.coefs = -model.coefs  # a new array
        check()
        model.coefs[::2] *= 4.0  # the same array, changed in place
        check()
        model.support_vectors[:, :3] += 0.5
        check()
        model.kernel = KernelSpec("rbf", 3.0)
        check()
        assert (model.fast_calls, model.fallback_calls) == (6, 0)

    def test_counters_match_a_wrapper_count(self, monkeypatch):
        table, _, _ = bound_call()
        model = random_pair_model(table, 40, 2.0, 1.0, seed=1)
        gen = np.random.default_rng(8)
        calls = [(gen.integers(0, 300, size=k), gen.integers(0, 300, size=k))
                 for k in (0, 1, 50, 400, 3000)]
        reference_calls = []
        real = SvmModel._pair_values

        def counting(self, *rows):
            reference_calls.append(len(rows[2]))
            return real(self, *rows)

        monkeypatch.setattr(SvmModel, "_pair_values", counting)
        ratios = []
        for senders, receivers in calls:
            values, bound = fast_values(model, table, senders, receivers)
            ratios.extend(np.abs(values) / (2 * bound))
            model.predict_pairs(table, senders, receivers)
        assert (model.fast_calls, model.fallback_calls) == (len(calls), len(reference_calls))
        assert model.min_margin_ratio == min(ratios)
        # a bias that puts the last call's pair 0 at about 0 forces a fallback
        senders, receivers = calls[-1]
        model.bias -= float(model.pair_decision_values(table, senders, receivers)[0])
        reference_calls.clear()
        model.predict_pairs(table, senders, receivers)
        assert (model.fast_calls, model.fallback_calls) == (len(calls), 1)
        assert reference_calls == [len(senders)]
        assert model.min_margin_ratio <= 1.0


def textbook_dots(half_rows, coefs, Zs, Zr, senders, receivers, span: int,
                  block: int | None = None) -> np.ndarray:
    """sum_k coefs_k S[s, k] R[r, k] of each pair (s, r), written out over the
    standardized sender and receiver halves Zs and Zr of every table row: per
    run of `span` pairs, S (times the coefs) and R hold the half rows of its
    np.unique senders and receivers, half_rows(rows, h) per `block` rows
    (KERNEL_BLOCK when None), and one einsum takes the run."""
    block = block or classifier.KERNEL_BLOCK
    values = []
    for k in range(0, len(senders), span):
        halves = []
        for h, (Z, ids) in enumerate(((Zs, senders[k : k + span]), (Zr, receivers[k : k + span]))):
            unique, inverse = np.unique(ids, return_inverse=True)
            rows = Z[unique]
            H = np.vstack([half_rows(rows[b : b + block], h) for b in range(0, len(rows), block)])
            halves.append((H * coefs if h == 0 else H)[inverse])
        values.append(np.einsum("ij,ij->i", *halves))
    return np.concatenate(values)


class TestPairScoringBits:
    """Both RBF scoring paths against their textbook forms, bit for bit."""

    @staticmethod
    def call(count: int, max_rows, monkeypatch, ascending: bool = False):
        """A random model with 40 SVs, a call of `count` pairs (sorted by
        sender if ascending), the standardized sender and receiver halves of
        every table row and the pairs per span, under a row budget of
        max_rows.  Without a budget, or with one above 40 rows, both paths
        build rows in blocks of 64, so receivers fill several blocks."""
        table = pair_table(n=300, seed=9)
        model = random_pair_model(table, 40, 2.0, 1.0, seed=7)
        gen = np.random.default_rng(count)
        senders, receivers = gen.integers(0, 300, size=(2, count))
        if ascending:  # as diffusion_step passes them
            order = np.argsort(senders, kind="stable")
            senders, receivers = senders[order], receivers[order]
        if max_rows is None or max_rows > 40:
            for name in PATH_BLOCKS.values():  # rows in several blocks
                monkeypatch.setattr(classifier, name, 64)
        if max_rows is None:
            span = count
        else:
            monkeypatch.setattr(classifier, "KERNEL_ROWS_BYTES", max_rows * 8 * 40)
            span = max_rows // 2
            assert len(np.unique(senders)) + len(np.unique(receivers)) > max_rows
        std = model.standardizer
        Z = (np.hstack([table.encoded()] * 2) - std.means) / std.stds
        d = Z.shape[1] // 2
        return model, table, senders, receivers, (Z[:, :d], Z[:, d:]), span

    # (pairs, row budget): a chunk holds PAIR_CHUNK_BYTES // (16 * 40) = 819
    # pairs; a budget of None takes the call in one span
    CALLS = [(count, max_rows) for count in (1, 818, 819, 820, 2 * 819 + 5, 4000)
             for max_rows in (None, 40, 2) if count > 1 or max_rows is None]

    @pytest.mark.parametrize("count,max_rows", CALLS)
    def test_reference_values(self, monkeypatch, count, max_rows):
        model, table, senders, receivers, Z, span = self.call(count, max_rows, monkeypatch)
        d = Z[0].shape[1]
        sv = model.support_vectors
        halves = [np.ascontiguousarray(sv[:, :d]), np.ascontiguousarray(sv[:, d:])]
        expected = textbook_dots(lambda rows, h: kernel_matrix(model.kernel, rows, halves[h]),
                                 model.coefs, *Z, senders, receivers, span)
        expected += model.bias
        values = model.pair_decision_values(table, senders, receivers)
        assert values.tobytes() == expected.tobytes()

    @staticmethod
    def fast_textbook(model, Z, senders, receivers, span) -> np.ndarray:
        """e(s) e(r) g + b with e(x) = exp(-|x|^2 / 2 sigma^2) and
        g = sum_k c_k e(a_k) e(b_k) exp(s.a_k / sigma^2) exp(r.b_k / sigma^2),
        its rows in blocks of FAST_BLOCK."""
        d = Z[0].shape[1]
        sigma2 = model.kernel.sigma * model.kernel.sigma
        sv = model.support_vectors
        halves = [np.ascontiguousarray(sv[:, :d] / sigma2),
                  np.ascontiguousarray(sv[:, d:] / sigma2)]

        def e(X):
            return np.exp(np.einsum("ij,ij->i", X, X) / -(2.0 * sigma2))

        folded = model.coefs * e(sv[:, :d]) * e(sv[:, d:])
        g = textbook_dots(lambda rows, h: np.exp(rows @ halves[h].T), folded,
                          *Z, senders, receivers, span, classifier.FAST_BLOCK)
        return g * e(Z[0])[senders] * e(Z[1])[receivers] + model.bias

    @pytest.mark.parametrize("count,max_rows", CALLS)
    def test_fast_values(self, monkeypatch, count, max_rows):
        model, table, senders, receivers, Z, span = self.call(count, max_rows, monkeypatch)
        expected = self.fast_textbook(model, Z, senders, receivers, span)
        values, _ = fast_values(model, table, senders, receivers)
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("max_rows", [None, 400])
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("path", SCORING_PATHS)
    def test_receivers_in_several_blocks(self, monkeypatch, path, ascending, max_rows):
        # the receivers of the call, or of each span of 200 pairs, fill
        # several 64-row blocks; each value keeps the bits of its textbook form
        model, table, senders, receivers, Z, span = self.call(4000, max_rows, monkeypatch,
                                                              ascending)
        assert all(len(np.unique(receivers[k : k + span])) > 2 * 64
                   for k in range(0, len(receivers), span))
        if path == "reference":
            halves = [np.ascontiguousarray(h) for h in np.hsplit(model.support_vectors, 2)]
            expected = textbook_dots(lambda rows, h: kernel_matrix(model.kernel, rows, halves[h]),
                                     model.coefs, *Z, senders, receivers, span) + model.bias
        else:
            expected = self.fast_textbook(model, Z, senders, receivers, span)
        values = SCORING_PATHS[path](model, table, senders, receivers)
        assert values.tobytes() == expected.tobytes()


class TestPairScoringMemory:
    @pytest.mark.parametrize("path", ["predict_pairs", "pair_decision_values"])
    def test_scoring_holds_the_senders_and_one_receiver_block(self, path):
        # 9,216 receivers fill nine reference blocks and 36 fast blocks; 256
        # senders, in ascending order as diffusion_step passes them; 200 SVs
        n, svs = 9 * 1024, 200
        table = pair_table(n=n, seed=3)
        model = random_pair_model(table, svs, 2.0, 1.0, seed=1)
        gen = np.random.default_rng(4)
        receivers = np.concatenate([gen.permutation(n), gen.permutation(n)])
        senders = np.sort(gen.integers(0, 256, size=2 * n))
        table.encoded()  # cached before the trace: a table is encoded once
        _, peak = traced_peak(lambda: getattr(model, path)(table, senders, receivers))
        row = 8 * svs
        block = (classifier.KERNEL_BLOCK if path == "pair_decision_values"
                 else classifier.FAST_BLOCK)
        chunk = 2 * (classifier.PAIR_CHUNK_BYTES // (16 * svs))
        held = (256 + block + chunk) * row + classifier._RBF_SUB_BYTES
        # eight pair-length arrays of 8-byte indices, values and labels, and
        # two copies of the receivers' records, as gathered and standardized
        allowance = 8 * 8 * len(senders) + 2 * table.encoded().nbytes
        assert held + allowance < n * row / 2  # far below every receiver row
        assert peak <= held + allowance
        assert model.fallback_calls == 0


@pytest.mark.parametrize("n,size,seed", [(1, 0, 0), (1, 5, 1), (10, 3, 2), (300, 2500, 3),
                                         (2500, 40, 4)])
def test_unique_indices_are_np_unique(n, size, seed):
    ids = np.random.default_rng(seed).integers(0, n, size=size)
    for given in (ids, np.sort(ids)):
        unique, inverse = classifier._unique_indices(given, n)
        expected, expected_inverse = np.unique(given, return_inverse=True)
        assert unique.tolist() == expected.tolist()
        assert inverse.tolist() == expected_inverse.tolist()
        assert inverse.dtype == expected_inverse.dtype


class TestBalancedError:
    def test_perfect(self):
        labels = np.array([1, 1, -1, -1, -1])
        assert balanced_error(labels, labels) == 0.0

    def test_constant_negative_is_half(self):
        labels = np.array([1, -1, -1, -1, -1, -1, -1, 1])
        preds = -np.ones_like(labels)
        assert balanced_error(preds, labels) == 0.5

    def test_hand_value(self):
        labels = np.array([1] * 5 + [-1] * 5)
        preds = labels.copy()
        preds[0] = -1  # positive error 0.2
        preds[5] = 1
        preds[6] = 1  # negative error 0.4
        assert balanced_error(preds, labels) == pytest.approx(0.3)

    def test_single_class_rejected(self):
        with pytest.raises(ClassifierError, match=r"^labels must contain both classes$"):
            balanced_error(np.ones(3), np.ones(3))

    def test_flipped_predictions_complement(self):
        # per-class errors flip to their complements, so the mean does too
        gen = np.random.default_rng(6)
        labels = np.where(gen.random(40) < 0.3, 1, -1)
        preds = np.where(gen.random(40) < 0.5, 1, -1)
        total = balanced_error(preds, labels) + balanced_error(-preds, labels)
        assert total == pytest.approx(1.0)


class TestCrossValidation:
    def _toy(self):
        gen = np.random.default_rng(11)
        X = np.vstack([gen.normal(-2.0, 0.4, size=(30, 2)), gen.normal(2.0, 0.4, size=(30, 2))])
        y = np.array([-1] * 30 + [1] * 30)
        return X, y

    def test_stratified_fold_shapes(self):
        y = np.array([1] * 10 + [-1] * 35)
        folds = stratified_folds(y, 3, np.random.default_rng(0))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        pos_counts = [int(np.sum(y[f] == 1)) for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1
        all_indices = sorted(i for f in folds for i in f)
        assert all_indices == list(range(45))

    def test_single_point_grid(self):
        X, y = self._toy()
        grid = [SvmParams(C=4.0, weight=2.0, kernel=LIN)]
        report = cross_validate(X, y, grid, 3, np.random.default_rng(5))
        assert report.best == grid[0]
        assert len(report.entries) == 1

    def test_separable_data_reaches_zero_error(self):
        X, y = self._toy()
        grid = [
            SvmParams(C=c, weight=1.0, kernel=LIN) for c in (0.25, 4.0, 64.0)
        ]
        report = cross_validate(X, y, grid, 3, np.random.default_rng(5))
        best = next(e for e in report.entries if e.params == report.best)
        assert best.balanced_error == 0.0

    def test_tie_breaks_toward_smaller_parameters(self):
        X, y = self._toy()
        grid = [
            SvmParams(C=64.0, weight=1.0, kernel=LIN),
            SvmParams(C=4.0, weight=1.0, kernel=LIN),
        ]
        report = cross_validate(X, y, grid, 3, np.random.default_rng(5))
        # both achieve zero error: the smaller C must win regardless of order
        assert report.best.C == 4.0

    def test_entries_are_the_explicit_recipe_bit_for_bit(self):
        # each fold: fit the standardizer on the training split, train on the
        # standardized split, predict the standardized held-out fold
        gen = np.random.default_rng(23)
        X = np.vstack([gen.normal(-0.4, 1.0, size=(24, 3)), gen.normal(0.4, 1.0, size=(16, 3))])
        y = np.array([-1] * 24 + [1] * 16)
        grid = [SvmParams(C=0.5, weight=1.5, kernel=KernelSpec("rbf", 0.7)),
                SvmParams(C=8.0, weight=1.5, kernel=KernelSpec("rbf", 2.0))]
        report = cross_validate(X, y, grid, 3, np.random.default_rng(4))
        folds = stratified_folds(y, 3, np.random.default_rng(4))
        explicit = []
        for params in grid:
            errors = []
            for fold in folds:
                train = np.setdiff1d(np.arange(len(y)), fold)
                std = Standardizer.fit(X[train])
                model = train_svm(std.transform(X[train]), y[train], params)
                errors.append(balanced_error(model.predict_labels(std.transform(X[fold])), y[fold]))
            explicit.append(float(np.mean(errors)))
        assert [e.params for e in report.entries] == grid
        assert [e.balanced_error for e in report.entries] == explicit
        assert explicit[0] != explicit[1]
        assert report.best == grid[int(np.argmin(explicit))]

    def test_report_is_cv_report(self):
        X, y = self._toy()
        report = cross_validate(
            X, y, [SvmParams(C=1.0, weight=1.0, kernel=LIN)], 2, np.random.default_rng(0)
        )
        assert isinstance(report, CvReport)


NAN, INF = float("nan"), float("inf")
SV = {"coef": 0.5, "vector": [1.0, -1.0]}
LINEAR_DOC = {"kernel": "linear", "bias": 0.0, "support": [SV], "standardizer": None}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        name, X, y, C, weight = TOY_SETS[2]
        model = fit_pair_classifier(
            X, y.astype(float), SvmParams(C=C, weight=weight, kernel=RBF1)
        )
        path = tmp_path / "model.json"
        model.save(path)
        again = SvmModel.load(path)
        grid = np.random.default_rng(3).normal(size=(10, 2))
        assert np.allclose(model.decision_values(grid), again.decision_values(grid))

    def test_json_layout(self, tmp_path):
        import json

        name, X, y, C, weight = TOY_SETS[0]
        model = fit_pair_classifier(X, y.astype(float), SvmParams(C=C, weight=weight, kernel=RBF1))
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"kernel", "sigma", "bias", "support", "standardizer"}
        assert set(doc["support"][0]) == {"coef", "vector"}
        assert set(doc["standardizer"]) == {"means", "stds"}

    def test_linear_model_omits_sigma(self, tmp_path):
        import json

        name, X, y, C, weight = TOY_SETS[0]
        model = fit_pair_classifier(X, y.astype(float), SvmParams(C=C, weight=weight, kernel=LIN))
        path = tmp_path / "model.json"
        model.save(path)
        assert "sigma" not in json.loads(path.read_text())

    @pytest.mark.parametrize("doc,problem", [
        ({}, "missing key 'kernel'"),
        ({"kernel": "linear", "bias": 0.0}, "missing key 'support'"),
        ({"kernel": "linear", "bias": 0.0, "support": [{"vector": [1.0]}]},
         "missing key 'coef'"),
        ({"kernel": "rbf", "bias": 0.0, "support": []}, "rbf kernel needs finite sigma > 0"),
        ({"kernel": "rbf", "sigma": 1e200, "bias": 0.0, "support": []},
         "rbf kernel needs 2 sigma^2 in (0, inf) as a float, got sigma 1e+200"),
        ({"kernel": "rbf", "sigma": 1e-200, "bias": 0.0, "support": []},
         "rbf kernel needs 2 sigma^2 in (0, inf) as a float, got sigma 1e-200"),
        ({"kernel": "rbf", "sigma": "1.0", "bias": 0.0, "support": []}, "sigma: not a number"),
        ({"kernel": "rbf", "sigma": 10**400, "bias": 0.0, "support": []}, "sigma: not a number"),
        ({"kernel": "rbf", "sigma": True, "bias": 0.0, "support": []}, "sigma: not a number"),
        ([], "not a JSON object"),
        ({"kernel": "linear", "bias": 0.0, "support": {"coef": 1.0, "vector": [1.0]}},
         "support: not a list of objects"),
        ({"kernel": "linear", "bias": 0.0, "support": [[1.0]]}, "support: not a list of objects"),
        (dict(LINEAR_DOC, bias=NAN), "bias: holds NaN or an infinity"),
        (dict(LINEAR_DOC, bias=None), "bias: not a number"),
        (dict(LINEAR_DOC, support=[SV, dict(SV, coef=-INF)]),
         "support[1].coef: holds NaN or an infinity"),
        (dict(LINEAR_DOC, support=[SV, dict(SV, coef="1.0")]), "support[1].coef: not a number"),
        (dict(LINEAR_DOC, support=[dict(SV, vector=[1.0, INF]), SV]),
         "support[0].vector: holds NaN or an infinity"),
        (dict(LINEAR_DOC, support=[dict(SV, vector=[1.0, None])]),
         "support[0].vector: not a list of numbers"),
        (dict(LINEAR_DOC, support=[SV, dict(SV, vector=[1.0])]),
         "support: vectors of different lengths"),
        (dict(LINEAR_DOC, standardizer=[1.0]), "standardizer: not an object"),
        (dict(LINEAR_DOC, standardizer={"means": [0.0, NAN], "stds": [1.0, 1.0]}),
         "standardizer.means: holds NaN or an infinity"),
        (dict(LINEAR_DOC, standardizer={"means": [0.0, 0.0], "stds": [1.0, 0.0]}),
         "standardizer.stds: holds a std <= 0"),
        (dict(LINEAR_DOC, standardizer={"means": [0.0, 0.0]}), "missing key 'stds'"),
        (dict(LINEAR_DOC, standardizer={"means": [0.0], "stds": [1.0]}),
         "standardizer: means, stds and vectors differ in length"),
        (dict(LINEAR_DOC, support=[], standardizer={"means": [0.0], "stds": [1.0, 1.0]}),
         "standardizer: means, stds and vectors differ in length"),
    ])
    def test_malformed_file_names_file_and_key(self, tmp_path, doc, problem):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ClassifierError) as err:
            SvmModel.load(path)
        assert str(err.value) == f"{path}: {problem}"

    def test_the_valid_base_document_loads(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(LINEAR_DOC, standardizer={"means": [0, 1], "stds": [2, 1]})))
        model = SvmModel.load(path)
        assert model.coefs.tolist() == [0.5] and model.support_vectors.tolist() == [[1.0, -1.0]]
        assert model.standardizer.stds.tolist() == [2.0, 1.0]


class TestConstantModel:
    def test_labels(self, tiny_schema):
        records = [random_record(tiny_schema, np.random.default_rng(1)) for _ in range(6)]
        table = VertexTable.from_records(tiny_schema, records)
        stub = ConstantModel(-1)
        assert stub.predict_pairs(table, [0, 1, 2, 3], [4, 5, 4, 5]).tolist() == [-1] * 4

    def test_pairs(self, tiny_schema, rng):
        records = [random_record(tiny_schema, np.random.default_rng(1)) for _ in range(6)]
        table = VertexTable.from_records(tiny_schema, records)
        stub = ConstantModel(1)
        assert stub.predict_pairs(table, [0, 1], [2, 3]).tolist() == [1, 1]

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            ConstantModel(0)

    @pytest.mark.parametrize("senders,receivers", [([0], [1, 2, 3]), ([0, 1, 2], [3])])
    def test_pair_arrays_of_different_lengths_rejected(self, senders, receivers):
        message = f"^{len(senders)} senders but {len(receivers)} receivers$"
        with pytest.raises(ClassifierError, match=message):
            ConstantModel(1).predict_pairs(None, senders, receivers)

    @pytest.mark.parametrize("senders,receivers,message", NON_INTEGER_PAIRS)
    def test_non_integer_index_arrays_rejected(self, senders, receivers, message):
        with pytest.raises(ClassifierError, match=message):
            ConstantModel(1).predict_pairs(None, senders, receivers)

    def test_empty_pair_lists_score_nothing(self):
        assert ConstantModel(1).predict_pairs(None, [], []).tolist() == []
