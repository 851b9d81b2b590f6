import re

import numpy as np
import pytest

from brainalign.ridge import (
    DegenerateDesignError,
    factor,
    factor_gram,
    solve,
    solve_lstsq,
    solve_path,
)


def direct_ridge(X, Y, lam):
    """Independent oracle: dense normal-equations solve."""
    p = X.shape[1]
    return np.linalg.solve(X.T @ X + lam * np.eye(p), X.T @ Y)


class TestFactor:
    def test_identity(self):
        path = factor(np.eye(3))
        assert np.allclose(path.singular_values, [1, 1, 1])
        assert path.rank == 3

    def test_rank_truncation(self):
        X = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        path = factor(X)
        assert path.rank == 1
        assert path.singular_values[0] == pytest.approx(2.0)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 20))
        path = factor(X)
        rec = path.left_vectors @ np.diag(path.singular_values) @ path.right_vectors.T
        assert np.linalg.norm(rec - X) / np.linalg.norm(X) <= 1e-10

    def test_nonfinite_rejected(self):
        X = np.ones((3, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            factor(X)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDesignError):
            factor(np.zeros((4, 3)))

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(5)
        path = factor(rng.standard_normal((30, 10)))
        s = path.singular_values
        assert (np.diff(s) <= 0).all() and (s > 0).all()


class TestFactorGram:
    @pytest.mark.parametrize("shape", [(60, 8), (40, 80), (30, 30)], ids=["p<n", "p>n", "p=n"])
    def test_matches_svd(self, shape):
        rng = np.random.default_rng(6)
        X = rng.standard_normal(shape)
        Y = rng.standard_normal((shape[0], 3))
        got, want = factor_gram(X), factor(X)
        s = got.singular_values
        assert got.rank == want.rank and (np.diff(s) <= 0).all() and (s > 0).all()
        np.testing.assert_allclose(s, want.singular_values, rtol=1e-10)
        U, V = got.left_vectors, got.right_vectors
        np.testing.assert_allclose(U.T @ U, np.eye(got.rank), rtol=0, atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(got.rank), rtol=0, atol=1e-10)
        np.testing.assert_allclose((U * s) @ V.T, X, rtol=0, atol=1e-10)
        np.testing.assert_allclose(solve(got, Y, 1.0), solve(want, Y, 1.0), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("transpose", [False, True], ids=["p<n", "p>n"])
    def test_rank_deficient_truncates(self, transpose):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 10))
        X[:, 9] = X[:, 0]
        assert factor_gram(X.T if transpose else X).rank == 3

    @pytest.mark.parametrize("exp", [600, -600])
    def test_gram_of_extreme_scale_neither_overflows_nor_underflows(self, exp):
        X = np.random.default_rng(8).standard_normal((40, 60))
        got = factor_gram(np.ldexp(X, exp))
        np.testing.assert_allclose(
            got.singular_values, np.ldexp(factor(X).singular_values, exp), rtol=1e-10
        )

    @pytest.mark.parametrize(
        "X",
        [
            np.array([[1.0, 2.0], [np.inf, 0.0], [3.0, 4.0]]),
            np.array([[1.0, np.nan, 2.0], [0.0, 1.0, 2.0]]),
            np.zeros((4, 3)),
            np.zeros((3, 5)),
            np.ones(4),
            np.ones((1, 3)),
            np.ones((3, 0)),
        ],
        ids=["inf", "nan", "zero p<n", "zero p>n", "1-D", "one row", "no columns"],
    )
    def test_raises_what_factor_raises(self, X):
        with pytest.raises(ValueError) as want:
            factor(X)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            factor_gram(X)


class TestSolve:
    def test_identity_shrinkage(self):
        path = factor(np.eye(4))
        Y = np.random.default_rng(1).standard_normal((4, 3))
        W = solve(path, Y, 1.0)
        assert np.allclose(W, Y / 2)  # s/(s^2+1) = 1/2

    def test_large_lambda_limit(self):
        path = factor(np.eye(4))
        Y = np.random.default_rng(2).standard_normal((4, 2))
        W = solve(path, Y, 1e12)
        assert np.max(np.abs(W - Y / 1e12)) <= 1e-10

    @pytest.mark.parametrize("lam", [0.1, 10.0, 1000.0])
    def test_matches_normal_equations(self, lam):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 20))
        Y = rng.standard_normal((50, 10))
        W = solve(factor(X), Y, lam)
        Wd = direct_ridge(X, Y, lam)
        assert np.linalg.norm(W - Wd) / np.linalg.norm(Wd) <= 1e-8

    def test_nonpositive_lambda_rejected(self):
        path = factor(np.eye(3))
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                solve(path, np.ones((3, 1)), lam)

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 15))
        Y = rng.standard_normal((40, 6))
        path = factor(X)
        grid = [0.01, 0.1, 1.0, 10.0, 100.0]
        norms = [np.linalg.norm(solve(path, Y, lam)) for lam in grid]
        assert (np.diff(norms) < 0).all()

    def test_target_independence(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 8))
        Y = rng.standard_normal((30, 5))
        path = factor(X)
        joint = solve(path, Y, 3.0)
        for j in range(5):
            single = solve(path, Y[:, j], 3.0)
            # identical up to BLAS gemm-vs-gemv summation order
            assert np.allclose(joint[:, j : j + 1], single, rtol=1e-13, atol=1e-15)

    def test_solve_path_matches_individual(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((25, 6))
        Y = rng.standard_normal((25, 4))
        path = factor(X)
        grid = np.array([0.5, 5.0, 50.0])
        stacked = solve_path(path, Y, grid)
        for i, lam in enumerate(grid):
            assert np.array_equal(stacked[i], solve(path, Y, lam))


class TestSolveLambdaVector:
    @pytest.mark.parametrize("shape", [(50, 8), (20, 40)])  # p < n, and p > n
    def test_each_column_matches_scalar_solve(self, shape):
        rng = np.random.default_rng(8)
        X = rng.standard_normal(shape)
        Y = rng.standard_normal((shape[0], 7))
        lam = np.array([0.1, 1e8, 3.0, 0.1, 1e3, 3.0, 42.0])
        path = factor(X)
        W = solve(path, Y, lam)
        assert W.shape == (shape[1], 7)
        for j in range(7):
            single = solve(path, Y[:, j], float(lam[j]))[:, 0]
            np.testing.assert_allclose(W[:, j], single, rtol=0, atol=1e-13)

    def test_constant_vector_equals_scalar(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 12))
        Y = rng.standard_normal((40, 5))
        path = factor(X)
        np.testing.assert_allclose(
            solve(path, Y, np.full(5, 7.5)), solve(path, Y, 7.5), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_entry_rejected(self, bad):
        path = factor(np.eye(3))
        with pytest.raises(ValueError, match="lam must be > 0"):
            solve(path, np.ones((3, 3)), np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("size", [2, 4])
    def test_length_must_match_columns(self, size):
        path = factor(np.eye(3))
        with pytest.raises(ValueError, match="lam has shape"):
            solve(path, np.ones((3, 3)), np.ones(size))


class TestLstsq:
    def test_full_rank_projection(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 3))
        W = solve_lstsq(factor(X), Y)
        ref, *_ = np.linalg.lstsq(X, Y, rcond=None)
        assert np.allclose(W, ref, atol=1e-10)

    def test_near_zero_lambda_orthogonality(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 10))
        Y = rng.standard_normal((40, 4))
        path = factor(X)
        lam = 1e-12 * path.singular_values[0] ** 2
        resid = Y - X @ solve(path, Y, lam)
        # training residual orthogonal to every design column
        corr = X.T @ resid / (np.linalg.norm(X) * np.linalg.norm(resid))
        assert np.max(np.abs(corr)) <= 1e-6


class TestPredict:
    def test_projection_property(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 3))
        path = factor(X)
        pred = X @ solve_lstsq(path, Y)
        proj = X @ np.linalg.lstsq(X, Y, rcond=None)[0]
        assert np.allclose(pred, proj, atol=1e-10)
