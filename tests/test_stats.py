import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brainalign.stats import betainc, bh_fdr, pearson_columns, student_t_sf, t_test

# One-sided tail probabilities P(T > t), computed with mpmath.betainc at
# 40 decimal digits and frozen here.
T_SF_REFERENCE = [
    (3, 0.5, 0.3257239824240754972175),
    (3, 2, 0.06966298427942158842405),
    (3, 5, 0.007696219036651150493313),
    (5, 0.5, 0.3191494358204645033534),
    (5, 2, 0.05096973941492917812268),
    (5, 5, 0.002052357990026661210253),
    (20, 0.5, 0.3112659211405117986737),
    (20, 2, 0.02963276772328523648481),
    (20, 5, 0.00003436514289771098656745),
]


def _reference_betacf(a, b, x):
    """Scalar modified-Lentz continued fraction, one element at a time."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (1e-300 if abs(d) < 1e-300 else d)
    h = d
    for m in range(1, 401):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1e-300 if abs(d) < 1e-300 else d
            c = 1.0 + aa / c
            c = 1e-300 if abs(c) < 1e-300 else c
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError("no convergence")


def _reference_t_sf(t, dof):
    """Scalar Student-t tail through the incomplete beta; NaN gives NaN."""
    if math.isnan(t):
        return math.nan
    if not math.isfinite(t):
        return 0.0 if t > 0 else 1.0
    a, b, x = dof / 2.0, 0.5, dof / (dof + t * t)
    if x <= 0.0:
        p_two = 0.0
    elif x >= 1.0:
        p_two = 1.0
    else:
        bt = math.exp(
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            + a * math.log(x) + b * math.log1p(-x)
        )
        if x < (a + 1.0) / (a + b + 2.0):
            p_two = bt * _reference_betacf(a, b, x) / a
        else:
            p_two = 1.0 - bt * _reference_betacf(b, a, 1.0 - x) / b
    return 0.5 * p_two if t >= 0 else 1.0 - 0.5 * p_two


class TestStudentT:
    @pytest.mark.parametrize("dof,t,expected", T_SF_REFERENCE)
    def test_matches_high_precision_reference(self, dof, t, expected):
        assert student_t_sf(t, dof) == pytest.approx(expected, abs=1e-12)

    def test_negative_t_symmetry(self):
        for dof in (3, 5, 20):
            for t in (0.5, 2.0, 5.0):
                assert student_t_sf(-t, dof) + student_t_sf(t, dof) == pytest.approx(
                    1.0, abs=1e-14
                )

    def test_zero_is_half(self):
        assert student_t_sf(0.0, 7) == pytest.approx(0.5, abs=1e-15)

    def test_array_matches_scalar_reference_on_grid(self):
        # covers t = 0, +-inf, NaN, tiny and huge |t| over dof 1..100
        t = np.concatenate(
            [np.linspace(-40.0, 40.0, 161), [0.0, np.inf, -np.inf, np.nan, 1e-9, -1e160]]
        )
        for dof in range(1, 101):
            got = student_t_sf(t, dof)
            ref = np.array([_reference_t_sf(float(ti), dof) for ti in t])
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            ok = ~np.isnan(ref)
            assert np.abs(got[ok] - ref[ok]).max() <= 1e-15, dof

    def test_broadcasts_dof_and_keeps_shape(self):
        t = np.array([[0.5, 2.0], [5.0, -1.0]])
        dof = np.array([3, 20])
        got = student_t_sf(t, dof)
        assert got.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert got[i, j] == student_t_sf(float(t[i, j]), int(dof[j]))

    def test_scalar_nan_is_nan(self):
        assert math.isnan(student_t_sf(float("nan"), 5))

    def test_scalar_in_float_out(self):
        assert isinstance(student_t_sf(1.0, 4), float)
        assert isinstance(betainc(2.0, 3.0, 0.4), float)

    def test_dof_below_one_rejected(self):
        with pytest.raises(ValueError):
            student_t_sf(np.array([1.0, 2.0]), np.array([3.0, 0.5]))

    def test_betainc_edges(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0
        # I_x(1,1) is the uniform CDF
        assert betainc(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)


def _is_nan_test(res) -> bool:
    """t, p and sd of a one-column t_test are all NaN."""
    return all(math.isnan(v) for v in res)


class TestOneSampleTtest:
    def test_reference_example(self):
        # frozen from the same 40-digit reference computation
        x = [0.5, 0.6, 0.55, 0.52, 0.58, 0.61]
        t, p, _ = t_test(x, 0.0, tail="one_sided_greater")
        assert t == pytest.approx(30.983866769659336, rel=1e-12)
        assert p == pytest.approx(3.286706524364631751039e-7, abs=1e-15)
        assert p == student_t_sf(t, 5)  # n - 1 degrees of freedom

    def test_symmetric_around_mu0(self):
        x = np.array([1.0, 1.0, 1.0, 1.0]) + np.array([1e-9, -1e-9, 2e-9, -2e-9])
        _, p, _ = t_test(x, 1.0, tail="one_sided_greater")
        assert abs(p - 0.5) < 0.2

    def test_minimal_n(self):
        assert all(isinstance(v, float) and math.isfinite(v) for v in t_test([1.0, 2.0, 3.0]))
        assert _is_nan_test(t_test([1.0, 2.0], 0.0))
        assert _is_nan_test(t_test([1.0, np.nan, 3.0], 0.0))  # NaN values are left out

    def test_zero_variance(self):
        assert _is_nan_test(t_test([2.0, 2.0, 2.0], 0.0))
        # a constant whose mean does not round exactly, and one value tested
        # against constant draws: spreads of a few eps, not 0
        assert _is_nan_test(t_test([0.3] * 10, 0.0))
        assert _is_nan_test(t_test(0.5, [0.3] * 10, extra_var=1.0))
        # the rounding error of a column's mean grows with n: at n = 50 a
        # constant 0.091 has s = 5.6 eps * 0.091
        assert np.isnan(np.array(t_test(np.full((50, 2), 0.091)))).all()

    def test_negation_complementarity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8) + 0.5
        p_pos = t_test(x, 0.0, tail="one_sided_greater")[1]
        p_neg = t_test(-x, 0.0, tail="one_sided_greater")[1]
        assert p_pos + p_neg == pytest.approx(1.0, abs=1e-12)


class TestPairedTtest:
    def test_identical_vectors_degenerate(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert _is_nan_test(t_test(x, x, tail="two_sided"))

    def test_constant_offset_degenerate(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert _is_nan_test(t_test(x + 0.5, x, tail="two_sided"))
        # x + 0.1 - x differs from 0.1 in the last bits
        x = np.array([0.3, 0.5, 0.2, 0.9])
        assert _is_nan_test(t_test(x + 0.1, x, tail="two_sided"))

    def test_matches_one_sample_on_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        t, p, _ = t_test(x, y, tail="two_sided")
        ref_t, ref_p, _ = t_test(x - y, 0.0, tail="two_sided")
        assert t == pytest.approx(ref_t)
        assert p == pytest.approx(ref_p)


def _reference_t_test(a, b, extra_var, tail):
    """t_test column by column, from its formula."""
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    out = np.full((3, a.shape[1]), np.nan)
    for j in range(a.shape[1]):
        d = a[:, j] - b[:, j]
        keep = ~np.isnan(d)
        x = d[keep]
        if x.size < 3:
            continue
        sd = x.std(ddof=1)
        scale = max(np.abs(a[keep, j]).max(), np.abs(b[keep, j]).max())
        if sd <= 4 * x.size * np.finfo(float).eps * scale:
            continue
        t = x.mean() / (sd * math.sqrt(1.0 / x.size + extra_var))
        p = student_t_sf(t, x.size - 1) if tail == "one_sided_greater" else (
            2.0 * student_t_sf(abs(t), x.size - 1)
        )
        out[:, j] = t, p, sd
    return out


class TestTTest:
    # dyadic values, so that each column's sum is exact and any nonconstant
    # column is far from the rounding-level rule; NaN at the range's edges
    VALUES = st.integers(-2048, 2048).map(lambda k: np.nan if abs(k) == 2048 else k / 1024)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_column_formula(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, 4))
        a_shape, b_shape = data.draw(
            st.sampled_from([((n, m), ()), ((n, m), (m,)), ((n, m), (n, m)), ((1, m), (n, m))])
        )

        def array(shape):
            size = math.prod(shape)
            return np.array(data.draw(st.lists(self.VALUES, min_size=size, max_size=size)),
                            dtype=float).reshape(shape)

        a, b = array(a_shape), array(b_shape)
        extra_var = data.draw(st.sampled_from([0.0, 0.2, 1.0]))
        tail = data.draw(st.sampled_from(["one_sided_greater", "two_sided"]))
        got = np.array(t_test(a, b, extra_var=extra_var, tail=tail))
        ref = _reference_t_test(a, b, extra_var, tail)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        ok = ~np.isnan(ref)
        assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-15 * np.maximum(1.0, np.abs(ref[ok])))

    def test_unknown_tail_rejected(self):
        with pytest.raises(ValueError):
            t_test([1.0, 2.0, 4.0], tail="less")


def _r(a, b) -> float:
    """pearson_columns on two one-column inputs."""
    return float(pearson_columns(np.asarray(a, float)[:, None], np.asarray(b, float)[:, None])[0])


class TestPearson:
    def test_identity(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert _r(a, a) == pytest.approx(1.0)

    def test_negative_affine(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert _r(a, -2 * a + 7) == pytest.approx(-1.0)

    def test_direct_formula(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 2.0, 3.0, 100.0])
        da, db = a - a.mean(), b - b.mean()
        expected = (da * db).sum() / math.sqrt((da**2).sum() * (db**2).sum())
        assert _r(a, b) == pytest.approx(expected, abs=1e-14)

    def test_constant_flagged(self):
        assert math.isnan(_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            _r([1.0, 2.0, 3.0], [1.0, 2.0])

    @given(
        scale=st.floats(1e-3, 1e3),
        shift=st.floats(-100, 100),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        # tolerance bounded by input conditioning: values near `shift`
        # carry absolute rounding error ~shift*eps, which is ~1e-9 of the
        # spread at the worst scale/shift combination in range
        assert _r(scale * a + shift, b) == pytest.approx(_r(a, b), abs=1e-9)
        assert _r(-scale * a + shift, b) == pytest.approx(-_r(a, b), abs=1e-9)

    def test_columns_matches_scalar(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((15, 4))
        B = rng.standard_normal((15, 4))
        cols = pearson_columns(A, B)
        for j in range(4):
            da, db = A[:, j] - A[:, j].mean(), B[:, j] - B[:, j].mean()
            expected = (da * db).sum() / math.sqrt((da**2).sum() * (db**2).sum())
            assert cols[j] == pytest.approx(expected, abs=1e-14)

    def test_columns_constant_flagged(self):
        A = np.ones((10, 2))
        B = np.random.default_rng(0).standard_normal((10, 2))
        assert np.isnan(pearson_columns(A, B)).all()

    @pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3])
    def test_columns_constant_with_inexact_mean_flagged(self, value):
        """A constant whose mean does not round exactly is NaN in either
        argument, not the correlation of its rounding error."""
        noise = np.random.default_rng(1).standard_normal((100, 2))
        const = np.full((100, 2), value)
        assert np.isnan(pearson_columns(const, noise)).all()
        assert np.isnan(pearson_columns(noise, const)).all()


class TestBhFdr:
    def test_all_zero_selected(self):
        assert bh_fdr(np.zeros(5), 0.05).all()

    def test_all_one_none(self):
        assert not bh_fdr(np.ones(5), 0.05).any()

    def test_step_up_hand_computation(self):
        # thresholds k*q/n: 0.0125, 0.025, 0.0375, 0.05; 0.04 > 0.0375 so
        # the step-up stops at k=2 (cross-checked against statsmodels)
        mask = bh_fdr([0.001, 0.013, 0.04, 0.9], 0.05)
        assert mask.tolist() == [True, True, False, False]

    def test_step_up_rescues_smaller(self):
        # 0.035 <= 3*0.05/4, so the step-up takes all three smallest
        mask = bh_fdr([0.001, 0.013, 0.035, 0.9], 0.05)
        assert mask.tolist() == [True, True, True, False]

    def test_nan_never_selected(self):
        mask = bh_fdr([0.001, np.nan, 0.9], 0.05)
        assert mask.tolist() == [True, False, False]

    @given(seed=st.integers(0, 200), idx=st.integers(0, 9))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_pvalues(self, seed, idx):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=10)
        before = bh_fdr(p, 0.1)
        p2 = p.copy()
        p2[idx] = p2[idx] / 2
        after = bh_fdr(p2, 0.1)
        # lowering one p-value never deselects a previously selected index
        assert (after | ~before).all()
