"""Correlation and hypothesis-test primitives.

The Student-t tail probability is computed in-repo through the regularized
incomplete beta function (continued fraction, modified Lentz), so the
package carries no special-function dependency. Target accuracy 1e-12,
verified against high-precision reference values in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_ITER = 400
_EPS = 1e-16
_TINY = 1e-300


def _nonzero(v: np.ndarray) -> np.ndarray:
    """Lentz guard: values within _TINY of zero become _TINY."""
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _betacf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta function (modified Lentz),
    elementwise over 1-D arrays; each element stops at its own convergence."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d.copy()
    out = np.empty_like(x)
    live = np.arange(x.size)  # indices (into out) of the unconverged elements
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        am2 = a + m2
        for aa in (
            m * (b - m) * x / ((qam + m2) * am2),
            -(a + m) * (qab + m) * x / (am2 * (qap + m2)),
        ):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[live[done]] = h[done]
            if done.all():
                return out
            keep = ~done
            live, a, b, x, qab, qap, qam, c, d, h = (
                arr[keep] for arr in (live, a, b, x, qab, qap, qam, c, d, h)
            )
    raise RuntimeError(f"incomplete beta did not converge for a={a[0]}, b={b[0]}, x={x[0]}")


def _lgamma(v: np.ndarray) -> np.ndarray:
    """math.lgamma over an array, evaluated once per distinct value."""
    uniq, inv = np.unique(v, return_inverse=True)
    return np.array([math.lgamma(u) for u in uniq])[inv]


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), elementwise.

    Arguments broadcast; NaN ``x`` gives NaN. Scalar inputs give a float.
    """
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (a, b, x)))
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("a and b must be positive")
    out = np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, np.nan))
    inner = (x > 0.0) & (x < 1.0)
    if inner.any():
        a, b, x = a[inner], b[inner], x[inner]
        ln_bt = _lgamma(a + b) - _lgamma(a) - _lgamma(b) + a * np.log(x) + b * np.log1p(-x)
        bt = np.exp(ln_bt)
        # the fraction converges fast below the mean; above it use symmetry
        swap = ~(x < (a + 1.0) / (a + b + 2.0))
        p = np.where(swap, b, a)
        q = np.where(swap, a, b)
        part = bt * _betacf(p, q, np.where(swap, 1.0 - x, x)) / p
        out[inner] = np.where(swap, 1.0 - part, part)
    return out if out.ndim else float(out)


def student_t_sf(t, dof):
    """P(T > t) for Student's t with ``dof`` degrees of freedom, elementwise.

    Arguments broadcast; NaN ``t`` gives NaN. Scalar inputs give a float.
    """
    t, dof = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (t, dof)))
    if np.any(dof < 1):
        raise ValueError("dof must be >= 1")
    with np.errstate(over="ignore"):
        x = dof / (dof + t * t)
    p_two = betainc(dof / 2.0, 0.5, x)
    out = np.where(t >= 0, 0.5 * p_two, 1.0 - 0.5 * p_two)
    return out if out.ndim else float(out)


def pearson_columns(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Columnwise Pearson correlation of two n-by-v arrays.

    Constant columns (in either input) yield NaN. A column is constant when
    all its values are equal, tested exactly: a constant whose mean does not
    round exactly (0.1, say) centres to the same rounding error in every
    row, and would otherwise score the correlation of that error.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if A.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    da = A - A.mean(axis=0)
    db = B - B.mean(axis=0)
    na = np.sqrt(np.einsum("ij,ij->j", da, da))
    nb = np.sqrt(np.einsum("ij,ij->j", db, db))
    denom = na * nb
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.einsum("ij,ij->j", da, db) / denom
    r[(denom == 0.0) | (A == A[0]).all(axis=0) | (B == B[0]).all(axis=0)] = np.nan
    return r


def t_test(a, b=0.0, extra_var: float = 0.0, tail: str = "one_sided_greater"):
    """Column-wise t-test of mean(a - b) against 0, over axis 0.

    ``a`` and ``b`` broadcast against each other; NaN differences are left
    out. Per column, with the n remaining differences of mean m and sample
    sd s::

        t = m / (s * sqrt(1/n + extra_var))   on n - 1 degrees of freedom

    ``extra_var`` adds to the 1/n variance of the mean: the Nadeau-Bengio
    term n_test/n_train for dependent cross-validation folds, or 1 when one
    observation is compared with n reference draws. ``tail`` is
    ``"one_sided_greater"`` (P(T > t)) or ``"two_sided"``.

    A column gets NaN t, p and s when it has fewer than 3 differences, or
    when their spread is at the rounding level of the inputs:
    s <= 4 n eps max(|a|, |b|) over the column. A constant sample, or a
    constant offset (x + 0.1 against x) that does not subtract exactly, has
    a nonzero s that would otherwise read as an overwhelming effect: the
    differences differ in their last bits, and s also carries the rounding
    error of the column's mean, a sum that grows with n. Measured over
    random constants and offsets, s reached 1.2 eps max at n = 3 and at
    most 0.17 n eps max for n from 8 to 100.

    Returns (t, p, s), one value per column; 1-D input gives floats.
    """
    if tail not in ("one_sided_greater", "two_sided"):
        raise ValueError(f"unknown tail {tail!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a - b
    valid = ~np.isnan(d)
    counts = valid.sum(axis=0)
    scale = np.where(valid, np.maximum(np.abs(a), np.abs(b)), 0.0).max(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(valid, d, 0.0).sum(axis=0) / counts
        dev = np.where(valid, d - mean, 0.0)
        sd = np.sqrt((dev * dev).sum(axis=0) / (counts - 1))
        t = mean / (sd * np.sqrt(1.0 / counts + extra_var))
    ok = (counts >= 3) & (sd > 4.0 * counts * np.finfo(np.float64).eps * scale)
    t, sd = np.where(ok, t, np.nan), np.where(ok, sd, np.nan)
    p = np.full(t.shape, np.nan)
    two_sided = tail == "two_sided"
    p[ok] = student_t_sf((np.abs(t) if two_sided else t)[ok], counts[ok] - 1)
    if two_sided:
        p *= 2.0
    return tuple(v if v.ndim else float(v) for v in (t, p, sd))


def bh_fdr(p_values, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up selection mask at level ``q``.

    NaN p-values are never selected and do not count toward the number of
    tests.
    """
    p = np.asarray(p_values, dtype=np.float64)
    mask = np.zeros(p.shape, dtype=bool)
    valid = np.flatnonzero(~np.isnan(p))
    m = valid.size
    if m == 0:
        return mask
    order = valid[np.argsort(p[valid], kind="stable")]
    thresh = q * np.arange(1, m + 1) / m
    below = p[order] <= thresh
    if not below.any():
        return mask
    k = np.flatnonzero(below)[-1]
    mask[order[: k + 1]] = True
    return mask
