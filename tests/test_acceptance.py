"""End-to-end acceptance checks.

One test per release gate, each printing a single pass/fail line via its
pytest verdict. These run the public interfaces only (library API and
CLI), at the stated tolerances, on top of the module-level unit suites.
"""

import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest

from brainalign.ceiling import noise_ceiling
from brainalign.cli import EXIT_OK, main
from brainalign.contrast import connection_contrast, interaction_contrast
from brainalign.crossval import fit_encoding, fit_subjects, make_folds
from brainalign.residual import remove_information
from brainalign.ridge import factor, solve
from brainalign.stats import student_t_sf
from brainalign.synth import SynthSpec, generate
from brainalign.trmap import TrMapConfig, stimulus_to_tr

GRID = np.logspace(-1, 6, 8)
ALPHA = 0.05


def test_criterion_01_ridge_matches_normal_equations():
    rng = np.random.default_rng(0)
    lambdas = [0.1, 1.0, 10.0, 100.0, 1000.0]
    for _ in range(20):
        X = rng.standard_normal((50, 20))
        Y = rng.standard_normal((50, 10))
        path = factor(X)
        for lam in lambdas:
            W = solve(path, Y, lam)
            Wd = np.linalg.solve(X.T @ X + lam * np.eye(20), X.T @ Y)
            rel = np.linalg.norm(W - Wd) / np.linalg.norm(Wd)
            assert rel <= 1e-8


def test_criterion_02_near_zero_lambda_orthogonality():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 12))
    Y = rng.standard_normal((60, 5))
    # center as the pipeline does; orthogonality is a centered statement
    X = (X - X.mean(0)) / X.std(0)
    Y = Y - Y.mean(0)
    path = factor(X)
    lam = 1e-12 * path.singular_values[0] ** 2
    resid = Y - X @ solve(path, Y, lam)
    for j in range(X.shape[1]):
        for k in range(Y.shape[1]):
            c = np.corrcoef(X[:, j], resid[:, k])[0, 1]
            assert abs(c) <= 1e-6


def test_criterion_03_null_calibration():
    n_seeds, v = 50, 200
    scheme = make_folds(120, 6)
    significant = 0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 20))
        Y = rng.standard_normal((120, v))
        res = fit_encoding(X, Y, scheme, lambda_grid=GRID, alpha=ALPHA)
        significant += int(res.significant_mask.sum())
    frac = significant / (n_seeds * v)
    half_width = 3 * math.sqrt(ALPHA * (1 - ALPHA) / v)
    assert ALPHA - half_width <= frac <= ALPHA + half_width, frac


def test_criterion_04_no_leakage_bit_identical():
    rng = np.random.default_rng(2)
    scheme = make_folds(120, 6)
    X = rng.standard_normal((120, 8))
    Y = X @ rng.standard_normal((8, 6)) + rng.standard_normal((120, 6))
    ref = fit_encoding(X, Y, scheme, lambda_grid=GRID, keep_weights=True)
    for fold in range(scheme.n_folds):
        Y2 = Y.copy()
        te = scheme.test_indices(fold)
        Y2[te] = 1e6 * rng.standard_normal((te.size, 6))
        res = fit_encoding(X, Y2, scheme, lambda_grid=GRID, keep_weights=True)
        assert np.array_equal(ref.fold_weights[fold], res.fold_weights[fold])
        assert np.array_equal(ref.selected_lambda[fold], res.selected_lambda[fold])


def test_criterion_05_connection_contrast_recovery():
    n_seeds = 50
    scheme = make_folds(120, 6)
    fired = {"roi_crossmodal": 0, "roi_language": 0, "roi_interaction": 0, "roi_null": 0}
    for seed in range(n_seeds):
        data = generate(SynthSpec(seed=seed, include_interaction_in_joint=False))
        # every subject sees the same features: one stacked fit per condition
        joint, ablated = (
            [[res] for res in fit_subjects(data.features[cond], data.responses, scheme,
                                           lambda_grid=GRID)]
            for cond in ("joint", "lang_only")
        )
        report = connection_contrast(
            joint, ablated, [data.atlas] * len(data.responses)
        )
        for row in report.roi_rows:
            if row["p_value"] < ALPHA and row["diff"] > 0:
                fired[row["roi_name"]] += 1
    se3 = 3 * math.sqrt(ALPHA * (1 - ALPHA) / n_seeds)
    assert fired["roi_crossmodal"] >= 0.95 * n_seeds, fired
    for roi in ("roi_language", "roi_interaction", "roi_null"):
        assert fired[roi] / n_seeds <= ALPHA + se3, fired


def test_criterion_06_interaction_contrast_specificity():
    n_seeds = 50
    scheme = make_folds(120, 6)

    def rejection(seed, planted):
        data = generate(SynthSpec(seed=seed, include_interaction_in_joint=planted))
        report = interaction_contrast(
            [data.features["joint"]],
            data.features["lang_only"],
            data.features["vis_only"],
            data.responses,
            [data.atlas] * len(data.responses),
            scheme,
            lambda_grid=GRID,
            n_baseline=10,
            seed=seed,
        )
        rows = {r["roi_name"]: r for r in report.roi_rows}
        return rows["roi_interaction"]["p_value"] < ALPHA

    fire = sum(rejection(seed, True) for seed in range(n_seeds))
    null = sum(rejection(seed, False) for seed in range(n_seeds))
    se3 = 3 * math.sqrt(ALPHA * (1 - ALPHA) / n_seeds)
    assert fire >= 0.95 * n_seeds, (fire, null)
    assert null / n_seeds <= ALPHA + se3, (fire, null)


def test_criterion_07_residual_removal_and_retention():
    rng = np.random.default_rng(3)
    scheme = make_folds(120, 6)
    A = rng.standard_normal((120, 10))
    resid = remove_information(A, A, scheme, GRID)
    per_col = resid.var(axis=0) / A.var(axis=0)
    assert (1.0 - per_col >= 0.99).all(), per_col.max()
    B = rng.standard_normal((120, 10))
    resid = remove_information(A, B, scheme, GRID)
    retained = resid.var(axis=0) / B.var(axis=0)
    assert (retained >= 0.95).all(), retained.min()


def test_criterion_08_ceiling_monotonicity():
    scheme = make_folds(120, 6)
    rng = np.random.default_rng(4)
    shared = rng.standard_normal((120, 10))
    group_means = []
    for sigma in (0.5, 1.0, 2.0):
        subs = [shared + sigma * rng.standard_normal(shared.shape) for _ in range(3)]
        res = noise_ceiling(subs, scheme, GRID)
        group_means.append(float(np.nanmean(res.per_voxel_ceiling)))
    assert group_means[0] > group_means[1] > group_means[2], group_means
    ident = noise_ceiling([shared.copy() for _ in range(3)], scheme, GRID)
    assert (ident.per_voxel_ceiling >= 0.99).all()


def test_criterion_09_tr_mapping():
    first = TrMapConfig(tr_policy="first_relevant")
    last = TrMapConfig(tr_policy="last_relevant")
    assert first.tr_seconds == 1.49 and first.stimulus_stride_seconds == 3.0
    assert first.span == 3
    assert stimulus_to_tr(1, first) == 2
    assert stimulus_to_tr(1, last) == 4
    for cfg in (first, last):
        trs = [stimulus_to_tr(i, cfg) for i in range(1075)]
        assert all(b >= a for a, b in zip(trs, trs[1:]))


def _pipeline(manifest: Path, out: Path, threads: str):
    for argv in (
        ["fit", "--manifest", str(manifest), "--out", str(out), "--threads", threads],
        [
            "contrast",
            "--manifest",
            str(manifest),
            "--out",
            str(out),
            "--mode",
            "connection",
            "--condition-a",
            "joint",
            "--condition-b",
            "lang_only",
            "--threads",
            threads,
        ],
        ["report", "--manifest", str(manifest), "--out", str(out), "--threads", threads],
    ):
        assert main(argv) == EXIT_OK


def test_criterion_10_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "0", "--n-subjects", "3"]) == EXIT_OK
    manifest = data / "manifest.json"
    outs = [tmp_path / "run1", tmp_path / "run2", tmp_path / "run4"]
    for out, threads in zip(outs, ("1", "1", "4")):
        _pipeline(manifest, out, threads)

    def data_files(root):
        # timing sidecars are the only permitted nondeterminism
        return sorted(
            p for p in root.rglob("*") if p.is_file() and p.name != "run_record.json"
        )

    ref = data_files(outs[0])
    rel = [p.relative_to(outs[0]) for p in ref]
    for other in outs[1:]:
        files = data_files(other)
        assert [p.relative_to(other) for p in files] == rel
        for a, b in zip(ref, files):
            assert filecmp.cmp(a, b, shallow=False), str(a.relative_to(outs[0]))


def test_criterion_11_student_t_accuracy():
    # references computed with a 40-digit incomplete-beta oracle
    reference = {
        (3, 0.5): 0.3257239824240754972175,
        (3, 2): 0.06966298427942158842405,
        (3, 5): 0.007696219036651150493313,
        (5, 0.5): 0.3191494358204645033534,
        (5, 2): 0.05096973941492917812268,
        (5, 5): 0.002052357990026661210253,
        (20, 0.5): 0.3112659211405117986737,
        (20, 2): 0.02963276772328523648481,
        (20, 5): 0.00003436514289771098656745,
    }
    for (dof, t), expected in reference.items():
        assert abs(student_t_sf(float(t), dof) - expected) <= 1e-10
