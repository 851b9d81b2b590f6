import collections
import filecmp
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from brainalign.cli import (
    EXIT_INPUT,
    EXIT_MISSING_ARTIFACT,
    EXIT_OK,
    main,
    manifest_hash,
)
from brainalign.matrixio import read_matrix, write_matrix


def _synth(out_dir, seed=0, n_subjects=3, extra=()):
    argv = [
        "synth",
        "--out",
        str(out_dir),
        "--seed",
        str(seed),
        "--n-subjects",
        str(n_subjects),
    ] + list(extra)
    assert main(argv) == EXIT_OK
    return out_dir / "manifest.json"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One synthetic dataset with fit artifacts, shared across read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    out = root / "out"
    manifest = _synth(data)
    assert (
        main(
            [
                "fit",
                "--manifest",
                str(manifest),
                "--out",
                str(out),
                "--threads",
                "1",
            ]
        )
        == EXIT_OK
    )
    return manifest, out


class TestSynth:
    def test_artifacts_written(self, tmp_path):
        manifest = _synth(tmp_path / "d", seed=5)
        d = manifest.parent
        assert (d / "rois.json").exists()
        assert (d / "ground_truth.json").exists()
        assert (d / "joint_layer_00.eamx").exists()
        assert (d / "subject_00_responses.eamx").exists()
        loaded = json.loads(manifest.read_text())
        assert {c["name"] for c in loaded["conditions"]} == {
            "joint",
            "lang_only",
            "vis_only",
            "mask_truth",
        }

    def test_same_seed_byte_identical(self, tmp_path):
        _synth(tmp_path / "a", seed=9)
        _synth(tmp_path / "b", seed=9)
        for f in sorted((tmp_path / "a").iterdir()):
            assert filecmp.cmp(f, tmp_path / "b" / f.name, shallow=False), f.name


class TestFit:
    def test_artifacts_and_summary(self, dataset):
        manifest, out = dataset
        mhash = manifest_hash(manifest)
        fit_root = out / "fit" / mhash
        summary = json.loads((fit_root / "fit_summary.json").read_text())
        assert set(summary["conditions"]) == {"joint", "lang_only", "vis_only", "mask_truth"}
        d = fit_root / "joint" / "s00"
        res = read_matrix(d / "layer_00_mean_correlation.eamx", validate=False)
        assert res.shape[0] == 1 and res.shape[1] == 32
        # timings only in the sidecar, never in data artifacts
        assert "wall_time_s" not in summary["run_record"]
        sidecar = json.loads((fit_root / "run_record.json").read_text())
        assert "wall_time_s" in sidecar

    def test_each_fit_directory_holds_five_layer_artifacts_and_a_summary(self, dataset):
        manifest, out = dataset
        fit_root = out / "fit" / manifest_hash(manifest)
        names = {"summary.json"} | {
            f"layer_00_{name}.eamx"
            for name in ("fold_correlations", "mean_correlation", "selected_lambda",
                         "significance_pvalues", "significant_mask")
        }
        dirs = sorted(d for d in fit_root.glob("*/*") if d.is_dir())
        assert len(dirs) == 4 * 3  # conditions x subjects
        for d in dirs:
            assert {p.name for p in d.iterdir()} == names, d

    def test_missing_manifest_exit_2(self, tmp_path):
        rc = main(["fit", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == EXIT_INPUT

    def test_unknown_condition_exit_2(self, dataset, tmp_path):
        manifest, _ = dataset
        rc = main(
            [
                "fit",
                "--manifest",
                str(manifest),
                "--out",
                str(tmp_path),
                "--condition",
                "bogus",
            ]
        )
        assert rc == EXIT_INPUT


class TestContrast:
    def test_connection_from_cache(self, dataset):
        manifest, out = dataset
        rc = main(
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
            ]
        )
        assert rc == EXIT_OK
        mhash = manifest_hash(manifest)
        report = json.loads(
            (out / "contrast" / mhash / "connection" / "report.json").read_text()
        )
        rois = {r["roi_name"]: r for r in report["report"]["roi_rows"]}
        assert rois["roi_crossmodal"]["diff"] > 0.1
        assert (out / "contrast" / mhash / "connection" / "report.csv").exists()

    def test_missing_fit_cache_exit_3(self, dataset, tmp_path):
        manifest, _ = dataset
        rc = main(
            [
                "contrast",
                "--manifest",
                str(manifest),
                "--out",
                str(tmp_path / "empty"),
                "--mode",
                "connection",
                "--condition-a",
                "joint",
                "--condition-b",
                "lang_only",
            ]
        )
        assert rc == EXIT_MISSING_ARTIFACT

    def test_refit_fills_cache(self, dataset, tmp_path):
        manifest, _ = dataset
        out = tmp_path / "fresh"
        rc = main(
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
                "--refit",
                "--threads",
                "1",
            ]
        )
        assert rc == EXIT_OK

    def test_fdr_without_refit_decides_the_masks(self, tmp_path):
        # seed 3: one of subject s00's joint voxels has p < 0.05 but fails BH
        manifest = _synth(tmp_path / "data", seed=3)
        contrast = ["contrast", "--manifest", str(manifest), "--mode", "connection",
                    "--condition-a", "joint", "--condition-b", "lang_only", "--fdr", "bh"]
        masks, reports = [], []
        for fit_fdr in ("none", "bh"):
            out = tmp_path / fit_fdr
            assert main(["fit", "--manifest", str(manifest), "--out", str(out),
                         "--fdr", fit_fdr]) == EXIT_OK
            fit_dir = out / "fit" / manifest_hash(manifest) / "joint" / "s00"
            masks.append(read_matrix(fit_dir / "layer_00_significant_mask.eamx"))
            assert main(contrast + ["--out", str(out)]) == EXIT_OK
            report_dir = out / "contrast" / manifest_hash(manifest) / "connection"
            reports.append([(report_dir / f).read_text() for f in ("report.json", "report.csv")])
        assert not np.array_equal(*masks)
        assert reports[0] == reports[1]

    def test_interaction_mode(self, dataset):
        manifest, out = dataset
        rc = main(
            [
                "contrast",
                "--manifest",
                str(manifest),
                "--out",
                str(out),
                "--mode",
                "interaction",
                "--condition-a",
                "joint",
                "--n-baseline",
                "3",
            ]
        )
        assert rc == EXIT_OK
        mhash = manifest_hash(manifest)
        report = json.loads(
            (out / "contrast" / mhash / "interaction" / "report.json").read_text()
        )
        rois = {r["roi_name"]: r for r in report["report"]["roi_rows"]}
        assert rois["roi_interaction"]["p_value"] < 0.05


    @pytest.mark.parametrize("mode", ["connection", "interaction"])
    def test_subjects_naming_different_rois_exit_2(self, dataset, tmp_path, capsys, mode):
        manifest, out = dataset
        data = tmp_path / "data"
        shutil.copytree(manifest.parent, data)
        rois = json.loads((data / "rois.json").read_text())
        rois["roi_renamed"] = rois.pop("roi_null")
        (data / "rois_s01.json").write_text(json.dumps(rois))
        raw = json.loads((data / "manifest.json").read_text())
        raw["subjects"][1]["roi_file"] = "rois_s01.json"
        (data / "manifest.json").write_text(json.dumps(raw))
        # the fits do not depend on the ROI files: reuse them under the new key
        fit_dir = tmp_path / "out" / "fit" / manifest_hash(data / "manifest.json")
        shutil.copytree(out / "fit" / manifest_hash(manifest), fit_dir)
        extra = ["--condition-b", "lang_only"] if mode == "connection" else ["--n-baseline", "3"]
        argv = ["contrast", "--manifest", str(data / "manifest.json"), "--out",
                str(tmp_path / "out"), "--mode", mode, "--condition-a", "joint", *extra]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "subject 1" in err and "roi_renamed" in err and "roi_null" in err

    @pytest.mark.parametrize("mode", ["connection", "interaction"])
    def test_roi_file_with_no_rois_exit_2(self, dataset, tmp_path, capsys, mode):
        manifest, out = dataset
        data = tmp_path / "data"
        shutil.copytree(manifest.parent, data)
        (data / "rois.json").write_text("{}")
        # the fits do not depend on the ROI file: reuse them under the new key
        fit_dir = tmp_path / "out" / "fit" / manifest_hash(data / "manifest.json")
        shutil.copytree(out / "fit" / manifest_hash(manifest), fit_dir)
        extra = ["--condition-b", "lang_only"] if mode == "connection" else ["--n-baseline", "3"]
        argv = ["contrast", "--manifest", str(data / "manifest.json"), "--out",
                str(tmp_path / "out"), "--mode", mode, "--condition-a", "joint", *extra]
        assert main(argv) == EXIT_INPUT
        assert "subject 0's atlas names no ROIs" in capsys.readouterr().err


class TestCeilingAndReport:
    def test_ceiling_artifacts(self, dataset):
        manifest, out = dataset
        rc = main(
            ["ceiling", "--manifest", str(manifest), "--out", str(out), "--threads", "1"]
        )
        assert rc == EXIT_OK
        mhash = manifest_hash(manifest)
        cdir = out / "ceiling" / mhash
        group = read_matrix(cdir / "group_ceiling.eamx", validate=False)
        assert group.shape == (1, 32)
        summary = json.loads((cdir / "ceiling_summary.json").read_text())
        # planted-signal ROIs show a real ceiling, the null ROI does not
        assert summary["per_roi_ceiling"]["roi_language"] > 0.3
        assert summary["per_roi_ceiling"]["roi_null"] < 0.2

    def test_report_merges_fit(self, dataset):
        manifest, out = dataset
        rc = main(["report", "--manifest", str(manifest), "--out", str(out)])
        assert rc == EXIT_OK
        mhash = manifest_hash(manifest)
        rows = json.loads((out / "report" / mhash / "report.json").read_text())["rows"]
        assert {r["condition"] for r in rows} == {"joint", "lang_only", "vis_only", "mask_truth"}

    def test_report_without_fit_exit_3(self, dataset, tmp_path):
        manifest, _ = dataset
        rc = main(["report", "--manifest", str(manifest), "--out", str(tmp_path / "empty")])
        assert rc == EXIT_MISSING_ARTIFACT


class TestSubsetFit:
    def _report_rows(self, manifest, out):
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        path = out / "report" / manifest_hash(manifest) / "report.json"
        return {r["condition"]: r for r in json.loads(path.read_text())["rows"]}

    def test_condition_fit_keeps_other_conditions(self, dataset, tmp_path):
        manifest, shared = dataset
        out = tmp_path / "out"
        shutil.copytree(shared / "fit", out / "fit")
        full = self._report_rows(manifest, out)
        fit = ["fit", "--manifest", str(manifest), "--out", str(out)]
        assert main(fit + ["--condition", "joint"]) == EXIT_OK
        assert self._report_rows(manifest, out) == full
        assert main(fit + ["--condition", "vis_only", "--subject", "s01"]) == EXIT_OK
        rows = self._report_rows(manifest, out)
        assert set(rows) == {"joint", "lang_only", "vis_only", "mask_truth"}
        assert rows["vis_only"]["n_subjects"] == 3

    def test_full_fit_rewrites_corrupt_summary(self, dataset, tmp_path):
        manifest, shared = dataset
        out = tmp_path / "out"
        shutil.copytree(shared / "fit", out / "fit")
        path = out / "fit" / manifest_hash(manifest) / "fit_summary.json"
        expected = json.loads(path.read_text())["conditions"]
        path.write_text('{"conditions": {"joint"')
        assert main(["fit", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        assert json.loads(path.read_text())["conditions"] == expected


class TestSeedOverride:
    def test_zero_override_is_recorded_and_used(self, tmp_path):
        manifest = _synth(tmp_path / "data", seed=3)
        mhash = manifest_hash(manifest)
        out = tmp_path / "out"
        fit = ["fit", "--manifest", str(manifest), "--out", str(out)]
        assert main(fit + ["--condition", "joint", "--subject", "s00", "--seed-override", "0"]) == EXIT_OK
        summary = json.loads((out / "fit" / mhash / "fit_summary.json").read_text())
        assert summary["run_record"]["seed"] == 0

        contrast = [
            "contrast",
            "--manifest",
            str(manifest),
            "--mode",
            "interaction",
            "--condition-a",
            "joint",
            "--n-baseline",
            "3",
        ]
        reports = {}
        for name, extra in (("zero", ["--seed-override", "0"]), ("manifest", [])):
            assert main(contrast + ["--out", str(tmp_path / name)] + extra) == EXIT_OK
            path = tmp_path / name / "contrast" / mhash / "interaction" / "report.json"
            reports[name] = json.loads(path.read_text())
        assert reports["zero"]["run_record"]["seed"] == 0
        assert reports["manifest"]["run_record"]["seed"] == 3
        # the override seeds the baseline draws, not only the record
        assert reports["zero"]["report"] != reports["manifest"]["report"]


class TestThreadsFlag:
    def test_other_value_notes_no_effect(self, tmp_path, capsys):
        argv = ["fit", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        assert main(argv + ["--threads", "1"]) == EXIT_INPUT
        assert "--threads" not in capsys.readouterr().err
        assert main(argv + ["--threads", "4"]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "note: --threads 4 has no effect; folds are fit serially"


class TestFlagsOnlyWhereUsed:
    @pytest.mark.parametrize("command", ["ceiling", "report"])
    @pytest.mark.parametrize(
        "flag", [["--fdr", "bh"], ["--seed-override", "3"], ["--tr-policy", "last_relevant"]]
    )
    def test_unused_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(tmp_path / "m.json"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInteractionFlags:
    @staticmethod
    def _usage_error(argv, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "has no effect" in err

    @pytest.mark.parametrize(
        "flag", [["--fdr", "bh"], ["--refit"], ["--fdr", "none"], ["--condition-b", "lang_only"]]
    )
    def test_connection_only_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        argv = ["contrast", "--manifest", str(tmp_path / "m.json"), "--mode", "interaction",
                "--condition-a", "joint", *flag]
        self._usage_error(argv, capsys, flag[0])

    @pytest.mark.parametrize(
        "flag",
        [["--use-ceiling"], ["--baseline", "shuffle"], ["--baseline", "gaussian"],
         ["--n-baseline", "10"], ["--unimodal-a", "vis_only"], ["--unimodal-b", "nonexistent"],
         ["--seed-override", "7"]],
    )
    def test_interaction_only_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        # a flag given with its default value is refused too
        argv = ["contrast", "--manifest", str(tmp_path / "m.json"), "--mode", "connection",
                "--condition-a", "joint", "--condition-b", "lang_only", *flag]
        self._usage_error(argv, capsys, flag[0])


def _write_dataset(root, X, responses, trmap=False):
    """A one-condition manifest over ``X`` with one response file per subject."""
    root.mkdir(parents=True)
    write_matrix(X, root / "x.eamx")
    subjects = []
    for i, Y in enumerate(responses):
        write_matrix(Y, root / f"y{i}.eamx")
        (root / f"rois{i}.json").write_text(json.dumps({"all": list(range(Y.shape[1]))}))
        subjects.append({"id": f"s{i:02d}", "response_file": f"y{i}.eamx", "roi_file": f"rois{i}.json"})
    manifest = {
        "subjects": subjects,
        "conditions": [{"name": "c", "layer_files": ["x.eamx"]}],
        "tr_seconds": 1.49,
        "n_outer_folds": 6,
        "n_inner_folds": 5,
        "lambda_grid": np.logspace(-1, 6, 8).tolist(),
        "significance_alpha": 0.05,
        "seed": 0,
    }
    if trmap:
        manifest["trmap"] = {}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root / "manifest.json"


def _fit_artifacts(d):
    return {p.name: read_matrix(p, validate=False) for p in sorted(d.glob("layer_*.eamx"))}


def _assert_same_fit(got, want):
    assert got.keys() == want.keys()
    for name, arr in want.items():
        if name.endswith(("selected_lambda.eamx", "significant_mask.eamx")):
            assert np.array_equal(got[name], arr), name
        else:
            np.testing.assert_allclose(got[name], arr, rtol=0, atol=1e-12, err_msg=name)


def _count_factorizations(monkeypatch):
    """Count ridge.factor (SVD) and ridge.factor_gram calls from now on."""
    from brainalign import ridge

    calls = collections.Counter()
    for name, key in (("factor", "svd"), ("factor_gram", "gram")):
        fn = getattr(ridge, name)
        monkeypatch.setattr(
            ridge, name, lambda X, fn=fn, key=key: calls.update([key]) or fn(X)
        )
    return calls


class TestStackedFit:
    def test_factor_count_does_not_depend_on_subjects(self, tmp_path, monkeypatch):
        calls = _count_factorizations(monkeypatch)
        counts = []
        for n_subjects in (2, 4):
            manifest = _synth(tmp_path / f"d{n_subjects}", n_subjects=n_subjects)
            calls.clear()
            assert main(["fit", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == EXIT_OK
            counts.append(dict(calls))
        # 4 conditions x 6 outer folds x (1 final SVD, 5 inner Gram factorizations)
        assert counts == [{"svd": 24, "gram": 120}] * 2

    def test_each_input_file_read_once(self, dataset, tmp_path, monkeypatch):
        from brainalign import cli

        manifest, _ = dataset
        reads = []
        read = cli.read_matrix
        monkeypatch.setattr(cli, "read_matrix", lambda p, **kw: reads.append(p) or read(p, **kw))
        assert main(["fit", "--manifest", str(manifest), "--out", str(tmp_path)]) == EXIT_OK
        # 3 response files and one layer file for each of 4 conditions
        assert len(reads) == 7 and len(set(reads)) == 7

    def test_refit_fits_missing_subjects_together(self, tmp_path, monkeypatch):
        from brainalign import cli

        manifest = _synth(tmp_path / "data", n_subjects=4)
        calls = _count_factorizations(monkeypatch)
        reads = []
        read = cli.read_matrix
        monkeypatch.setattr(cli, "read_matrix", lambda p, **kw: reads.append(p) or read(p, **kw))
        argv = ["contrast", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                "--mode", "connection", "--condition-a", "joint", "--condition-b", "lang_only",
                "--refit"]
        assert main(argv) == EXIT_OK
        # 2 conditions x 6 outer folds x (1 final SVD, 5 inner Gram factorizations),
        # for all 4 subjects
        assert calls == {"svd": 12, "gram": 60}
        # 4 response files and one layer file per condition
        assert len(reads) == 6 and len(set(reads)) == 6

    @pytest.mark.parametrize("trmap", [False, True])
    def test_matches_per_subject_fits_with_bh_per_subject(self, tmp_path, trmap):
        from brainalign.crossval import fit_encoding, make_folds
        from brainalign.stats import bh_fdr
        from brainalign.trmap import TrMapConfig, stimulus_to_tr

        rng = np.random.default_rng(0)
        X = rng.standard_normal((120, 6))
        # one subject with strong signal, one with weak: BH pooled over both
        # would let the strong p-values raise the weak subject's threshold
        aligned = [
            X @ rng.standard_normal((6, 20)) + 0.5 * rng.standard_normal((120, 20)),
            0.12 * (X @ rng.standard_normal((6, 20))) + rng.standard_normal((120, 20)),
        ]
        responses = aligned
        if trmap:
            rows = [stimulus_to_tr(i, TrMapConfig()) for i in range(120)]
            responses = []
            for Y in aligned:
                raw = rng.standard_normal((rows[-1] + 1, Y.shape[1]))
                raw[rows] = Y
                responses.append(raw)
        manifest = _write_dataset(tmp_path / "data", X, responses, trmap=trmap)
        out = tmp_path / "out"
        assert main(["fit", "--manifest", str(manifest), "--out", str(out), "--fdr", "bh"]) == EXIT_OK

        fit_root = out / "fit" / manifest_hash(manifest) / "c"
        own = []
        for i, Y in enumerate(aligned):
            ref = fit_encoding(X, Y, make_folds(120, 6), inner_folds=5,
                               lambda_grid=np.logspace(-1, 6, 8), fdr="bh")
            want = {
                "layer_00_fold_correlations.eamx": ref.fold_correlations,
                "layer_00_mean_correlation.eamx": ref.mean_correlation[None, :],
                "layer_00_selected_lambda.eamx": ref.selected_lambda,
                "layer_00_significance_pvalues.eamx": ref.significance_pvalues[None, :],
                "layer_00_significant_mask.eamx": ref.significant_mask[None, :].astype(float),
            }
            _assert_same_fit(_fit_artifacts(fit_root / f"s{i:02d}"), want)
            own.append(ref)
        pooled = bh_fdr(np.concatenate([r.significance_pvalues for r in own]), 0.05)
        assert not np.array_equal(pooled, np.concatenate([r.significant_mask for r in own]))

    def test_subject_fit_and_refit_write_the_same_artifacts(self, dataset, tmp_path):
        manifest, shared = dataset
        fit_root = lambda out: out / "fit" / manifest_hash(manifest)
        out = tmp_path / "one"
        assert main(["fit", "--manifest", str(manifest), "--out", str(out), "--subject", "s01"]) == EXIT_OK
        assert sorted(p.name for p in fit_root(out).iterdir()) == sorted(
            p.name for p in fit_root(shared).iterdir()
        )
        for cond in ("joint", "lang_only", "vis_only", "mask_truth"):
            d = fit_root(out) / cond
            assert [p.name for p in d.iterdir()] == ["s01"]
            assert (d / "s01" / "summary.json").exists()
            _assert_same_fit(_fit_artifacts(d / "s01"), _fit_artifacts(fit_root(shared) / cond / "s01"))

        out = tmp_path / "refit"
        argv = ["contrast", "--manifest", str(manifest), "--out", str(out), "--mode", "connection",
                "--condition-a", "joint", "--condition-b", "lang_only", "--refit"]
        assert main(argv) == EXIT_OK
        for cond in ("joint", "lang_only"):
            for sub in ("s00", "s01", "s02"):
                d = fit_root(out) / cond / sub
                _assert_same_fit(_fit_artifacts(d), _fit_artifacts(fit_root(shared) / cond / sub))


class TestInteractionInputs:
    def test_each_input_file_read_once(self, dataset, tmp_path, monkeypatch):
        from brainalign import cli

        manifest, _ = dataset
        reads = []
        read = cli.read_matrix
        monkeypatch.setattr(cli, "read_matrix", lambda p, **kw: reads.append(p) or read(p, **kw))
        argv = ["contrast", "--manifest", str(manifest), "--out", str(tmp_path), "--mode",
                "interaction", "--condition-a", "joint", "--n-baseline", "3"]
        assert main(argv) == EXIT_OK
        # 3 response files, one joint layer and the two unimodal layers
        assert len(reads) == 6 and len(set(reads)) == 6

    def test_every_subject_is_tr_aligned(self, tmp_path, capsys):
        manifest = _synth(tmp_path / "data", seed=2)
        raw = json.loads(manifest.read_text())
        raw["trmap"] = {}  # stimuli every 3 s, TRs of 1.49 s: 120 stimuli need 241 rows
        manifest.write_text(json.dumps(raw))
        paths = [manifest.parent / sub["response_file"] for sub in raw["subjects"]]
        for path in paths:
            Y = read_matrix(path)
            write_matrix(np.vstack([Y, Y, Y[:1]]), path)
        argv = ["contrast", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                "--mode", "interaction", "--condition-a", "joint", "--n-baseline", "3"]
        assert main(argv) == EXIT_OK
        write_matrix(read_matrix(paths[-1])[:200], paths[-1])  # the last subject only
        assert main(argv) == EXIT_INPUT
        assert "map past the recording" in capsys.readouterr().err


class TestResidual:
    def test_self_removal(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((120, 6))
        src = tmp_path / "a.eamx"
        write_matrix(A, src)
        out = tmp_path / "resid.eamx"
        rc = main(["residual", str(src), str(src), "--out", str(out)])
        assert rc == EXIT_OK
        resid = read_matrix(out, validate=False)
        assert resid.var(axis=0).sum() / A.var(axis=0).sum() < 0.01
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["mean_variance_retained"] < 0.01
        assert summary["mode"] == "cross_validated"

    def test_in_sample_flag(self, tmp_path):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((120, 4))
        B = rng.standard_normal((120, 4))
        pa, pb = tmp_path / "a.eamx", tmp_path / "b.eamx"
        write_matrix(A, pa)
        write_matrix(B, pb)
        out = tmp_path / "r.eamx"
        rc = main(["residual", str(pa), str(pb), "--out", str(out), "--in-sample"])
        assert rc == EXIT_OK
        assert json.loads(out.with_suffix(".summary.json").read_text())["mode"] == "in_sample"

    def test_missing_source_exit_3(self, tmp_path):
        rc = main(
            [
                "residual",
                str(tmp_path / "nope.eamx"),
                str(tmp_path / "nope.eamx"),
                "--out",
                str(tmp_path / "r.eamx"),
            ]
        )
        assert rc == EXIT_MISSING_ARTIFACT


def _data_files(root: Path):
    """Deterministic artifact listing, run_record sidecars excluded."""
    return sorted(
        p for p in root.rglob("*") if p.is_file() and p.name != "run_record.json"
    )


class TestDeterminism:
    def test_pipeline_byte_identical_across_runs_and_threads(self, tmp_path):
        manifest = _synth(tmp_path / "data", seed=3)
        outs = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / name
            assert main(["fit", "--manifest", str(manifest), "--out", str(out), "--threads", threads]) == EXIT_OK
            assert (
                main(
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
                    ]
                )
                == EXIT_OK
            )
            assert main(["report", "--manifest", str(manifest), "--out", str(out), "--threads", threads]) == EXIT_OK
            outs.append(out)
        ref_files = _data_files(outs[0])
        ref_names = [p.relative_to(outs[0]) for p in ref_files]
        for other in outs[1:]:
            other_files = _data_files(other)
            assert [p.relative_to(other) for p in other_files] == ref_names
            for a, b in zip(ref_files, other_files):
                assert a.read_bytes() == b.read_bytes(), str(a)
