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
