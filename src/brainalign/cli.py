"""Command-line surface.

Subcommands: fit, residual, ceiling, contrast, synth, report.
Exit codes: 0 success, 1 internal error, 2 input error, 3 missing
dependency artifact.

Fit artifacts are cached under ``<out>/fit/<manifest-hash>/`` and reused
by ``contrast`` and ``report``; the regularization sweep dominates the
cost and every contrast reuses it. All outputs are deterministic for a
fixed manifest and seed: folds are fit serially in index order and timing
information lives only in the ``run_record`` sidecar, never inside data
artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from brainalign import __version__
from brainalign.ceiling import CeilingResult, noise_ceiling
from brainalign.contrast import connection_contrast, interaction_contrast
from brainalign.crossval import EncodingResult, _nanmean_cols, fit_encoding, make_folds
from brainalign.matrixio import (
    DatasetManifest,
    ManifestError,
    MatrixFormatError,
    MatrixValidationError,
    load_manifest,
    load_roi_atlas,
    read_matrix,
    write_matrix,
)
from brainalign.residual import remove_information
from brainalign.synth import SynthSpec, generate
from brainalign.trmap import TrMapConfig, align_rows

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MISSING_ARTIFACT = 3

def manifest_hash(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _seed(args, manifest: DatasetManifest) -> int:
    """The analysis seed: ``--seed-override`` when given (0 included)."""
    return manifest.seed if args.seed_override is None else args.seed_override


def _run_record(args, mhash: str | None, seed) -> dict:
    """Deterministic provenance block embedded in data artifacts.

    Execution-environment flags (worker count, output location) are
    excluded so re-runs of the same analysis produce byte-identical
    artifacts; the full flag set lives in the run_record.json sidecar.
    """
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "threads", "out") and v is not None
    }
    return {
        "tool_version": __version__,
        "manifest_hash": mhash,
        "seed": seed,
        "subcommand": args.command,
        "flags": {k: str(v) for k, v in flags.items()},
    }


def _write_sidecar(out_dir: Path, record: dict, t0: float, stages: dict) -> None:
    payload = dict(record)
    payload["wall_time_s"] = time.time() - t0
    payload["stage_timings_s"] = stages
    with open(out_dir / "run_record.json", "w") as fh:
        json.dump(payload, fh, indent=2)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)


def _save_result(res: EncodingResult, out_dir: Path, layer: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = {
        "cv_predictions": res.cv_predictions,
        "fold_correlations": res.fold_correlations,
        "mean_correlation": res.mean_correlation[None, :],
        "selected_lambda": res.selected_lambda,
        "significance_pvalues": res.significance_pvalues[None, :],
        "significant_mask": res.significant_mask.astype(np.float64)[None, :],
    }
    for name, arr in arrays.items():
        write_matrix(arr, out_dir / f"layer_{layer:02d}_{name}.eamx")


def _load_result(out_dir: Path, layer: int, alpha: float) -> EncodingResult:
    def rd(name):
        p = out_dir / f"layer_{layer:02d}_{name}.eamx"
        if not p.exists():
            raise FileNotFoundError(str(p))
        return read_matrix(p, validate=False)

    return EncodingResult(
        cv_predictions=rd("cv_predictions"),
        fold_correlations=rd("fold_correlations"),
        mean_correlation=rd("mean_correlation")[0],
        selected_lambda=rd("selected_lambda"),
        significance_pvalues=rd("significance_pvalues")[0],
        significant_mask=rd("significant_mask")[0].astype(bool),
        alpha=alpha,
    )


def _trmap_config(manifest: DatasetManifest, policy_override: str | None) -> TrMapConfig | None:
    if manifest.trmap is None:
        return None
    cfg = dict(manifest.trmap)
    if policy_override:
        cfg["tr_policy"] = policy_override
    return TrMapConfig(tr_seconds=manifest.tr_seconds, **cfg)


def _align_xy(X, layer_file, responses, tr_cfg):
    """Pair the feature rows of ``layer_file`` with their response rows."""
    if tr_cfg is not None:
        return align_rows(X, responses, tr_cfg)
    if X.shape[0] != responses.shape[0]:
        raise ManifestError(
            f"{layer_file}: {X.shape[0]} feature rows vs {responses.shape[0]} response rows"
        )
    return X, responses


def _fit_condition_subject(manifest, cond, sub, args, out_dir: Path):
    responses = read_matrix(manifest.resolve(sub.response_file))
    tr_cfg = _trmap_config(manifest, args.tr_policy)
    results = []
    for layer, lf in enumerate(cond.layer_files):
        X, Y = _align_xy(read_matrix(manifest.resolve(lf)), lf, responses, tr_cfg)
        scheme = make_folds(X.shape[0], manifest.n_outer_folds)
        res = fit_encoding(
            X,
            Y,
            scheme,
            inner_folds=manifest.n_inner_folds,
            lambda_grid=manifest.lambda_grid,
            alpha=manifest.significance_alpha,
            fdr=args.fdr or manifest.fdr,
        )
        _save_result(res, out_dir, layer)
        results.append(res)
    return results


def cmd_fit(args) -> int:
    manifest = load_manifest(args.manifest)
    mhash = manifest_hash(args.manifest)
    record = _run_record(args, mhash, _seed(args, manifest))
    t0 = time.time()
    out_root = Path(args.out) / "fit" / mhash
    conditions = [manifest.condition(args.condition)] if args.condition else manifest.conditions
    subjects = [manifest.subject(args.subject)] if args.subject else manifest.subjects
    stages = {}
    summary_path = out_root / "fit_summary.json"
    summary = {"conditions": {}}
    if (args.condition or args.subject) and summary_path.exists():
        # a subset fit replaces only its own entries; run_record is this run's
        summary = json.loads(summary_path.read_text())
    summary["run_record"] = record
    for cond in conditions:
        cond_summary = summary["conditions"].setdefault(cond.name, {})
        for sub in subjects:
            s0 = time.time()
            out_dir = out_root / cond.name / sub.id
            results = _fit_condition_subject(manifest, cond, sub, args, out_dir)
            stages[f"{cond.name}/{sub.id}"] = time.time() - s0
            layers = []
            for res in results:
                sig = res.significant_mask
                vals = res.mean_correlation[sig]
                vals = vals[~np.isnan(vals)]
                layers.append(
                    {
                        "n_significant": int(sig.sum()),
                        "frac_significant": float(sig.mean()),
                        "mean_significant_correlation": float(vals.mean()) if vals.size else None,
                        "mean_correlation": float(_nanmean_cols(res.mean_correlation)),
                    }
                )
            cond_summary[sub.id] = layers
            _write_json(out_dir / "summary.json", {"run_record": record, "layers": layers})
    out_root.mkdir(parents=True, exist_ok=True)
    _write_json(summary_path, summary)
    _write_sidecar(out_root, record, t0, stages)
    print(f"fit artifacts written to {out_root}")
    return EXIT_OK


def cmd_residual(args) -> int:
    A = read_matrix(args.source)
    B = read_matrix(args.target)
    scheme = make_folds(A.shape[0], args.folds)
    grid = np.asarray(args.lambda_grid, dtype=np.float64)
    resid = remove_information(
        A, B, scheme, lambda_grid=grid, inner_folds=args.inner_folds, in_sample=args.in_sample
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_matrix(resid, out)
    var_ratio = resid.var(axis=0) / np.where(B.var(axis=0) == 0, 1, B.var(axis=0))
    summary = {
        "run_record": _run_record(args, None, None),
        "mode": "in_sample" if args.in_sample else "cross_validated",
        "mean_variance_retained": float(var_ratio.mean()),
        "columns": int(B.shape[1]),
    }
    _write_json(out.with_suffix(".summary.json"), summary)
    print(
        f"residual written to {out} "
        f"(mean variance retained {var_ratio.mean():.4f})"
    )
    return EXIT_OK


def cmd_ceiling(args) -> int:
    manifest = load_manifest(args.manifest)
    mhash = manifest_hash(args.manifest)
    record = _run_record(args, mhash, manifest.seed)
    t0 = time.time()
    Y_all = [read_matrix(manifest.resolve(s.response_file)) for s in manifest.subjects]
    scheme = make_folds(Y_all[0].shape[0], manifest.n_outer_folds)
    result = noise_ceiling(
        Y_all,
        scheme,
        lambda_grid=manifest.lambda_grid,
        inner_folds=manifest.n_inner_folds,
    )
    out_dir = Path(args.out) / "ceiling" / mhash
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix(result.per_voxel_ceiling[None, :], out_dir / "group_ceiling.eamx")
    write_matrix(result.per_subject_ceilings, out_dir / "per_subject_ceilings.eamx")
    atlas = load_roi_atlas(
        manifest.resolve(manifest.subjects[0].roi_file), Y_all[0].shape[1]
    )
    per_roi = {
        roi: float(_nanmean_cols(result.per_voxel_ceiling[idx])) for roi, idx in atlas.items()
    }
    _write_json(
        out_dir / "ceiling_summary.json",
        {"run_record": record, "per_roi_ceiling": per_roi, "n_subjects": result.n_subjects},
    )
    _write_sidecar(out_dir, record, t0, {})
    print(f"ceiling artifacts written to {out_dir}")
    return EXIT_OK


def _load_ceiling(args, mhash) -> CeilingResult | None:
    if not args.use_ceiling:
        return None
    cdir = Path(args.out) / "ceiling" / mhash
    gpath = cdir / "group_ceiling.eamx"
    if not gpath.exists():
        raise FileNotFoundError(
            f"no ceiling artifacts at {cdir}; run the ceiling subcommand first"
        )
    per_subject = read_matrix(cdir / "per_subject_ceilings.eamx", validate=False)
    return CeilingResult(
        per_voxel_ceiling=read_matrix(gpath, validate=False)[0],
        per_subject_ceilings=per_subject,
        n_subjects=per_subject.shape[0],
    )


def cmd_contrast(args) -> int:
    manifest = load_manifest(args.manifest)
    mhash = manifest_hash(args.manifest)
    seed = _seed(args, manifest)
    record = _run_record(args, mhash, seed)
    t0 = time.time()
    out_root = Path(args.out)
    fit_root = out_root / "fit" / mhash
    responses = [read_matrix(manifest.resolve(sub.response_file)) for sub in manifest.subjects]
    atlases = [
        load_roi_atlas(manifest.resolve(sub.roi_file), Y.shape[1])
        for sub, Y in zip(manifest.subjects, responses)
    ]

    if args.mode == "connection":
        cond_a = manifest.condition(args.condition_a)
        cond_b = manifest.condition(args.condition_b)

        def load_all(cond):
            per_subject = []
            for sub in manifest.subjects:
                d = fit_root / cond.name / sub.id
                layers = []
                for layer in range(len(cond.layer_files)):
                    try:
                        layers.append(
                            _load_result(d, layer, manifest.significance_alpha)
                        )
                    except FileNotFoundError as exc:
                        if args.refit:
                            layers = _fit_condition_subject(
                                manifest, cond, sub, args, d
                            )
                            break
                        raise FileNotFoundError(
                            f"missing fit artifact {exc}; run fit first or pass --refit"
                        ) from exc
                per_subject.append(layers)
            return per_subject

        report = connection_contrast(
            load_all(cond_a),
            load_all(cond_b),
            atlases,
            condition_a=cond_a.name,
            condition_b=cond_b.name,
        )
    else:
        cond_joint = manifest.condition(args.condition_a)
        lang = manifest.condition(args.unimodal_a)
        vis = manifest.condition(args.unimodal_b)
        tr_cfg = _trmap_config(manifest, args.tr_policy)
        # each file is read once; every subject's rows are checked against all
        # of them, and Y comes from the last joint layer
        files = [lang.layer_files[-1], vis.layer_files[-1], *cond_joint.layer_files]
        mats = [read_matrix(manifest.resolve(f)) for f in files]
        lang_X, vis_X, *joint_layers = mats
        Y_subjects = []
        for sub_responses in responses:
            for f, X in zip(files, mats):
                _, Y = _align_xy(X, f, sub_responses, tr_cfg)
            Y_subjects.append(Y)
        scheme = make_folds(joint_layers[0].shape[0], manifest.n_outer_folds)
        report = interaction_contrast(
            joint_layers,
            lang_X,
            vis_X,
            Y_subjects,
            atlases,
            scheme,
            lambda_grid=manifest.lambda_grid,
            inner_folds=manifest.n_inner_folds,
            alpha=manifest.significance_alpha,
            n_baseline=args.n_baseline,
            baseline=args.baseline,
            seed=seed,
            ceiling=_load_ceiling(args, mhash),
            ceiling_floor=manifest.ceiling_floor,
        )

    out_dir = out_root / "contrast" / mhash / args.mode
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w") as fh:
        fh.write(report.to_csv())
    _write_json(out_dir / "report.json", {"run_record": record, "report": report.to_dict()})
    _write_sidecar(out_dir, record, t0, {})
    print(f"contrast report written to {out_dir}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_samples=args.n_samples,
        n_subjects=args.n_subjects,
        seed=args.seed,
        include_interaction_in_joint=not args.no_interaction,
    )
    data = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    conditions = []
    for name, X in data.features.items():
        fname = f"{name}_layer_00.eamx"
        write_matrix(X, out / fname)
        conditions.append({"name": name, "layer_files": [fname]})
    subjects = []
    atlas_json = {roi: idx.tolist() for roi, idx in data.atlas.items()}
    with open(out / "rois.json", "w") as fh:
        json.dump(atlas_json, fh)
    for i, Y in enumerate(data.responses):
        fname = f"subject_{i:02d}_responses.eamx"
        write_matrix(Y, out / fname)
        subjects.append(
            {"id": f"s{i:02d}", "response_file": fname, "roi_file": "rois.json"}
        )
    manifest = {
        "subjects": subjects,
        "conditions": conditions,
        "tr_seconds": 1.49,
        "n_outer_folds": 6,
        "n_inner_folds": 5,
        "lambda_grid": np.logspace(-1, 8, 10).tolist(),
        "significance_alpha": 0.05,
        "seed": args.seed,
    }
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "ground_truth.json", data.ground_truth)
    print(f"synthetic dataset written to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    manifest = load_manifest(args.manifest)
    mhash = manifest_hash(args.manifest)
    fit_root = Path(args.out) / "fit" / mhash
    summary_path = fit_root / "fit_summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(
            f"no fit summary at {summary_path}; run fit first"
        )
    with open(summary_path) as fh:
        fit_summary = json.load(fh)
    rows = []
    for cond_name, subjects in fit_summary["conditions"].items():
        per_subject = []
        for sid, layers in subjects.items():
            vals = [
                l["mean_significant_correlation"]
                for l in layers
                if l["mean_significant_correlation"] is not None
            ]
            if vals:
                per_subject.append(float(np.mean(vals)))
        rows.append(
            {
                "condition": cond_name,
                "n_subjects": len(subjects),
                "mean_significant_correlation": float(np.mean(per_subject))
                if per_subject
                else None,
            }
        )
    out_dir = Path(args.out) / "report" / mhash
    out_dir.mkdir(parents=True, exist_ok=True)
    record = _run_record(args, mhash, manifest.seed)
    _write_json(out_dir / "report.json", {"run_record": record, "rows": rows})
    with open(out_dir / "report.csv", "w") as fh:
        fh.write("condition,n_subjects,mean_significant_correlation\n")
        for r in rows:
            fh.write(
                f"{r['condition']},{r['n_subjects']},{r['mean_significant_correlation']}\n"
            )
    print(f"report written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brainalign",
        description="Cross-validated ridge encoding models and ablation contrasts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", required=True, help="dataset manifest (JSON)")
        p.add_argument("--out", default="out", help="output root directory")
        p.add_argument("--threads", type=int, default=1, help="no effect; folds are fit serially")

    def analysis(p):
        """Flags of the subcommands that fit encoding models."""
        common(p)
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--tr-policy", choices=["first_relevant", "last_relevant"], default=None)
        p.add_argument("--fdr", choices=["none", "bh"], default=None)

    p = sub.add_parser("fit", help="fit encoding models for manifest conditions")
    analysis(p)
    p.add_argument("--condition", default=None, help="fit one condition only")
    p.add_argument("--subject", default=None, help="fit one subject only")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("residual", help="remove what one matrix explains from another")
    p.add_argument("source", help="source matrix A (.eamx)")
    p.add_argument("target", help="target matrix B (.eamx)")
    p.add_argument("--out", required=True, help="output residual .eamx path")
    p.add_argument("--folds", type=int, default=6)
    p.add_argument("--inner-folds", type=int, default=5)
    p.add_argument(
        "--lambda-grid", type=float, nargs="+", default=np.logspace(-1, 8, 10).tolist()
    )
    p.add_argument("--in-sample", action="store_true")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("ceiling", help="inter-subject noise ceilings")
    common(p)
    p.set_defaults(func=cmd_ceiling)

    p = sub.add_parser("contrast", help="connection or interaction contrast")
    analysis(p)
    p.add_argument("--mode", choices=["connection", "interaction"], required=True)
    p.add_argument("--condition-a", required=True, help="reference (joint) condition")
    p.add_argument("--condition-b", default=None, help="ablated condition (connection mode)")
    p.add_argument(
        "--unimodal-a",
        default="lang_only",
        help="first unimodal condition removed in interaction mode; "
        "only its last layer file is used",
    )
    p.add_argument(
        "--unimodal-b",
        default="vis_only",
        help="second unimodal condition removed in interaction mode; "
        "only its last layer file is used",
    )
    p.add_argument("--baseline", choices=["gaussian", "shuffle"], default="gaussian")
    p.add_argument("--n-baseline", type=int, default=10)
    p.add_argument("--use-ceiling", action="store_true", help="normalize by cached ceilings")
    p.add_argument("--refit", action="store_true", help="fit missing artifacts on the fly")
    p.set_defaults(func=cmd_contrast)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=120)
    p.add_argument("--n-subjects", type=int, default=4)
    p.add_argument("--no-interaction", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="merge fit outputs into a comparison table")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "contrast" and args.mode == "connection" and not args.condition_b:
        parser.error("--condition-b is required for connection mode")
    if getattr(args, "threads", 1) != 1:
        print(
            f"note: --threads {args.threads} has no effect; folds are fit serially",
            file=sys.stderr,
        )
    manifest_path = getattr(args, "manifest", None)
    if manifest_path is not None and not Path(manifest_path).exists():
        print(f"error: manifest not found: {manifest_path}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing artifact or file: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (ManifestError, MatrixFormatError, MatrixValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
