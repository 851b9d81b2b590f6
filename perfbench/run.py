"""brainalign benchmark: the CLI chain, timed end to end and per module.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-small --seed 1 --seconds 30 --trace 0

One run is one process and one workload. It generates the workload's
inputs from ``--seed`` (synthetic ``.eamx`` matrices, ROI JSON and a
manifest). Set-up runs at least ``SETUP_MIN_REPEATS`` times and for at
least ``SETUP_MIN_SECONDS`` before the first pass, and again for at least
``SETUP_SECONDS_BETWEEN`` between passes, so that the median set-up time
samples the whole run, as the pass times do. The run then times
passes of the workload's subcommand sequence through
``brainalign.cli.main`` in-process until ``--seconds`` seconds have passed
(at least ``MIN_PASSES``). Every subcommand gets ``--threads 1``: with OpenBLAS's
own threads that is one thread per core on a 2-core machine, where more
fold threads only oversubscribe. Each pass writes into a fresh output
directory under ``.perfbench/`` and is checked:

- every subcommand exits 0;
- data artifacts (all but ``run_record.json``) are byte-identical to the
  first pass's;
- in every fit, each ROI with a planted component that the condition's
  features carry has a higher mean correlation than ``roi_null``.

A failed check marks that subcommand call failed and the run goes on.

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``
(medians over the passes). ``--trace 1`` alternates untraced and traced
passes and prints the ``per_layer`` metrics: module functions are wrapped
from outside (see ``tracing.py``), per-layer values are medians over the
traced passes, and ``trace.overhead_s`` is the traced minus the untraced
median pass time. ``ceiling_s`` and ``contrast_interaction_s`` come from
the untraced passes and read 0 on workloads that do not run that
subcommand, as do the counts of modules a workload does not load.

Human-readable lines (provenance, result fingerprint, every metric with
its sample count) precede the last line, which is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(and, traced, its spans) is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_SECONDS_BETWEEN = 0.25
MIN_PASSES = 3
COMMON_FLAGS = ("--threads", "1")

# Per interaction contrast at pipeline-small scale, as measured at the
# ROADMAP re-anchor: 1 layer, 4 subjects, 10 gaussian baselines.
ROADMAP_INTERACTION_COUNTS = {
    "ridge.factor": 1620,
    "crossval.select_lambda": 270,
    "stats.pearson_columns": 13764,
}
# per_layer metric suffix -> the span counted under each interaction contrast
INTERACTION_CHILDREN = {
    "ridge_factor_calls": "ridge.factor",
    "select_lambda_calls": "crossval.select_lambda",
    "pearson_columns_calls": "stats.pearson_columns",
}

# Latent components whose linear mix each synthetic condition's features
# carry (brainalign.synth.generate); "interaction" joins the joint
# condition only when the ground truth says so.
CONDITION_SOURCES = {
    "joint": {"lang", "vis", "shared"},
    "lang_only": {"lang", "shared"},
    "vis_only": {"vis", "shared"},
    "mask_truth": {"lang"},
}

ROIS = ("roi_crossmodal", "roi_language", "roi_interaction", "roi_null")
ALL_CONDITIONS = ("joint", "lang_only", "vis_only", "mask_truth")
SMALL_DIMS = {"joint": 24, "lang_only": 16, "vis_only": 16, "mask_truth": 12}


def _rois(n):
    return {roi: n for roi in ROIS}


def _dims(joint):
    return {**SMALL_DIMS, "joint": joint}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # brainalign.synth.SynthSpec keyword arguments
    conditions: tuple  # conditions listed in the manifest
    steps: tuple  # (label, subcommand argv), in pass order


FIT = ("fit", ["fit"])
REPORT = ("report", ["report"])

WORKLOADS = {
    w.name: w
    for w in (
        # Test scale, whole chain: thousands of tiny SVDs, every design
        # shared by 4 subjects, a ceiling fit with p > n.
        Workload(
            "pipeline-small",
            synth={},
            conditions=ALL_CONDITIONS,
            steps=(
                FIT,
                ("ceiling", ["ceiling"]),
                ("contrast_connection", ["contrast", "--mode", "connection",
                                         "--condition-a", "joint", "--condition-b", "lang_only"]),
                ("contrast_interaction", ["contrast", "--mode", "interaction",
                                          "--condition-a", "joint", "--use-ceiling"]),
                REPORT,
            ),
        ),
        # Realistic scale: the 10 x p x v weight tensor and lambda scoring.
        Workload(
            "fit-wide",
            synth={"n_samples": 600, "n_subjects": 1,
                   "feature_dims": _dims(512), "voxels_per_roi": _rois(1000)},
            conditions=("joint",),
            steps=(FIT, REPORT),
        ),
        # Small design, very wide targets: per-voxel t tail, BH, big artifacts.
        Workload(
            "voxels-many",
            synth={"n_samples": 300, "n_subjects": 1,
                   "feature_dims": _dims(32), "voxels_per_roi": _rois(5000)},
            conditions=("joint",),
            steps=(("fit", ["fit", "--fdr", "bh"]), REPORT),
        ),
    )
}


# ---------------------------------------------------------------- inputs


def make_inputs(wl: Workload, seed: int, dest: Path) -> list[dict]:
    """Write the workload's synthetic inputs and manifest into ``dest``.

    Mirrors ``brainalign synth``'s layout, with the workload's shapes and
    only its conditions. Returns the shape and size of each matrix.
    """
    from brainalign import matrixio, synth

    spec = synth.SynthSpec(seed=seed, **wl.synth)
    data = synth.generate(spec)
    dest.mkdir(parents=True)
    files = []

    def put(arr, fname):
        matrixio.write_matrix(arr, dest / fname)
        files.append({"file": fname, "rows": arr.shape[0], "cols": arr.shape[1],
                      "bytes": (dest / fname).stat().st_size})

    conditions = []
    for name in wl.conditions:
        fname = f"{name}_layer_00.eamx"
        put(data.features[name], fname)
        conditions.append({"name": name, "layer_files": [fname]})
    with open(dest / "rois.json", "w") as fh:
        json.dump({roi: idx.tolist() for roi, idx in data.atlas.items()}, fh)
    subjects = []
    for i, Y in enumerate(data.responses):
        fname = f"subject_{i:02d}_responses.eamx"
        put(Y, fname)
        subjects.append({"id": f"s{i:02d}", "response_file": fname, "roi_file": "rois.json"})
    manifest = {
        "subjects": subjects,
        "conditions": conditions,
        "tr_seconds": 1.49,
        "n_outer_folds": 6,
        "n_inner_folds": 5,
        "lambda_grid": np.logspace(-1, 8, 10).tolist(),
        "significance_alpha": 0.05,
        "seed": seed,
    }
    for fname, payload in (("manifest.json", manifest), ("ground_truth.json", data.ground_truth)):
        with open(dest / fname, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return files


# ---------------------------------------------------------------- checks

_EAMX_HEADER = struct.Struct("<4sBBHQQ")


def read_eamx(path: Path) -> np.ndarray:
    """Independent reader for the .eamx format, used only by the checks."""
    raw = path.read_bytes()
    magic, _, code, _, rows, cols = _EAMX_HEADER.unpack_from(raw)
    if magic != b"EAMX" or code not in (0, 1):
        raise ValueError(f"{path}: not an .eamx matrix")
    dt = "<f4" if code == 0 else "<f8"
    return np.frombuffer(raw, dtype=dt, offset=_EAMX_HEADER.size).reshape(rows, cols)


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every data artifact under ``out_dir`` (timing sidecars excluded)."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "run_record.json"
    }


def step_of(relpath: str) -> str:
    """The step label that writes an artifact: fit/, ceiling/, report/,
    contrast/<hash>/<mode>/."""
    parts = Path(relpath).parts
    return f"contrast_{parts[2]}" if parts[0] == "contrast" else parts[0]


def planted_roi_failures(out_dir: Path, inputs: Path) -> list[str]:
    """Fits in which a planted ROI does not beat ``roi_null``.

    Only ROIs with a component that the condition's features carry are
    expected to beat the null ROI.
    """
    atlas = {k: np.asarray(v) for k, v in json.loads((inputs / "rois.json").read_text()).items()}
    truth = json.loads((inputs / "ground_truth.json").read_text())
    fits = sorted(out_dir.glob("fit/*/*/*/layer_*_mean_correlation.eamx"))
    if not fits:
        return ["no fit artifacts"]
    failures = []
    for path in fits:
        cond = path.parent.parent.name
        sources = set(CONDITION_SOURCES[cond])
        if cond == "joint" and truth["interaction_in_joint"]:
            sources.add("interaction")
        mc = read_eamx(path)[0]
        null = np.nanmean(mc[atlas["roi_null"]])
        for roi, comps in truth["roi_components"].items():
            if sources & set(comps) and not np.nanmean(mc[atlas[roi]]) > null:
                failures.append(f"{path.relative_to(out_dir)}: {roi} does not beat roi_null")
    return failures


def fingerprint(out_dir: Path) -> dict:
    """sha256 of the selected-lambda matrices and the sum and max of the
    mean correlations, over every fit artifact of a pass."""
    h = hashlib.sha256()
    for p in sorted(out_dir.glob("fit/**/*_selected_lambda.eamx")):
        h.update(p.read_bytes())
    mcs = [read_eamx(p).ravel() for p in sorted(out_dir.glob("fit/**/*_mean_correlation.eamx"))]
    mc = np.concatenate(mcs) if mcs else np.array([np.nan])
    return {
        "selected_lambda_sha256": h.hexdigest(),
        "mean_correlation_sum": f"{np.nansum(mc):.17g}",
        "mean_correlation_max": f"{np.nanmax(mc):.17g}",
    }


# ---------------------------------------------------------------- running


def run_pass(wl: Workload, manifest: Path, out_dir: Path) -> dict:
    """One pass of the workload's steps; returns per-step seconds and exit codes."""
    from brainalign import cli

    times, codes, errors = {}, {}, {}
    t_pass = time.perf_counter()
    for label, argv in wl.steps:
        full = [*argv, "--manifest", str(manifest), "--out", str(out_dir), *COMMON_FLAGS]
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(full)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed call, not a benchmark crash
                code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        times[label] = time.perf_counter() - t0
        codes[label] = code
        if code != 0:
            errors[label] = err.getvalue().strip()
    return {"pipeline": time.perf_counter() - t_pass, "steps": times,
            "codes": codes, "errors": errors}


def check_pass(rec, out_dir, inputs, reference) -> dict[str, str]:
    """Record in ``rec["failed"]`` the steps whose call or output check
    failed; return the pass's artifact digests."""
    failed = {label for label, code in rec["codes"].items() if code != 0}
    digests = artifact_digests(out_dir)
    if reference is not None:
        for rel in set(digests) ^ set(reference):
            failed.add(step_of(rel))
            rec["errors"].setdefault(step_of(rel), f"artifact set differs: {rel}")
        for rel in set(digests) & set(reference):
            if digests[rel] != reference[rel]:
                failed.add(step_of(rel))
                rec["errors"].setdefault(step_of(rel), f"artifact differs: {rel}")
    planted = planted_roi_failures(out_dir, inputs)
    if planted:
        failed.add("fit")
        rec["errors"].setdefault("fit", "; ".join(planted[:3]))
    rec["failed"] = sorted(failed)
    return digests


def tail_percentile(values):
    """The highest of the usual percentiles with at least 10 samples
    beyond it, as (p, value), or None when there are too few samples."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, sorted(values)[math.ceil(p / 100 * n) - 1]
    return None


def describe(name, values, unit) -> str:
    tail = tail_percentile(values)
    tail_s = f"p{tail[0]:g}={tail[1]:.6g}" if tail else "no percentile (needs >= 10 samples beyond it)"
    return (f"{name:<26} median={statistics.median(values):.6g} {unit}  "
            f"n={len(values)}  {tail_s}")


def blas_info() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(args, inputs: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads_flag": int(COMMON_FLAGS[1]),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "inputs": inputs,
    }


def per_layer_metrics(names, passes, setup_spans) -> dict:
    """Per-layer values: medians over the traced passes of span statistics."""
    traced = [r for r in passes if r["spans"] is not None]
    untraced = [r for r in passes if r["spans"] is None]
    selfs = [tracing.self_times(r["spans"]) for r in traced]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value = (statistics.median(r["pipeline"] for r in traced)
                     - statistics.median(r["pipeline"] for r in untraced))
        elif name == "failed_fraction":
            value = failed_fraction(passes)
        elif name in ("ceiling_s", "contrast_interaction_s"):
            value = median_or_zero(
                [r["steps"][name[:-2]] for r in untraced if name[:-2] in r["steps"]])
        elif name == "synth.generate.s":
            value = median_or_zero([
                tracing.layer_stat(s, tracing.self_times(s), "synth.generate", "s")
                for s in setup_spans])
        elif name.rsplit(".", 1)[-1] in INTERACTION_CHILDREN:
            child = INTERACTION_CHILDREN[name.rsplit(".", 1)[-1]]
            value = median_or_zero([
                tracing.descendant_calls(r["spans"], "contrast.interaction_contrast", child)
                for r in traced])
        else:
            prefix, stat = name.rsplit(".", 1)
            value = median_or_zero([
                tracing.layer_stat(r["spans"], sf, prefix, stat)
                for r, sf in zip(traced, selfs)])
        out[name] = float(value)
    return out


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def failed_fraction(passes) -> float:
    attempted = sum(len(r["steps"]) for r in passes)
    return sum(len(r["failed"]) for r in passes) / attempted


def end_to_end_metrics(names, passes, setup_times) -> dict:
    out = {}
    for name in names:
        if name == "setup_s":
            value = statistics.median(setup_times)
        elif name == "pipeline_s":
            value = statistics.median(r["pipeline"] for r in passes)
        elif name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            value = statistics.median(r["steps"][name[:-2]] for r in passes)
        out[name] = float(value)
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    spec = load_spec()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    try:
        setup_times, setup_spans = [], []

        def set_up(min_repeats, min_seconds):
            """Write the inputs afresh, repeatedly; they are the same every time."""
            t_setup, n = time.perf_counter(), 0
            while n < min_repeats or time.perf_counter() - t_setup < min_seconds:
                shutil.rmtree(inputs, ignore_errors=True)
                tracer = tracing.Tracer(f"setup-{len(setup_times)}") if args.trace else None
                with traced(tracer):
                    t0 = time.perf_counter()
                    files = make_inputs(wl, args.seed, inputs)
                    setup_times.append(time.perf_counter() - t0)
                if tracer:
                    setup_spans.append(tracer.spans)
                n += 1
            return files

        files = set_up(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
        manifest = inputs / "manifest.json"
        prov = provenance(args, files)
        print("provenance: " + json.dumps(prov, sort_keys=True))

        passes, reference, fp = [], None, None
        t_start = time.perf_counter()
        while True:
            k = len(passes)
            out_dir = run_dir / f"pass-{k:03d}"
            tracer = tracing.Tracer(k) if args.trace and k % 2 == 1 else None
            with traced(tracer):
                rec = run_pass(wl, manifest, out_dir)
            if tracing.leftover_wrappers():
                raise RuntimeError(f"tracer left wrappers: {tracing.leftover_wrappers()}")
            rec["spans"] = tracer.spans if tracer else None
            digests = check_pass(rec, out_dir, inputs, reference)
            if reference is None:
                reference, fp = digests, fingerprint(out_dir)
            shutil.rmtree(out_dir)
            passes.append(rec)
            for label in rec["failed"]:
                print(f"pass {k} {label} FAILED: {rec['errors'].get(label, '')}", file=sys.stderr)
            if len(passes) >= MIN_PASSES and time.perf_counter() - t_start >= args.seconds:
                break
            set_up(1, SETUP_SECONDS_BETWEEN)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r["steps"]) for r in passes)
    failed = sum(len(r["failed"]) for r in passes)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer_metrics(list(units), passes, setup_spans)
        for name, value in metrics.items():
            print(f"{name:<48} {value:.6g} {units[name]}")
        if any(label == "contrast_interaction" for label, _ in wl.steps):
            print(interaction_check(metrics))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end_metrics(list(units), passes, setup_times)
        print(describe("setup_s", setup_times, "s"))
        print(describe("pipeline_s", [r["pipeline"] for r in passes], "s"))
        for label, _ in wl.steps:
            print(describe(f"{label}_s", [r["steps"][label] for r in passes], "s"))
        print(f"{'peak_rss_mb':<26} {metrics['peak_rss_mb']:.6g} MiB")
    print(f"{'failed_fraction':<26} {failed / attempted:.6g} ratio  ({failed}/{attempted} calls)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record_run(args, prov, fp, passes, setup_times, setup_spans, result)
    return result


def traced(tracer):
    return tracer.installed() if tracer else contextlib.nullcontext()


def interaction_check(metrics) -> str:
    got = {child: metrics[f"contrast.interaction_contrast.{key}"]
           for key, child in INTERACTION_CHILDREN.items()}
    line = "trace check, calls per interaction contrast: " + ", ".join(
        f"{child}={got[child]:g}" for child in got)
    ok = all(got[c] == ROADMAP_INTERACTION_COUNTS[c] for c in got)
    return line + (" match ROADMAP " if ok else " differ from ROADMAP ") + str(
        ROADMAP_INTERACTION_COUNTS)


def record_run(args, prov, fp, passes, setup_times, setup_spans, result) -> None:
    """Write the run's record (and spans, when traced) under .perfbench/results/."""
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov,
        "fingerprint": fp,
        "setup_s": setup_times,
        "passes": [{k: v for k, v in r.items() if k != "spans"} for r in passes],
        "result": result,
    }
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        with open(out / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass_id", "extra"],
                       "setup": setup_spans,
                       "passes": [r["spans"] for r in passes if r["spans"] is not None]}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "brainalign" / "__init__.py").is_file():
        print(f"error: no brainalign sources under {src}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import brainalign

    if Path(brainalign.__file__).resolve().parent != (src / "brainalign").resolve():
        print(f"error: imported brainalign from {brainalign.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
