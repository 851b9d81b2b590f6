"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# SynthSpec overrides that shrink each workload to a smoke-test shape.
TINY = {
    "pipeline-small": {"n_samples": 60, "n_subjects": 3,
                       "voxels_per_roi": {roi: 4 for roi in run.ROIS}},
    "fit-wide": {"n_samples": 120, "feature_dims": run._dims(64),
                 "voxels_per_roi": {roi: 100 for roi in run.ROIS}},
    "voxels-many": {"n_samples": 120, "feature_dims": run._dims(16),
                    "voxels_per_roi": {roi: 500 for roi in run.ROIS}},
}


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {
        name: dataclasses.replace(wl, synth={**wl.synth, **TINY[name]})
        for name, wl in run.WORKLOADS.items()
    })


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tiny_workloads, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    *human, last = capsys.readouterr().out.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = next(l for l in human if l.split()[0] == m["name"])
        assert line.split()[-1] == m["unit"] or f" {m['unit']} " in line
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("a.f", 0.0, 10.0, None),   # 0
        _span("b.g", 1.0, 4.0, 0),       # 1: overlaps its sibling 2
        _span("b.h", 3.0, 6.0, 0),       # 2
        _span("c.k", 2.0, 3.0, 1),       # 3
        _span("a.f", 7.0, 9.0, 0),       # 4: nested in a same-name span
        _span("b.g", 8.5, 12.0, 4),      # 5: runs past its parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 5 - 2, 2.0, 3.0, 1.0, 1.5, 3.5])
    assert tracing.layer_stat(spans, selfs, "a.f", "calls") == 2
    assert tracing.layer_stat(spans, selfs, "a.f", "s") == pytest.approx(10.0)
    assert tracing.layer_stat(spans, selfs, "a.f", "self_s") == pytest.approx(4.5)
    assert tracing.layer_stat(spans, selfs, "b", "s") == pytest.approx(3 + 3 + 3.5)
    assert tracing.layer_stat(spans, selfs, "b", "self_s") == pytest.approx(2 + 3 + 3.5)
    assert tracing.descendant_calls(spans, "a.f", "b.g") == pytest.approx(1.0)


def test_extra_callbacks_are_in_no_span():
    tracer = tracing.Tracer()
    inner = tracer._wrap("b.inner", lambda: None, lambda a, k, r: time.sleep(0.2))
    outer = tracer._wrap("a.outer", lambda: inner(), None)
    t0 = time.perf_counter()
    outer()
    assert time.perf_counter() - t0 >= 0.2
    (_, s0, e0, *_), (_, s1, e1, *_) = tracer.spans
    assert e0 - s0 < 0.1 and s0 <= s1 <= e1 <= e0


def test_traced_run_wraps_every_binding_and_leaves_none_behind(
        tiny_workloads, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from brainalign import cli, crossval, residual, ridge
    import brainalign

    originals = (cli.main, crossval.fit_fold, residual.fit_fold, ridge.factor, brainalign.factor)
    with tracing.Tracer().installed():
        wrapped = (cli.main, crossval.fit_fold, residual.fit_fold, ridge.factor, brainalign.factor)
        assert all(getattr(f, tracing.WRAPPED_MARK, False) for f in wrapped)
        assert tracing.leftover_wrappers()
    assert tracing.leftover_wrappers() == []

    assert run.main(["--workload", "pipeline-small", "--seed", "2", "--seconds", "0",
                     "--trace", "1"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]
    assert tracing.leftover_wrappers() == []
    assert (cli.main, crossval.fit_fold, residual.fit_fold, ridge.factor,
            brainalign.factor) == originals


def test_pipeline_small_trace_reproduces_roadmap_counts():
    proc = _bench("--workload", "pipeline-small", "--seed", "0", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    got = {child: metrics[f"contrast.interaction_contrast.{key}"]["value"]
           for key, child in run.INTERACTION_CHILDREN.items()}
    assert got == run.ROADMAP_INTERACTION_COUNTS
    assert "match ROADMAP" in proc.stdout


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fit-wide", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
