"""Span tracing of brainalign's public functions, installed from outside.

The tracer replaces each listed function at every name it is bound under
in the loaded ``brainalign`` modules -- the defining module's attribute and
every ``from ... import`` copy (``cli``, ``crossval``, ``residual``,
``ceiling``, ``contrast``, the package namespace) -- and puts the
originals back when the ``installed()`` block ends. The program's own code
is never edited.

Spans are kept in memory as ``[name, start, end, parent, pass_id, extra]``
and written once, at the end of a run, by the harness. Work runs
on one thread (every subcommand gets ``--threads 1``), so one stack gives
each span its parent.

Span times are read from a clock that stops while a target's ``extra``
callback runs (for instance the hash of each design passed to
``ridge.factor``), so that bookkeeping of the tracer is in no span's
inclusive or self time. It still shows in the wall time of a traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import sys
import time

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _written_bytes(m) -> int:
    """Payload size write_matrix writes: float32 stays, the rest is float64."""
    m = np.asarray(m)
    return int(m.size) * (4 if m.dtype == np.float32 else 8)


def _design_digest(X) -> str:
    X = np.ascontiguousarray(X, dtype=np.float64)
    h = hashlib.blake2b(repr(X.shape).encode(), digest_size=16)
    h.update(X.tobytes())
    return h.hexdigest()


# (module, function, extra(args, kwargs, result) -> dict or None)
TARGETS = (
    ("cli", "main", None),
    ("cli", "cmd_fit", None),
    ("cli", "cmd_ceiling", None),
    ("cli", "cmd_contrast", None),
    ("cli", "cmd_report", None),
    ("matrixio", "read_matrix", lambda a, k, r: {"bytes": int(r.nbytes)}),
    ("matrixio", "write_matrix", lambda a, k, r: {"bytes": _written_bytes(_first(a, k, "m"))}),
    ("matrixio", "load_manifest", None),
    ("synth", "generate", None),
    ("ridge", "factor", lambda a, k, r: {"design": _design_digest(_first(a, k, "X"))}),
    ("ridge", "solve_path", lambda a, k, r: {"bytes": int(r.nbytes)}),
    ("ridge", "solve", None),
    ("crossval", "fit_encoding", lambda a, k, r: {"targets": int(r.mean_correlation.size)}),
    ("crossval", "select_lambda", None),
    ("crossval", "fit_fold", None),
    ("stats", "pearson_columns", None),
    ("stats", "student_t_sf", None),
    ("stats", "bh_fdr", None),
    ("residual", "remove_information", None),
    ("ceiling", "noise_ceiling", None),
    ("contrast", "connection_contrast", None),
    ("contrast", "interaction_contrast", None),
)


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self, pass_id=None):
        self.spans: list[list] = []
        self.pass_id = pass_id
        self._stack: list[int] = []
        self._hidden = 0.0  # seconds spent in extra callbacks so far

    def clock(self) -> float:
        """perf_counter() minus the time spent in extra callbacks."""
        return time.perf_counter() - self._hidden

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()
            if extra is not None:
                t0 = time.perf_counter()
                span[5] = extra(args, kwargs, result)
                self._hidden += time.perf_counter() - t0
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each target; restore all of them on exit."""
        originals = [
            getattr(importlib.import_module(f"brainalign.{mod_name}"), fn_name)
            for mod_name, fn_name, _ in TARGETS
        ]
        modules = [m for _, m in _brainalign_modules()]
        patched = []
        try:
            for (mod_name, fn_name, extra), original in zip(TARGETS, originals):
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, extra)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def _brainalign_modules():
    return [
        (n, m)
        for n, m in sorted(sys.modules.items())
        if m is not None and (n == "brainalign" or n.startswith("brainalign."))
    ]


def leftover_wrappers() -> list[str]:
    """Bindings in loaded brainalign modules that are still tracer wrappers."""
    return [
        f"{n}.{attr}"
        for n, mod in _brainalign_modules()
        for attr, value in vars(mod).items()
        if getattr(value, WRAPPED_MARK, False)
    ]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s[1]), min(b, s[2])) for a, b in children.get(i, ())]
        out.append((s[2] - s[1]) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def _in_group(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _ancestors(spans, i):
    p = spans[i][3]
    while p is not None:
        yield p
        p = spans[p][3]


def layer_stat(spans, selfs, prefix: str, stat: str) -> float:
    """One per-layer statistic over the spans whose name is ``prefix`` or
    starts with ``prefix.``.

    ``calls``: span count. ``s``: inclusive seconds of the outermost spans
    of the group. ``self_s``: summed self time. ``bytes``/``targets``: sum
    of the recorded extra. ``distinct_ratio``: distinct designs / calls.
    """
    idx = [i for i, s in enumerate(spans) if _in_group(s[0], prefix)]
    if stat == "calls":
        return float(len(idx))
    if stat == "s":
        return float(sum(
            spans[i][2] - spans[i][1]
            for i in idx
            if not any(_in_group(spans[a][0], prefix) for a in _ancestors(spans, i))
        ))
    if stat == "self_s":
        return float(sum(selfs[i] for i in idx))
    if stat in ("bytes", "targets"):
        return float(sum((spans[i][5] or {}).get(stat, 0) for i in idx))
    if stat == "distinct_ratio":
        if not idx:
            return 0.0
        return len({spans[i][5]["design"] for i in idx}) / len(idx)
    raise KeyError(f"unknown per-layer statistic {stat!r}")


def descendant_calls(spans, parent_name: str, child_name: str) -> float:
    """Mean number of ``child_name`` spans under each ``parent_name`` span."""
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    if not parents:
        return 0.0
    count = sum(
        1 for i, s in enumerate(spans)
        if s[0] == child_name and any(a in parents for a in _ancestors(spans, i))
    )
    return count / len(parents)
