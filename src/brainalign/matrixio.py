"""Binary matrix file format (.eamx), dataset manifests, and ROI atlases.

The matrix format is deliberately minimal and endian-explicit so files
written on any platform load identically:

    magic   4 bytes  b"EAMX"
    version u8       1
    dtype   u8       0 = float32, 1 = float64
    reserved u16     0
    rows    u64 LE
    cols    u64 LE
    payload row-major, little-endian

Matrices are plain 2-D numpy arrays in memory; float32 files are accepted
on ingest but promoted to float64 because the downstream ridge path is
sensitive to accumulation error.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"EAMX"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBHQQ")

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class MatrixFormatError(ValueError):
    """Malformed .eamx file: bad magic, version, dtype code, or truncation."""


class MatrixValidationError(ValueError):
    """A loaded matrix contains non-finite values."""


class ManifestError(ValueError):
    """A dataset manifest is missing fields or internally inconsistent."""


def write_matrix(m: np.ndarray, path) -> None:
    """Write a 2-D array to ``path`` in the .eamx format.

    float64 input is written as float64, float32 as float32; anything else
    is promoted to float64. Round-trips bit-exactly.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with rows, cols >= 1, got shape {m.shape}")
    if m.dtype == np.float32:
        code, dt = 0, _DTYPE_CODES[0]
    else:
        code, dt = 1, _DTYPE_CODES[1]
    payload = np.ascontiguousarray(m, dtype=dt)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, code, 0, m.shape[0], m.shape[1])
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(memoryview(payload))  # the array's own buffer, not a copy
    except OSError as exc:
        raise OSError(f"failed to write matrix to {path}: {exc}") from exc


def read_matrix(path, validate: bool = True) -> np.ndarray:
    """Read an .eamx file; exact inverse of :func:`write_matrix`.

    With ``validate`` the payload is scanned for NaN/Inf and a
    :class:`MatrixValidationError` names the first offending row, col.
    Always returns float64 (float32 files are promoted).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    dt, rows, cols = _parse_header(raw, path)
    expected = _HEADER.size + rows * cols * dt.itemsize
    if len(raw) != expected:
        raise MatrixFormatError(
            f"{path}: payload size mismatch, expected {expected} bytes, got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype=dt, offset=_HEADER.size).reshape(rows, cols)
    if validate:
        bad = ~np.isfinite(data)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise MatrixValidationError(f"{path}: non-finite value at row {r}, col {c}")
    return np.ascontiguousarray(data, dtype=np.float64)


def _parse_header(raw: bytes, path) -> tuple[np.dtype, int, int]:
    """Payload dtype, rows and cols from the header at the start of ``raw``."""
    if len(raw) < _HEADER.size:
        raise MatrixFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, code, _, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise MatrixFormatError(f"{path}: unsupported format version {version}")
    if code not in _DTYPE_CODES:
        raise MatrixFormatError(f"{path}: unknown dtype code {code}")
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: invalid shape {rows}x{cols}")
    return _DTYPE_CODES[code], rows, cols


def load_roi_atlas(path, n_voxels: int | None = None) -> dict[str, np.ndarray]:
    """Load a ROI file (JSON object: name -> integer index array).

    Indices are sorted and deduplicated; with ``n_voxels`` given they are
    range-checked against [0, n_voxels).
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: ROI file must be a JSON object")
    atlas = {}
    for name, idx in raw.items():
        arr = np.asarray(idx, dtype=np.int64)
        if arr.ndim != 1:
            raise ManifestError(f"{path}: ROI {name!r} indices must be a flat array")
        arr = np.unique(arr)
        if arr.size and (arr[0] < 0 or (n_voxels is not None and arr[-1] >= n_voxels)):
            raise ManifestError(
                f"{path}: ROI {name!r} has indices outside [0, {n_voxels})"
            )
        atlas[name] = arr
    return atlas


@dataclass
class SubjectEntry:
    id: str
    response_file: str
    roi_file: str


@dataclass
class ConditionEntry:
    name: str
    layer_files: list[str]


@dataclass
class DatasetManifest:
    """Declarative description of an experiment, loaded from JSON."""

    subjects: list[SubjectEntry]
    conditions: list[ConditionEntry]
    tr_seconds: float
    n_outer_folds: int
    n_inner_folds: int
    lambda_grid: np.ndarray
    significance_alpha: float
    seed: int
    base_dir: Path = field(default_factory=Path)
    fdr: str = "none"
    ceiling_floor: float = 0.05
    trmap: dict | None = None

    def resolve(self, rel: str) -> Path:
        return self.base_dir / rel

    def condition(self, name: str) -> ConditionEntry:
        for c in self.conditions:
            if c.name == name:
                return c
        raise ManifestError(f"unknown condition {name!r}")

    def subject(self, sid: str) -> SubjectEntry:
        for s in self.subjects:
            if s.id == sid:
                return s
        raise ManifestError(f"unknown subject {sid!r}")


_REQUIRED_KEYS = (
    "subjects",
    "conditions",
    "tr_seconds",
    "n_outer_folds",
    "n_inner_folds",
    "lambda_grid",
    "significance_alpha",
    "seed",
)


def load_manifest(path) -> DatasetManifest:
    """Load and fully validate a manifest; cross-file shape checks included.

    Referenced paths are resolved relative to the manifest's directory.
    Every referenced matrix header is read and row counts are verified to
    agree across conditions and responses.
    """
    path = Path(path)
    with open(path) as fh:
        raw = json.load(fh)
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ManifestError(f"{path}: missing manifest keys: {', '.join(missing)}")

    grid = np.asarray(raw["lambda_grid"], dtype=np.float64)
    if grid.size == 0:
        raise ManifestError(f"{path}: lambda_grid must be nonempty")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ManifestError(f"{path}: lambda_grid must be strictly increasing and > 0")

    tr = float(raw["tr_seconds"])
    alpha = float(raw["significance_alpha"])
    if tr <= 0:
        raise ManifestError(f"{path}: tr_seconds must be positive")
    if not 0 < alpha < 1:
        raise ManifestError(f"{path}: significance_alpha must be in (0, 1)")

    subjects = [SubjectEntry(**s) for s in raw["subjects"]]
    conditions = [ConditionEntry(**c) for c in raw["conditions"]]
    if not subjects:
        raise ManifestError(f"{path}: no subjects")
    if not conditions:
        raise ManifestError(f"{path}: no conditions")

    manifest = DatasetManifest(
        subjects=subjects,
        conditions=conditions,
        tr_seconds=tr,
        n_outer_folds=int(raw["n_outer_folds"]),
        n_inner_folds=int(raw["n_inner_folds"]),
        lambda_grid=grid,
        significance_alpha=alpha,
        seed=int(raw["seed"]),
        base_dir=path.parent,
        fdr=raw.get("fdr", "none"),
        ceiling_floor=float(raw.get("ceiling_floor", 0.05)),
        trmap=raw.get("trmap"),
    )
    if manifest.n_outer_folds < 2 or manifest.n_inner_folds < 2:
        raise ManifestError(f"{path}: fold counts must be >= 2")
    if manifest.fdr not in ("none", "bh"):
        raise ManifestError(f"{path}: fdr must be 'none' or 'bh'")

    _check_manifest_files(manifest, path)
    return manifest


def _matrix_shape(path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        _, rows, cols = _parse_header(fh.read(_HEADER.size), path)
    return rows, cols


def _check_manifest_files(manifest: DatasetManifest, mpath) -> None:
    layer_rows = None
    for cond in manifest.conditions:
        if not cond.layer_files:
            raise ManifestError(f"{mpath}: condition {cond.name!r} has no layer files")
        for lf in cond.layer_files:
            p = manifest.resolve(lf)
            if not p.exists():
                raise ManifestError(f"{mpath}: missing layer file {p}")
            rows, _ = _matrix_shape(p)
            if layer_rows is None:
                layer_rows = rows
            elif rows != layer_rows:
                raise ManifestError(
                    f"{mpath}: {p} has {rows} rows, expected {layer_rows}"
                )
    for sub in manifest.subjects:
        rp = manifest.resolve(sub.response_file)
        if not rp.exists():
            raise ManifestError(f"{mpath}: missing response file {rp}")
        rows, cols = _matrix_shape(rp)
        # With a TR mapping, responses hold raw recording rows and the
        # stimulus-to-TR alignment reconciles counts downstream.
        if manifest.trmap is None and layer_rows is not None and rows != layer_rows:
            raise ManifestError(
                f"{mpath}: subject {sub.id} responses have {rows} rows, "
                f"layer files have {layer_rows}"
            )
        ap = manifest.resolve(sub.roi_file)
        if not ap.exists():
            raise ManifestError(f"{mpath}: missing ROI file {ap}")
        load_roi_atlas(ap, n_voxels=cols)
