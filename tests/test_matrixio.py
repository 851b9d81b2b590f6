import json

import numpy as np
import pytest

from brainalign.matrixio import (
    ManifestError,
    MatrixFormatError,
    MatrixValidationError,
    load_manifest,
    load_roi_atlas,
    read_matrix,
    write_matrix,
)

HEADER_BYTES = 24  # magic(4) + version(1) + dtype(1) + reserved(2) + rows(8) + cols(8)


class TestRoundTrip:
    def test_single_element_f64_layout(self, tmp_path):
        p = tmp_path / "m.eamx"
        write_matrix(np.array([[0.0]]), p)
        raw = p.read_bytes()
        assert len(raw) == HEADER_BYTES + 8
        assert raw[:4] == b"EAMX"
        assert raw[4] == 1  # version
        assert raw[5] == 1  # f64 code
        assert raw[6:8] == b"\x00\x00"
        assert raw[HEADER_BYTES:] == b"\x00" * 8

    def test_f32_layout(self, tmp_path):
        p = tmp_path / "m.eamx"
        write_matrix(np.zeros((2, 3), dtype=np.float32), p)
        assert len(p.read_bytes()) == HEADER_BYTES + 2 * 3 * 4

    def test_random_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((100, 50))
        p = tmp_path / "m.eamx"
        write_matrix(m, p)
        back = read_matrix(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, m)

    def test_f32_promoted_on_read(self, tmp_path):
        m = np.random.default_rng(1).standard_normal((4, 4)).astype(np.float32)
        p = tmp_path / "m.eamx"
        write_matrix(m, p)
        back = read_matrix(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, m.astype(np.float64))

    @pytest.mark.parametrize(
        "m, dtype",
        [
            (np.random.default_rng(2).standard_normal((7, 5)), "<f8"),
            (np.random.default_rng(3).standard_normal((7, 5)).astype(np.float32), "<f4"),
            (np.random.default_rng(4).standard_normal((9, 8))[::2, 1::3], "<f8"),  # strided
            (np.arange(-6, 6).reshape(3, 4), "<f8"),  # int, promoted
        ],
        ids=["f64", "f32", "non-contiguous", "int"],
    )
    def test_bytes_are_header_then_contiguous_payload(self, tmp_path, m, dtype):
        p = tmp_path / "m.eamx"
        write_matrix(m, p)
        code = 0 if dtype == "<f4" else 1
        header = b"EAMX" + bytes([1, code]) + b"\x00\x00"
        header += m.shape[0].to_bytes(8, "little") + m.shape[1].to_bytes(8, "little")
        assert p.read_bytes() == header + np.ascontiguousarray(m, dtype=dtype).tobytes()

    def test_endianness_explicit(self, tmp_path):
        # a hand-built little-endian file loads identically everywhere
        p = tmp_path / "hand.eamx"
        payload = np.array([1.5, -2.25], dtype="<f8").tobytes()
        header = b"EAMX" + bytes([1, 1]) + b"\x00\x00"
        header += (1).to_bytes(8, "little") + (2).to_bytes(8, "little")
        p.write_bytes(header + payload)
        assert read_matrix(p).tolist() == [[1.5, -2.25]]


class TestFormatErrors:
    def _write_valid(self, tmp_path):
        p = tmp_path / "m.eamx"
        write_matrix(np.ones((2, 2)), p)
        return p

    def test_bad_magic(self, tmp_path):
        p = self._write_valid(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[0] = ord("X")
        p.write_bytes(bytes(raw))
        with pytest.raises(MatrixFormatError, match="magic"):
            read_matrix(p)

    def test_bad_version(self, tmp_path):
        p = self._write_valid(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(MatrixFormatError, match="version"):
            read_matrix(p)

    def test_bad_dtype_code(self, tmp_path):
        p = self._write_valid(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[5] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(MatrixFormatError, match="dtype"):
            read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = self._write_valid(tmp_path)
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(MatrixFormatError, match="size mismatch"):
            read_matrix(p)

    def test_nonfinite_names_location(self, tmp_path):
        m = np.ones((3, 4))
        m[1, 2] = np.nan
        p = tmp_path / "m.eamx"
        write_matrix(m, p)
        with pytest.raises(MatrixValidationError, match="row 1, col 2"):
            read_matrix(p, validate=True)
        # without validation the value comes through
        assert np.isnan(read_matrix(p, validate=False)[1, 2])


def _build_dataset(tmp_path, n_rows=30, n_voxels=6, n_layers=2, bad_layer_rows=None):
    for layer in range(n_layers):
        rows = bad_layer_rows if (bad_layer_rows and layer == n_layers - 1) else n_rows
        write_matrix(
            np.random.default_rng(layer).standard_normal((rows, 4)),
            tmp_path / f"layer_{layer}.eamx",
        )
    write_matrix(
        np.random.default_rng(9).standard_normal((n_rows, n_voxels)),
        tmp_path / "resp.eamx",
    )
    (tmp_path / "rois.json").write_text(json.dumps({"roi_a": [0, 1], "roi_b": [2, 3]}))
    return {
        "subjects": [
            {"id": "s0", "response_file": "resp.eamx", "roi_file": "rois.json"}
        ],
        "conditions": [
            {
                "name": "joint",
                "layer_files": [f"layer_{i}.eamx" for i in range(n_layers)],
            }
        ],
        "tr_seconds": 1.49,
        "n_outer_folds": 6,
        "n_inner_folds": 5,
        "lambda_grid": [0.1, 1.0, 10.0],
        "significance_alpha": 0.05,
        "seed": 1,
    }


class TestManifest:
    def test_valid_manifest_loads(self, tmp_path):
        raw = _build_dataset(tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        m = load_manifest(tmp_path / "manifest.json")
        assert [s.id for s in m.subjects] == ["s0"]
        assert m.condition("joint").layer_files[0] == "layer_0.eamx"
        assert m.lambda_grid.tolist() == [0.1, 1.0, 10.0]

    def test_row_count_mismatch(self, tmp_path):
        raw = _build_dataset(tmp_path, bad_layer_rows=29)
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ManifestError, match="rows"):
            load_manifest(tmp_path / "manifest.json")

    def test_empty_lambda_grid(self, tmp_path):
        raw = _build_dataset(tmp_path)
        raw["lambda_grid"] = []
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ManifestError, match="lambda_grid"):
            load_manifest(tmp_path / "manifest.json")

    def test_unsorted_lambda_grid(self, tmp_path):
        raw = _build_dataset(tmp_path)
        raw["lambda_grid"] = [1.0, 0.1]
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "manifest.json")

    def test_missing_key(self, tmp_path):
        raw = _build_dataset(tmp_path)
        del raw["seed"]
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ManifestError, match="seed"):
            load_manifest(tmp_path / "manifest.json")

    def test_missing_file(self, tmp_path):
        raw = _build_dataset(tmp_path)
        raw["subjects"][0]["response_file"] = "nope.eamx"
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ManifestError, match="nope.eamx"):
            load_manifest(tmp_path / "manifest.json")

    def test_bad_layer_magic(self, tmp_path):
        raw = _build_dataset(tmp_path)
        layer = tmp_path / "layer_0.eamx"
        layer.write_bytes(b"XAMX" + layer.read_bytes()[4:])
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(MatrixFormatError, match="bad magic b'XAMX'"):
            load_manifest(tmp_path / "manifest.json")

    def test_unknown_condition(self, tmp_path):
        raw = _build_dataset(tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        m = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(ManifestError, match="unknown condition"):
            m.condition("bogus")


class TestRoiAtlas:
    def test_load_and_dedupe(self, tmp_path):
        p = tmp_path / "rois.json"
        p.write_text(json.dumps({"a": [3, 1, 1, 2]}))
        atlas = load_roi_atlas(p)
        assert atlas["a"].tolist() == [1, 2, 3]

    def test_out_of_range(self, tmp_path):
        p = tmp_path / "rois.json"
        p.write_text(json.dumps({"a": [0, 10]}))
        with pytest.raises(ManifestError, match="outside"):
            load_roi_atlas(p, n_voxels=5)
