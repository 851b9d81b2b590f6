"""Synthetic ground-truth generator.

Produces feature matrices for four conditions (joint, lang_only, vis_only,
mask_truth) plus multi-subject response matrices whose ROIs carry planted
components, so every analysis has a known-answer test bed:

- ``lang``/``vis``: modality-unique latents. A ROI driven by ``vis`` is
  predictable from the joint features but not from lang_only -- the
  planted cross-modal connection.
- ``shared``: a latent mixed into *both* unimodal conditions and the
  joint one; removing the unimodal features removes it from the joint.
- ``interaction``: a standardized elementwise product of projections of
  the lang and vis latents. It is not in the linear span of the unimodal
  latents, so it survives linear removal -- the planted multimodal
  interaction (present in the joint features only when enabled).

Latents get AR(1) temporal smoothing so block-CV leakage tests run on
autocorrelated data.

Every matrix is built in place: each standardization works on the temporary
it is handed, feature noise and ROI components are added into their
matrices, and each subject's noise is scaled straight into its ROI's column
slice of the response matrix. The draws are taken in a fixed order, so the
output is bit-identical for identical spec and seed (``tests/test_synth.py``
pins its digests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

COMPONENTS = ("lang", "vis", "shared", "interaction")


def _default_voxels():
    return {"roi_crossmodal": 8, "roi_language": 8, "roi_interaction": 8, "roi_null": 8}


def _default_snr():
    return {
        "roi_crossmodal": {"vis": 1.5},
        "roi_language": {"lang": 1.5},
        "roi_interaction": {"interaction": 1.5},
        "roi_null": {},
    }


def _default_latent_dims():
    return {"lang": 4, "vis": 4, "shared": 3, "interaction": 3}


def _default_feature_dims():
    return {"joint": 24, "lang_only": 16, "vis_only": 16, "mask_truth": 12}


@dataclass
class SynthSpec:
    n_samples: int = 120
    n_subjects: int = 4
    voxels_per_roi: dict = field(default_factory=_default_voxels)
    latent_dims: dict = field(default_factory=_default_latent_dims)
    feature_dims: dict = field(default_factory=_default_feature_dims)
    snr: dict = field(default_factory=_default_snr)
    noise_sigma: float | list = 1.0
    ar_coef: float = 0.3
    feature_noise: float = 0.05
    include_interaction_in_joint: bool = True
    seed: int = 0

    def subject_sigmas(self) -> list[float]:
        if np.isscalar(self.noise_sigma):
            return [float(self.noise_sigma)] * self.n_subjects
        sig = [float(s) for s in self.noise_sigma]
        if len(sig) != self.n_subjects:
            raise ValueError("noise_sigma list length must equal n_subjects")
        return sig

    def validate(self) -> None:
        if self.n_samples < 10 or self.n_subjects < 1:
            raise ValueError("need n_samples >= 10 and n_subjects >= 1")
        if not 0 <= self.ar_coef < 1:
            raise ValueError("AR coefficient must be in [0, 1)")
        for name, d in self.latent_dims.items():
            if name not in COMPONENTS or d < 1:
                raise ValueError(f"bad latent dim {name}={d}")
        for roi, comps in self.snr.items():
            if roi not in self.voxels_per_roi:
                raise ValueError(f"snr references unknown ROI {roi!r}")
            for c, v in comps.items():
                if c not in COMPONENTS:
                    raise ValueError(f"unknown component {c!r} in snr for {roi!r}")
                if v < 0:
                    raise ValueError(f"snr must be nonnegative, got {c}={v}")
        if any(s <= 0 for s in self.subject_sigmas()):
            raise ValueError("noise_sigma must be positive")


@dataclass
class SynthData:
    features: dict  # condition name -> n x p matrix
    responses: list  # per subject, n x v
    atlas: dict  # roi name -> voxel indices
    ground_truth: dict
    spec: SynthSpec


def _ar1(eps: list[np.ndarray], rho: float) -> list[np.ndarray]:
    """AR(1)-smoothed standard-normal columns of each array, re-standardized.
    One loop smooths the stacked columns (they never mix); each array is then
    standardized alone and contiguous, bit-identical to smoothing it by itself.

    The innovations are scaled by sqrt(1 - rho^2) once, up front, and each
    step is then two ufunc calls into one preallocated row: the same
    products and the same sums as ``rho * out[t-1] + c * eps[t]``.
    """
    out = np.hstack(eps)
    if rho > 0:
        out[1:] *= np.sqrt(1.0 - rho * rho)
        row = np.empty(out.shape[1])
        for t in range(1, out.shape[0]):
            np.multiply(out[t - 1], rho, out=row)
            out[t] += row
    cuts = np.cumsum([e.shape[1] for e in eps[:-1]])
    return [_standardize(np.ascontiguousarray(z)) for z in np.split(out, cuts, axis=1)]


def _standardize(arr: np.ndarray) -> np.ndarray:
    """Standardize the columns of ``arr`` in place and return it.

    ``arr`` must be a temporary the caller owns (every caller passes a fresh
    array). The result is bit-identical to ``(arr - arr.mean(0)) /
    arr.std(0)``: the scale is numpy's own ``std`` path (the root of the
    mean square of the centred values), taken from the centred array itself.
    Columns with zero spread keep scale 1.
    """
    arr -= arr.mean(axis=0)
    sd = np.sqrt(np.add.reduce(arr * arr, axis=0) / arr.shape[0])
    sd[sd == 0.0] = 1.0
    arr /= sd
    return arr


def _mix(rng, sources: list[np.ndarray], out_dim: int, noise: float) -> np.ndarray:
    src = np.hstack(sources)
    M = rng.standard_normal((src.shape[1], out_dim)) / np.sqrt(src.shape[1])
    F = src @ M
    if noise > 0:
        E = rng.standard_normal(F.shape)
        E *= noise
        F += E
    return F


def generate(spec: SynthSpec) -> SynthData:
    """Generate the full test bed; bit-identical for identical spec+seed.

    The draws are taken in this order: the lang, vis and shared latents'
    innovations, the two interaction projections, each condition's mixing
    matrix and then its feature noise, each ROI's voxel weights (one matrix
    per component, in ``snr`` order), and then, subject by subject, each
    ROI's response noise.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    dims = spec.latent_dims

    smoothed = ("lang", "vis", "shared")
    eps = [rng.standard_normal((n, dims[k])) for k in smoothed]
    z = dict(zip(smoothed, _ar1(eps, spec.ar_coef)))
    d_int = dims["interaction"]
    proj_l = rng.standard_normal((dims["lang"], d_int)) / np.sqrt(dims["lang"])
    proj_v = rng.standard_normal((dims["vis"], d_int)) / np.sqrt(dims["vis"])
    z["interaction"] = _standardize((z["lang"] @ proj_l) * (z["vis"] @ proj_v))

    joint_sources = [z["lang"], z["vis"], z["shared"]]
    if spec.include_interaction_in_joint:
        joint_sources.append(z["interaction"])
    features = {
        "joint": _mix(rng, joint_sources, spec.feature_dims["joint"], spec.feature_noise),
        "lang_only": _mix(
            rng, [z["lang"], z["shared"]], spec.feature_dims["lang_only"], spec.feature_noise
        ),
        "vis_only": _mix(
            rng, [z["vis"], z["shared"]], spec.feature_dims["vis_only"], spec.feature_noise
        ),
        "mask_truth": _mix(
            rng, [z["lang"]], spec.feature_dims["mask_truth"], spec.feature_noise
        ),
    }

    # voxel signal weights are drawn once and shared across subjects so
    # paired across-subject tests see a common signal with private noise
    atlas, spans = {}, {}
    start = 0
    roi_signals = {}
    for roi, count in spec.voxels_per_roi.items():
        atlas[roi] = np.arange(start, start + count, dtype=np.int64)
        spans[roi] = slice(start, start + count)
        start += count
        for comp, snr in spec.snr.get(roi, {}).items():
            w = rng.standard_normal((dims[comp], count))
            part = _standardize(z[comp] @ w)
            part *= snr
            if roi in roi_signals:
                roi_signals[roi] += part
            else:
                roi_signals[roi] = part
    total_voxels = start

    # every ROI is a contiguous run of columns, so each draw is scaled
    # straight into its slice of Y and the signal added there
    responses = []
    for sigma in spec.subject_sigmas():
        Y = np.empty((n, total_voxels))
        for roi, cols in spans.items():
            block = Y[:, cols]
            np.multiply(rng.standard_normal(block.shape), sigma, out=block)
            if roi in roi_signals:
                block += roi_signals[roi]
        responses.append(Y)

    ground_truth = {
        "roi_components": {roi: dict(spec.snr.get(roi, {})) for roi in spec.voxels_per_roi},
        "latent_dims": dict(dims),
        "interaction_in_joint": spec.include_interaction_in_joint,
        "noise_sigma": spec.subject_sigmas(),
        "seed": spec.seed,
    }
    return SynthData(
        features=features,
        responses=responses,
        atlas=atlas,
        ground_truth=ground_truth,
        spec=spec,
    )
