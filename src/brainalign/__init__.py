"""Cross-validated ridge encoding models and ablation contrasts.

The package quantifies how well candidate feature matrices explain
multichannel response recordings (e.g. fMRI voxels) and provides the
contrast machinery to detect cross-modal connections and multimodal
interactions, validated against a synthetic ground-truth generator.
"""

from brainalign.matrixio import (
    read_matrix,
    write_matrix,
    load_manifest,
    load_roi_atlas,
    DatasetManifest,
    MatrixFormatError,
    MatrixValidationError,
    ManifestError,
)
from brainalign.ridge import RidgePath, factor, solve, solve_lstsq
from brainalign.crossval import (
    FoldScheme,
    EncodingResult,
    make_folds,
    fit_encoding,
    fit_subjects,
    score_alignment,
)
from brainalign.residual import remove_information
from brainalign.ceiling import CeilingResult, noise_ceiling, normalize_by_ceiling
from brainalign.contrast import (
    ContrastReport,
    union_mask,
    connection_contrast,
    interaction_contrast,
)
from brainalign.trmap import TrMapConfig, stimulus_to_tr, align_rows
from brainalign.synth import SynthSpec, SynthData, generate
from brainalign import stats

__version__ = "0.1.0"
