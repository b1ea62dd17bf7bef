"""anchorkit: anchor-matching analytics for face detection.

Computes each face's best-achievable anchor IoU, simulates anchor matching
over annotation corpora, assigns positive/negative/ignore labels under SAM
and WARM strategies, audits aspect-ratio sampling coverage, and models the
RFD feature-enhancement block's shapes, receptive fields, and parameters.
"""

from .ams import (
    AmsReport,
    FaceMatchStat,
    analytic_max_iou,
    boundary_ar,
    ideal_max_iou,
    run_ams,
)
from .anchors import (
    AnchorDesign,
    AnchorGrid,
    PyramidLevel,
    ams_design,
    detector_design,
    generate_anchor_boxes,
    ladder_design,
)
from .corpus import (
    FACE_COLUMNS,
    FixedListAR,
    ImageRecord,
    LogUniformAR,
    WiderParseError,
    ar_coverage,
    generate_synthetic,
    kept_faces,
    parse_wider,
    serialize_wider,
)
from .cropsim import CropParams, FaceSimStat, SimOutcome, simulate
from .geometry import Box, aspect_ratio, ideal_max_intersection, iou, iou_matrix, iou_pairs
from .matching import (
    IGNORE,
    NEGATIVE,
    MatchConfig,
    MatchResult,
    Strategy,
    arsd_contains,
    assign_labels_xywh,
    warm_threshold,
)
from .reports import MatchReport, emit_reports
from .rfd import (
    ConvSpec,
    RfdSpec,
    rfd_output_shape,
    rfd_param_count,
    rfd_receptive_fields,
    rfd_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AmsReport",
    "AnchorDesign",
    "AnchorGrid",
    "Box",
    "ConvSpec",
    "CropParams",
    "FACE_COLUMNS",
    "FaceMatchStat",
    "FaceSimStat",
    "FixedListAR",
    "IGNORE",
    "ImageRecord",
    "LogUniformAR",
    "MatchConfig",
    "MatchReport",
    "MatchResult",
    "NEGATIVE",
    "PyramidLevel",
    "RfdSpec",
    "SimOutcome",
    "Strategy",
    "WiderParseError",
    "ams_design",
    "analytic_max_iou",
    "ar_coverage",
    "arsd_contains",
    "aspect_ratio",
    "assign_labels_xywh",
    "boundary_ar",
    "detector_design",
    "emit_reports",
    "generate_anchor_boxes",
    "generate_synthetic",
    "ideal_max_intersection",
    "ideal_max_iou",
    "iou",
    "iou_matrix",
    "iou_pairs",
    "kept_faces",
    "ladder_design",
    "parse_wider",
    "rfd_output_shape",
    "rfd_param_count",
    "rfd_receptive_fields",
    "rfd_spec",
    "run_ams",
    "serialize_wider",
    "simulate",
    "warm_threshold",
]
