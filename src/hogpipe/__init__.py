"""Streaming fixed-point HOG feature extractor and its floating-point golden model."""

from .blocks import HogFrame
from .cells import cells_per_frame
from .cordic import CordicConfig
from .detector import Detection, SvmModel, detect, load_model, save_model, score_window
from .errors import (
    CountMismatch,
    DimensionError,
    FormatError,
    LayoutError,
    OutOfBoundsError,
    TapNotEnabled,
)
from .fixq import ANG, CELL_ACC, MAG, QFormat
from .golden import DiffReport, GoldenHog, compare, golden_hog
from .ingest import GrayFrame, decode_image, load_luma
from .pipeline import (
    BlockDescriptor,
    CellHistogram,
    PipelineConfig,
    PolarGradient,
    RunStats,
    StreamingPipeline,
    Tap,
    run_frame,
    run_frame_fast,
)

__all__ = [
    "ANG",
    "BlockDescriptor",
    "CELL_ACC",
    "CellHistogram",
    "CordicConfig",
    "CountMismatch",
    "Detection",
    "DiffReport",
    "DimensionError",
    "FormatError",
    "GoldenHog",
    "GrayFrame",
    "HogFrame",
    "LayoutError",
    "MAG",
    "OutOfBoundsError",
    "PipelineConfig",
    "PolarGradient",
    "QFormat",
    "RunStats",
    "StreamingPipeline",
    "SvmModel",
    "Tap",
    "TapNotEnabled",
    "cells_per_frame",
    "compare",
    "decode_image",
    "detect",
    "golden_hog",
    "load_luma",
    "load_model",
    "run_frame",
    "run_frame_fast",
    "save_model",
    "score_window",
]
