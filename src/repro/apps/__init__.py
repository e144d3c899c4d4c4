"""Instrumented applications used for the application-level comparison."""
from .dct import BLOCK_SIZE, FixedPointDCT, dct_matrix
from .fft import FftResult, FixedPointFFT, random_q15_signal
from .hevc_mc import (
    CHROMA_FILTERS,
    FILTER_SHIFT,
    LUMA_FILTERS,
    McFilterResult,
    MotionCompensationFilter,
    mc_quality_score,
)
from .images import pad_to_multiple, synthetic_gradient, synthetic_image
from .jpeg import (
    JpegEncoder,
    JpegResult,
    LUMINANCE_QUANTIZATION_TABLE,
    estimate_coded_bits,
    estimate_coded_bits_blocks,
    jpeg_quality_score,
    quality_scaled_table,
    run_length_encode,
    zigzag_order,
)
from .kmeans import (
    FixedPointKMeans,
    PointCloud,
    exact_reference_labels,
    generate_point_cloud,
    kmeans_success_rate,
)

__all__ = [
    "FixedPointFFT",
    "FftResult",
    "random_q15_signal",
    "FixedPointDCT",
    "dct_matrix",
    "BLOCK_SIZE",
    "JpegEncoder",
    "JpegResult",
    "jpeg_quality_score",
    "quality_scaled_table",
    "zigzag_order",
    "run_length_encode",
    "estimate_coded_bits",
    "estimate_coded_bits_blocks",
    "LUMINANCE_QUANTIZATION_TABLE",
    "MotionCompensationFilter",
    "McFilterResult",
    "mc_quality_score",
    "LUMA_FILTERS",
    "CHROMA_FILTERS",
    "FILTER_SHIFT",
    "FixedPointKMeans",
    "PointCloud",
    "exact_reference_labels",
    "generate_point_cloud",
    "kmeans_success_rate",
    "synthetic_image",
    "synthetic_gradient",
    "pad_to_multiple",
]
