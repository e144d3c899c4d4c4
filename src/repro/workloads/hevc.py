"""HEVC motion-compensation workload (Tables III and IV)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..apps.hevc_mc import mc_quality_score
from ..apps.images import synthetic_image
from .base import OperatorMap, Workload, WorkloadResult


@dataclass(frozen=True)
class HevcWorkload(Workload):
    """HEVC fractional-pel interpolation with swappable operators.

    Metrics: ``mssim`` — similarity of the interpolated image against the
    exact filter output.  The filter multiplies by small constant
    coefficients, so studies over this workload typically charge
    multiplications at the constant-coefficient rate
    (``Study.constant_coefficient()``).
    """

    size: int = 128
    horizontal_phase: int = 2
    vertical_phase: int = 2
    image: Optional[np.ndarray] = None
    #: Word length of the interpolation datapath (the design-space
    #: word-length axis).  The quality reference stays the full-precision
    #: 16-bit exact filter, so an undersized exact datapath exposes its own
    #: quality cost.
    data_width: int = 16

    name = "hevc"

    #: Reference word length for the quality metric.
    REFERENCE_WIDTH = 16

    def default_config(self) -> Dict[str, object]:
        return {"size": self.size, "horizontal_phase": self.horizontal_phase,
                "vertical_phase": self.vertical_phase, "image": self.image,
                "data_width": self.data_width}

    def run(self, operators: OperatorMap, config: Mapping[str, object],
            rng: np.random.Generator) -> WorkloadResult:
        image = config.get("image")
        if image is None:
            image = synthetic_image(int(config["size"]))
        width = int(config["data_width"])
        score, counts = mc_quality_score(
            image, context=operators.context(data_width=width),
            horizontal_phase=int(config["horizontal_phase"]),
            vertical_phase=int(config["vertical_phase"]),
            reference_width=max(width, self.REFERENCE_WIDTH))
        return WorkloadResult(metrics={"mssim": score}, counts=counts,
                              details={"image_pixels": int(image.size)})
