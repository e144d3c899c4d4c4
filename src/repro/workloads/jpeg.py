"""JPEG workload: encoding quality versus DCT datapath cost (Figure 6)."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..apps.images import synthetic_image
from ..apps.jpeg import JpegEncoder
from ..core.context import ApproxContext
from ..metrics.image import mssim
from .base import OperatorMap, Workload, WorkloadResult

#: Exact-DCT reconstructions memoised by (quality, image fingerprint) so a
#: sweep encodes the reference once, not once per sweep point.
_REFERENCE_CACHE: Dict[Tuple[int, str], np.ndarray] = {}


def _reference_reconstruction(image: np.ndarray, quality: int) -> np.ndarray:
    key = (int(quality), hashlib.sha1(np.ascontiguousarray(image).tobytes()).hexdigest())
    if key not in _REFERENCE_CACHE:
        if len(_REFERENCE_CACHE) > 32:  # sweeps reuse one image; stay bounded
            _REFERENCE_CACHE.clear()
        reference = JpegEncoder(quality=quality).encode_decode(image)
        _REFERENCE_CACHE[key] = reference.reconstructed
    return _REFERENCE_CACHE[key]


@dataclass(frozen=True)
class JpegWorkload(Workload):
    """JPEG luminance encode/decode with a swappable forward DCT.

    Metrics: ``mssim`` — structural similarity between the image encoded
    with the exact fixed-point DCT and the one encoded with the operators
    under test (averaged over ``frames``); ``estimated_bits`` — run-length
    size estimate of the latter (summed over ``frames``).

    ``frames > 1`` encodes a short synthetic sequence (one image per frame
    seed) with the *same* operator configuration — the motion-JPEG-style
    setup used by the performance benchmarks, where table-based backends
    amortise their precomputation across frames.
    """

    size: int = 128
    quality: int = 90
    frames: int = 1
    image: Optional[np.ndarray] = None
    #: Word length of the DCT datapath (the design-space word-length axis).
    #: The quality reference always stays the full-precision 16-bit exact
    #: encoder, so narrower datapaths expose their own quality cost.
    data_width: int = 16
    #: Heterogeneous datapath: one adder spec string per DCT matrix pass
    #: (row pass, column pass; ``None`` keeps the homogeneous operator
    #: map).  When set, the operator map's adder slot must be empty — the
    #: passes own their operators — and the result's details carry the
    #: per-pass adder names and measured per-pass operation counts.
    pass_adders: Optional[Tuple[str, str]] = None

    name = "jpeg"

    def default_config(self) -> Dict[str, object]:
        return {"size": self.size, "quality": self.quality,
                "frames": self.frames, "image": self.image,
                "data_width": self.data_width,
                "pass_adders": self.pass_adders}

    def run(self, operators: OperatorMap, config: Mapping[str, object],
            rng: np.random.Generator) -> WorkloadResult:
        quality = int(config["quality"])
        frames = max(1, int(config["frames"]))
        base_seed = int(config.get("seed", 0))
        fixed_image = config.get("image")
        width = int(config["data_width"])
        pass_adders = config.get("pass_adders")
        pass_contexts = None
        if pass_adders:
            if operators.adder is not None:
                raise ValueError(
                    "pass_adders assigns one adder per DCT pass; sweep "
                    "heterogeneous points on the bare-operator axis instead "
                    "of injecting an adder into the operator map")
            pass_names = [str(name) for name in pass_adders]
            pass_contexts = [ApproxContext(adder=name, data_width=width,
                                           backend=operators.backend)
                             for name in pass_names]
        encoder = JpegEncoder(quality=quality,
                              context=operators.context(data_width=width),
                              data_width=width,
                              pass_contexts=pass_contexts)

        scores = []
        total_bits = 0
        total_pixels = 0
        counts = None
        for frame in range(frames):
            if fixed_image is not None:
                image = fixed_image
            else:
                image = synthetic_image(int(config["size"]),
                                        seed=2017 + base_seed + frame)
            reference = _reference_reconstruction(image, quality)
            outcome = encoder.encode_decode(image)
            scores.append(mssim(reference, outcome.reconstructed))
            total_bits += outcome.estimated_bits
            total_pixels += int(image.size)
            counts = outcome.counts if counts is None \
                else counts + outcome.counts
        details: Dict[str, object] = {"image_pixels": total_pixels,
                                      "frames": frames}
        if pass_contexts is not None:
            # Measured per-pass inventory (summed over frames), keyed the
            # same way the FFT's per-stage details are so the search's
            # heterogeneous energy accounting is workload-agnostic.
            details["stage_adders"] = pass_names
            details["stage_counts"] = [
                [ctx.counts.additions, ctx.counts.multiplications]
                for ctx in pass_contexts]
        return WorkloadResult(
            metrics={"mssim": float(np.mean(scores)),
                     "estimated_bits": float(total_bits)},
            counts=counts,
            details=details,
        )
