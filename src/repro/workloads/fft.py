"""FFT workload: the paper's first application, behind the plugin API."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.fft import FixedPointFFT, random_q15_signal
from ..core.context import ApproxContext
from ..metrics.signal import psnr_db
from .base import OperatorMap, Workload, WorkloadResult


def fft_output_psnr(fft: FixedPointFFT, signals: Sequence[np.ndarray]) -> float:
    """Average output PSNR of the fixed-point FFT over several input frames."""
    references = []
    outputs = []
    for signal in signals:
        result = fft.forward(signal)
        spectrum = result.as_complex(frac_bits=fft.frac_bits)
        reference = fft.reference_spectrum(signal)
        references.append(np.concatenate([reference.real, reference.imag]))
        outputs.append(np.concatenate([spectrum.real, spectrum.imag]))
    return psnr_db(np.concatenate(references), np.concatenate(outputs))


@dataclass(frozen=True)
class FftWorkload(Workload):
    """Fixed-point FFT on random Q1.15 frames (Figure 5 / Table II setup).

    Metrics: ``psnr_db`` — output PSNR against the double-precision FFT,
    averaged over ``frames`` random frames seeded from the study seed.
    """

    size: int = 32
    data_width: int = 16
    frames: int = 8
    amplitude: float = 0.5
    #: Heterogeneous datapath: one adder spec string per ``log2(size)``
    #: stage (``None`` keeps the homogeneous operator map).  When set, the
    #: operator map's adder slot must be empty — the stages own their
    #: operators — and the result's details carry the per-stage adder
    #: names and analytic per-stage operation counts for the search's
    #: stage-by-stage energy accounting.
    stage_adders: Optional[Tuple[str, ...]] = None

    name = "fft"

    def default_config(self) -> Dict[str, object]:
        return {"size": self.size, "data_width": self.data_width,
                "frames": self.frames, "amplitude": self.amplitude,
                "stage_adders": self.stage_adders}

    def run(self, operators: OperatorMap, config: Mapping[str, object],
            rng: np.random.Generator) -> WorkloadResult:
        size = int(config["size"])
        width = int(config["data_width"])
        base_seed = int(config.get("seed", 0))
        # Stimulus codes live on the datapath grid: Q1.(width-1) fractions
        # (identical to the seed setup at the default 16-bit width).
        signals = [random_q15_signal(size, amplitude=float(config["amplitude"]),
                                     seed=base_seed + frame,
                                     frac_bits=width - 1)
                   for frame in range(int(config["frames"]))]
        stage_adders = config.get("stage_adders")
        if stage_adders:
            if operators.adder is not None:
                raise ValueError(
                    "stage_adders assigns one adder per FFT stage; sweep "
                    "heterogeneous points on the bare-operator axis instead "
                    "of injecting an adder into the operator map")
            names = [str(name) for name in stage_adders]
            contexts = [ApproxContext(adder=name, data_width=width,
                                      backend=operators.backend)
                        for name in names]
            fft = FixedPointFFT(size, width, stage_contexts=contexts)
            psnr = fft_output_psnr(fft, signals)
            stage_counts = [[counts.additions, counts.multiplications]
                            for counts in fft.stage_operation_counts()]
            return WorkloadResult(
                metrics={"psnr_db": psnr},
                counts=fft.operation_counts(),
                details={"stage_adders": names,
                         "stage_counts": stage_counts})
        fft = FixedPointFFT(size, width,
                            context=operators.context(data_width=width))
        psnr = fft_output_psnr(fft, signals)
        return WorkloadResult(metrics={"psnr_db": psnr},
                              counts=fft.operation_counts())
