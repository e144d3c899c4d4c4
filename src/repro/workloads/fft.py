"""FFT workload: the paper's first application, behind the plugin API."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.fft import FixedPointFFT, RowDatapath, random_q15_signal
from ..core.backends import parse_backend
from ..core.context import ApproxContext
from ..metrics.signal import psnr_db
from .base import OperatorMap, Workload, WorkloadResult, WorkloadTask


def _interleaved(spectra: np.ndarray) -> np.ndarray:
    """``(frames, 2 * size)`` rows: each frame's real parts, then its
    imaginary parts — the layout the output PSNR is taken over."""
    return np.concatenate([spectra.real, spectra.imag], axis=-1)


def _reference_rows(fft: FixedPointFFT, frames: np.ndarray) -> np.ndarray:
    """Interleaved double-precision spectra of a ``(frames, size)`` stack."""
    return _interleaved(np.stack(
        [fft.reference_spectrum(frame) for frame in frames]))


def fft_output_psnr(fft: FixedPointFFT, signals: Sequence[np.ndarray]) -> float:
    """Average output PSNR of the fixed-point FFT over several input frames.

    The frames run as one ``(frames, size)`` stack through
    :meth:`FixedPointFFT.forward`.
    """
    frames = np.stack([np.asarray(signal) for signal in signals])
    output = fft.forward(frames).as_complex(frac_bits=fft.frac_bits)
    return psnr_db(_reference_rows(fft, frames).ravel(),
                   _interleaved(output).ravel())


@dataclass(frozen=True)
class FftWorkload(Workload):
    """Fixed-point FFT on random Q1.15 frames (Figure 5 / Table II setup).

    Metrics: ``psnr_db`` — output PSNR against the double-precision FFT,
    averaged over ``frames`` random frames seeded from the study seed.

    :meth:`run_many` stacks every task that shares a stimulus (size, word
    length, frames, amplitude, seed and backend) into one
    :meth:`FixedPointFFT.forward` pass: one row per frame and candidate, so
    each stage makes one backend call per distinct operator rather than
    one per frame and candidate.  Results are identical to running the
    tasks one at a time.
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
        return self.run_many([(operators, config, rng)])[0]

    def run_many(self, tasks: Sequence[WorkloadTask]) -> List[WorkloadResult]:
        batches: Dict[tuple, List[int]] = {}
        for index, (operators, config, _) in enumerate(tasks):
            if config.get("stage_adders") and operators.adder is not None:
                raise ValueError(
                    "stage_adders assigns one adder per FFT stage; sweep "
                    "heterogeneous points on the bare-operator axis instead "
                    "of injecting an adder into the operator map")
            stimulus = (int(config["size"]), int(config["data_width"]),
                        int(config["frames"]), float(config["amplitude"]),
                        int(config.get("seed", 0)), id(operators.backend))
            batches.setdefault(stimulus, []).append(index)
        results: List[Optional[WorkloadResult]] = [None] * len(tasks)
        for members in batches.values():
            for index, result in zip(members, self._run_batch(
                    [tasks[index] for index in members])):
                results[index] = result
        return results  # type: ignore[return-value]

    @staticmethod
    def _run_batch(tasks: Sequence[WorkloadTask]) -> List[WorkloadResult]:
        """Tasks sharing one stimulus, run as a single stacked transform."""
        first, config, _ = tasks[0]
        size, width = int(config["size"]), int(config["data_width"])
        frames = int(config["frames"])
        base_seed = int(config.get("seed", 0))
        # One backend instance for the batch, so rows on equal operators
        # share their backend calls.
        backend = parse_backend(first.backend)
        fft = FixedPointFFT(size, width,
                            context=ApproxContext(data_width=width,
                                                  backend=backend))
        # Stimulus codes live on the datapath grid: Q1.(width-1) fractions
        # (identical to the seed setup at the default 16-bit width).
        signals = np.stack([
            random_q15_signal(size, amplitude=float(config["amplitude"]),
                              seed=base_seed + frame, frac_bits=width - 1)
            for frame in range(frames)])
        row_contexts: List[RowDatapath] = []
        for operators, task_config, _ in tasks:
            stage_adders = task_config.get("stage_adders")
            if stage_adders:
                datapath: RowDatapath = [
                    ApproxContext(adder=str(name), data_width=width,
                                  backend=backend)
                    for name in stage_adders]
            else:
                datapath = ApproxContext(
                    adder=operators.adder, multiplier=operators.multiplier,
                    data_width=width, backend=backend)
            row_contexts.extend([datapath] * frames)
        stack = np.tile(signals, (len(tasks), 1))
        output = fft.forward(stack, row_contexts=row_contexts)
        spectra = _interleaved(output.as_complex(frac_bits=fft.frac_bits))
        reference = _reference_rows(fft, signals).ravel()

        results = []
        for position, (_, task_config, _) in enumerate(tasks):
            rows = spectra[position * frames:(position + 1) * frames]
            details: Dict[str, object] = {}
            stage_adders = task_config.get("stage_adders")
            if stage_adders:
                details = {
                    "stage_adders": [str(name) for name in stage_adders],
                    "stage_counts": [
                        [counts.additions, counts.multiplications]
                        for counts in fft.stage_operation_counts()]}
            results.append(WorkloadResult(
                metrics={"psnr_db": psnr_db(reference, rows.ravel())},
                counts=fft.operation_counts(), details=details))
        return results
