"""Reproduction of *The Hidden Cost of Functional Approximation Against
Careful Data Sizing — A Case Study* (Barrois, Sentieys, Ménard, DATE 2017).

The package is organised as the paper's APXPERF framework:

* :mod:`repro.fxp` — fixed-point formats and quantisation (careful data sizing);
* :mod:`repro.operators` — bit-accurate accurate / truncated / rounded /
  approximate adders and multipliers (ACA, ETAIV, RCAApx, AAM, ABM, ...);
* :mod:`repro.hardware` — gate-level structural cost model (area, delay,
  activity-based power) calibrated to the paper's 28nm reference points;
* :mod:`repro.metrics` — MSE, BER, PSNR, MSSIM, clustering success rate and
  the other error metrics;
* :mod:`repro.core` — the characterisation harness, operator registry,
  design-space sweeps, the datapath energy model (Equation 1), and the
  :class:`ApproxContext` / execution-backend layer consumed by the
  kernels;
* :mod:`repro.apps` — the four instrumented applications (FFT, JPEG/DCT,
  HEVC motion compensation, K-means);
* :mod:`repro.workloads` — the unified workload plugin API wrapping those
  applications (plus operator characterisation) behind one interface;
* :mod:`repro.experiments` — one module per paper table/figure, each a thin
  declarative wrapper over the :class:`Study` pipeline;
* :mod:`repro.fleet` — lease-based work-queue coordination over a shared
  directory: crash-safe fleet workers, expiry reclaim, bit-identical harvest;
* :mod:`repro.report` — the static self-contained HTML results dashboard.

Quick start::

    from repro import Study
    result = (Study()
              .workload("fft(32, frames=4)")
              .adders(["ADDt(16,10)", "ACA(16,8)", "ETAIV(16,4)"])
              .energy()
              .run())
    print(result.to_text())
"""
from .core import (
    ApproxContext,
    Apxperf,
    DatapathEnergyModel,
    DesignPoint,
    DesignSpace,
    DirectBackend,
    ExecutionBackend,
    ExperimentResult,
    OperatorCharacterization,
    ParetoFront,
    ResultBundle,
    ResultStore,
    Study,
    joint_adder_space,
    parse_backend,
    parse_operator,
    register_backend,
)
from .workloads import Workload, WorkloadResult, parse_workload, register_workload

__version__ = "1.9.0"

__all__ = [
    "ApproxContext",
    "Apxperf",
    "OperatorCharacterization",
    "DatapathEnergyModel",
    "DesignPoint",
    "DesignSpace",
    "ExecutionBackend",
    "DirectBackend",
    "ExperimentResult",
    "ParetoFront",
    "ResultBundle",
    "ResultStore",
    "Study",
    "Workload",
    "WorkloadResult",
    "joint_adder_space",
    "parse_backend",
    "parse_operator",
    "register_backend",
    "parse_workload",
    "register_workload",
    "__version__",
]
