"""Unified workload plugin API.

Every application of the paper — and any scenario a user plugs in — is a
:class:`Workload`: a named, configurable unit mapping an operator selection
to quality metrics plus an operation inventory.  The registry turns spec
strings such as ``"fft(1024)"`` or ``"jpeg(size=96)"`` into configured
instances, mirroring the operator registry in :mod:`repro.core.registry`.
"""
from .base import OperatorMap, Workload, WorkloadResult, WorkloadTask
from .characterization import CharacterizationWorkload
from .fft import FftWorkload, fft_output_psnr
from .hevc import HevcWorkload
from .jpeg import JpegWorkload
from .kmeans import KmeansWorkload
from .registry import (
    create_workload,
    parse_workload,
    register_workload,
    registered_workloads,
)

# --------------------------------------------------------------------------- #
# Built-in registrations (the paper's applications)
# --------------------------------------------------------------------------- #
register_workload("fft", FftWorkload)
register_workload("jpeg", JpegWorkload)
register_workload("hevc", HevcWorkload)
register_workload("kmeans", KmeansWorkload)
register_workload("characterization", CharacterizationWorkload)

__all__ = [
    "Workload",
    "WorkloadResult",
    "WorkloadTask",
    "OperatorMap",
    "FftWorkload",
    "JpegWorkload",
    "HevcWorkload",
    "KmeansWorkload",
    "CharacterizationWorkload",
    "fft_output_psnr",
    "register_workload",
    "registered_workloads",
    "create_workload",
    "parse_workload",
]
