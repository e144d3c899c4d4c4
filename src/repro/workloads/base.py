"""Workload plugin API: the unified contract every application implements.

The paper's comparison is *application level*: each operator configuration is
run through FFT, JPEG, HEVC motion compensation and K-means, and charged with
the datapath energy of Equation 1.  A :class:`Workload` packages one such
application behind a uniform interface — a name, a default configuration and
a ``run`` method mapping operators to quality metrics plus an operation
inventory — so the :class:`~repro.core.study.Study` pipeline can sweep any
workload without knowing its internals, serially or across a process pool.

A workload may also override :meth:`Workload.run_many`.  The study cuts a
sweep's pending points into ``min(workers, pending)`` contiguous chunks and
hands each chunk to one ``run_many`` call, in process or on the run's
process pool; the default loops over ``run``.  The FFT workload uses it to
stack candidates that share a stimulus into one transform, and the K-means
workload to fit each exact reference once per cloud rather than once per
point.

Writing a new scenario is therefore a ~50-line plugin::

    from repro.workloads import Workload, WorkloadResult, register_workload

    class FirWorkload(Workload):
        name = "fir"
        ...

    register_workload("fir", FirWorkload)

after which ``Study().workload("fir(taps=32)")`` just works.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.backends import BackendLike
from ..core.context import ApproxContext
from ..core.datapath import OperationCounter, OperationCounts
from ..operators.base import AdderOperator, MultiplierOperator, Operator


@dataclass(frozen=True)
class OperatorMap:
    """The operators (and execution backend) a sweep point injects.

    ``swept`` is the operator under test; ``adder`` / ``multiplier`` are the
    slots the application kernels consume (``None`` means the workload's own
    exact default, matching the paper's setup where only one operator family
    is swapped at a time).  ``backend`` selects how the kernels evaluate
    operator calls — a registry spec such as ``"direct"`` or an
    :class:`~repro.core.backends.ExecutionBackend` instance; results are
    required to be bit-identical across backends.
    """

    swept: Operator
    adder: Optional[AdderOperator] = None
    multiplier: Optional[MultiplierOperator] = None
    backend: BackendLike = "direct"

    def context(self, data_width: int = 16,
                counter: Optional[OperationCounter] = None) -> ApproxContext:
        """Build the :class:`ApproxContext` the application kernels consume."""
        return ApproxContext(adder=self.adder, multiplier=self.multiplier,
                             data_width=data_width, backend=self.backend,
                             counter=counter)


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one workload run: quality metrics plus operation counts."""

    metrics: Mapping[str, float]
    counts: OperationCounts
    details: Mapping[str, object] = field(default_factory=dict)


#: One point handed to :meth:`Workload.run_many`: the ``run`` arguments.
WorkloadTask = Tuple[OperatorMap, Mapping[str, object], np.random.Generator]


class Workload(ABC):
    """Base class of every pluggable application workload.

    Subclasses set :attr:`name`, describe their tunables via
    :meth:`default_config` and implement :meth:`run`.  ``run`` must be a pure
    function of its arguments (no hidden global state): the study executor
    may invoke it in worker processes, and serial and parallel execution are
    required to produce identical results.

    The study executes points through :meth:`run_many`: it cuts a sweep's
    pending points into ``min(workers, pending)`` contiguous chunks and
    makes one call per chunk, in process or on the run's process pool (a
    serial sweep is one chunk).  The default loops over :meth:`run`;
    override it when points can share work (the FFT workload stacks
    candidates into one transform; the K-means workload shares the exact
    reference fits).  An override must return exactly what ``run`` would
    return for each task, in task order, and keep whatever it shares for
    that one call only.
    """

    #: Registry name, e.g. ``"fft"`` — also the default spec prefix.
    name: str = "workload"

    @abstractmethod
    def default_config(self) -> Dict[str, object]:
        """The workload's tunable parameters with their default values."""

    @abstractmethod
    def run(self, operators: OperatorMap, config: Mapping[str, object],
            rng: np.random.Generator) -> WorkloadResult:
        """Execute the workload with the given operators and configuration.

        ``config`` is the merged dictionary of :meth:`default_config`, the
        spec-string arguments and any :meth:`Study.config` overrides; the
        reserved ``"seed"`` key carries the study's stimulus seed.  ``rng``
        is a generator derived from that seed for workloads that prefer
        drawing directly from it.
        """

    def run_many(self, tasks: Sequence[WorkloadTask]) -> List[WorkloadResult]:
        """Execute several points: one result per ``(operators, config,
        rng)`` task, in task order, each identical to ``run(*task)``."""
        return [self.run(operators, config, rng)
                for operators, config, rng in tasks]

    def merged_config(self, overrides: Mapping[str, object]) -> Dict[str, object]:
        """Defaults updated with ``overrides``; unknown keys are rejected."""
        config = self.default_config()
        known = set(config) | {"seed"}
        unknown = [key for key in overrides if key not in known]
        if unknown:
            raise ValueError(
                f"unknown configuration keys {unknown} for workload "
                f"{self.name!r}; known: {sorted(known)}")
        config.update(overrides)
        return config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} {self.name}>"
