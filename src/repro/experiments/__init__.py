"""One module per reproduced table / figure of the paper, plus ablations.

Every function here is a declarative design space over the
:mod:`repro.core.designspace` engine driven through the fluent
:class:`repro.core.study.Study` pipeline.  A sweep experiment function
takes only domain arguments (sizes, frames, ``reduced``, inputs, operator
lists) and returns its configured but unrun ``Study``: call ``.run()`` on
it, or chain ``.backend(...)``, ``.energy(...)``, ``.store(...)`` and
``.shard(...)`` first.  :func:`run_all` applies the run configuration to
every registered study in one place (:mod:`repro.experiments.runner`).
The adaptive :func:`fft_heterogeneous_search` is the exception: it drives
``Study.search`` and returns its result.

New scenarios should be written as :mod:`repro.workloads` plugins with
their own design spaces rather than as new modules in this package.
"""
from .ablations import multiplier_compensation_ablation, rounding_mode_ablation
from .adders_study import adder_error_cost_study
from .fft_study import fft_adder_sweep, fft_joint_frontier, fft_multiplier_comparison
from .hevc_study import TABLE3_ADDERS, hevc_adder_table, hevc_multiplier_table
from .jpeg_study import jpeg_adder_sweep, jpeg_design_space, jpeg_joint_frontier
from .kmeans_study import (
    TABLE5_ADDERS,
    TABLE6_MULTIPLIERS,
    default_point_clouds,
    kmeans_adder_table,
    kmeans_multiplier_table,
)
from .multipliers_study import multiplier_comparison
from .runner import (
    EXPERIMENTS,
    ExperimentSpec,
    RunAllResult,
    RunConfig,
    describe_experiments,
    experiment_names,
    merge_run,
    run_all,
    select_experiments,
)
from .search_study import fft_heterogeneous_search

__all__ = [
    "adder_error_cost_study",
    "multiplier_comparison",
    "fft_adder_sweep",
    "fft_joint_frontier",
    "fft_multiplier_comparison",
    "jpeg_adder_sweep",
    "jpeg_design_space",
    "jpeg_joint_frontier",
    "hevc_adder_table",
    "hevc_multiplier_table",
    "TABLE3_ADDERS",
    "kmeans_adder_table",
    "kmeans_multiplier_table",
    "default_point_clouds",
    "TABLE5_ADDERS",
    "TABLE6_MULTIPLIERS",
    "multiplier_compensation_ablation",
    "rounding_mode_ablation",
    "fft_heterogeneous_search",
    "run_all",
    "merge_run",
    "RunAllResult",
    "RunConfig",
    "ExperimentSpec",
    "EXPERIMENTS",
    "experiment_names",
    "describe_experiments",
    "select_experiments",
]
