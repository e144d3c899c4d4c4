"""Tables V and VI: K-means clustering success rate and distance-datapath energy.

Table V swaps the *adders* of the distance computation, at two accuracy
levels (the ~99 % group and the ~86 % group of the paper); Table VI swaps the
fixed-width *multipliers*.  The success rate is measured against the exact
fixed-point run started from the same initial centroids, averaged over
several generated point clouds (the paper uses 5 sets of 5000 points around
10 random centres).

Implemented as declarative design spaces over the
:mod:`repro.core.designspace` engine with the ``"kmeans"`` workload plugin,
laid out by :func:`~repro.experiments.hevc_study.operator_table`.
Each table function returns its configured but unrun
:class:`~repro.core.study.Study` (energy charged by a fresh Equation 1
model); ``.run()`` produces the table.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

from ..apps.kmeans import PointCloud, generate_point_cloud
from ..core.exploration import default_multiplier_set
from ..core.study import Study
from ..operators.adders import ACAAdder, ETAIVAdder, RCAApxAdder, TruncatedAdder
from ..operators.base import AdderOperator, MultiplierOperator
from ..operators.multipliers import TruncatedMultiplier
from .hevc_study import operator_table

#: Adder configurations of Table V (high-accuracy group then low-accuracy group).
TABLE5_ADDERS = (
    TruncatedAdder(16, 11),
    ACAAdder(16, 12),
    ETAIVAdder(16, 4),
    RCAApxAdder(16, 6, 3),
    TruncatedAdder(16, 8),
    ACAAdder(16, 8),
    ETAIVAdder(16, 2),
    RCAApxAdder(16, 10, 1),
)

#: Multiplier configurations of Table VI: Table IV's set plus ``MULt(16,4)``.
TABLE6_MULTIPLIERS = (*default_multiplier_set(16), TruncatedMultiplier(16, 4))


def default_point_clouds(runs: int = 5, points_per_run: int = 5000,
                         clusters: int = 10) -> List[PointCloud]:
    """The paper's workload: five Gaussian point clouds of 5000 points."""
    return [generate_point_cloud(points_per_run, clusters, seed=seed)
            for seed in range(runs)]


def kmeans_adder_table(clouds: Optional[Sequence[PointCloud]] = None,
                       adders: Sequence[AdderOperator] = TABLE5_ADDERS,
                       runs: int = 3, points_per_run: int = 2000,
                       iterations: int = 8) -> Study:
    """The study behind Table V (distance computation with the adders swapped)."""
    if clouds is None:
        clouds = default_point_clouds(runs, points_per_run)
    return operator_table(
        Study().workload("kmeans", clouds=tuple(clouds), iterations=iterations),
        "adder", adders, "success_rate", "table5_kmeans_adders",
        "K-means distance computation with 16-bit adders swapped: success "
        "rate and energy (Table V of the paper)",
        {"runs": len(clouds), "points_per_run": int(clouds[0].points.shape[0])})


def kmeans_multiplier_table(clouds: Optional[Sequence[PointCloud]] = None,
                            multipliers: Sequence[MultiplierOperator] = TABLE6_MULTIPLIERS,
                            runs: int = 3, points_per_run: int = 2000,
                            iterations: int = 8) -> Study:
    """The study behind Table VI (distance computation, multipliers swapped)."""
    if clouds is None:
        clouds = default_point_clouds(runs, points_per_run)
    return operator_table(
        Study().workload("kmeans", clouds=tuple(clouds), iterations=iterations),
        "multiplier", multipliers, "success_rate", "table6_kmeans_multipliers",
        "K-means distance computation with 16-bit multipliers swapped: "
        "success rate and energy (Table VI of the paper)",
        {"runs": len(clouds), "points_per_run": int(clouds[0].points.shape[0])})
