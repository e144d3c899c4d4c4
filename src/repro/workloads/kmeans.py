"""K-means workload: clustering success against the exact fixed-point run."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.kmeans import PointCloud, generate_point_cloud, kmeans_success_rate
from .base import OperatorMap, Workload, WorkloadResult


def _requantize_cloud(cloud: PointCloud, data_width: int) -> PointCloud:
    """Requantise a Q1.15 point cloud onto a ``data_width``-bit grid.

    An arithmetic right shift drops the LSBs the narrower datapath cannot
    carry (a wider datapath re-expands them as zeros), keeping the cloud's
    geometry while putting every code on the target word-length grid.
    """
    shift = 16 - int(data_width)
    if shift == 0:
        return cloud
    if shift > 0:
        points = cloud.points >> shift
        centers = cloud.centers >> shift
    else:
        points = cloud.points << -shift
        centers = cloud.centers << -shift
    return PointCloud(points=points, labels=cloud.labels, centers=centers)


@dataclass(frozen=True)
class KmeansWorkload(Workload):
    """Lloyd's K-means whose distance datapath uses the operators under test.

    Metrics: ``success_rate`` — fraction of points assigned to the same
    cluster as the exact fixed-point run, averaged over ``runs`` generated
    point clouds (seeded from the study seed unless explicit ``clouds`` are
    supplied).
    """

    runs: int = 3
    points_per_run: int = 2000
    clusters: int = 10
    iterations: int = 8
    clouds: Optional[Tuple[PointCloud, ...]] = None
    #: Word length of the distance datapath (the design-space word-length
    #: axis).  Generated clouds are quantised to ``data_width - 1``
    #: fractional bits; explicit Q1.15 clouds are requantised on the fly.
    data_width: int = 16

    name = "kmeans"

    def default_config(self) -> Dict[str, object]:
        return {"runs": self.runs, "points_per_run": self.points_per_run,
                "clusters": self.clusters, "iterations": self.iterations,
                "clouds": self.clouds, "data_width": self.data_width}

    def run(self, operators: OperatorMap, config: Mapping[str, object],
            rng: np.random.Generator) -> WorkloadResult:
        width = int(config["data_width"])
        clouds: Optional[Sequence[PointCloud]] = config.get("clouds")
        if clouds is None:
            base_seed = int(config.get("seed", 0))
            clouds = [generate_point_cloud(int(config["points_per_run"]),
                                           int(config["clusters"]),
                                           seed=base_seed + run,
                                           frac_bits=width - 1)
                      for run in range(int(config["runs"]))]
        elif width != 16:
            clouds = [_requantize_cloud(cloud, width) for cloud in clouds]
        rates = []
        counts = None
        for cloud in clouds:
            rate, run_counts = kmeans_success_rate(
                cloud, context=operators.context(data_width=width),
                iterations=int(config["iterations"]))
            rates.append(rate)
            counts = run_counts
        return WorkloadResult(
            metrics={"success_rate": float(np.mean(rates))},
            counts=counts,
            details={"runs": len(clouds),
                     "points_per_run": int(clouds[0].points.shape[0])},
        )
