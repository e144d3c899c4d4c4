"""K-means workload: clustering success against the exact fixed-point run."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.kmeans import (
    PointCloud,
    exact_reference_labels,
    generate_point_cloud,
    kmeans_success_rate,
)
from .base import OperatorMap, Workload, WorkloadResult, WorkloadTask


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


def _point_clouds(config: Mapping[str, object],
                  data_width: int) -> Sequence[PointCloud]:
    """The clouds a task clusters, on its ``data_width``-bit grid."""
    clouds: Optional[Sequence[PointCloud]] = config.get("clouds")
    if clouds is None:
        runs = int(config["runs"])
        if runs < 1:
            raise ValueError(f"kmeans needs runs >= 1, got runs={runs}")
        base_seed = int(config.get("seed", 0))
        return [generate_point_cloud(int(config["points_per_run"]),
                                     int(config["clusters"]),
                                     seed=base_seed + run,
                                     frac_bits=data_width - 1)
                for run in range(runs)]
    if len(clouds) == 0:
        raise ValueError("kmeans needs at least one point cloud; "
                         "clouds=() is empty")
    return [_requantize_cloud(cloud, data_width) for cloud in clouds]


def _cloud_key(cloud: PointCloud) -> tuple:
    """What the exact fit reads of a cloud, by content."""
    return tuple((array.dtype.str, array.shape, array.tobytes())
                 for array in (cloud.points, cloud.centers))


@dataclass(frozen=True)
class KmeansWorkload(Workload):
    """Lloyd's K-means whose distance datapath uses the operators under test.

    Metrics: ``success_rate`` — fraction of points assigned to the same
    cluster as the exact fixed-point run, averaged over ``runs`` generated
    point clouds (seeded from the study seed unless explicit ``clouds`` are
    supplied).

    :meth:`run_many` fits each exact reference once: tasks on an equal
    cloud (compared by content), word length, iterations and backend share
    it.  Each candidate still gets its own fit, counts and result,
    identical to running the tasks one at a time.
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
        return self.run_many([(operators, config, rng)])[0]

    def run_many(self, tasks: Sequence[WorkloadTask]) -> List[WorkloadResult]:
        references: Dict[tuple, np.ndarray] = {}
        results = []
        for operators, config, _ in tasks:
            width = int(config["data_width"])
            iterations = int(config["iterations"])
            clouds = _point_clouds(config, width)
            rates = []
            counts = None
            for cloud in clouds:
                # Tasks on an equal cloud, word length, iterations and
                # backend share one exact run.
                key = (_cloud_key(cloud), width, iterations,
                       id(operators.backend))
                reference = references.get(key)
                if reference is None:
                    reference = references[key] = exact_reference_labels(
                        cloud, width, iterations, backend=operators.backend)
                rate, counts = kmeans_success_rate(
                    cloud, context=operators.context(data_width=width),
                    iterations=iterations, reference_labels=reference)
                rates.append(rate)
            results.append(WorkloadResult(
                metrics={"success_rate": float(np.mean(rates))},
                counts=counts,
                details={"runs": len(clouds),
                         "points_per_run": int(clouds[0].points.shape[0])},
            ))
        return results
