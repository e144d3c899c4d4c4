"""K-means clustering with instrumented fixed-point distance computation.

The paper's last experiment: bidimensional Gaussian point clouds are
clustered with Lloyd's algorithm, where the squared-Euclidean distance
computation — the arithmetic core of the algorithm — runs through the
data-sized or approximate operators of an
:class:`~repro.core.context.ApproxContext`.  The accuracy metric is the
success rate, the proportion of points assigned to the same cluster as the
exact fixed-point run (Tables V and VI).

Coordinates are represented as Q1.15 codes in ``[-1, 1)``; the squared
distances are accumulated on the 16-bit datapath after re-alignment, exactly
like the other kernels.  By default the distance computation is *stage-fused*:
every centroid is evaluated in one batched context call per dimension, with
the centroid coordinates broadcast over the points.  ``fused=False`` replays
the seed-style per-centroid loop, bit-identical and with the same operation
counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.context import ApproxContext
from ..core.datapath import OperationCounts
from ..metrics.clustering import success_rate


@dataclass(frozen=True)
class PointCloud:
    """A generated data set with its ground-truth cluster labels."""

    points: np.ndarray            # (count, 2) Q1.15 integer codes
    labels: np.ndarray            # (count,) generating cluster of each point
    centers: np.ndarray           # (clusters, 2) Q1.15 integer codes


def generate_point_cloud(points_per_run: int = 5000, clusters: int = 10,
                         spread: float = 0.045, seed: int = 0,
                         frac_bits: int = 15) -> PointCloud:
    """Gaussian blobs around random centres, as in the paper's setup.

    5 sets of 5000 points around 10 random centres are used by the paper; the
    experiment module draws five different seeds.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.75, 0.75, size=(clusters, 2))
    labels = rng.integers(0, clusters, size=points_per_run)
    coordinates = centers[labels] + rng.normal(0.0, spread, size=(points_per_run, 2))
    coordinates = np.clip(coordinates, -0.999, 0.999)
    scale = 1 << frac_bits
    return PointCloud(
        points=np.round(coordinates * scale).astype(np.int64),
        labels=labels.astype(np.int64),
        centers=np.round(centers * scale).astype(np.int64),
    )


class FixedPointKMeans:
    """Lloyd's K-means whose distance computation runs through an ApproxContext."""

    def __init__(self, clusters: int = 10, data_width: int = 16,
                 context: Optional[ApproxContext] = None,
                 iterations: int = 10, fused: bool = True) -> None:
        if context is None:
            context = ApproxContext(data_width=data_width)
        elif context.data_width != data_width:
            raise ValueError(
                f"context word length ({context.data_width} bits) does not "
                f"match the requested datapath ({data_width} bits)")
        self.clusters = clusters
        self.context = context
        self.data_width = context.data_width
        self.frac_bits = context.frac_bits
        self.iterations = iterations
        self.fused = bool(fused)

    @property
    def adder(self):
        """Adder model executing the distance accumulations."""
        return self.context.adder

    @property
    def multiplier(self):
        """Multiplier model executing the squarings."""
        return self.context.multiplier

    # ------------------------------------------------------------------ #
    # Instrumented distance computation
    # ------------------------------------------------------------------ #
    def _squared_distance(self, points: np.ndarray,
                          center: np.ndarray) -> np.ndarray:
        """Instrumented squared Euclidean distance to one centroid."""
        ctx = self.context
        count = points.shape[0]
        total = np.zeros(count, dtype=np.int64)
        for dim in range(points.shape[1]):
            delta = ctx.sub(points[:, dim], int(center[dim]))
            square = ctx.mul(delta, delta)
            # Re-align the Q2.30 square onto the Q1.15 data grid; squared
            # deltas are small, so the halved dynamic keeps them in range.
            term = ctx.wrap(square >> (self.frac_bits + 1))
            total = ctx.add(total, term)
        return total

    def _squared_distances(self, points: np.ndarray,
                           centers: np.ndarray) -> np.ndarray:
        """Stage-fused distances to *all* centroids: one call per dimension.

        The centroid coordinates broadcast over the points as a coefficient
        bank, so the whole ``(points, clusters)`` distance matrix costs six
        context calls instead of ``3 * clusters * dims`` — with per-element
        arithmetic, accumulation order and operation counts identical to the
        seed-style per-centroid loop.
        """
        ctx = self.context
        total = np.zeros((points.shape[0], centers.shape[0]), dtype=np.int64)
        for dim in range(points.shape[1]):
            delta = ctx.sub(points[:, dim][:, np.newaxis],
                            centers[np.newaxis, :, dim])
            square = ctx.mul(delta, delta)
            # Re-align the Q2.30 square onto the Q1.15 data grid; squared
            # deltas are small, so the halved dynamic keeps them in range.
            term = ctx.wrap(square >> (self.frac_bits + 1))
            total = ctx.add(total, term)
        return total

    def assign(self, points: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Assign every point to the centroid with the smallest distance."""
        if self.fused:
            distances = self._squared_distances(points, centers)
        else:
            distances = np.zeros((points.shape[0], centers.shape[0]),
                                 dtype=np.int64)
            for index in range(centers.shape[0]):
                distances[:, index] = self._squared_distance(points,
                                                             centers[index])
        return np.argmin(distances, axis=1).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Full clustering
    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray, initial_centers: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, OperationCounts]:
        """Run Lloyd's iterations; returns (labels, centers, operation counts).

        Only the distance computation is instrumented — centroid updates are
        exact, as in the paper where the focus is the distance datapath.
        """
        start = self.context.counts
        centers = np.asarray(initial_centers, dtype=np.int64).copy()
        labels = np.zeros(points.shape[0], dtype=np.int64)
        for _ in range(self.iterations):
            labels = self.assign(points, centers)
            for index in range(self.clusters):
                members = points[labels == index]
                if members.shape[0] > 0:
                    centers[index] = np.round(members.mean(axis=0)).astype(np.int64)
        return labels, centers, self.context.counts_since(start)


def kmeans_success_rate(cloud: PointCloud,
                        context: Optional[ApproxContext] = None,
                        iterations: int = 10, fused: bool = True
                        ) -> Tuple[float, OperationCounts]:
    """Success rate of the approximate run against the exact fixed-point run.

    Both runs start from the same initial centroids (the generating centres
    are a natural common starting point), so the only difference is the
    arithmetic of the distance computation.
    """
    candidate_context = context if context is not None else ApproxContext()
    width = candidate_context.data_width
    clusters = cloud.centers.shape[0]
    exact = FixedPointKMeans(clusters=clusters, data_width=width,
                             iterations=iterations,
                             context=candidate_context.exact_reference(),
                             fused=fused)
    reference_labels, _, _ = exact.fit(cloud.points, cloud.centers)

    candidate = FixedPointKMeans(clusters=clusters, data_width=width,
                                 iterations=iterations,
                                 context=candidate_context, fused=fused)
    labels, _, counts = candidate.fit(cloud.points, cloud.centers)
    return success_rate(reference_labels, labels, clusters=clusters), counts
