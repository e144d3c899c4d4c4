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
like the other kernels.  The distance computation is *stage-fused*: every
centroid is evaluated in one batched context call per dimension, with the
centroid coordinates broadcast over the points; the exact centroid update
is one ``np.bincount`` of sums and sizes per dimension.

The exact run is fitted in one place, :func:`exact_reference_labels`.
:func:`kmeans_success_rate` fits it per call unless handed its labels;
the K-means workload fits it once per cloud for every point of a batch
that shares the cloud, word length, iterations and backend.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.backends import BackendLike
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
                 iterations: int = 10) -> None:
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
    def _squared_distances(self, points: np.ndarray,
                           centers: np.ndarray) -> np.ndarray:
        """Stage-fused distances to *all* centroids: one call per dimension.

        The centroid coordinates broadcast over the points as a coefficient
        bank, so the whole ``(points, clusters)`` distance matrix costs
        ``3 * dims`` context calls while charging the per-centroid operation
        counts (one subtraction, squaring and accumulation per point,
        centroid and dimension).
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
        return np.argmin(self._squared_distances(points, centers),
                         axis=1).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Full clustering
    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray, initial_centers: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, OperationCounts]:
        """Run Lloyd's iterations; returns (labels, centers, operation counts).

        Only the distance computation is instrumented — centroid updates are
        exact, as in the paper where the focus is the distance datapath.
        A cluster left without points keeps its centre.
        """
        centers = np.asarray(initial_centers, dtype=np.int64).copy()
        if centers.shape[0] != self.clusters:
            raise ValueError(
                f"initial_centers has {centers.shape[0]} rows; expected one "
                f"per cluster ({self.clusters})")
        start = self.context.counts
        labels = np.zeros(points.shape[0], dtype=np.int64)
        for _ in range(self.iterations):
            labels = self.assign(points, centers)
            sizes = np.bincount(labels, minlength=self.clusters)
            filled = sizes > 0
            # Integer coordinate sums stay far below 2**53, so the float64
            # sums are exact and the means equal ``members.mean(axis=0)``.
            for dim in range(points.shape[1]):
                sums = np.bincount(labels, weights=points[:, dim],
                                   minlength=self.clusters)
                centers[filled, dim] = np.round(
                    sums[filled] / sizes[filled]).astype(np.int64)
        return labels, centers, self.context.counts_since(start)


def exact_reference_labels(cloud: PointCloud, data_width: int = 16,
                           iterations: int = 10,
                           backend: BackendLike = None) -> np.ndarray:
    """Labels of the exact fixed-point run every candidate is scored against.

    Exact operators on the ``data_width`` datapath, started from the
    cloud's generating centres.  The K-means workload fits it once per
    cloud and batch; :func:`kmeans_success_rate` fits it per call.
    """
    exact = FixedPointKMeans(
        clusters=cloud.centers.shape[0], data_width=data_width,
        iterations=iterations,
        context=ApproxContext(data_width=data_width, backend=backend))
    labels, _, _ = exact.fit(cloud.points, cloud.centers)
    return labels


def kmeans_success_rate(cloud: PointCloud,
                        context: Optional[ApproxContext] = None,
                        iterations: int = 10,
                        reference_labels: Optional[np.ndarray] = None
                        ) -> Tuple[float, OperationCounts]:
    """Success rate of the approximate run against the exact fixed-point run.

    Both runs start from the same initial centroids (the generating centres
    are a natural common starting point), so the only difference is the
    arithmetic of the distance computation.  ``reference_labels`` reuses an
    :func:`exact_reference_labels` result fitted on the same cloud, word
    length and iterations; by default the exact run is fitted here.
    """
    candidate_context = context if context is not None else ApproxContext()
    width = candidate_context.data_width
    if reference_labels is None:
        reference_labels = exact_reference_labels(
            cloud, width, iterations, backend=candidate_context.backend)
    clusters = cloud.centers.shape[0]
    candidate = FixedPointKMeans(clusters=clusters, data_width=width,
                                 iterations=iterations,
                                 context=candidate_context)
    labels, _, counts = candidate.fit(cloud.points, cloud.centers)
    return success_rate(reference_labels, labels, clusters=clusters), counts
