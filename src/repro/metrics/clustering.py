"""Clustering quality metrics for the K-means experiment.

The paper's accuracy metric is the *success rate*: the proportion of points
assigned to the correct cluster.  Because cluster labels are arbitrary, the
approximate clustering's labels are first matched to the reference labels by
an exact maximum-weight assignment on the label co-occurrence matrix
(Kuhn-Munkres with potentials, in plain Python integers).  Every maximum
matching covers the same number of points, so the success rate does not
depend on which one the solver picks.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np


def _labels(values) -> np.ndarray:
    """``values`` as int64 cluster indices; non-integer dtypes are rejected."""
    array = np.asarray(values)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"labels must be integer cluster indices, "
                         f"got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


def confusion_matrix(reference_labels: np.ndarray, labels: np.ndarray,
                     clusters: Optional[int] = None) -> np.ndarray:
    """Co-occurrence counts between reference and candidate labels.

    Raises :class:`ValueError` for mismatched shapes, non-integer or
    negative labels, ``clusters < 1`` and labels ``>= clusters``.
    """
    ref = _labels(reference_labels)
    cand = _labels(labels)
    if ref.shape != cand.shape:
        raise ValueError("label arrays must have the same shape")
    if ref.min(initial=0) < 0 or cand.min(initial=0) < 0:
        raise ValueError("labels must be non-negative cluster indices")
    largest = int(max(ref.max(initial=0), cand.max(initial=0)))
    if clusters is None:
        clusters = largest + 1
    if clusters < 1:
        raise ValueError(f"clusters must be at least 1, got {clusters}")
    if largest >= clusters:
        raise ValueError(f"label {largest} out of range for "
                         f"{clusters} clusters")
    matrix = np.zeros((clusters, clusters), dtype=np.int64)
    np.add.at(matrix, (ref, cand), 1)
    return matrix


def _max_weight_assignment(matrix: np.ndarray) -> List[int]:
    """A maximum-weight perfect matching of a square integer matrix.

    Returns ``rows`` with column ``j`` matched to row ``rows[j]``.  This is
    the Kuhn-Munkres algorithm with row and column potentials, O(K^3),
    minimising the negated weights; integer arithmetic keeps it exact.
    """
    cost = [[-value for value in row] for row in matrix.tolist()]
    size = len(cost)
    # 1-based: column 0 is a virtual column holding the row being added.
    row_pot = [0] * (size + 1)
    col_pot = [0] * (size + 1)
    owner = [0] * (size + 1)  # owner[j]: row matched to column j (0: free)
    via = [0] * (size + 1)    # previous column on the shortest path
    for row in range(1, size + 1):
        owner[0] = row
        column = 0
        slack = [float("inf")] * (size + 1)
        visited = [False] * (size + 1)
        while owner[column]:
            visited[column] = True
            current = owner[column]
            delta, nearest = float("inf"), 0
            for j in range(1, size + 1):
                if not visited[j]:
                    reduced = (cost[current - 1][j - 1]
                               - row_pot[current] - col_pot[j])
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, column
                    if slack[j] < delta:
                        delta, nearest = slack[j], j
            for j in range(size + 1):
                if visited[j]:
                    row_pot[owner[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            column = nearest
        while column:  # flip the augmenting path back to the virtual column
            owner[column] = owner[via[column]]
            column = via[column]
    return [owner[j] - 1 for j in range(1, size + 1)]


def match_labels(reference_labels: np.ndarray, labels: np.ndarray,
                 clusters: Optional[int] = None) -> np.ndarray:
    """Relabel ``labels`` to best match ``reference_labels``.

    Uses *a* maximum matching of the co-occurrence matrix: which of several
    tied matchings is unspecified, but each maps as many points onto their
    reference label.
    """
    matrix = confusion_matrix(reference_labels, labels, clusters)
    lookup = np.asarray(_max_weight_assignment(matrix), dtype=np.int64)
    return lookup[_labels(labels)]


def success_rate(reference_labels: np.ndarray, labels: np.ndarray,
                 clusters: Optional[int] = None,
                 already_matched: bool = False) -> float:
    """Fraction of points assigned to the correct (matched) cluster."""
    ref = _labels(reference_labels)
    cand = _labels(labels)
    if ref.shape != cand.shape:
        raise ValueError("label arrays must have the same shape")
    if ref.size == 0:
        raise ValueError("label arrays are empty")
    if not already_matched:
        cand = match_labels(ref, cand, clusters)
    return float(np.mean(ref == cand))
