"""Clustering quality metrics for the K-means experiment.

The paper's accuracy metric is the *success rate*: the proportion of points
assigned to the correct cluster.  Because cluster labels are arbitrary, the
approximate clustering's labels are first matched to the reference labels by
solving the assignment problem on the label co-occurrence matrix (Hungarian
algorithm when SciPy is available, greedy matching otherwise).
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised through the public function
    from scipy.optimize import linear_sum_assignment as _hungarian
except Exception:  # pragma: no cover - scipy is an optional dependency
    _hungarian = None


def confusion_matrix(reference_labels: np.ndarray, labels: np.ndarray,
                     clusters: Optional[int] = None) -> np.ndarray:
    """Co-occurrence counts between reference and candidate labels."""
    ref = np.asarray(reference_labels, dtype=np.int64)
    cand = np.asarray(labels, dtype=np.int64)
    if ref.shape != cand.shape:
        raise ValueError("label arrays must have the same shape")
    if ref.min(initial=0) < 0 or cand.min(initial=0) < 0:
        raise ValueError("labels must be non-negative cluster indices")
    if clusters is None:
        clusters = int(max(ref.max(initial=0), cand.max(initial=0))) + 1
    matrix = np.zeros((clusters, clusters), dtype=np.int64)
    np.add.at(matrix, (ref, cand), 1)
    return matrix


def _greedy_assignment(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy maximum matching on the co-occurrence matrix."""
    remaining = matrix.astype(np.float64).copy()
    rows = []
    cols = []
    for _ in range(matrix.shape[0]):
        index = int(np.argmax(remaining))
        row, col = divmod(index, matrix.shape[1])
        if remaining[row, col] < 0:
            break
        rows.append(row)
        cols.append(col)
        remaining[row, :] = -1.0
        remaining[:, col] = -1.0
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def match_labels(reference_labels: np.ndarray, labels: np.ndarray,
                 clusters: Optional[int] = None) -> np.ndarray:
    """Relabel ``labels`` to best match ``reference_labels``."""
    matrix = confusion_matrix(reference_labels, labels, clusters)
    if _hungarian is not None:
        rows, cols = _hungarian(-matrix)
    else:
        rows, cols = _greedy_assignment(matrix)
    # Candidate label ``col`` becomes ``row``; labels the matching leaves
    # out keep their value.
    lookup = np.arange(matrix.shape[0], dtype=np.int64)
    lookup[cols] = rows
    return lookup[np.asarray(labels, dtype=np.int64)]


def success_rate(reference_labels: np.ndarray, labels: np.ndarray,
                 clusters: Optional[int] = None,
                 already_matched: bool = False) -> float:
    """Fraction of points assigned to the correct (matched) cluster."""
    ref = np.asarray(reference_labels, dtype=np.int64)
    cand = np.asarray(labels, dtype=np.int64)
    if ref.shape != cand.shape:
        raise ValueError("label arrays must have the same shape")
    if ref.size == 0:
        raise ValueError("label arrays are empty")
    if not already_matched:
        cand = match_labels(ref, cand, clusters)
    return float(np.mean(ref == cand))
