"""Request batching: coalesce concurrent same-workload computations.

Concurrent ``evaluate`` requests that share a *group key* — same workload,
configuration, seed, backend and axis, differing only in the operator under
test — are exactly one operator sweep split across clients.  Executing them
one by one would regenerate the workload stimulus per request; executing
them as one :class:`~repro.core.study.Study` sweep shares the stimulus
pipeline and the hardware-characterisation cache in a single pass.

:class:`BatchQueue` implements the classic leader/follower pattern: the
first thread to open a group becomes the batch leader, waits a short
collection window for followers to pile on, then removes the batch and
executes the combined item list once; followers block on the batch event
and pick their own result out by position.  A group key only ever
coalesces *identical computations modulo the item*, so batching can change
latency but never results.
"""
from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence


class _Batch:
    __slots__ = ("items", "event", "results", "error")

    def __init__(self) -> None:
        self.items: List[object] = []
        self.event = threading.Event()
        self.results: Sequence[object] = ()
        self.error: Optional[BaseException] = None


class BatchQueue:
    """Coalesces concurrent :meth:`submit` calls that share a group key.

    ``window_s`` is how long a batch leader waits for followers before
    executing; ``0`` disables coalescing (every submit executes alone,
    useful for tests and for latency-critical deployments).
    """

    def __init__(self, window_s: float = 0.02) -> None:
        if window_s < 0:
            raise ValueError("the batching window cannot be negative")
        self.window_s = float(window_s)
        self._lock = threading.Lock()
        self._open: Dict[object, _Batch] = {}
        self._batches = 0
        self._items = 0
        self._largest = 0

    def submit(self, group: object, item: object,
               execute: Callable[[List[object]], Sequence[object]]) -> object:
        """Run ``item`` through the group's batch; returns its own result.

        ``execute`` receives the full item list of the batch (in arrival
        order) and must return one result per item, in the same order; it
        is invoked exactly once per batch, by the leader's thread.  If it
        raises, every member of the batch re-raises that exception.
        """
        with self._lock:
            batch = self._open.get(group)
            leader = batch is None
            if leader:
                batch = _Batch()
                self._open[group] = batch
            position = len(batch.items)
            batch.items.append(item)
        if not leader:
            batch.event.wait()
            if batch.error is not None:
                raise batch.error
            return batch.results[position]
        if self.window_s > 0:
            time.sleep(self.window_s)
        with self._lock:
            # Close the batch: later arrivals open a fresh one.  Everything
            # appended so far happened under this lock, so the copied item
            # list is complete and every recorded position is valid.
            del self._open[group]
            items = list(batch.items)
            self._batches += 1
            self._items += len(items)
            self._largest = max(self._largest, len(items))
        try:
            results = execute(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch executor returned {len(results)} results for "
                    f"{len(items)} items")
            batch.results = results
        except BaseException as error:
            batch.error = error
            raise
        finally:
            batch.event.set()
        return batch.results[position]

    def stats(self) -> Dict[str, object]:
        """Coalescing counters (what the ``status`` action reports)."""
        with self._lock:
            return {
                "window_s": self.window_s,
                "batches": self._batches,
                "requests": self._items,
                "largest_batch": self._largest,
                "coalesced": self._items - self._batches,
            }
