"""Request batching: single-flight coalescing of concurrent computations.

Concurrent ``evaluate`` requests that share a *group key* — same workload,
configuration, seed, backend and axis, differing only in the operator under
test — are exactly one operator sweep split across clients.  Executing them
as one :class:`~repro.core.study.Study` sweep shares the stimulus pipeline
and the hardware-characterisation cache in a single pass.

:class:`BatchQueue` never waits for company.  The first request of a group
becomes the batch *leader* and computes as soon as it holds a compute slot;
it waits only while every slot is busy, and requests of the same group that
arrive meanwhile join its batch as *followers*.  A request whose item is
already queued or being computed joins that computation instead and
computes nothing, so each distinct item is computed once however many
clients ask for it.  Followers block on the batch event (slot-free) and
pick their own result out by position.  A group key only ever coalesces
*identical computations modulo the item*, so batching can change latency
but never results.
"""
from __future__ import annotations

import contextlib
import threading
from typing import (Callable, ContextManager, Dict, List, Optional, Sequence,
                    Tuple)


class _Batch:
    __slots__ = ("items", "members", "event", "results", "error")

    def __init__(self) -> None:
        self.items: List[object] = []
        self.members = 0
        self.event = threading.Event()
        self.results: Sequence[object] = ()
        self.error: Optional[BaseException] = None


class BatchQueue:
    """Coalesces concurrent :meth:`submit` calls that share a group key.

    ``slot`` is entered by a batch leader around its execution (the
    server's :meth:`~repro.server.dispatch.ServerState.worker_slot`); a
    batch stays open to followers of its group only while the leader waits
    for it.  The default is no slot: every leader executes at once.
    """

    def __init__(self, slot: Callable[[], ContextManager[object]]
                 = contextlib.nullcontext) -> None:
        self._slot = slot
        self._lock = threading.Lock()
        #: Batches whose leader waits for a slot, by group.
        self._open: Dict[object, _Batch] = {}
        #: Every item queued or being computed: its batch and position.
        self._pending: Dict[Tuple[object, object], Tuple[_Batch, int]] = {}
        self._batches = 0
        self._requests = 0
        self._largest = 0

    def submit(self, group: object, item: object,
               execute: Callable[[List[object]], Sequence[object]]) -> object:
        """Run ``item`` through the group's batch; returns its own result.

        ``execute`` receives the batch's distinct items (hashable, in
        arrival order) and must return one result per item, in the same
        order; it is invoked exactly once per batch, by the leader's thread
        while it holds the slot.  If the slot or ``execute`` raises, every
        member of the batch re-raises that exception.
        """
        with self._lock:
            pending = self._pending.get((group, item))
            if pending is None:
                batch = self._open.get(group)
                leader = batch is None
                if leader:
                    batch = _Batch()
                    self._open[group] = batch
                position = len(batch.items)
                batch.items.append(item)
                self._pending[(group, item)] = (batch, position)
            else:
                batch, position = pending
                leader = False
            batch.members += 1
        if not leader:
            batch.event.wait()
            if batch.error is not None:
                raise batch.error
            return batch.results[position]
        try:
            with self._slot():
                with self._lock:
                    # Close the batch: its item list is final.  Later
                    # arrivals of the group open a fresh one, or join this
                    # one by item while it runs.
                    del self._open[group]
                results = execute(batch.items)
                if len(results) != len(batch.items):
                    raise RuntimeError(
                        f"batch executor returned {len(results)} results "
                        f"for {len(batch.items)} items")
                batch.results = results
        except BaseException as error:
            batch.error = error
            raise
        finally:
            with self._lock:
                if self._open.get(group) is batch:  # the slot was refused
                    del self._open[group]
                for queued in batch.items:
                    del self._pending[(group, queued)]
                self._batches += 1
                self._requests += batch.members
                self._largest = max(self._largest, batch.members)
            batch.event.set()
        return batch.results[position]

    def stats(self) -> Dict[str, object]:
        """Coalescing counters of finished batches (what the ``status``
        action reports): ``coalesced`` requests computed nothing of their
        own."""
        with self._lock:
            return {
                "batches": self._batches,
                "requests": self._requests,
                "largest_batch": self._largest,
                "coalesced": self._requests - self._batches,
            }
