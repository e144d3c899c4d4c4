"""Pluggable execution backends: how operator calls are actually evaluated.

Application kernels never call :meth:`Operator.aligned` directly any more —
they go through an :class:`~repro.core.context.ApproxContext`, which hands
every addition and multiplication to an :class:`ExecutionBackend`.  Three
backends ship with the framework:

* ``"direct"`` — :class:`DirectBackend`, the reference: each call
  evaluates the operator's closed-form model (``Operator.aligned``) in one
  broadcast pass.  The bit-serial structural models those closed forms
  were derived from are the test-suite's oracle (``tests/oracles.py``).
* ``"lut"`` — :class:`LutBackend`, which precomputes truth tables once per
  operator (keyed by the operator name, which embeds its parameters) and
  turns the hot per-butterfly / per-pixel operator calls into single
  fancy-index gathers.  Results are bit-identical to ``"direct"`` — when no
  table strategy applies to a call, it transparently falls back to the
  functional model.
* ``"compiled"`` — :class:`CompiledBackend`, the ahead-of-time tier: wide
  ``bank=True`` calls gather from one dense stacked per-bank table built in
  a single closed-form pass, and the AAM/ABM multipliers run ``@njit``
  kernels when numba is importable (``repro.core.kernels``).  Also
  bit-identical to ``"direct"`` for every operator and stimulus.

All eagerly-built tables (sum, pair, bank stacks) and the per-constant
value tables are allocated through the cross-process shared-memory arena
(``repro.core.table_arena``) when it is enabled: the first process on the
machine builds a table, every later process — worker pools, shard runs,
fleet workers, the server — attaches to the very same memory instead of
rebuilding from cold.  ``REPRO_TABLE_ARENA=0`` opts out.

The LUT backend picks the cheapest applicable table per call:

1. **Sum tables** for operators with :attr:`Operator.sum_addressable`
   (the data-sized adders): one eagerly-built 1-D table indexed by the
   exact operand sum covers every call, whatever the operand arrays.
2. **Pair tables** for small operators (``input_width <= max_pair_width``):
   the full 2-D truth table, flattened so one gather evaluates any
   operand-pair array.
3. **Constant-operand tables** when one operand is a scalar (DCT cosine
   coefficients, FFT twiddles, HEVC filter taps, K-means centroids): a 1-D
   table over the variable operand, filled *lazily* with only the values
   actually observed so expensive approximate operators never evaluate more
   stimulus than the data contains.
4. **Coefficient banks** when the caller flags ``b`` as a small bank of
   constants broadcast over ``a`` (``execute(..., bank=True)`` — one FFT
   stage's twiddles, a DCT pass's cosine rows, all taps of an HEVC phase,
   every K-means centroid): elements are grouped by unique constant in one
   ``np.unique``/``np.argsort`` pass and each group is served from the same
   per-constant value tables as strategy 3 — so a whole kernel stage
   executes as *one* batched call instead of one call per constant.
   Groups without a resident table are batched into a single functional
   evaluation, never a per-constant Python loop.
5. **Square tables** when both operands are the same array (the K-means
   squared distances): a lazily-filled diagonal table.

Callers that keep their operands on the datapath grid (the
:class:`~repro.core.context.ApproxContext` kernel contract) may pass
``in_range=True`` to skip the operand range scans entirely; otherwise a
single fused reduction pass validates each operand array.

Tables are cached process-wide (mirroring how the Study's hardware
characterisation cache shares synthesis results across sweep points): two
sweep points, two frames, or two studies that use an operator of the same
name share one table.

Backends are registered by short spec strings, mirroring
``repro/workloads/registry.py``::

    from repro.core.backends import parse_backend, register_backend

    backend = parse_backend("lut")                  # or "lut(max_pair_width=8)"
    register_backend("numba", NumbaBackend)         # downstream plug-in
"""
from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..operators.base import Operator
from . import table_arena
from .kernels import Kernel, compiled_stats, get_kernel
from .registry import parse_spec


class ExecutionBackend(ABC):
    """Strategy object evaluating one operator call on behalf of a context.

    ``execute`` must return the *aligned* result (reference-grid ``int64``
    codes, exactly :meth:`Operator.aligned`) for the broadcast of ``a`` and
    ``b``; implementations are required to be bit-identical to
    :class:`DirectBackend` for every operator and stimulus.
    """

    #: Registry name, also used in result metadata.
    name: str = "backend"

    @abstractmethod
    def execute(self, operator: Operator, a: np.ndarray,
                b: np.ndarray, bank: bool = False,
                in_range: bool = False) -> np.ndarray:
        """Aligned result of ``operator`` over ``a`` and ``b`` (broadcast).

        ``bank`` and ``in_range`` are execution *hints* and never change the
        result.  ``bank=True`` promises that ``b`` is a small bank of
        constants broadcast over ``a`` (FFT twiddles, DCT cosine rows, HEVC
        taps, K-means centroids), enabling grouped table strategies.
        ``in_range=True`` promises both operands lie within the operator's
        signed input range, letting table backends skip their operand scans.
        Implementations are free to ignore either hint.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} {self.name}>"


def _functional(operator: Operator, a, b) -> np.ndarray:
    """The operator's closed-form model over the broadcast of ``a`` and ``b``."""
    return np.asarray(operator.aligned(a, b), dtype=np.int64)


def _bank_cells(a: np.ndarray, b: np.ndarray, shape: Tuple[int, ...]):
    """Yield ``(slicer, constant, values)`` for each cell of a small bank.

    ``b`` broadcast over ``a`` partitions the broadcast ``shape`` into one
    basic-indexing slice per element of ``b`` — e.g. a ``(1, n, n, 1)``
    cosine bank yields the ``n*n`` slices ``[:, r, k, :]``.  ``values`` is a
    *view* of ``a`` broadcast into that slice; no full-size temporary is
    materialised.
    """
    b_exp = b.reshape((1,) * (len(shape) - b.ndim) + b.shape)
    a_view = np.broadcast_to(a, shape)
    for index in np.ndindex(b_exp.shape):
        slicer = tuple(
            position if extent != 1 else slice(None)
            for position, extent in zip(index, b_exp.shape))
        yield slicer, int(b_exp[index]), a_view[slicer]


def _bank_cell_shape(a: np.ndarray, b: np.ndarray, max_cells: int,
                     cell_min: int) -> Optional[Tuple[int, ...]]:
    """Broadcast shape when the cell-wise bank strategy applies, else None:
    ``b`` has at most ``max_cells`` cells, each covering at least
    ``cell_min`` elements (a Python loop per cell must stay negligible next
    to the per-cell vector work)."""
    if a.ndim == 0 or b.ndim == 0 or b.size == 0 or b.size > max_cells:
        return None
    shape = np.broadcast_shapes(a.shape, b.shape)
    total = 1
    for extent in shape:
        total *= int(extent)
    if total // b.size < cell_min:
        return None
    return shape


class DirectBackend(ExecutionBackend):
    """Reference backend: every call is one broadcast pass of the operator's
    closed-form model, whatever the hints."""

    name = "direct"

    def execute(self, operator: Operator, a: np.ndarray,
                b: np.ndarray, bank: bool = False,
                in_range: bool = False) -> np.ndarray:
        return _functional(operator, a, b)


# --------------------------------------------------------------------------- #
# LUT backend
# --------------------------------------------------------------------------- #
#: Process-wide table cache, shared by every LutBackend instance (and thus by
#: every sweep point of a study): operator names embed their parameters, so a
#: table is a pure function of its key.  The cache is an LRU — hits refresh
#: recency, insertions past the cap evict the least-recently-used entries
#: (value tables first; the handful of sum/pair tables are shared by every
#: caller of their operator and stay hot) — so a long-lived server process
#: cannot grow it without bound.  The cap is configurable through
#: :func:`set_table_cache_limit` or the ``REPRO_TABLE_CACHE_LIMIT``
#: environment variable.
#:
#: Thread-safety audit (the evaluation server executes backends from
#: concurrent request threads): every structural mutation of the cache —
#: insertion, eviction, recency update, clearing, the pending-key set and
#: the value-table index — happens under ``_CACHE_LOCK``.  The lazy
#: *in-place* fills of an already-cached value table are deliberately left
#: outside the lock: concurrent fillers write identical values (the
#: operators are deterministic pure functions), the ``filled`` flag of an
#: entry is set only after its value, and CPython's GIL makes those two
#: NumPy stores visible in program order — so the worst case is duplicated
#: fill work, never a wrong read.  Evicted tables stay valid for threads
#: already holding a reference.
_TABLE_CACHE: "OrderedDict[Tuple[object, ...], object]" = OrderedDict()
_CACHE_LOCK = threading.RLock()
_DEFAULT_TABLE_CACHE_LIMIT = 128
_MAX_CACHED_TABLES = _DEFAULT_TABLE_CACHE_LIMIT
_CACHE_HITS = 0
_CACHE_MISSES = 0
_CACHE_EVICTIONS = 0

#: Lazily-filled value tables are populated in chunks of ``2**shift`` entries
#: around each missed value (see :meth:`LutBackend._value_lookup`).
_VALUE_CHUNK_SHIFT = 10


#: Value-table keys seen exactly once.  A table is only opened when the same
#: (operator, side, constant) recurs: recurring constants (DCT coefficients,
#: twiddles, filter taps) amortise their table, while one-shot constants
#: (K-means centroids, which change every Lloyd iteration) would build a
#: 2**N-entry table for a single gather and stay on the functional model.
_PENDING_VALUE_KEYS: set = set()
_MAX_PENDING_KEYS = 4096

#: Number of resident right-constant value tables per (family, name): lets
#: the coefficient-bank strategy bail out of a call in O(1) — before any
#: per-constant key is built — when no table exists for the operator and no
#: group is large enough to open one.
_VALUE_TABLE_INDEX: Dict[Tuple[str, str], int] = {}


def clear_table_cache(purge_arena: bool = True) -> None:
    """Drop every cached LUT table (mainly for tests and benchmarks).

    By default this also unlinks the shared-memory arena segments backing
    the tables, so a clear means a genuinely cold rebuild — without it, an
    "evicted" table would silently warm-attach to its old arena content,
    which is exactly what tests and cold-path benchmarks call this function
    to avoid.  ``purge_arena=False`` keeps the segments alive and merely
    detaches from them, leaving the next table request on the arena attach
    path — the knob the table-build benchmark uses to time cold build
    against warm attach.
    """
    global _CACHE_HITS, _CACHE_MISSES, _CACHE_EVICTIONS
    with _CACHE_LOCK:
        _TABLE_CACHE.clear()
        _PENDING_VALUE_KEYS.clear()
        _VALUE_TABLE_INDEX.clear()
        _CACHE_HITS = _CACHE_MISSES = _CACHE_EVICTIONS = 0
    if purge_arena:
        table_arena.purge(force=True)
    else:
        table_arena.detach_all()


def table_cache_limit() -> int:
    """Current LRU cap of the process-wide table cache."""
    return _MAX_CACHED_TABLES


def set_table_cache_limit(limit: Optional[int] = None) -> int:
    """Cap the process-wide table cache; returns the effective limit.

    ``None`` restores the default (the ``REPRO_TABLE_CACHE_LIMIT``
    environment variable when set, else the built-in generous default).
    Shrinking the cap evicts least-recently-used tables immediately, so a
    long-lived server can bound its memory at startup.
    """
    global _MAX_CACHED_TABLES
    if limit is None:
        env = os.environ.get("REPRO_TABLE_CACHE_LIMIT")
        try:
            limit = int(env) if env else _DEFAULT_TABLE_CACHE_LIMIT
        except ValueError:
            limit = _DEFAULT_TABLE_CACHE_LIMIT
    limit = int(limit)
    if limit < 1:
        raise ValueError("table cache limit must be at least 1")
    with _CACHE_LOCK:
        _MAX_CACHED_TABLES = limit
        while len(_TABLE_CACHE) > limit:
            _evict_one()
    return limit


def cache_stats() -> Dict[str, object]:
    """Introspection hook: size, cap, hit/miss/eviction counters and the
    arena / compiled-tier sub-sections.

    Counters are process-wide and reset by :func:`clear_table_cache`; the
    evaluation server's ``status`` action reports this dictionary verbatim.
    """
    with _CACHE_LOCK:
        stats: Dict[str, object] = {
            "tables": len(_TABLE_CACHE),
            "limit": _MAX_CACHED_TABLES,
            "hits": _CACHE_HITS,
            "misses": _CACHE_MISSES,
            "evictions": _CACHE_EVICTIONS,
        }
    stats["arena"] = table_arena.arena_stats()
    stats["compiled"] = compiled_stats()
    return stats


def _index_value_key(key: Tuple[object, ...], delta: int) -> None:
    """Track a right-constant value table entering (+1) / leaving (-1)."""
    if key[0] == "value" and key[3] == "right":
        index_key = (key[1], key[2])
        count = _VALUE_TABLE_INDEX.get(index_key, 0) + delta
        if count > 0:
            _VALUE_TABLE_INDEX[index_key] = count
        else:
            _VALUE_TABLE_INDEX.pop(index_key, None)


def _note_value_key_sighting(key: Tuple[object, ...]) -> bool:
    """Single admission policy for lazy value tables.

    Returns ``True`` when ``key`` recurred (so a table may open now);
    otherwise records this first sighting and returns ``False`` — recurring
    constants (DCT coefficients, twiddles, filter taps) amortise a table,
    one-shot constants (drifting K-means centroids) never earn one.
    """
    with _CACHE_LOCK:
        if key in _PENDING_VALUE_KEYS:
            return True
        if len(_PENDING_VALUE_KEYS) >= _MAX_PENDING_KEYS:
            _PENDING_VALUE_KEYS.clear()
        _PENDING_VALUE_KEYS.add(key)
        return False


def table_cache_size() -> int:
    """Number of tables currently cached process-wide."""
    with _CACHE_LOCK:
        return len(_TABLE_CACHE)


def _cache_get(key: Tuple[object, ...]) -> object:
    """Counted LRU lookup: a hit refreshes the key's recency."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        entry = _TABLE_CACHE.get(key)
        if entry is None:
            _CACHE_MISSES += 1
        else:
            _CACHE_HITS += 1
            _TABLE_CACHE.move_to_end(key)
        return entry


def _cache_contains(key: Tuple[object, ...]) -> bool:
    """Uncounted presence probe (the bank strategy's candidate scan)."""
    with _CACHE_LOCK:
        return key in _TABLE_CACHE


def _evict_one() -> None:
    """Drop one entry, preferring the least-recently-used *value* table.

    Must be called with ``_CACHE_LOCK`` held.
    """
    global _CACHE_EVICTIONS
    victim = None
    for candidate in _TABLE_CACHE:
        if candidate[0] == "value":
            victim = candidate
            break
    if victim is None:
        victim = next(iter(_TABLE_CACHE))
    del _TABLE_CACHE[victim]
    _index_value_key(victim, -1)
    _CACHE_EVICTIONS += 1


def _scan_out_of_range(values: np.ndarray, lo: int, hi: int) -> bool:
    """Whether any element falls outside ``[lo, hi]``, in one fused pass.

    ``(v - lo) | (hi - v)`` is non-negative exactly when ``lo <= v <= hi``,
    so a single OR-reduction carries the sign bit of every violation —
    replacing the separate ``min()`` and ``max()`` reduction scans.  An
    int64 overflow in either difference (operand near the int64 limits)
    flips the sign bit and conservatively reports out-of-range, which only
    sends the call to the bit-exact functional fallback.
    """
    return bool(int(np.bitwise_or.reduce((values - lo) | (hi - values),
                                         axis=None)) < 0)


def _cache_insert(key: Tuple[object, ...], value: object) -> object:
    with _CACHE_LOCK:
        existing = _TABLE_CACHE.get(key)
        if existing is not None:
            # A concurrent thread built the same table first; keep (and
            # share) its entry so both threads gather from one array.
            _TABLE_CACHE.move_to_end(key)
            return existing
        while len(_TABLE_CACHE) >= _MAX_CACHED_TABLES:
            _evict_one()
        _TABLE_CACHE[key] = value
        _index_value_key(key, +1)
    return value


# --------------------------------------------------------------------------- #
# Shared table builders (used by both the LUT and the compiled tier)
# --------------------------------------------------------------------------- #
def _sum_table(operator: Operator) -> np.ndarray:
    """Eager 1-D sum table over one ``2**N`` period, arena-backed.

    Valid exactly because the operator is :attr:`Operator.sum_addressable`:
    ``compute(a, b)`` is a pure function of ``wrap(a + b)``, so
    ``compute(s, 0)`` tabulates residue ``s``.
    """
    key = ("sum", operator.family, operator.name)
    table = _cache_get(key)
    if table is None:
        span = 1 << operator.input_width

        def build(arrays: List[np.ndarray]) -> None:
            period = np.arange(span, dtype=np.int64)
            arrays[0][...] = np.asarray(
                operator.aligned(period, np.int64(0)), dtype=np.int64)

        arrays, _mode = table_arena.get_or_build(
            key, [((span,), np.int64)], build)
        table = _cache_insert(key, arrays[0])
    return table


def _pair_table(operator: Operator,
                evaluate: Optional[Callable] = None) -> np.ndarray:
    """Eager full truth table, flattened row-major over (a, b), arena-backed.

    ``evaluate`` lets the compiled tier build the table through its kernel
    (numba, where one exists) instead of ``operator.aligned``.
    """
    key = ("pair", operator.family, operator.name)
    table = _cache_get(key)
    if table is None:
        lo, hi = operator.input_range()
        span = hi - lo + 1

        def build(arrays: List[np.ndarray]) -> None:
            all_a, all_b = operator.exhaustive_inputs()
            model = evaluate if evaluate is not None else operator.aligned
            arrays[0][...] = np.asarray(
                model(all_a, all_b), dtype=np.int64).reshape(-1)

        arrays, _mode = table_arena.get_or_build(
            key, [((span * span,), np.int64)], build)
        table = _cache_insert(key, arrays[0])
    return table


def _value_entry(key: Tuple[object, ...], span: int) -> Tuple:
    """Open (or attach to) a lazily-filled value-table entry for ``key``.

    The value array and its ``filled`` bitmap live in the arena, so a table
    one process fills is already (partially) warm in the next; the
    miss-event counter stays process-local — it only steers this process's
    chunked-fill heuristic.
    """
    arrays, _mode = table_arena.get_or_build(
        key, [((span,), np.int64), ((span,), np.bool_)])
    return _cache_insert(key, (arrays[0], arrays[1], [0]))


class LutBackend(ExecutionBackend):
    """Vectorised lookup-table backend, bit-identical to ``"direct"``.

    Parameters
    ----------
    max_pair_width:
        Largest operand width for which the full 2-D truth table is built
        (``4**N`` entries — the default of 10 bits caps one table at 8 MiB).
    max_value_width:
        Largest operand width for which the 1-D strategies (sum, constant,
        square tables, ``2**N``-ish entries) are used.  16 covers the
        paper's whole datapath.
    min_value_size:
        Smallest operand array for which a *new* constant/square table is
        opened.  Tiny calls (late FFT stages) cost less through the
        functional model than through the lazy-fill machinery; once a table
        exists, calls of any size gather from it.
    max_bank_constants:
        Largest number of unique constants for which the coefficient-bank
        strategy groups a ``bank=True`` call.  Beyond it (late stages of a
        very large FFT, where each twiddle covers only a couple of
        butterflies) the whole call runs as one vectorised functional
        evaluation instead.
    """

    name = "lut"

    def __init__(self, max_pair_width: int = 10,
                 max_value_width: int = 16,
                 min_value_size: int = 256,
                 max_bank_constants: int = 128) -> None:
        if max_pair_width < 2:
            raise ValueError("max_pair_width must be at least 2")
        if max_value_width < 2:
            raise ValueError("max_value_width must be at least 2")
        if max_bank_constants < 1:
            raise ValueError("max_bank_constants must be at least 1")
        self.max_pair_width = int(max_pair_width)
        self.max_value_width = int(max_value_width)
        self.min_value_size = int(min_value_size)
        self.max_bank_constants = int(max_bank_constants)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def execute(self, operator: Operator, a: np.ndarray,
                b: np.ndarray, bank: bool = False,
                in_range: bool = False) -> np.ndarray:
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        if a_arr.ndim == 0 and b_arr.ndim == 0:
            return np.asarray(operator.aligned(a_arr, b_arr), dtype=np.int64)

        out: Optional[np.ndarray] = None
        if operator.sum_addressable \
                and operator.input_width <= self.max_value_width:
            out = self._sum_lookup(operator, a_arr, b_arr)
        elif operator.input_width <= self.max_pair_width:
            out = self._pair_lookup(operator, a_arr, b_arr, in_range)
        elif operator.input_width <= self.max_value_width:
            if b_arr.ndim == 0:
                out = self._value_lookup(operator, a_arr, int(b_arr), "right",
                                         in_range)
            elif a_arr.ndim == 0:
                out = self._value_lookup(operator, b_arr, int(a_arr), "left",
                                         in_range)
            elif a is b:
                out = self._value_lookup(operator, a_arr, None, "square",
                                         in_range)
            elif bank:
                out = self._bank_lookup(operator, a_arr, b_arr, in_range)
        if out is not None:
            return out
        # No table strategy applies (wide operator, general operands, or
        # out-of-range stimulus): the functional model is the answer.
        return _functional(operator, a_arr, b_arr)

    # ------------------------------------------------------------------ #
    # Strategies
    # ------------------------------------------------------------------ #
    def _sum_lookup(self, operator: Operator, a: np.ndarray,
                    b: np.ndarray) -> Optional[np.ndarray]:
        """Eager 1-D table indexed by the exact operand sum, modulo ``2**N``.

        A sum-addressable operator computes a pure function of the *wrapped*
        sum, which is periodic in ``a + b`` with period ``2**N`` — so one
        table over a single period plus modular indexing covers every int64
        operand sum with no bounds checks at all.
        """
        return np.take(_sum_table(operator), a + b, mode="wrap")

    def _pair_lookup(self, operator: Operator, a: np.ndarray,
                     b: np.ndarray, in_range: bool = False
                     ) -> Optional[np.ndarray]:
        """Eager full truth table, flattened row-major over (a, b)."""
        lo, hi = operator.input_range()
        if not in_range:
            for operand in (a, b):
                if operand.size and _scan_out_of_range(operand, lo, hi):
                    return None
        table = _pair_table(operator)
        span = hi - lo + 1
        # Two-dimensional indexing bounds-checks each operand separately, so
        # a positive off-grid operand under a wrong in_range claim raises
        # (and falls back) instead of flattening into a neighbouring table
        # row; a negative overshoot reads an aliased entry, which the
        # context contract disclaims for off-grid callers — the table is
        # read-only, so shared state is never at risk.
        try:
            return table.reshape(span, span)[a - lo, b - lo]
        except IndexError:
            # Off-contract caller: degrade to the bit-exact functional model.
            return None

    def _value_lookup(self, operator: Operator, values: np.ndarray,
                      constant: Optional[int], side: str,
                      in_range: bool = False) -> Optional[np.ndarray]:
        """Lazily-filled 1-D table over one variable operand.

        ``side`` is ``"right"`` / ``"left"`` for a constant second / first
        operand, or ``"square"`` when both operands are the same array (the
        constant is then ignored).  Only the values actually observed are
        ever evaluated through the functional model, so expensive
        approximate operators never see more stimulus than the data holds.
        """
        lo, hi = operator.input_range()
        if values.size == 0:
            return np.asarray(operator.aligned(values, values), dtype=np.int64)
        if not in_range and _scan_out_of_range(values, lo, hi):
            return None
        key = ("value", operator.family, operator.name, side, constant)
        entry = _cache_get(key)
        if entry is None:
            if values.size < self.min_value_size:
                return None
            if not _note_value_key_sighting(key):
                # First sighting of this constant: stay on the functional
                # model; only a recurring constant earns a table.
                return None
            with _CACHE_LOCK:
                _PENDING_VALUE_KEYS.discard(key)
            entry = _value_entry(key, hi - lo + 1)
        table, filled, miss_events = entry
        index = values - lo
        try:
            missing = ~filled[index]
        except IndexError:
            # Off-contract operand under an in_range claim: degrade to the
            # bit-exact functional model.
            return None
        if missing.any():
            observed = index[missing]
            if int(observed.min()) < 0 or int(observed.max()) >= filled.shape[0]:
                # Off-contract operands must never write through aliased
                # indices into the shared tables; fail closed instead.
                return None
            miss_events[0] += 1
            if miss_events[0] < 2:
                # First fill: only the observed values — no dearer than one
                # functional evaluation, which is all a table that is never
                # missed again (a stable K-means centroid) will ever need.
                fresh_index = np.unique(observed)
            else:
                # A table that keeps missing is hot with a drifting operand
                # domain (DCT intermediates): fill whole chunks around the
                # missed values, because the per-event overhead of invoking
                # an approximate operator's model dwarfs the extra
                # elements per fill, and clustered operands make the
                # pre-filled neighbourhood pay off.
                chunks = np.unique(observed >> _VALUE_CHUNK_SHIFT)
                span = filled.shape[0]
                fresh_index = np.concatenate([
                    np.arange(chunk << _VALUE_CHUNK_SHIFT,
                              min((chunk + 1) << _VALUE_CHUNK_SHIFT, span))
                    for chunk in chunks])
                fresh_index = fresh_index[~filled[fresh_index]]
            fresh = fresh_index + lo
            if side == "square":
                results = operator.aligned(fresh, fresh)
            elif side == "right":
                partner = np.full(fresh.shape, constant, dtype=np.int64)
                results = operator.aligned(fresh, partner)
            else:
                partner = np.full(fresh.shape, constant, dtype=np.int64)
                results = operator.aligned(partner, fresh)
            table[fresh_index] = np.asarray(results, dtype=np.int64)
            filled[fresh_index] = True
        return table[index]

    def _bank_lookup(self, operator: Operator, a: np.ndarray,
                     b: np.ndarray, in_range: bool = False
                     ) -> Optional[np.ndarray]:
        """Coefficient-bank strategy: ``b`` is a small constant bank over ``a``.

        One ``np.unique`` pass (over the *unbroadcast* bank, so an FFT
        stage's ``(half, 1)`` twiddle column never materialises) finds the
        constants; one stable ``np.argsort`` over the broadcast group ids
        splits the elements; each group is then served from the same
        per-constant value tables as the scalar-constant strategy — the
        table a stage-fused kernel hits is the very table its seed-style
        per-constant loop would have warmed.  Groups without a table are
        evaluated together in a single functional call, so a bank call never
        degenerates into a per-constant Python loop.
        """
        constants, inverse = np.unique(b, return_inverse=True)
        if constants.size > self.max_bank_constants:
            return None  # too fragmented: one vectorised functional call wins
        shape = np.broadcast_shapes(a.shape, b.shape)
        if not constants.size:
            return None  # empty bank: the functional fallback handles it
        cell_shape = _bank_cell_shape(a, b, self.max_bank_constants,
                                      self.min_value_size)
        if cell_shape is not None:
            # Large cells: serve each constant's slice directly — a table
            # gather when one is (or becomes) resident, the scalar-partner
            # functional model otherwise.  No flat argsort pass, no
            # full-size temporaries.
            out = np.empty(cell_shape, dtype=np.int64)
            for slicer, constant, values in _bank_cells(a, b, cell_shape):
                served = self._value_lookup(operator, values, constant,
                                            "right", in_range)
                out[slicer] = served if served is not None \
                    else operator.aligned(values, constant)
            return out
        a_flat = np.broadcast_to(a, shape).ravel()
        groups = np.broadcast_to(inverse.reshape(b.shape), shape).ravel()
        counts = np.bincount(groups, minlength=constants.size)
        has_tables = bool(
            _VALUE_TABLE_INDEX.get((operator.family, operator.name), 0))
        if not has_tables and int(counts.max(initial=0)) < self.min_value_size:
            # O(1) bail-out: no table exists for this operator and no group
            # is big enough to open one — run the whole call functionally.
            return None
        # Only groups with a resident table (or one about to open because
        # the constant recurred) are worth a per-group gather; everything
        # else joins one batched functional evaluation below.
        prefix = ("value", operator.family, operator.name, "right")
        candidates = range(constants.size) if has_tables else \
            np.flatnonzero(counts >= self.min_value_size)
        serveable = set()
        for index in candidates:
            key = prefix + (int(constants[index]),)
            if _cache_contains(key):
                serveable.add(int(index))
            elif counts[index] >= self.min_value_size \
                    and _note_value_key_sighting(key):
                serveable.add(int(index))  # recurred: its table opens now
        if not serveable:
            return None
        order = np.argsort(groups, kind="stable")
        out = np.empty(a_flat.shape[0], dtype=np.int64)
        leftover = []
        start = 0
        for index, (count, constant) in enumerate(zip(counts, constants)):
            stop = start + int(count)
            segment = order[start:stop]
            start = stop
            if not segment.size:
                continue
            served = self._value_lookup(operator, a_flat[segment],
                                        int(constant), "right", in_range) \
                if index in serveable else None
            if served is None:
                leftover.append(segment)
            else:
                out[segment] = served
        if leftover:
            rest = np.concatenate(leftover) if len(leftover) > 1 else leftover[0]
            out[rest] = np.asarray(
                operator.aligned(a_flat[rest], constants[groups[rest]]),
                dtype=np.int64)
        return out.reshape(shape)


# --------------------------------------------------------------------------- #
# Compiled backend
# --------------------------------------------------------------------------- #
class CompiledBackend(ExecutionBackend):
    """Ahead-of-time tier: dense stacked bank tables plus numba kernels.

    Each operator is evaluated through its *kernel*: the numba ``@njit``
    variant from ``repro.core.kernels`` when numba is importable and one
    exists for the family (AAM, ABM), else the operator's own closed form,
    :meth:`Operator.aligned`.  Dispatch per call, cheapest strategy first:

    1. **Sum tables** for sum-addressable operators (shared with the LUT
       tier — the arena means at most one process ever builds one).
    2. **Pair tables** for small operators, built through the kernel.
    3. **Stacked bank tables** for ``bank=True`` calls: one dense
       ``(constants, span)`` table per recurring bank, built in a single
       broadcast kernel call and served as one flat gather — no per-constant
       grouping, sorting or Python looping at serve time.
    4. **Per-constant value tables** (shared with the LUT tier) for scalar
       constants, filled eagerly through the kernel.
    5. **The kernel itself** for everything else, out-of-range stimulus
       included.

    Results are bit-identical to :class:`DirectBackend` for every operator
    and stimulus; the constructor parameters mirror :class:`LutBackend`.
    """

    name = "compiled"

    def __init__(self, max_pair_width: int = 10,
                 max_value_width: int = 16,
                 min_value_size: int = 256,
                 max_bank_constants: int = 128,
                 max_bank_table_bytes: int = 64 << 20) -> None:
        if max_pair_width < 2:
            raise ValueError("max_pair_width must be at least 2")
        if max_value_width < 2:
            raise ValueError("max_value_width must be at least 2")
        if max_bank_constants < 1:
            raise ValueError("max_bank_constants must be at least 1")
        self.max_pair_width = int(max_pair_width)
        self.max_value_width = int(max_value_width)
        self.min_value_size = int(min_value_size)
        self.max_bank_constants = int(max_bank_constants)
        self.max_bank_table_bytes = int(max_bank_table_bytes)
        self._kernels: Dict[str, Kernel] = {}

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def execute(self, operator: Operator, a: np.ndarray,
                b: np.ndarray, bank: bool = False,
                in_range: bool = False) -> np.ndarray:
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        if a_arr.ndim == 0 and b_arr.ndim == 0:
            return np.asarray(operator.aligned(a_arr, b_arr), dtype=np.int64)
        if operator.sum_addressable \
                and operator.input_width <= self.max_value_width:
            return np.take(_sum_table(operator), a_arr + b_arr, mode="wrap")
        kernel = self._kernel(operator)
        if not in_range:
            lo, hi = operator.input_range()
            in_range = not any(
                operand.size and _scan_out_of_range(operand, lo, hi)
                for operand in (a_arr, b_arr))
        out: Optional[np.ndarray] = None
        if in_range:
            if operator.input_width <= self.max_pair_width:
                out = self._pair_serve(operator, a_arr, b_arr, kernel)
            elif operator.input_width <= self.max_value_width:
                if b_arr.ndim == 0:
                    out = self._value_serve(operator, a_arr, int(b_arr),
                                            "right", kernel)
                elif a_arr.ndim == 0:
                    out = self._value_serve(operator, b_arr, int(a_arr),
                                            "left", kernel)
                elif bank:
                    out = self._bank_serve(operator, a_arr, b_arr, kernel)
        if out is not None:
            return out
        return kernel(a_arr, b_arr)

    def _kernel(self, operator: Operator) -> Kernel:
        name = operator.name
        if name not in self._kernels:
            self._kernels[name] = get_kernel(operator) or operator.aligned
        return self._kernels[name]

    # ------------------------------------------------------------------ #
    # Strategies (operands verified in range by ``execute``)
    # ------------------------------------------------------------------ #
    def _pair_serve(self, operator: Operator, a: np.ndarray, b: np.ndarray,
                    kernel: Kernel) -> Optional[np.ndarray]:
        lo, hi = operator.input_range()
        span = hi - lo + 1
        table = _pair_table(operator, kernel)
        # Bounds semantics under a (false) in_range claim mirror the LUT
        # tier: positive overshoots raise here and fail over to the kernel.
        try:
            return table.reshape(span, span)[a - lo, b - lo]
        except IndexError:
            return None

    def _value_serve(self, operator: Operator, values: np.ndarray,
                     constant: Optional[int], side: str,
                     kernel: Kernel) -> Optional[np.ndarray]:
        """Eagerly-filled per-constant table, shared with the LUT tier.

        The compiled tier fills the *whole* table in one kernel pass the
        first time a constant recurs — a handful of vector passes over
        ``2**N`` values, cheaper than the lazy-fill bookkeeping it replaces
        — and completes any partially-filled table inherited from LUT-tier
        callers the same way.
        """
        if values.size == 0:
            return None
        lo, hi = operator.input_range()
        span = hi - lo + 1
        key = ("value", operator.family, operator.name, side, constant)
        entry = _cache_get(key)
        if entry is None:
            if values.size < self.min_value_size:
                return None  # tiny call: the kernel itself is cheaper
            if not _note_value_key_sighting(key):
                return None  # first sighting: only recurrence earns a table
            with _CACHE_LOCK:
                _PENDING_VALUE_KEYS.discard(key)
            entry = _value_entry(key, span)
        table, filled, miss_events = entry
        if not filled.all():
            # Writes go through internal in-bounds indices only, so even an
            # off-contract caller can never poison the shared table.
            miss_events[0] += 1
            fresh_index = np.flatnonzero(~filled)
            fresh = fresh_index + lo
            if side == "square":
                results = kernel(fresh, fresh)
            elif side == "right":
                results = kernel(fresh, np.int64(constant))
            else:
                results = kernel(np.int64(constant), fresh)
            table[fresh_index] = results
            filled[fresh_index] = True
        try:
            return table[values - lo]
        except IndexError:
            return None  # false in_range claim: fail over to the kernel

    def _bank_serve(self, operator: Operator, a: np.ndarray, b: np.ndarray,
                    kernel: Kernel) -> Optional[np.ndarray]:
        """Dense stacked bank table: one flat gather serves the whole call.

        The per-bank ``(constants, span)`` table is built in a *single*
        broadcast kernel evaluation, keyed by the constant tuple itself so
        a recurring bank (a DCT pass's cosine rows, an FFT stage's
        twiddles) is recognised as a unit — no per-constant keys, no
        argsort grouping, no Python loop at serve time.
        """
        constants, inverse = np.unique(b, return_inverse=True)
        if not constants.size or constants.size > self.max_bank_constants:
            return None
        lo, hi = operator.input_range()
        span = hi - lo + 1
        if constants.size * span * 8 > self.max_bank_table_bytes:
            return None
        key = ("bankstack", operator.family, operator.name,
               tuple(int(value) for value in constants))
        stack = _cache_get(key)
        if stack is None:
            if not _note_value_key_sighting(key):
                return None  # one-shot bank (drifting centroids): no table
            with _CACHE_LOCK:
                _PENDING_VALUE_KEYS.discard(key)

            def build(arrays: List[np.ndarray]) -> None:
                values = np.arange(lo, hi + 1, dtype=np.int64)
                arrays[0][...] = kernel(values[np.newaxis, :],
                                        constants[:, np.newaxis])

            arrays, _mode = table_arena.get_or_build(
                key, [((constants.size, span), np.int64)], build)
            stack = _cache_insert(key, arrays[0])
        shape = np.broadcast_shapes(a.shape, b.shape)
        rows = np.broadcast_to(inverse.reshape(b.shape), shape)
        try:
            return stack.reshape(-1)[rows * span
                                     + (np.broadcast_to(a, shape) - lo)]
        except IndexError:
            return None  # false in_range claim: fail over to the kernel


def describe_backends() -> List[Dict[str, object]]:
    """Availability listing for ``repro list`` and the server ``experiments``.

    One entry per registered backend; the compiled entry details its engine
    (numba, or the operators' closed forms), the operator families with a
    numba kernel and whether the shared-memory arena is active.
    """
    descriptions = {
        "direct": "closed-form operator models, one broadcast pass per call "
                  "(reference; bit-serial models are the test oracle)",
        "lut": "precomputed lookup tables over the closed-form models, "
               "bit-identical to direct",
        "compiled": "shared stacked bank tables + numba AAM/ABM kernels "
                    "when available, bit-identical to direct",
    }
    entries: List[Dict[str, object]] = []
    for name in registered_backends():
        entry: Dict[str, object] = {
            "name": name,
            "available": True,
            "description": descriptions.get(name, "plug-in backend"),
        }
        if name == "compiled":
            stats = compiled_stats()
            entry["engine"] = stats["engine"]
            entry["numba"] = stats["numba"]
            entry["kernel_families"] = stats["kernel_families"]
            entry["arena"] = table_arena.arena_enabled()
        entries.append(entry)
    return entries


# --------------------------------------------------------------------------- #
# Registry (mirrors repro/workloads/registry.py)
# --------------------------------------------------------------------------- #
BackendFactory = Callable[..., ExecutionBackend]
BackendLike = Union[str, ExecutionBackend, None]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or override) a backend factory under a short name."""
    if not name:
        raise ValueError("backend name must be a non-empty string")
    _REGISTRY[name.lower()] = factory


def registered_backends() -> List[str]:
    """Sorted list of known backend names."""
    return sorted(_REGISTRY)


def create_backend(name: str, *args: object, **kwargs: object) -> ExecutionBackend:
    """Instantiate a backend from its registry name and parameters."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown backend {name!r}; "
                       f"known: {', '.join(registered_backends())}")
    return _REGISTRY[key](*args, **kwargs)


def parse_backend(spec: BackendLike) -> ExecutionBackend:
    """Resolve a backend from a spec string, an instance, or ``None``.

    ``None`` selects the bit-exact ``"direct"`` reference.  Spec strings
    follow the operator/workload notation, e.g. ``"lut"`` or
    ``"lut(max_pair_width=8)"``.
    """
    if spec is None:
        return DirectBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    name, args, kwargs = parse_spec(spec)
    try:
        return create_backend(name, *args, **kwargs)
    except TypeError as exc:
        raise ValueError(f"invalid arguments for backend {name!r} in "
                         f"specification {spec!r}: {exc}") from exc


def backend_spec(backend: BackendLike) -> str:
    """Short printable spec of a backend selection (for result metadata)."""
    if backend is None:
        return "direct"
    if isinstance(backend, ExecutionBackend):
        return backend.name
    return str(backend)


register_backend("direct", DirectBackend)
register_backend("lut", LutBackend)
register_backend("compiled", CompiledBackend)
