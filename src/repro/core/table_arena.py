"""Cross-process shared-memory arena for the LUT tables.

Every process of a sweep — the ``run --workers N`` pool, the shard matrix,
``fleet work``-ers, the evaluation server — needs the very same operator
tables: a table is a pure function of its key (the operator name embeds the
parameters).  Before the arena each process rebuilt them from cold, which for
the bit-serial multiplier models dominates small sweeps.  The arena maps each
table into a named ``multiprocessing.shared_memory`` segment with
*attach-or-build-once* semantics:

* the segment name is a deterministic hash of the table key and the package
  version, so every process computes the same name without coordination;
* the first process to ``create`` the segment builds the table in place and
  then publishes it by flipping a ``ready`` flag in the segment header;
* every other process (including later runs on the same machine — segments
  outlive their creator, which is the whole point) attaches, waits for the
  flag if the build is still in flight, and maps the table zero-copy;
* a builder that dies mid-build leaves ``ready`` unset; the next attacher
  times out, unlinks the stale segment and builds a fresh one.

Lazily-filled tables (the per-constant value tables) share their ``filled``
bitmap through the arena as well: concurrent fillers write identical values
(the operators are deterministic pure functions) and each table entry's value
is stored before its ``filled`` flag, so the worst case across processes —
exactly as across threads, see the audit note in ``backends.py`` — is
duplicated fill work, never a wrong read.

Lifecycle: each process registers as a user by incrementing the refcount in
the segment header and decrements it again from an ``atexit`` hook (mappings
are closed, segments are *not* unlinked — a warm arena surviving process exit
is the feature).  :func:`purge` unlinks segments no process is using; the
``REPRO_TABLE_ARENA=0`` environment variable opts out entirely, returning to
per-process heap tables.
"""
from __future__ import annotations

import atexit
import hashlib
import json
import os
import struct
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory
    _SHM_AVAILABLE = True
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]
    _SHM_AVAILABLE = False

#: Environment variable opting out of the arena (``"0"`` disables it).
ARENA_ENV = "REPRO_TABLE_ARENA"

#: Segment header: magic(8s) ready(B) pad(7x) refcount(q) nbytes(Q) created(d).
_MAGIC = b"RPROARN1"
_HEADER = struct.Struct("<8sB7xqQd")
_HEADER_SIZE = 64  # padded so the payload starts cache-line aligned
_READY_OFFSET = 8
_REFCOUNT_OFFSET = 16

#: How long an attacher waits for an in-flight build before declaring the
#: segment stale (builders publish in well under a second; a dead builder
#: never publishes at all).
_READY_TIMEOUT_S = 5.0

_LOCK = threading.Lock()
#: Open segments of this process: name -> (SharedMemory, views keep-alive).
_SEGMENTS: Dict[str, object] = {}
#: One lock per segment name: a single thread of this process creates or
#: attaches a segment while its peers wait and then rehit that mapping.  Two
#: handles on one segment would leave the loser's handle unreferenced, and
#: its finaliser unmaps the memory under views already handed out.
_NAME_LOCKS: Dict[str, threading.Lock] = {}
_BUILDS = 0
_ATTACHES = 0
_REHITS = 0
_LOCALS = 0
_STALE_CLEANED = 0
_ATEXIT_REGISTERED = False


def arena_enabled() -> bool:
    """Whether tables are placed in the shared arena (default yes)."""
    return _SHM_AVAILABLE and os.environ.get(ARENA_ENV, "1") != "0"


def segment_name(key: Tuple[object, ...]) -> str:
    """Deterministic segment name of a table key (same in every process).

    The name embeds the package version so an upgraded package never attaches
    to tables built by an incompatible one, and stays under the 31-character
    POSIX ``shm_open`` name limit.
    """
    from .. import __version__

    digest = hashlib.blake2b(
        repr((__version__, key)).encode("utf-8"), digest_size=11).hexdigest()
    return f"rpa{digest}"


def _registry_path() -> str:
    return os.path.join(tempfile.gettempdir(),
                        f"repro-arena-{os.getuid()}.json")


def _locked_registry_update(update: Callable[[Dict[str, dict]], None]) -> None:
    """Read-modify-write the registry file under an exclusive file lock."""
    path = _registry_path()
    try:
        import fcntl
        lock_path = path + ".lock"
        with open(lock_path, "a") as lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            segments = _read_registry()
            update(segments)
            tmp = path + f".tmp{os.getpid()}"
            with open(tmp, "w") as handle:
                json.dump({"segments": segments}, handle)
            os.replace(tmp, path)
    except (ImportError, OSError):  # pragma: no cover - best effort
        pass


def _read_registry() -> Dict[str, dict]:
    try:
        with open(_registry_path()) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return {}
    segments = document.get("segments") if isinstance(document, dict) else None
    return segments if isinstance(segments, dict) else {}


def _register_segment(name: str, key: Tuple[object, ...], nbytes: int) -> None:
    def update(segments: Dict[str, dict]) -> None:
        segments.setdefault(name, {
            "key": repr(key),
            "nbytes": int(nbytes),
            "created": time.time(),
            "pid": os.getpid(),
        })

    _locked_registry_update(update)


def _array_layout(spec: Sequence[Tuple[Tuple[int, ...], object]]
                  ) -> Tuple[List[Tuple[int, Tuple[int, ...], np.dtype]], int]:
    """Payload offsets (8-byte aligned) and total size for an array spec."""
    layout = []
    offset = 0
    for shape, dtype in spec:
        dtype = np.dtype(dtype)
        count = 1
        for extent in shape:
            count *= int(extent)
        layout.append((offset, tuple(int(s) for s in shape), dtype))
        offset += -(-count * dtype.itemsize // 8) * 8
    return layout, offset


def _views(shm, layout) -> List[np.ndarray]:
    return [np.ndarray(shape, dtype=dtype, buffer=shm.buf,
                       offset=_HEADER_SIZE + offset)
            for offset, shape, dtype in layout]


def _local_arrays(layout) -> List[np.ndarray]:
    return [np.zeros(shape, dtype=dtype) for _, shape, dtype in layout]


def _bump_refcount(shm, delta: int) -> int:
    """Adjust the advisory user count in the segment header.

    The read-modify-write is not atomic across processes; the count is
    advisory (it gates :func:`purge`, never correctness) and a lost update
    only delays an unlink.
    """
    (count,) = struct.unpack_from("<q", shm.buf, _REFCOUNT_OFFSET)
    count += delta
    struct.pack_into("<q", shm.buf, _REFCOUNT_OFFSET, count)
    return count


def _unregister_from_tracker(shm) -> None:
    """Keep the resource tracker from unlinking a kept segment at exit.

    Python's tracker treats every created *and* (on 3.x < 3.13) attached
    segment as owned and destroys it at process exit; arena segments are
    shared infrastructure that must outlive any single process, so every
    handle we intend to *keep* is unregistered — the registry plus
    :func:`purge` own cleanup instead.  Handles about to be ``unlink``-ed
    are left registered (``unlink`` unregisters itself; a second unregister
    makes the tracker process print spurious ``KeyError`` tracebacks).
    """
    if resource_tracker is None:  # pragma: no cover
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _name_lock(name: str) -> threading.Lock:
    with _LOCK:
        return _NAME_LOCKS.setdefault(name, threading.Lock())


def _remember(name: str, shm, views: List[np.ndarray]) -> None:
    global _ATEXIT_REGISTERED
    with _LOCK:
        _SEGMENTS[name] = (shm, views)
        if not _ATEXIT_REGISTERED:
            atexit.register(_release_all)
            _ATEXIT_REGISTERED = True


def get_or_build(key: Tuple[object, ...],
                 spec: Sequence[Tuple[Tuple[int, ...], object]],
                 build: Optional[Callable[[List[np.ndarray]], None]] = None,
                 timeout_s: float = _READY_TIMEOUT_S,
                 ) -> Tuple[List[np.ndarray], str]:
    """Arrays for ``key``, shared across processes when the arena is enabled.

    ``spec`` is a sequence of ``(shape, dtype)`` pairs; the returned arrays
    start zero-filled.  ``build`` (optional) populates them in place exactly
    once machine-wide — attachers get the already-built content.  Returns
    ``(arrays, mode)`` with mode ``"built"``, ``"attached"``, ``"rehit"``
    (already mapped by this process) or ``"local"`` (arena disabled or
    unavailable; plain process-private arrays).
    """
    global _LOCALS
    layout, payload = _array_layout(spec)
    if not arena_enabled():
        arrays = _local_arrays(layout)
        if build is not None:
            build(arrays)
        with _LOCK:
            _LOCALS += 1
        return arrays, "local"

    name = segment_name(key)
    with _name_lock(name):
        return _get_or_build_segment(name, key, layout, payload, build,
                                     timeout_s)


def _get_or_build_segment(name: str, key: Tuple[object, ...], layout,
                          payload: int,
                          build: Optional[Callable[[List[np.ndarray]], None]],
                          timeout_s: float) -> Tuple[List[np.ndarray], str]:
    """:func:`get_or_build` on the arena, called under the name's lock."""
    global _BUILDS, _REHITS, _LOCALS
    with _LOCK:
        cached = _SEGMENTS.get(name)
        if cached is not None:
            _REHITS += 1
            return cached[1], "rehit"

    for attempt in range(3):
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=_HEADER_SIZE + payload)
        except FileExistsError:
            result = _attach(name, key, layout, payload, timeout_s)
            if result is not None:
                return result
            continue  # stale segment was cleaned; try to create again
        except OSError:
            break  # no shared memory available (full /dev/shm, sealed env)
        _unregister_from_tracker(shm)  # the segment must outlive this process
        _HEADER.pack_into(shm.buf, 0, _MAGIC, 0, 1, payload, time.time())
        views = _views(shm, layout)
        if build is not None:
            build(views)
        shm.buf[_READY_OFFSET] = 1  # publish: content is stored before this
        _remember(name, shm, views)
        _register_segment(name, key, payload)
        with _LOCK:
            _BUILDS += 1
        return views, "built"

    arrays = _local_arrays(layout)
    if build is not None:
        build(arrays)
    with _LOCK:
        _LOCALS += 1
    return arrays, "local"


def _attach(name: str, key: Tuple[object, ...], layout, payload: int,
            timeout_s: float) -> Optional[Tuple[List[np.ndarray], str]]:
    """Attach to an existing segment; ``None`` means it was stale (retry)."""
    global _ATTACHES, _STALE_CLEANED
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return None  # unlinked between our create attempt and now
    magic, = struct.unpack_from("<8s", shm.buf, 0)
    nbytes, = struct.unpack_from("<Q", shm.buf, 24)
    deadline = time.monotonic() + timeout_s
    while (magic == _MAGIC and nbytes == payload
           and shm.buf[_READY_OFFSET] != 1
           and time.monotonic() < deadline):
        time.sleep(0.005)
        magic, = struct.unpack_from("<8s", shm.buf, 0)
        nbytes, = struct.unpack_from("<Q", shm.buf, 24)
    if magic != _MAGIC or nbytes != payload \
            or shm.buf[_READY_OFFSET] != 1:
        # Wrong layout or a builder that died mid-build: remove the stale
        # segment so the caller can build a fresh one.
        try:
            shm.unlink()  # also unregisters from the resource tracker
        except OSError:  # pragma: no cover - already unlinked by a peer
            pass
        shm.close()
        with _LOCK:
            _STALE_CLEANED += 1
        return None
    _unregister_from_tracker(shm)  # kept: must outlive this process
    _bump_refcount(shm, +1)
    views = _views(shm, layout)
    _remember(name, shm, views)
    _register_segment(name, key, payload)
    with _LOCK:
        _ATTACHES += 1
    return views, "attached"


def segment_refcount(key: Tuple[object, ...]) -> Optional[int]:
    """Advisory user count of the segment for ``key`` (``None`` if absent)."""
    if not _SHM_AVAILABLE:
        return None
    name = segment_name(key)
    with _LOCK:
        cached = _SEGMENTS.get(name)
    if cached is not None:
        (count,) = struct.unpack_from("<q", cached[0].buf, _REFCOUNT_OFFSET)
        return count
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return None
    _unregister_from_tracker(shm)
    (count,) = struct.unpack_from("<q", shm.buf, _REFCOUNT_OFFSET)
    shm.close()
    return count


def detach_all() -> int:
    """Close this process's mappings (segments stay for other processes).

    Mainly for benchmarks: detaching and re-acquiring measures a true
    cross-process attach instead of the in-process rehit.  Mappings still
    referenced by live table views cannot be closed and are skipped.
    """
    return _release_all(decrement=False)


def _release_all(decrement: bool = True) -> int:
    """Drop every open mapping; with ``decrement``, also de-register as user.

    Runs from ``atexit``: the refcounted cleanup on process exit.  Segments
    are never unlinked here — the warm arena outliving its processes is what
    makes the second ``run --workers N`` (and every fleet worker after the
    first) attach instead of rebuild.
    """
    released = 0
    with _LOCK:
        names = list(_SEGMENTS)
        for name in names:
            shm, _views_alive = _SEGMENTS.pop(name)
            try:
                if decrement:
                    _bump_refcount(shm, -1)
                shm.close()
            except (BufferError, OSError):  # pragma: no cover
                pass  # live table views pin the mapping; the OS reaps at exit
            released += 1
    return released


def purge(force: bool = False) -> int:
    """Unlink idle segments (refcount <= 0) and prune the registry.

    ``force=True`` unlinks regardless of the advisory refcount (tests and
    explicit operator cleanup).  Returns the number of segments removed.
    """
    if not _SHM_AVAILABLE:
        return 0
    _release_all(decrement=False)
    removed = []
    for name in list(_read_registry()):
        try:
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            removed.append(name)  # already gone: prune the registry entry
            continue
        (count,) = struct.unpack_from("<q", shm.buf, _REFCOUNT_OFFSET)
        if force or count <= 0:
            try:
                shm.unlink()  # also unregisters from the resource tracker
            except OSError:  # pragma: no cover
                pass
            removed.append(name)
        else:
            _unregister_from_tracker(shm)  # kept: must outlive this process
        shm.close()

    def update(segments: Dict[str, dict]) -> None:
        for name in removed:
            segments.pop(name, None)

    if removed:
        _locked_registry_update(update)
    return len(removed)


def arena_stats() -> Dict[str, object]:
    """Counters for ``cache_stats()`` / the server ``status`` action.

    Build/attach counters are per-process; the registry section aggregates
    what exists machine-wide (every segment any process has built).
    """
    registry = _read_registry() if _SHM_AVAILABLE else {}
    with _LOCK:
        return {
            "enabled": arena_enabled(),
            "builds": _BUILDS,
            "attaches": _ATTACHES,
            "rehits": _REHITS,
            "local_fallbacks": _LOCALS,
            "stale_cleaned": _STALE_CLEANED,
            "open_segments": len(_SEGMENTS),
            "registry_segments": len(registry),
            "registry_bytes": sum(int(entry.get("nbytes", 0))
                                  for entry in registry.values()),
        }


def reset_arena_counters() -> None:
    """Zero the per-process counters (tests and benchmarks)."""
    global _BUILDS, _ATTACHES, _REHITS, _LOCALS, _STALE_CLEANED
    with _LOCK:
        _BUILDS = _ATTACHES = _REHITS = _LOCALS = _STALE_CLEANED = 0
