"""Persistent disk-backed store for characterisations and sweep records.

The in-process caches (the :class:`~repro.core.datapath.DatapathEnergyModel`
hardware cache) die with the interpreter, so every new session
re-synthesises and re-simulates the same operator configurations.
:class:`ResultStore` persists those records as one small JSON document per
key under a directory, so repeated explorations across sessions — and across
CI workflow steps, via ``actions/cache`` — skip the expensive work entirely.

Design constraints:

* **Corruption is a cache miss, never a crash.**  A truncated, garbled or
  concurrently-overwritten file simply fails validation and the caller
  recomputes; the store never propagates a decode error.
* **Writes are atomic and durable.**  Records are written to a
  same-directory temporary file, fsynced, and moved into place with
  ``os.replace``, so a reader can never see a partial document under the
  final name — and a machine crash right after the rename cannot leave an
  empty file behind it (the fleet queue leans on this: a SIGKILLed
  worker's store must contain only complete records).  Set
  ``REPRO_STORE_FSYNC=0`` to trade that durability back for speed on
  throwaway stores.
* **Keys are structural.**  A key is any JSON-able structure (dicts, lists,
  numbers, strings); NumPy arrays and dataclasses are canonicalised by
  content (:func:`canonical_key`), so e.g. a workload configuration holding
  a stimulus image fingerprints the pixels, not the object identity.  The
  stored envelope embeds the canonical key and is checked on load, making
  hash collisions harmless.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..faults.inject import maybe_fault

#: Envelope schema version; bump when the on-disk layout changes.  Old
#: records then fail validation and are recomputed (never misread).
STORE_VERSION = 1

#: Subdirectory :meth:`ResultStore.scrub` moves corrupt records into.
#: Everything under it is invisible to loads, walks and absorbs.
QUARANTINE_DIR = "quarantine"

StoreLike = Union["ResultStore", str, Path, None]


def canonical_key(value: object) -> object:
    """Canonical JSON-able form of an arbitrary key structure.

    Dictionaries are sorted, tuples become lists, NumPy scalars unwrap and
    NumPy arrays are replaced by a content fingerprint (shape, dtype and a
    SHA-1 of the bytes).  Dataclass instances (e.g. a K-means point cloud)
    canonicalise field by field.  Anything else falls back to ``repr`` —
    stable for the value types used in workload configurations.
    """
    import numpy as np

    if isinstance(value, dict):
        return {str(k): canonical_key(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical_key(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            "__ndarray__": hashlib.sha1(data.tobytes()).hexdigest(),
            "shape": list(data.shape),
            "dtype": str(data.dtype),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {f.name: canonical_key(getattr(value, f.name))
                       for f in dataclasses.fields(value)},
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"__repr__": repr(value)}


def key_digest(kind: str, key: object) -> str:
    """Stable hex digest naming the record file of ``key`` within ``kind``."""
    return _canonical_digest(kind, canonical_key(key))


def _canonical_digest(kind: str, canonical: object) -> str:
    text = json.dumps({"kind": kind, "key": canonical},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


class ResultStore:
    """Directory of JSON records keyed by structural content.

    One record per ``(kind, key)`` pair, laid out as
    ``<directory>/<kind>/<digest>.json``.  ``kind`` partitions the namespace
    (``"hardware"`` for operator characterisations, ``"sweep"`` for workload
    sweep records) so a cache of one kind can be inspected or purged
    without touching the other.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        # Writes are atomic (os.replace) and corruption reads as a miss, so
        # cross-process concurrency was always safe; this lock additionally
        # makes the *in-process* read-modify paths (absorb's check-then-copy,
        # the counters) coherent when many server threads share one store.
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._saves = 0
        self._absorbed = 0
        self._conflicts = 0

    @classmethod
    def of(cls, store: StoreLike) -> Optional["ResultStore"]:
        """Coerce a store, a directory path, or ``None``."""
        if store is None or isinstance(store, ResultStore):
            return store
        return cls(store)

    # ------------------------------------------------------------------ #
    # Record access
    # ------------------------------------------------------------------ #
    def path_for(self, kind: str, key: object) -> Path:
        return self._path(kind, canonical_key(key))

    def _path(self, kind: str, canonical: object) -> Path:
        return self.directory / kind / f"{_canonical_digest(kind, canonical)}.json"

    def load(self, kind: str, key: object) -> Optional[Dict[str, object]]:
        """Stored payload of ``(kind, key)``, or ``None`` on any miss.

        A missing file, malformed JSON, a wrong envelope version and a key
        mismatch (hash collision or hand-edited file) all read as a clean
        cache miss.
        """
        payload = self._load_validated(kind, key)
        with self._lock:
            if payload is None:
                self._misses += 1
            else:
                self._hits += 1
        return payload

    def _load_validated(self, kind: str, key: object
                        ) -> Optional[Dict[str, object]]:
        canonical = canonical_key(key)
        try:
            document = json.loads(self._path(kind, canonical).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        if document.get("store_version") != STORE_VERSION:
            return None
        if document.get("kind") != kind:
            return None
        if document.get("key") != canonical:
            return None
        payload = document.get("payload")
        return payload if isinstance(payload, dict) else None

    def save(self, kind: str, key: object,
             payload: Dict[str, object]) -> Optional[Path]:
        """Persist ``payload`` under ``(kind, key)``; atomic via rename.

        Returns the record path, or ``None`` when the payload cannot be
        serialised or the filesystem refuses the write — persistence is an
        optimisation, never a reason to fail the computation that produced
        the payload.
        """
        from .results import _jsonify

        canonical = canonical_key(key)
        path = self._path(kind, canonical)
        document = {
            "store_version": STORE_VERSION,
            "kind": kind,
            "key": canonical,
            "payload": payload,
        }
        try:
            text = json.dumps(document, default=_jsonify)
        except TypeError:
            return None
        temporary = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        fault = maybe_fault("store.save")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if fault is not None and fault.kind == "torn_write":
                # Injected: a crash mid-write on a non-atomic filesystem
                # leaves a prefix of the document under the final name.
                # load() reads it as a miss; `store scrub` quarantines it.
                keep = float(fault.params.get("keep_fraction", 0.5))
                path.write_text(text[:max(0, int(len(text) * keep))])
                return None
            if fault is not None and fault.kind == "fsync_error":
                raise OSError("injected fault: fsync failed")
            _write_durable(temporary, text)
            os.replace(temporary, path)
        except OSError:
            temporary.unlink(missing_ok=True)
            return None
        with self._lock:
            self._saves += 1
        return path

    def contains(self, kind: str, key: object) -> bool:
        """Whether a *valid* record exists for ``(kind, key)``."""
        return self.load(kind, key) is not None

    def absorb(self, other: StoreLike) -> int:
        """Fold another store's records into this one; returns the count.

        Record files are content-addressed (the filename is the digest of
        the structural key), so absorbing is a plain file copy: records
        already present here are left untouched, new ones are copied
        atomically (fsync + rename, like :meth:`save`).  This is the
        fan-in step of a sharded or fleet run — every shard's store folds
        into one, and a later resumed or unsharded run sees the union of
        everything any shard computed.  Absorbing the same source twice —
        or two overlapping sources, concurrently, from several threads —
        is idempotent: a record that already exists here is never
        rewritten, so the first copy wins and re-absorption counts zero.
        Unreadable source files are skipped (corruption is a miss, never a
        crash).

        Counters (see :meth:`stats`): ``absorbed`` accumulates records
        actually copied in; ``conflicts`` counts records skipped because
        this store already held a *byte-different* record under the same
        digest — the signature of a reclaimed fleet task whose two
        attempts recorded non-identical payloads (same structural key, so
        either copy is valid; byte-identical overlaps are silent).
        """
        source = ResultStore.of(other)
        if source is None or not source.directory.is_dir():
            return 0
        absorbed = 0
        conflicts = 0
        with self._lock:
            for record in source._record_files():
                relative = record.relative_to(source.directory)
                target = self.directory / relative
                try:
                    text = record.read_text()
                except OSError:
                    continue
                fault = maybe_fault("store.absorb")
                if fault is not None and fault.kind == "corrupt":
                    # Injected: the record is damaged in flight.  The
                    # copy lands corrupt, reads as a miss (recomputed on
                    # demand) and `store scrub` quarantines it.
                    drop = int(fault.params.get("drop_bytes", 16))
                    text = text[:-drop] if drop < len(text) else ""
                if target.exists():
                    try:
                        if target.read_text() != text:
                            conflicts += 1
                    except OSError:
                        pass
                    continue
                temporary = target.with_suffix(
                    f".{os.getpid()}.{threading.get_ident()}.tmp")
                try:
                    target.parent.mkdir(parents=True, exist_ok=True)
                    _write_durable(temporary, text)
                    os.replace(temporary, target)
                except OSError:
                    temporary.unlink(missing_ok=True)
                    continue
                absorbed += 1
            self._absorbed += absorbed
            self._conflicts += conflicts
        return absorbed

    # ------------------------------------------------------------------ #
    # Scrub
    # ------------------------------------------------------------------ #
    def _record_files(self, kind: Optional[str] = None) -> Iterator[Path]:
        """Record files on disk, in sorted order, quarantine excluded."""
        base = self.directory if kind is None else self.directory / kind
        if not base.is_dir():
            return
        for record in sorted(base.rglob("*.json")):
            relative = record.relative_to(self.directory)
            if relative.parts and relative.parts[0] == QUARANTINE_DIR:
                continue
            yield record

    def _validate_record(self, kind: str, path: Path) -> Optional[str]:
        """Why the record at ``path`` is invalid, or ``None`` when sound.

        The checks mirror :meth:`_load_validated` plus one it cannot do
        without the lookup key: the filename must equal the digest of the
        *embedded* canonical key, so a record renamed, truncated or
        hand-edited under the wrong name is caught even though its body
        parses.
        """
        try:
            document = json.loads(path.read_text())
        except OSError:
            return "unreadable"
        except ValueError:
            return "invalid_json"
        if not isinstance(document, dict):
            return "not_an_object"
        if document.get("store_version") != STORE_VERSION:
            return "version_mismatch"
        if document.get("kind") != kind:
            return "kind_mismatch"
        if not isinstance(document.get("payload"), dict):
            return "bad_payload"
        if key_digest(kind, document.get("key")) != path.stem:
            return "digest_mismatch"
        return None

    def scrub(self, quarantine: bool = True) -> Dict[str, object]:
        """Detect corrupt/truncated records; quarantine and report them.

        Corruption was always a clean cache *miss* — this closes the
        loop by finding those misses proactively: every record file is
        validated, and invalid ones are moved (atomic ``os.replace``,
        directory structure preserved) into ``quarantine/`` where no
        load, walk or absorb will ever touch them again — so a torn
        write can never be re-absorbed into a healthy store, and the
        forensic bytes survive for inspection.  ``quarantine=False`` is
        a dry run: count and classify, move nothing.  Returns the
        ``repro store scrub`` JSON document.
        """
        scanned = valid = moved = 0
        reasons: Dict[str, int] = {}
        with self._lock:
            for record in list(self._record_files()):
                relative = record.relative_to(self.directory)
                kind = relative.parts[0] if len(relative.parts) > 1 else ""
                scanned += 1
                reason = self._validate_record(kind, record)
                if reason is None:
                    valid += 1
                    continue
                reasons[reason] = reasons.get(reason, 0) + 1
                if not quarantine:
                    continue
                target = self.directory / QUARANTINE_DIR / relative
                try:
                    target.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(record, target)
                    moved += 1
                except OSError:
                    continue
        return {
            "directory": str(self.directory),
            "scanned": scanned,
            "valid": valid,
            "corrupt": sum(reasons.values()),
            "quarantined": moved,
            "reasons": dict(sorted(reasons.items())),
            "quarantine_dir": str(self.directory / QUARANTINE_DIR),
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def entry_count(self, kind: Optional[str] = None) -> int:
        """Number of record files on disk (validity not checked)."""
        return sum(1 for _ in self._record_files(kind))

    def stats(self) -> Dict[str, object]:
        """On-disk footprint plus this instance's in-process counters.

        ``records`` / ``bytes`` walk the directory (validity not checked);
        ``hits`` / ``misses`` / ``saves`` count this instance's own
        :meth:`load` and :meth:`save` outcomes — the numbers the evaluation
        server's ``status`` action reports — and ``absorbed`` /
        ``conflicts`` its :meth:`absorb` outcomes (the numbers the fleet
        harvest reports).  Counters are per instance, not per directory:
        two stores opened on the same path count separately.
        ``quarantined`` counts the record files parked under
        ``quarantine/`` by :meth:`scrub`; they are excluded from
        ``records`` / ``bytes`` like from every other walk.
        """
        records = 0
        size = 0
        quarantined = 0
        for record in self._record_files():
            try:
                size += record.stat().st_size
            except OSError:
                continue
            records += 1
        quarantine = self.directory / QUARANTINE_DIR
        if quarantine.is_dir():
            quarantined = sum(1 for _ in quarantine.rglob("*.json"))
        with self._lock:
            return {
                "directory": str(self.directory),
                "records": records,
                "bytes": size,
                "quarantined": quarantined,
                "hits": self._hits,
                "misses": self._misses,
                "saves": self._saves,
                "absorbed": self._absorbed,
                "conflicts": self._conflicts,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultStore {self.directory}>"


def _write_durable(path: Path, text: str) -> None:
    """Write ``text`` and fsync it, so a post-rename crash keeps the bytes.

    ``REPRO_STORE_FSYNC=0`` skips the sync for throwaway stores (e.g. the
    tier-1 test suite's tmp dirs, where durability only costs time).
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if os.environ.get("REPRO_STORE_FSYNC", "1") not in ("", "0"):
            handle.flush()
            os.fsync(handle.fileno())
