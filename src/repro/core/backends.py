"""Pluggable execution backends: how operator calls are actually evaluated.

Application kernels never call :meth:`Operator.aligned` directly — they go
through an :class:`~repro.core.context.ApproxContext`, which hands every
addition and multiplication to an :class:`ExecutionBackend`.  One backend
ships with the framework:

* ``"direct"`` — :class:`DirectBackend`: each call evaluates the operator's
  closed-form model (``Operator.aligned``) in one broadcast pass.  The
  bit-serial structural models those closed forms were derived from are the
  test-suite's oracle (``tests/oracles.py``).

The registry stays a plug-in seam, mirroring
``repro/workloads/registry.py``::

    from repro.core.backends import parse_backend, register_backend

    backend = parse_backend("direct")
    register_backend("gpu", GpuBackend)             # downstream plug-in
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Union

import numpy as np

from ..operators.base import Operator
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
                b: np.ndarray) -> np.ndarray:
        """Aligned result of ``operator`` over ``a`` and ``b`` (broadcast)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} {self.name}>"


class DirectBackend(ExecutionBackend):
    """Reference backend: every call is one broadcast pass of the operator's
    closed-form model."""

    name = "direct"

    def execute(self, operator: Operator, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
        return np.asarray(operator.aligned(a, b), dtype=np.int64)


# --------------------------------------------------------------------------- #
# Benchmark-harness stubs
# --------------------------------------------------------------------------- #
def clear_table_cache(purge_arena: bool = True) -> None:
    """No-op, kept because the repository benchmark (``perfbench/``) calls
    ``clear_table_cache(purge_arena=True)`` before each cold iteration.

    No backend keeps lookup tables any more, so there is nothing to clear.
    Drop this stub together with the benchmark's calls.
    """


def cache_stats() -> Dict[str, object]:
    """All-zero table-cache counters, kept because the repository benchmark
    (``perfbench/``) reads ``hits``, ``misses`` and ``arena.builds`` /
    ``arena.attaches`` from it and from the server ``status`` field
    ``table_cache``.

    No backend keeps lookup tables any more, so every counter is 0.  Drop
    this stub together with the benchmark's reads.
    """
    return {"hits": 0, "misses": 0, "arena": {"builds": 0, "attaches": 0}}


def describe_backends() -> List[Dict[str, object]]:
    """Availability listing for ``repro list`` and the server ``experiments``:
    one entry per registered backend."""
    descriptions = {
        "direct": "closed-form operator models, one broadcast pass per call "
                  "(reference; bit-serial models are the test oracle)",
    }
    return [{"name": name, "available": True,
             "description": descriptions.get(name, "plug-in backend")}
            for name in registered_backends()]


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
    follow the operator/workload notation, e.g. ``"direct"`` or a plug-in's
    ``"name(param=value)"``.
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
