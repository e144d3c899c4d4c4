"""Optional numba kernels for the ``"compiled"`` execution tier.

Every operator evaluates its own closed form (``Operator.aligned``): a handful
of whole-word shift/mask passes per call, bit-identical to the bit-serial
structural models the test-suite keeps as its oracle.  The ``"compiled"``
tier uses those closed forms too, except where numba is importable: the two
approximate multipliers whose closed forms still loop over partial-product
rows (AAM, ABM) then get an ``@njit``-compiled element-wise variant — one
fused pass, no temporaries.

A numba kernel is only trusted after a runtime probe against
``operator.aligned`` on random stimulus: a silently miscompiled kernel
downgrades to the closed form instead of corrupting a study.
"""
from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from ..operators.base import Operator
from ..operators.multipliers.aam import AAMMultiplier
from ..operators.multipliers.abm import ABMMultiplier

try:  # pragma: no cover - exercised only on the numba-equipped CI leg
    from numba import njit
    NUMBA_AVAILABLE = True
except ImportError:
    njit = None
    NUMBA_AVAILABLE = False

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Operator classes with a numba variant (when numba is importable).
NUMBA_FAMILIES = (AAMMultiplier, ABMMultiplier)

_PROBE_COUNT = 512
_PROBE_SEED = 20170322

_LOCK = threading.Lock()
#: Operator names whose numba kernel passed / failed the runtime probe.
_NUMBA_VERIFIED: set = set()
_NUMBA_REJECTED: set = set()


# --------------------------------------------------------------------------- #
# numba kernels (present only when numba is importable)
# --------------------------------------------------------------------------- #
if NUMBA_AVAILABLE:  # pragma: no cover - exercised on the numba CI leg

    @njit(cache=True)
    def _aam_numba(a_flat, b_flat, n, compensation, out):
        mask_n = (1 << n) - 1
        half = 1 << (n - 1)
        for idx in range(a_flat.size):
            a = a_flat[idx]
            b = b_flat[idx]
            ua = a & mask_n
            ub = b & mask_n
            dropped = (ua & 1) * ((ub ^ half) - half)
            for i in range(1, n - 1):
                if (ua >> i) & 1:
                    dropped += (ub & ((1 << (n - i)) - 1)) << i
            if ((ua >> (n - 1)) & 1) and (ub & 1):
                dropped -= 1 << (n - 1)
            kept = a * b - dropped
            if compensation:
                diagonal = 0
                for i in range(n):
                    diagonal += ((ua >> i) & 1) & ((ub >> (n - 1 - i)) & 1)
                kept += ((diagonal + 1) >> 1) << n
            out[idx] = ((((kept >> n) & mask_n) ^ half) - half) << n

    @njit(cache=True)
    def _abm_numba(a_flat, b_flat, n, compensation, window, out):
        # window < 0 encodes the exact (unwindowed) final conversion.
        mask_n = (1 << n) - 1
        half = 1 << (n - 1)
        digits = (n + 1) // 2
        for idx in range(a_flat.size):
            a = a_flat[idx]
            b = b_flat[idx]
            ub = b & mask_n
            sign = 1 if b < 0 else 0
            partial = 0
            last = 0
            comp_bits = 0
            for k in range(digits):
                low = 2 * k - 1
                b_low = (ub >> low) & 1 if low >= 0 else 0
                b_mid = (ub >> (2 * k)) & 1 if 2 * k < n else sign
                b_high = (ub >> (2 * k + 1)) & 1 if 2 * k + 1 < n else sign
                row = ((-2 * b_high + b_mid + b_low) * a) << (2 * k)
                comp_bits += (row >> (n - 1)) & 1
                if k == digits - 1 and digits > 1:
                    last = row >> n
                else:
                    partial += row >> n
            if compensation:
                partial += (comp_bits + 1) >> 1
            if window < 0:
                combined = (partial + last) & mask_n
            else:
                ux = partial & mask_n
                uy = last & mask_n
                low_width = window + 1 if window + 1 < n else n
                combined = (ux + uy) & ((1 << low_width) - 1)
                for i in range(window + 1, n):
                    shift = i - window
                    combined |= \
                        ((((ux >> shift) + (uy >> shift)) >> window) & 1) << i
            out[idx] = (((combined & mask_n) ^ half) - half) << n

    def _aam_numba_kernel(operator: AAMMultiplier) -> Kernel:
        n = operator.input_width
        compensation = operator.compensation

        def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            a_arr, b_arr = np.broadcast_arrays(
                np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            out = np.empty(a_arr.size, dtype=np.int64)
            _aam_numba(np.ascontiguousarray(a_arr).ravel(),
                       np.ascontiguousarray(b_arr).ravel(),
                       n, compensation, out)
            return out.reshape(a_arr.shape)

        return kernel

    def _abm_numba_kernel(operator: ABMMultiplier) -> Kernel:
        n = operator.input_width
        compensation = operator.compensation
        window = -1 if operator.carry_window is None else operator.carry_window

        def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            a_arr, b_arr = np.broadcast_arrays(
                np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            out = np.empty(a_arr.size, dtype=np.int64)
            _abm_numba(np.ascontiguousarray(a_arr).ravel(),
                       np.ascontiguousarray(b_arr).ravel(),
                       n, compensation, window, out)
            return out.reshape(a_arr.shape)

        return kernel

    _NUMBA_FACTORIES = [
        (AAMMultiplier, _aam_numba_kernel),
        (ABMMultiplier, _abm_numba_kernel),
    ]
else:
    _NUMBA_FACTORIES = []


def _numba_probe_passes(operator: Operator, candidate: Kernel) -> bool:
    """One-time runtime check of a numba kernel against the closed form."""
    a, b = operator.random_inputs(_PROBE_COUNT, rng=_PROBE_SEED)
    try:
        candidate_out = candidate(a, b)
    except Exception:
        return False
    return bool(np.array_equal(candidate_out, operator.aligned(a, b)))


def get_kernel(operator: Operator) -> Optional[Kernel]:
    """Verified numba kernel for ``operator``, or ``None``.

    ``None`` (numba missing, no variant for the family, or a failed probe)
    means the operator's own closed form, ``operator.aligned``, is the
    fastest evaluation.  The probe verdict is cached per operator name.
    """
    factory = next((factory for klass, factory in _NUMBA_FACTORIES
                    if isinstance(operator, klass)), None)
    if factory is None:
        return None
    candidate = factory(operator)
    name = operator.name
    with _LOCK:
        if name in _NUMBA_REJECTED:
            return None
        verified = name in _NUMBA_VERIFIED
    if not verified:
        passed = _numba_probe_passes(operator, candidate)
        with _LOCK:
            (_NUMBA_VERIFIED if passed else _NUMBA_REJECTED).add(name)
        if not passed:  # pragma: no cover - defensive: miscompiled kernel
            return None
    return candidate


def kernel_families() -> List[str]:
    """Operator classes with a numba variant (for availability listings)."""
    return sorted(klass.__name__ for klass in NUMBA_FAMILIES)


def compiled_stats() -> Dict[str, object]:
    """Availability summary for ``cache_stats()`` and the server status."""
    with _LOCK:
        return {
            "numba": NUMBA_AVAILABLE,
            "engine": "numba" if NUMBA_AVAILABLE else "vector",
            "kernel_families": kernel_families(),
            "numba_verified": sorted(_NUMBA_VERIFIED),
            "numba_rejected": sorted(_NUMBA_REJECTED),
        }
