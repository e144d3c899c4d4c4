"""Instrumented fixed-point radix-2 FFT (the paper's first application).

The transform operates on 16-bit two's-complement data (Q1.15) and executes
every addition/subtraction and every twiddle multiplication with the
operators and backend of the :class:`~repro.core.context.ApproxContext`
supplied by the caller, charging that context's counter along the way so the
datapath energy model (Equation 1) can charge the operations.  Per-stage
scaling by 1/2 keeps the butterflies overflow-free, which is the classical
fixed-point FFT arrangement.

Execution is *stage-fused* and *row-batched*: :meth:`FixedPointFFT.forward`
takes one frame or a ``(rows, size)`` stack of frames, and each of the
``log2(size)`` stages issues its operator calls over every butterfly of every
row at once, with the stage's twiddle column broadcast over the block.  Rows
may run different datapaths (``row_contexts``): a stage then groups its rows
by operator model — multiplications by multiplier, additions and
subtractions by adder — and makes one backend call per group, so a stage
costs 4 calls per distinct multiplier plus 6 per distinct adder.  A single
datapath is the one-group case of the same loop.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.backends import ExecutionBackend
from ..core.context import ApproxContext
from ..core.datapath import OperationCounts
from ..operators.base import Operator

#: One row's datapath: a context for every stage, or one context per stage.
RowDatapath = Union[ApproxContext, Sequence[ApproxContext]]
#: Operator, backend and the row indices of one call group.
_RowGroup = Tuple[Operator, ExecutionBackend, np.ndarray]
#: Per stage: multiplier groups, adder groups, and each context's row count.
_StagePlan = Tuple[List[_RowGroup], List[_RowGroup],
                   "Counter[ApproxContext]"]


@dataclass(frozen=True)
class FftResult:
    """Fixed-point FFT output with the operation inventory of the run."""

    real: np.ndarray
    imag: np.ndarray
    counts: OperationCounts

    def as_complex(self, frac_bits: int = 15) -> np.ndarray:
        """Reassemble the output into complex floating-point values."""
        scale = 2.0 ** (-frac_bits)
        return (self.real.astype(np.float64) + 1j * self.imag.astype(np.float64)) * scale


class FixedPointFFT:
    """Radix-2 decimation-in-time FFT on 16-bit fixed-point data.

    Parameters
    ----------
    size:
        Transform length (a power of two; the paper uses 32).
    data_width:
        Word length of the datapath (16 bits in every experiment).
    context:
        The :class:`ApproxContext` executing the additions and twiddle
        multiplications.  ``None`` selects the exact fixed-point baseline
        (accurate adder, fixed-width truncated multiplier, direct backend).
        Heterogeneous per-stage datapaths go through
        :meth:`forward`'s ``row_contexts``.
    """

    def __init__(self, size: int = 32, data_width: int = 16,
                 context: Optional[ApproxContext] = None) -> None:
        if size < 2 or size & (size - 1) != 0:
            raise ValueError("FFT size must be a power of two >= 2")
        if context is None:
            context = ApproxContext(data_width=data_width)
        elif context.data_width != data_width:
            raise ValueError(
                f"context word length ({context.data_width} bits) does not "
                f"match the requested datapath ({data_width} bits)")
        self.size = size
        self.context = context
        self.data_width = context.data_width
        self.frac_bits = context.frac_bits
        self.stages = int(math.log2(size))
        self._twiddles = self._quantized_twiddles()

    def _datapath(self, contexts: Union[ApproxContext, Sequence[ApproxContext]]
                  ) -> List[ApproxContext]:
        """One context per stage, checked against the transform's width."""
        if isinstance(contexts, ApproxContext):
            contexts = [contexts] * self.stages
        contexts = list(contexts)
        if len(contexts) != self.stages:
            raise ValueError(
                f"expected {self.stages} stage contexts for a size-{self.size} "
                f"transform, got {len(contexts)}")
        for stage, stage_ctx in enumerate(contexts):
            if stage_ctx.data_width != self.data_width:
                raise ValueError(
                    f"stage {stage} context word length "
                    f"({stage_ctx.data_width} bits) does not match the "
                    f"datapath ({self.data_width} bits)")
        return contexts

    @property
    def adder(self):
        """Adder model executing the butterfly additions."""
        return self.context.adder

    @property
    def multiplier(self):
        """Multiplier model executing the twiddle multiplications."""
        return self.context.multiplier

    # ------------------------------------------------------------------ #
    # Twiddle factors
    # ------------------------------------------------------------------ #
    def _quantized_twiddles(self) -> Tuple[np.ndarray, np.ndarray]:
        """Twiddle factors W_N^k quantised to the data word length."""
        k = np.arange(self.size // 2)
        angle = -2.0 * np.pi * k / self.size
        scale = (1 << self.frac_bits) - 1
        real = np.round(np.cos(angle) * scale).astype(np.int64)
        imag = np.round(np.sin(angle) * scale).astype(np.int64)
        return real, imag

    # ------------------------------------------------------------------ #
    # Instrumented arithmetic
    # ------------------------------------------------------------------ #
    def _product(self, groups: List[_RowGroup], a: np.ndarray,
                 twiddle: np.ndarray) -> np.ndarray:
        """Q1.15 x Q1.15 product re-aligned to Q1.15 (shift by frac_bits)."""
        return self.context.wrap(
            self._grouped(groups, a, twiddle) >> self.frac_bits)

    @staticmethod
    def _halve(value: np.ndarray) -> np.ndarray:
        """Per-stage scaling by 1/2 (arithmetic shift, free in hardware)."""
        return np.asarray(value, dtype=np.int64) >> 1

    @staticmethod
    def _grouped(groups: List[_RowGroup], a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
        """``a`` op ``b`` with one backend call per row group.

        ``a`` is a ``(rows, ...)`` block; ``b`` is either a block of the same
        shape (indexed with the rows) or a twiddle column broadcast to all.
        """
        if len(groups) == 1:
            operator, backend, _ = groups[0]
            return np.asarray(backend.execute(operator, a, b), dtype=np.int64)
        row_operand = b.ndim == a.ndim
        out = np.empty(a.shape, dtype=np.int64)
        for operator, backend, rows in groups:
            out[rows] = backend.execute(operator, a[rows],
                                        b[rows] if row_operand else b)
        return out

    # ------------------------------------------------------------------ #
    # Transform
    # ------------------------------------------------------------------ #
    @staticmethod
    def _bit_reverse_permutation(size: int) -> np.ndarray:
        bits = int(math.log2(size))
        indices = np.arange(size)
        reversed_indices = np.zeros(size, dtype=np.int64)
        for bit in range(bits):
            reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
        return reversed_indices

    def _stage_plan(self, rows: int,
                    row_contexts: Optional[Sequence[RowDatapath]]
                    ) -> List[_StagePlan]:
        """Per stage: multiplier groups, adder groups and per-context rows.

        Operators group by model (type and name — the identity sweep store
        keys use) together with the backend instance that executes them.
        """
        if row_contexts is None:
            table = [[self.context] * self.stages] * rows
        else:
            if len(row_contexts) != rows:
                raise ValueError(f"expected {rows} row contexts, one per "
                                 f"input row, got {len(row_contexts)}")
            table = [self._datapath(entry) for entry in row_contexts]
        plan: List[_StagePlan] = []
        for stage in range(self.stages):
            column = [contexts[stage] for contexts in table]
            groups = []
            for role in ("multiplier", "adder"):
                members: Dict[tuple, List[int]] = {}
                for row, ctx in enumerate(column):
                    operator = getattr(ctx, role)
                    key = (type(operator), operator.name, id(ctx.backend))
                    members.setdefault(key, []).append(row)
                groups.append([(getattr(column[group[0]], role),
                                column[group[0]].backend,
                                np.asarray(group, dtype=np.intp))
                               for group in members.values()])
            plan.append((groups[0], groups[1], Counter(column)))
        return plan

    def forward(self, real: np.ndarray, imag: Optional[np.ndarray] = None,
                row_contexts: Optional[Sequence[RowDatapath]] = None
                ) -> FftResult:
        """Run the transform on Q1.(data_width-1) integer codes.

        ``real`` is one frame of ``size`` samples or a ``(rows, size)``
        stack of frames; ``imag``, when given, must have the same shape.
        The result's arrays have the input's shape.

        ``row_contexts`` gives each row its own datapath: one entry per
        row, either a context for every stage or a per-stage sequence of
        contexts (all on the transform's word length).  Without it every
        row runs this transform's ``context``.
        Each stage groups its rows by operator model: multiplications by
        multiplier, additions and subtractions by adder, each together
        with its backend.  It makes one backend call per group and
        operation, so a stage costs 4 calls per distinct multiplier plus 6
        per distinct adder.  Every context is charged for the operations of
        its own rows, and the result's counts sum the charges over the
        distinct contexts: a stack costs exactly the counts of its frames
        run one at a time.
        """
        x_re = np.asarray(real, dtype=np.int64)
        if x_re.ndim not in (1, 2) or x_re.shape[-1] != self.size:
            raise ValueError(
                f"expected {self.size} samples or a (rows, {self.size}) "
                f"stack, got shape {x_re.shape}")
        if imag is None:
            x_im = np.zeros_like(x_re)
        else:
            x_im = np.asarray(imag, dtype=np.int64)
            if x_im.shape != x_re.shape:
                raise ValueError(
                    f"imag has shape {x_im.shape}, real has {x_re.shape}; "
                    f"they must match")
        single = x_re.ndim == 1
        order = self._bit_reverse_permutation(self.size)
        # Fancy indexing copies, so the caller's arrays are never written.
        x_re = x_re.reshape(-1, self.size)[:, order]
        x_im = x_im.reshape(-1, self.size)[:, order]
        plan = self._stage_plan(x_re.shape[0], row_contexts)
        starting = {ctx: ctx.counts for _, _, charged in plan
                    for ctx in charged}

        tw_re, tw_im = self._twiddles
        butterflies = self.size // 2
        # Wrapping and negation depend only on the word length, which every
        # row's contexts share with this transform.
        negate = self.context.negate
        for stage, (multipliers, adders, charged) in enumerate(plan):
            half = 1 << stage
            step = self.size // (2 * half)
            # Every butterfly of the stage in one batched pass over a
            # (rows, half, groups) block: axis 1 is the twiddle offset,
            # axis 2 the butterfly groups sharing that twiddle, and the
            # twiddle column broadcasts over the rows and the groups.
            offsets = np.arange(half, dtype=np.int64)
            starts = np.arange(0, self.size, 2 * half, dtype=np.int64)
            tops = offsets[:, None] + starts[None, :]
            bottoms = tops + half
            k = offsets * step
            w_re = tw_re[k][:, None]
            w_im = tw_im[k][:, None]

            # Pre-scale both branches to keep the butterfly in range.
            a_re, a_im = self._halve(x_re[:, tops]), self._halve(x_im[:, tops])
            b_re = self._halve(x_re[:, bottoms])
            b_im = self._halve(x_im[:, bottoms])

            # Complex twiddle multiplication (4 real mult, 2 real add).
            prod_re = self._grouped(
                adders, self._product(multipliers, b_re, w_re),
                negate(self._product(multipliers, b_im, w_im)))
            prod_im = self._grouped(
                adders, self._product(multipliers, b_re, w_im),
                self._product(multipliers, b_im, w_re))

            # Butterfly combine (4 real additions).
            x_re[:, tops] = self._grouped(adders, a_re, prod_re)
            x_im[:, tops] = self._grouped(adders, a_im, prod_im)
            x_re[:, bottoms] = self._grouped(adders, a_re, negate(prod_re))
            x_im[:, bottoms] = self._grouped(adders, a_im, negate(prod_im))
            for ctx, count in charged.items():
                ctx.counter.count_multiplications(4 * butterflies * count)
                ctx.counter.count_additions(6 * butterflies * count)

        total = OperationCounts()
        for ctx, start in starting.items():
            total = total + ctx.counts_since(start)
        if single:
            x_re, x_im = x_re[0], x_im[0]
        return FftResult(real=x_re, imag=x_im, counts=total)

    # ------------------------------------------------------------------ #
    # References
    # ------------------------------------------------------------------ #
    def reference_spectrum(self, real: np.ndarray,
                           imag: Optional[np.ndarray] = None) -> np.ndarray:
        """Double-precision FFT with the same 1/N scaling as the datapath."""
        scale = 2.0 ** (-self.frac_bits)
        x = np.asarray(real, dtype=np.float64) * scale
        if imag is not None:
            x = x + 1j * np.asarray(imag, dtype=np.float64) * scale
        return np.fft.fft(x) / self.size

    def operation_counts(self) -> OperationCounts:
        """Operation inventory of one transform (independent of the data)."""
        butterflies = self.stages * self.size // 2
        return OperationCounts(additions=6 * butterflies,
                               multiplications=4 * butterflies)

    def stage_operation_counts(self) -> List[OperationCounts]:
        """Per-stage operation inventory of one transform.

        Every radix-2 stage executes ``size / 2`` butterflies (6 additions
        and 4 twiddle multiplications each), so the stages split the total
        of :meth:`operation_counts` evenly — the accounting a heterogeneous
        per-stage datapath charges stage by stage.
        """
        butterflies = self.size // 2
        return [OperationCounts(additions=6 * butterflies,
                                multiplications=4 * butterflies)
                for _ in range(self.stages)]


def random_q15_signal(size: int, amplitude: float = 0.5,
                      seed: int = 7, frac_bits: int = 15) -> np.ndarray:
    """Uniform random test signal as Q1.(frac_bits) integer codes."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-amplitude, amplitude, size=size)
    return np.round(values * (1 << frac_bits)).astype(np.int64)
