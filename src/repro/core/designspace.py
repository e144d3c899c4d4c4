"""Unified operator × word-length design-space engine.

The paper's headline result is a *joint* comparison: functionally
approximate operators versus carefully bit-width-sized exact datapaths on
one quality-versus-energy frontier.  This module is the engine behind that
comparison — it unifies the two exploration axes that used to live apart
(the operator sweeps of :mod:`repro.core.exploration` and the word-length
sizing coupling of :mod:`repro.core.datapath`) behind one abstraction:

* A :class:`DesignPoint` pairs a complete operator configuration (adder +
  multiplier) with the fixed-point word length it emits into the datapath.
  Sized points are built from :class:`~repro.fxp.format.FxpFormat` word
  lengths and carry the paper's sizing-propagation coupling — the partner
  operator is the *minimal exact* one the emitted data width allows
  (:func:`~repro.core.datapath.minimal_multiplier_for` /
  :func:`~repro.core.datapath.minimal_adder_for`), which is exactly where
  the "hidden cost" of functional approximation appears: an approximate
  adder still emits full-width data and leaves the multiplier at full cost.
* A :class:`DesignSpace` is an ordered, de-duplicated collection of design
  points, composed from axis generators (``+`` concatenates spaces) and
  filtered by axis label.

The :class:`~repro.core.study.Study` pipeline consumes a design space via
``Study.design_space(space)`` and extracts quality-versus-cost frontiers
via ``Study.pareto(quality=..., cost=...)``::

    from repro.core.designspace import joint_adder_space
    from repro import Study

    result = (Study()
              .workload("fft(32, frames=4)")
              .design_space(joint_adder_space(16))
              .energy()
              .pareto(quality="psnr_db", cost="total_energy_pj")
              .run(workers=4))
    front = result.fronts["psnr_db_vs_total_energy_pj"]
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..fxp.format import FxpFormat
from ..operators.adders import ExactAdder, QuantizedOutputAdder, RoundedAdder, TruncatedAdder
from ..operators.base import AdderOperator, MultiplierOperator, Operator
from ..operators.multipliers import QuantizedOutputMultiplier, TruncatedMultiplier
from .datapath import effective_data_width, minimal_adder_for, minimal_multiplier_for
from .exploration import (
    sweep_aca_adders,
    sweep_etaiv_adders,
    sweep_rcaapx_adders,
    unique_by_name,
)

#: Axis labels of the paper's two exploration directions.
AXIS_APPROXIMATE = "approximate"
AXIS_SIZED = "sized"
AXIS_OPERATOR = "operator"


def classify_axis(operator: Operator) -> str:
    """Which of the paper's axes an operator configuration belongs to.

    Data-sized (truncated / rounded output) operators are the careful
    bit-width sizing axis; everything else is functional approximation.
    """
    if isinstance(operator, (QuantizedOutputAdder, QuantizedOutputMultiplier)):
        return AXIS_SIZED
    return AXIS_APPROXIMATE


@dataclass(frozen=True)
class DesignPoint:
    """One point of the joint design space: operators plus word length.

    ``role`` names the slot functionally under test (the paper swaps one
    operator family at a time): ``"adder"`` injects the adder into the
    kernels and charges the multiplier as the energy-pairing partner,
    ``"multiplier"`` is symmetric, and ``"operator"`` characterises the
    bare operator with no datapath pairing (Figures 3-4 / Table I studies).

    ``word_length`` is the data width the point emits into the rest of the
    datapath (:func:`~repro.core.datapath.effective_data_width` of the
    swept operator unless overridden); :meth:`fxp_format` exposes it as the
    corresponding fractional fixed-point format.

    ``config`` carries per-point workload configuration overrides as a
    sorted tuple of items (hashable), e.g. ``(("data_width", 12),)`` for a
    true narrow-datapath run.
    """

    adder: Optional[AdderOperator] = None
    multiplier: Optional[MultiplierOperator] = None
    role: str = "adder"
    axis: str = AXIS_APPROXIMATE
    word_length: Optional[int] = None
    inject_pair: bool = False
    config: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.role not in ("adder", "multiplier", "operator"):
            raise ValueError(f"unknown design-point role {self.role!r}")
        if self.role == "adder" and self.adder is None:
            raise ValueError("adder-role design point needs an adder")
        if self.role == "multiplier" and self.multiplier is None:
            raise ValueError("multiplier-role design point needs a multiplier")
        if self.role == "operator" and self.swept is None:
            raise ValueError("operator-role design point needs an operator")

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def swept(self) -> Optional[Operator]:
        """The operator functionally under test."""
        if self.role == "multiplier":
            return self.multiplier
        if self.role == "adder":
            return self.adder
        return self.adder if self.adder is not None else self.multiplier

    @property
    def emitted_width(self) -> int:
        """Data width the point feeds into the downstream datapath."""
        if self.word_length is not None:
            return int(self.word_length)
        swept = self.swept
        return effective_data_width(swept) if swept is not None else 0

    def fxp_format(self) -> Optional[FxpFormat]:
        """Fractional fixed-point format of the emitted word length."""
        width = self.emitted_width
        if width <= 0:
            return None
        return FxpFormat.for_word_length(width)

    @property
    def label(self) -> str:
        """Human-readable identity, e.g. ``"sized:ADDt(16,10)"``."""
        swept = self.swept
        return f"{self.axis}:{swept.name if swept is not None else '?'}"

    @cached_property
    def key(self) -> Tuple[object, ...]:
        """De-duplication identity within a design space.

        The per-point configuration is canonicalised to a JSON token so
        unhashable override values (a stimulus image array, a cloud list)
        are fingerprinted by content rather than crashing the space's
        dedup set.  Computed once per point: the point is frozen, so the
        first evaluation is kept on the instance.
        """
        import json

        from .store import canonical_key

        return (
            self.adder.name if self.adder is not None else None,
            self.multiplier.name if self.multiplier is not None else None,
            self.role, self.axis, self.word_length, self.inject_pair,
            json.dumps(canonical_key(dict(self.config)), sort_keys=True),
        )

    def describe(self) -> Dict[str, object]:
        """Row metadata shared by the design-space result builders."""
        info: Dict[str, object] = {"design": self.label, "axis": self.axis,
                                   "word_length": self.emitted_width}
        if self.adder is not None:
            info["adder"] = self.adder.name
        if self.multiplier is not None:
            info["multiplier"] = self.multiplier.name
        return info


class DesignSpace:
    """Ordered, de-duplicated collection of design points.

    Spaces compose with ``+`` (order-preserving union) and can be filtered
    by axis, so the paper's joint comparison is literally
    ``sized_adder_axis(...) + approximate_adder_axis(...)``.
    """

    def __init__(self, points: Iterable[DesignPoint] = ()) -> None:
        self._points: List[DesignPoint] = []
        self._keys: set = set()
        self.extend(points)

    @classmethod
    def of(cls, space: Union["DesignSpace", Iterable[DesignPoint]]
           ) -> "DesignSpace":
        if isinstance(space, DesignSpace):
            return space
        return cls(space)

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #
    def add(self, point: DesignPoint) -> "DesignSpace":
        """Append one point unless an identical one is already present."""
        if point.key not in self._keys:
            self._keys.add(point.key)
            self._points.append(point)
        return self

    def extend(self, points: Iterable[DesignPoint]) -> "DesignSpace":
        for point in points:
            self.add(point)
        return self

    def __add__(self, other: Union["DesignSpace", Iterable[DesignPoint]]
                ) -> "DesignSpace":
        merged = DesignSpace(self._points)
        merged.extend(DesignSpace.of(other))
        return merged

    def subset(self, axis: str) -> "DesignSpace":
        """Points of one axis only (e.g. ``"sized"``)."""
        return DesignSpace(p for p in self._points if p.axis == axis)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> List[DesignPoint]:
        return list(self._points)

    def labels(self) -> List[str]:
        return [point.label for point in self._points]

    def axes(self) -> List[str]:
        """Sorted distinct axis labels present in the space."""
        return sorted({point.axis for point in self._points})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DesignSpace {len(self._points)} points axes={self.axes()}>"


# --------------------------------------------------------------------------- #
# Axis generators
# --------------------------------------------------------------------------- #
def adder_point(adder: AdderOperator,
                multiplier: Optional[MultiplierOperator] = None,
                axis: Optional[str] = None,
                inject_pair: bool = False,
                config: Optional[Dict[str, object]] = None) -> DesignPoint:
    """Adder-role point with the sizing-propagated multiplier pairing."""
    if multiplier is None:
        multiplier = minimal_multiplier_for(adder)
    return DesignPoint(
        adder=adder, multiplier=multiplier, role="adder",
        axis=axis if axis is not None else classify_axis(adder),
        inject_pair=inject_pair,
        config=tuple(sorted((config or {}).items())))


def multiplier_point(multiplier: MultiplierOperator,
                     adder: Optional[AdderOperator] = None,
                     axis: Optional[str] = None,
                     inject_pair: bool = False,
                     config: Optional[Dict[str, object]] = None) -> DesignPoint:
    """Multiplier-role point with the sizing-propagated adder pairing."""
    if adder is None:
        adder = minimal_adder_for(multiplier)
    return DesignPoint(
        multiplier=multiplier, adder=adder, role="multiplier",
        axis=axis if axis is not None else classify_axis(multiplier),
        inject_pair=inject_pair,
        config=tuple(sorted((config or {}).items())))


def exact_pair_point(multiplier: MultiplierOperator) -> DesignPoint:
    """Multiplier-role point charged with the exact adder of its operand width.

    The pairing of the paper's multiplier tables (II, IV and VI) and of
    ``Study.multipliers``; :func:`multiplier_point` defaults to the
    sizing-propagated adder instead.
    """
    return multiplier_point(multiplier,
                            adder=ExactAdder(multiplier.input_width))


def adder_axis(adders: Iterable[AdderOperator],
               pair: Optional[MultiplierOperator] = None,
               inject_pair: bool = False) -> DesignSpace:
    """Design space sweeping given adders, each classified onto its axis."""
    return DesignSpace(adder_point(adder, multiplier=pair,
                                   inject_pair=inject_pair)
                       for adder in unique_by_name(adders))


def multiplier_axis(multipliers: Iterable[MultiplierOperator],
                    pair: Optional[AdderOperator] = None,
                    inject_pair: bool = False) -> DesignSpace:
    """Design space sweeping given multipliers, classified onto their axes."""
    return DesignSpace(multiplier_point(multiplier, adder=pair,
                                        inject_pair=inject_pair)
                       for multiplier in unique_by_name(multipliers))


def operator_axis(operators: Iterable[Operator],
                  axis: str = AXIS_OPERATOR) -> DesignSpace:
    """Bare-operator characterisation points (no datapath pairing)."""
    points = []
    for operator in operators:
        if isinstance(operator, AdderOperator):
            points.append(DesignPoint(adder=operator, role="operator",
                                      axis=axis))
        elif isinstance(operator, MultiplierOperator):
            points.append(DesignPoint(multiplier=operator, role="operator",
                                      axis=axis))
        else:
            raise TypeError(f"{operator.name} is neither an adder nor a "
                            f"multiplier")
    return DesignSpace(points)


def sized_adder_axis(input_width: int = 16,
                     word_lengths: Optional[Sequence[int]] = None,
                     formats: Optional[Sequence[FxpFormat]] = None,
                     rounded: bool = False) -> DesignSpace:
    """Careful-sizing axis: exact adders quantised to each word length.

    Word lengths come either from explicit integers or from
    :class:`~repro.fxp.format.FxpFormat` instances (the paper's Qm.n
    notation); each yields a truncated (or rounded) ``input_width``-bit
    adder emitting that many bits, paired with the minimal exact multiplier
    its output width allows — the sizing-propagation coupling of
    :func:`~repro.core.datapath.minimal_multiplier_for`.
    """
    if formats is not None:
        widths: Sequence[int] = [fmt.word_length for fmt in formats]
    elif word_lengths is not None:
        widths = list(word_lengths)
    else:
        widths = list(range(input_width - 1, 1, -1))
    family = RoundedAdder if rounded else TruncatedAdder
    return DesignSpace(
        adder_point(family(input_width, int(width)), axis=AXIS_SIZED)
        for width in widths)


def sized_multiplier_axis(input_width: int = 16,
                          word_lengths: Optional[Sequence[int]] = None,
                          formats: Optional[Sequence[FxpFormat]] = None
                          ) -> DesignSpace:
    """Careful-sizing axis on the multiplier slot (truncated outputs)."""
    if formats is not None:
        widths: Sequence[int] = [fmt.word_length for fmt in formats]
    elif word_lengths is not None:
        widths = list(word_lengths)
    else:
        widths = list(range(2, input_width + 1, 2))
    return DesignSpace(
        multiplier_point(TruncatedMultiplier(input_width, int(width)),
                         axis=AXIS_SIZED)
        for width in widths)


def approximate_adder_axis(input_width: int = 16,
                           adders: Optional[Iterable[AdderOperator]] = None,
                           reduced: bool = False) -> DesignSpace:
    """Functional-approximation axis: the paper's approximate adder sweeps.

    Approximate adders emit full-width data, so their minimal multiplier
    pairing stays at full width — the "hidden cost" the joint frontier
    exposes.
    """
    if adders is None:
        if reduced:
            adders = list(sweep_aca_adders(input_width, [6, 10, 14])) \
                + list(sweep_etaiv_adders(input_width, [2, 4, 8])) \
                + list(sweep_rcaapx_adders(input_width, [4, 8],
                                           fa_types=(1, 2, 3)))
        else:
            adders = list(sweep_aca_adders(input_width)) \
                + list(sweep_etaiv_adders(input_width)) \
                + list(sweep_rcaapx_adders(input_width,
                                           range(2, input_width, 2)))
    return DesignSpace(adder_point(adder, axis=AXIS_APPROXIMATE)
                       for adder in unique_by_name(adders))


def joint_adder_space(input_width: int = 16,
                      reduced: bool = False,
                      sized_widths: Optional[Sequence[int]] = None,
                      approximate: Optional[Iterable[AdderOperator]] = None
                      ) -> DesignSpace:
    """The paper's headline design space: sized and approximate adders.

    Truncated and rounded data-sized configurations (the careful-sizing
    axis, with sizing-propagated multiplier energy) joined with every
    functionally approximate adder family (full-width pairing) — the two
    populations whose joint quality-versus-energy frontier is the paper's
    central claim.  ``sized_widths`` / ``approximate`` override the
    population of either axis (used by per-workload reduced sweeps);
    ``reduced`` picks the built-in representative subsets.
    """
    if sized_widths is None:
        sized_widths = [15, 13, 11, 9, 7] if reduced \
            else list(range(input_width - 1, 1, -1))
    space = sized_adder_axis(input_width, word_lengths=sized_widths)
    space = space + sized_adder_axis(input_width, word_lengths=sized_widths,
                                     rounded=True)
    return space + approximate_adder_axis(input_width, adders=approximate,
                                          reduced=reduced)
