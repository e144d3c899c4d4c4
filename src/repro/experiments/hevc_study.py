"""Tables III and IV: HEVC motion-compensation filter accuracy and energy.

Table III swaps the *adders* of the MC interpolation filter (the multipliers
stay exact but are sized to the adder's emitted data width); Table IV swaps
the fixed-width *multipliers* with exact 16-bit adders.  The quality metric
is the MSSIM against the exact filter output; the energy columns report the
per-operation adder energy, the per-operation multiplier energy and the total
datapath energy of the run.

Implemented as declarative design spaces over the
:mod:`repro.core.designspace` engine with the ``"hevc"`` workload plugin;
Table III charges multiplications at the constant-coefficient rate because
the filter taps are small constants.  Each table function returns its
configured but unrun :class:`~repro.core.study.Study` (energy charged by a
fresh Equation 1 model); ``.run()`` produces the table.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..apps.images import synthetic_image
from ..core.designspace import DesignSpace, adder_axis, multiplier_point
from ..core.study import Study, SweepOutcome
from ..operators.adders import (
    ACAAdder,
    ETAIVAdder,
    ExactAdder,
    RCAApxAdder,
    TruncatedAdder,
)
from ..operators.base import AdderOperator, MultiplierOperator
from ..operators.multipliers import AAMMultiplier, ABMMultiplier, TruncatedMultiplier

#: Adder configurations of Table III (all reach an MSSIM close to 0.99).
TABLE3_ADDERS = (
    TruncatedAdder(16, 10),
    ACAAdder(16, 12),
    ETAIVAdder(16, 4),
    RCAApxAdder(16, 6, 3),
)

#: Multiplier configurations of Table IV.
TABLE4_MULTIPLIERS = (
    TruncatedMultiplier(16, 16),
    AAMMultiplier(16),
    ABMMultiplier(16),
)


def hevc_adder_space(adders: Sequence[AdderOperator] = TABLE3_ADDERS
                     ) -> DesignSpace:
    """Table III as a design space (sizing-propagated multiplier pairing)."""
    return adder_axis(adders)


def hevc_multiplier_space(
        multipliers: Sequence[MultiplierOperator] = TABLE4_MULTIPLIERS
) -> DesignSpace:
    """Table IV as a design space.

    Each multiplier is paired with the exact adder of its *own* operand
    width (the paper's setup, and what the pre-design-space sweep charged).
    """
    return DesignSpace(
        multiplier_point(multiplier, adder=ExactAdder(multiplier.input_width))
        for multiplier in multipliers)


def hevc_adder_table(image: Optional[np.ndarray] = None, image_size: int = 128,
                     adders: Sequence[AdderOperator] = TABLE3_ADDERS) -> Study:
    """The study behind Table III (MC filter with approximate / data-sized adders)."""
    if image is None:
        image = synthetic_image(image_size)

    def row(point: SweepOutcome) -> dict:
        return dict(
            adder=point.adder.name,
            mssim_percent=point.metrics["mssim"] * 100.0,
            adder_energy_pj=point.energy_model.energy_per_addition_pj(point.adder),
            mult_energy_pj=point.energy_model.energy_per_multiplication_pj(
                point.multiplier, constant_coefficient=True),
            total_energy_pj=point.energy.total_energy_pj,
        )

    return (Study()
            .workload("hevc", image=image)
            .design_space(hevc_adder_space(adders))
            .energy()
            .constant_coefficient()
            .experiment(
                "table3_hevc_adders",
                description=("HEVC motion-compensation filter with 16-bit "
                             "adders swapped: MSSIM and energy (Table III of "
                             "the paper)"),
                columns=["adder", "mssim_percent", "adder_energy_pj",
                         "mult_energy_pj", "total_energy_pj"],
                metadata={"image_pixels": int(image.size)})
            .rows(row))


def hevc_multiplier_table(image: Optional[np.ndarray] = None, image_size: int = 128,
                          multipliers: Sequence[MultiplierOperator] = TABLE4_MULTIPLIERS
                          ) -> Study:
    """The study behind Table IV (MC filter with fixed-width multipliers swapped)."""
    if image is None:
        image = synthetic_image(image_size)

    def row(point: SweepOutcome) -> dict:
        return dict(
            multiplier=point.multiplier.name,
            mssim_percent=point.metrics["mssim"] * 100.0,
            mult_energy_pj=point.energy_model.energy_per_multiplication_pj(
                point.multiplier),
            adder_energy_pj=point.energy_model.energy_per_addition_pj(point.adder),
            total_energy_pj=point.energy.total_energy_pj,
        )

    return (Study()
            .workload("hevc", image=image)
            .design_space(hevc_multiplier_space(multipliers))
            .energy()
            .experiment(
                "table4_hevc_multipliers",
                description=("HEVC motion-compensation filter with 16-bit "
                             "multipliers swapped: MSSIM and energy (Table IV "
                             "of the paper)"),
                columns=["multiplier", "mssim_percent", "mult_energy_pj",
                         "adder_energy_pj", "total_energy_pj"],
                metadata={"image_pixels": int(image.size)})
            .rows(row))
