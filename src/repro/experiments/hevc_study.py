"""Tables III and IV: HEVC motion-compensation filter accuracy and energy.

Table III swaps the *adders* of the MC interpolation filter (the multipliers
stay exact but are sized to the adder's emitted data width); Table IV swaps
the fixed-width *multipliers* with exact 16-bit adders.  The quality metric
is the MSSIM against the exact filter output; the energy columns report the
per-operation adder energy, the per-operation multiplier energy and the total
datapath energy of the run.

Implemented as declarative design spaces over the
:mod:`repro.core.designspace` engine with the ``"hevc"`` workload plugin,
laid out by :func:`operator_table` (the row shape Tables III-VI share);
Table III charges multiplications at the constant-coefficient rate because
the filter taps are small constants.  Each table function returns its
configured but unrun :class:`~repro.core.study.Study` (energy charged by a
fresh Equation 1 model); ``.run()`` produces the table.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..apps.images import synthetic_image
from ..core.designspace import DesignSpace, adder_axis, exact_pair_point
from ..core.exploration import default_multiplier_set
from ..core.study import Study, SweepOutcome
from ..operators.adders import ACAAdder, ETAIVAdder, RCAApxAdder, TruncatedAdder
from ..operators.base import AdderOperator, MultiplierOperator, Operator

#: Adder configurations of Table III (all reach an MSSIM close to 0.99).
TABLE3_ADDERS = (
    TruncatedAdder(16, 10),
    ACAAdder(16, 12),
    ETAIVAdder(16, 4),
    RCAApxAdder(16, 6, 3),
)

def operator_table(study: Study, slot: str, operators: Sequence[Operator],
                   quality: str, name: str, description: str,
                   metadata: Dict[str, object],
                   constant_coefficient: bool = False) -> Study:
    """One operator slot of an application swept, as Tables III-VI lay it out.

    ``slot`` (``"adder"`` or ``"multiplier"``) is swept over
    ``operators``: an adder with its sizing-propagated multiplier, a
    multiplier with the exact adder of its operand width.  Each row holds
    the swept operator, ``quality`` x 100 as ``f"{quality}_percent"``, the
    swept slot's per-operation energy, the partner's, and the total
    datapath energy.  ``constant_coefficient`` charges multiplications at
    the constant-coefficient rate (the small HEVC filter taps).
    """
    energy_columns = ["adder_energy_pj", "mult_energy_pj"]
    if slot == "adder":
        space = adder_axis(operators)
    else:
        space = DesignSpace(map(exact_pair_point, operators))
        energy_columns.reverse()
    percent = f"{quality}_percent"

    def row(point: SweepOutcome) -> dict:
        model = point.energy_model
        energy = {
            "adder_energy_pj": model.energy_per_addition_pj(point.adder),
            "mult_energy_pj": model.energy_per_multiplication_pj(
                point.multiplier, constant_coefficient=constant_coefficient)}
        return {slot: point.swept.name,
                percent: point.metrics[quality] * 100.0,
                **{column: energy[column] for column in energy_columns},
                "total_energy_pj": point.energy.total_energy_pj}

    return (study
            .design_space(space)
            .energy()
            .constant_coefficient(constant_coefficient)
            .experiment(name, description=description,
                        columns=[slot, percent, *energy_columns,
                                 "total_energy_pj"],
                        metadata=metadata)
            .rows(row))


def hevc_adder_table(image: Optional[np.ndarray] = None, image_size: int = 128,
                     adders: Sequence[AdderOperator] = TABLE3_ADDERS) -> Study:
    """The study behind Table III (MC filter with approximate / data-sized adders)."""
    if image is None:
        image = synthetic_image(image_size)
    return operator_table(
        Study().workload("hevc", image=image), "adder", adders, "mssim",
        "table3_hevc_adders",
        "HEVC motion-compensation filter with 16-bit adders swapped: MSSIM "
        "and energy (Table III of the paper)",
        {"image_pixels": int(image.size)}, constant_coefficient=True)


def hevc_multiplier_table(image: Optional[np.ndarray] = None, image_size: int = 128,
                          multipliers: Optional[Sequence[MultiplierOperator]] = None
                          ) -> Study:
    """The study behind Table IV (MC filter with fixed-width multipliers swapped)."""
    if image is None:
        image = synthetic_image(image_size)
    return operator_table(
        Study().workload("hevc", image=image), "multiplier",
        default_multiplier_set() if multipliers is None else multipliers,
        "mssim", "table4_hevc_multipliers",
        "HEVC motion-compensation filter with 16-bit multipliers swapped: "
        "MSSIM and energy (Table IV of the paper)",
        {"image_pixels": int(image.size)})
