"""Table I: direct comparison of the 16-bit fixed-width multipliers.

``MULt(16,16)``, ``AAM(16)`` and ``ABM(16)`` are characterised under the same
conditions (random stimulus, 100 MHz) and the table reports power, delay,
PDP, area, MSE (dB) and BER — the exact columns of Table I.

Implemented as a declarative design space (bare-operator axis) over the
:mod:`repro.core.designspace` engine with the ``"characterization"``
workload plugin.  :func:`multiplier_comparison` returns the configured
but unrun :class:`~repro.core.study.Study`; ``.run()`` regenerates the table.
"""
from __future__ import annotations

from typing import Optional, Sequence

from ..core.designspace import operator_axis
from ..core.exploration import default_multiplier_set
from ..core.study import Study, SweepOutcome
from ..operators.base import Operator


def multiplier_comparison(input_width: int = 16,
                          operators: Optional[Sequence[Operator]] = None,
                          error_samples: int = 50_000,
                          hardware_samples: int = 800) -> Study:
    """The study behind Table I."""
    if operators is None:
        operators = default_multiplier_set(input_width)

    def row(point: SweepOutcome) -> dict:
        return dict(
            operator=point.swept.name,
            power_mw=point.metrics["power_mw"],
            delay_ns=point.metrics["delay_ns"],
            pdp_pj=point.metrics["pdp_pj"],
            area_um2=point.metrics["area_um2"],
            mse_db=point.metrics["mse_db"],
            ber_percent=point.metrics["ber"] * 100.0,
        )

    return (Study()
            .workload("characterization", error_samples=error_samples,
                      hardware_samples=hardware_samples)
            .design_space(operator_axis(operators))
            .experiment(
                "table1_multipliers",
                description=("16-bit fixed-width multipliers: power, delay, "
                             "PDP, area, MSE and BER (Table I of the paper)"),
                columns=["operator", "power_mw", "delay_ns", "pdp_pj",
                         "area_um2", "mse_db", "ber_percent"],
                metadata={"input_width": input_width,
                          "error_samples": error_samples})
            .rows(row))
