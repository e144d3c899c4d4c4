"""Figures 3 and 4: operator-level comparison of the 16-bit adders.

For every adder configuration swept in the paper (truncated and rounded
fixed-point outputs from 15 down to 2 bits, every ACA prediction depth, every
ETAIV block size, every RCAApx configuration) this experiment reports the
error metrics (MSE in dB, BER) against the hardware metrics (power, delay,
PDP, area) — i.e. the data behind the eight scatter plots of Figures 3a-3d
and 4a-4d.

Implemented as a declarative design space (bare-operator axis) over the
:mod:`repro.core.designspace` engine with the ``"characterization"``
workload plugin.  :func:`adder_error_cost_study` returns the configured
but unrun :class:`~repro.core.study.Study`; ``.run()`` regenerates the table.
"""
from __future__ import annotations

from typing import Optional, Sequence

from ..core.designspace import operator_axis
from ..core.exploration import default_adder_sweep
from ..core.study import Study, SweepOutcome
from ..operators.base import Operator


def _group_name(operator: Operator) -> str:
    """Legend group of an operator, matching the paper's figure legends."""
    name = operator.name
    if name.startswith("ADDt"):
        return "Fxp add. - trunc."
    if name.startswith("ADDr"):
        return "Fxp add. - round."
    if name.startswith("ACA"):
        return "ACA"
    if name.startswith("ETAIV"):
        return "ETAIV"
    if name.startswith("ETAII"):
        return "ETAII"
    if name.startswith("RCAApx"):
        return "RCAApx"
    return "other"


def adder_error_cost_study(input_width: int = 16,
                           operators: Optional[Sequence[Operator]] = None,
                           error_samples: int = 50_000,
                           hardware_samples: int = 800,
                           reduced: bool = False) -> Study:
    """The study behind Figures 3 (MSE) and 4 (BER), as one table."""
    if operators is None:
        operators = default_adder_sweep(input_width, reduced=reduced)

    def row(point: SweepOutcome) -> dict:
        return dict(
            operator=point.swept.name,
            group=_group_name(point.swept),
            mse_db=point.metrics["mse_db"],
            ber=point.metrics["ber"],
            power_mw=point.metrics["power_mw"],
            delay_ns=point.metrics["delay_ns"],
            pdp_pj=point.metrics["pdp_pj"],
            area_um2=point.metrics["area_um2"],
        )

    return (Study()
            .workload("characterization", error_samples=error_samples,
                      hardware_samples=hardware_samples)
            .design_space(operator_axis(operators))
            .experiment(
                "fig3_fig4_adders",
                description=("16-bit adders: MSE/BER versus power, delay, PDP "
                             "and area (Figures 3 and 4 of the paper)"),
                columns=["operator", "group", "mse_db", "ber", "power_mw",
                         "delay_ns", "pdp_pj", "area_um2"],
                metadata={"input_width": input_width,
                          "error_samples": error_samples})
            .rows(row))
