"""Ablation studies on the design choices DESIGN.md calls out.

These go beyond the paper's own experiments:

* the contribution of the AAM / ABM compensation circuits (and of ABM's
  approximate redundant-to-binary conversion) to their error behaviour;
* the effect of the data-sizing rounding mode (truncation vs round-half-up
  vs round-to-nearest-even) on accuracy at iso bit-width.

Both ablations run as declarative design spaces (bare-operator axis) over
the :mod:`repro.core.designspace` engine with the ``"characterization"``
workload plugin.  Each function returns its configured but unrun
:class:`~repro.core.study.Study`; ``.run()`` produces the result.
"""
from __future__ import annotations

from typing import Optional, Sequence

from ..core.designspace import operator_axis
from ..core.study import Study, SweepOutcome
from ..operators.adders import (
    RoundToNearestEvenAdder,
    RoundedAdder,
    TruncatedAdder,
)
from ..operators.multipliers import AAMMultiplier, ABMMultiplier


def multiplier_compensation_ablation(input_width: int = 16,
                                     error_samples: int = 50_000,
                                     hardware_samples: int = 600) -> Study:
    """AAM / ABM with and without their compensation and exact conversion."""
    variants = [
        ("AAM compensated", AAMMultiplier(input_width, compensation=True)),
        ("AAM pruned only", AAMMultiplier(input_width, compensation=False)),
        ("ABM compensated", ABMMultiplier(input_width, compensation=True)),
        ("ABM pruned only", ABMMultiplier(input_width, compensation=False)),
        ("ABM exact conversion", ABMMultiplier(input_width, carry_window=None)),
    ]
    labels = [label for label, _ in variants]

    def row(point: SweepOutcome) -> dict:
        return dict(
            variant=labels[point.index],
            operator=point.swept.name,
            mse_db=point.metrics["mse_db"],
            ber=point.metrics["ber"],
            bias=point.metrics["bias"],
            pdp_pj=point.metrics["pdp_pj"],
        )

    return (Study()
            .workload("characterization", error_samples=error_samples,
                      hardware_samples=hardware_samples)
            .design_space(operator_axis([operator for _, operator in variants]))
            .experiment(
                "ablation_compensation",
                description=("Contribution of the compensation circuits (and "
                             "of ABM's approximate final conversion) to the "
                             "multiplier accuracy"),
                columns=["variant", "operator", "mse_db", "ber", "bias",
                         "pdp_pj"],
                metadata={"input_width": input_width})
            .rows(row))


def rounding_mode_ablation(input_width: int = 16,
                           output_widths: Optional[Sequence[int]] = None,
                           error_samples: int = 50_000,
                           hardware_samples: int = 600) -> Study:
    """Truncation vs rounding vs round-to-nearest-even for data sizing."""
    if output_widths is None:
        output_widths = (14, 12, 10, 8, 6)
    modes = (("truncate", TruncatedAdder), ("round", RoundedAdder),
             ("round-to-even", RoundToNearestEvenAdder))
    points = [(mode, width, cls(input_width, width))
              for width in output_widths for mode, cls in modes]

    def row(point: SweepOutcome) -> dict:
        mode, width, _ = points[point.index]
        return dict(
            operator=point.swept.name,
            mode=mode,
            output_width=width,
            mse_db=point.metrics["mse_db"],
            bias=point.metrics["bias"],
            pdp_pj=point.metrics["pdp_pj"],
        )

    return (Study()
            .workload("characterization", error_samples=error_samples,
                      hardware_samples=hardware_samples)
            .design_space(operator_axis([operator for _, _, operator in points]))
            .experiment(
                "ablation_rounding_mode",
                description=("Effect of the LSB-elimination rounding mode on "
                             "the data-sized adder accuracy at iso bit-width"),
                columns=["operator", "mode", "output_width", "mse_db", "bias",
                         "pdp_pj"],
                metadata={"input_width": input_width})
            .rows(row))
