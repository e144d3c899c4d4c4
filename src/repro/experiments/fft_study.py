"""Figure 5 and Table II: FFT-32 accuracy versus datapath energy.

Figure 5 swaps the *adders* of the 32-point, 16-bit FFT for every approximate
and data-sized configuration, pairs each adder with the smallest exact
multiplier its emitted data width allows (the coupling the paper emphasises),
and reports the output PSNR against the total datapath energy of Equation 1.
Table II keeps exact 16-bit adders and swaps the fixed-width multipliers.

Both experiments are expressed as *declarative design spaces* over the
:mod:`repro.core.designspace` engine: the Figure 5 sweep is literally the
joint sized + approximate adder space
(:func:`~repro.core.designspace.joint_adder_space`), and
:func:`fft_joint_frontier` is a second view of that same sweep — its own
rows, the paper's headline quality-versus-energy Pareto front and
metadata.  ``run_all`` executes the sweep once and emits both views from
it.  Each function returns its configured but unrun
:class:`~repro.core.study.Study` (energy charged by a fresh Equation 1
model); ``.run()`` produces the result.
"""
from __future__ import annotations

from typing import Optional, Sequence

from ..core.designspace import DesignSpace, adder_axis, exact_pair_point, joint_adder_space
from ..core.exploration import default_multiplier_set
from ..core.study import Study, SweepOutcome
from ..operators.base import AdderOperator, MultiplierOperator


def fft_adder_sweep(size: int = 32, input_width: int = 16,
                    adders: Optional[Sequence[AdderOperator]] = None,
                    frames: int = 8, reduced: bool = False) -> Study:
    """The study behind Figure 5 (FFT-32 energy versus PSNR, adders swept)."""
    if adders is None:
        space = joint_adder_space(input_width, reduced=reduced)
    else:
        space = adder_axis(adders)

    def row(point: SweepOutcome) -> dict:
        return dict(
            adder=point.adder.name,
            multiplier=point.multiplier.name,
            psnr_db=point.metrics["psnr_db"],
            adder_energy_pj=point.energy.adder_energy_pj,
            multiplier_energy_pj=point.energy.multiplier_energy_pj,
            total_energy_pj=point.energy.total_energy_pj,
        )

    return (Study()
            .workload("fft", size=size, data_width=input_width, frames=frames)
            .design_space(space)
            .energy()
            .experiment(
                "fig5_fft_adders",
                description=("FFT-32 on 16-bit data: total datapath energy "
                             "versus output PSNR with the adders swapped "
                             "(Figure 5 of the paper)"),
                columns=["adder", "multiplier", "psnr_db", "adder_energy_pj",
                         "multiplier_energy_pj", "total_energy_pj"],
                metadata={"fft_size": size, "frames": frames})
            .rows(row))


def joint_frontier_view(study: Study, name: str, quality: str,
                        description: str, metadata: dict) -> Study:
    """An adder sweep over a joint design space viewed as a joint frontier.

    Rows carry each point's ``design`` / ``axis`` / ``word_length`` (which
    tell the approximate and sized populations apart), its operators, the
    ``quality`` metric and the Equation 1 energy split; the
    ``quality``-versus-energy Pareto front is attached under
    ``fronts[f"{quality}_vs_total_energy_pj"]``.
    """
    energy = ["adder_energy_pj", "multiplier_energy_pj", "total_energy_pj"]

    def row(point: SweepOutcome) -> dict:
        # describe(): design, axis, word_length, adder and multiplier.
        return {**point.point.describe(), quality: point.metrics[quality],
                **{column: getattr(point.energy, column) for column in energy}}

    return (study
            .pareto(quality=quality, cost="total_energy_pj")
            .experiment(name, description=description,
                        columns=["design", "axis", "word_length", "adder",
                                 "multiplier", quality, *energy],
                        metadata={**metadata,
                                  "design_points": len(study._points)})
            .rows(row))


def fft_joint_frontier(size: int = 32, input_width: int = 16,
                       frames: int = 8, reduced: bool = False) -> Study:
    """The paper's headline comparison on the FFT: a joint Pareto frontier.

    A view (:func:`joint_frontier_view`) of the Figure 5 sweep: the same
    points — functionally approximate adders and word-length-sized exact
    datapaths, each with its sizing-propagated multiplier pairing — on one
    PSNR-versus-energy front under ``fronts["psnr_db_vs_total_energy_pj"]``.
    """
    return joint_frontier_view(
        fft_adder_sweep(size, input_width, frames=frames, reduced=reduced),
        "fft_joint_frontier", "psnr_db",
        "FFT-32 joint design space: approximate operators versus "
        "word-length-sized exact datapaths on one PSNR-versus-energy "
        "frontier (the paper's headline comparison)",
        {"fft_size": size, "frames": frames})


def fft_multiplier_comparison(size: int = 32, input_width: int = 16,
                              multipliers: Optional[Sequence[MultiplierOperator]] = None,
                              frames: int = 8) -> Study:
    """The study behind Table II (FFT-32 with fixed-width multipliers)."""
    if multipliers is None:
        multipliers = default_multiplier_set(input_width)
    space = DesignSpace(map(exact_pair_point, multipliers))

    def row(point: SweepOutcome) -> dict:
        return dict(
            multiplier=point.multiplier.name,
            psnr_db=point.metrics["psnr_db"],
            multiplier_pdp_pj=point.energy_model.energy_per_multiplication_pj(
                point.multiplier),
            total_energy_pj=point.energy.total_energy_pj,
        )

    return (Study()
            .workload("fft", size=size, data_width=input_width, frames=frames)
            .design_space(space)
            .energy()
            .experiment(
                "table2_fft_multipliers",
                description=("FFT-32 with 16-bit fixed-width multipliers and "
                             "exact adders: PSNR and per-multiplication energy "
                             "(Table II of the paper)"),
                columns=["multiplier", "psnr_db", "multiplier_pdp_pj",
                         "total_energy_pj"],
                metadata={"fft_size": size, "frames": frames})
            .rows(row))
