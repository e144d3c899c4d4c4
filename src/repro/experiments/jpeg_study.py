"""Figure 6: JPEG encoding quality (MSSIM) versus DCT energy.

The 8x8 DCT inside the JPEG encoder runs with each adder configuration; the
quality axis is the MSSIM between the image encoded with the exact
fixed-point DCT and the one encoded with the operator under test, the energy
axis is the per-operation energy of the DCT datapath (Equation 1 applied to
the DCT's additions and multiplications).

The sweep is expressed as a declarative design space over
:mod:`repro.core.designspace` — sized and approximate adder axes — and
:func:`jpeg_joint_frontier` is a second view of that same sweep: its own
rows, the joint MSSIM-versus-energy Pareto front (the paper's "hidden
cost" comparison on the JPEG workload) and metadata.
``run_all`` executes the sweep once and emits both views from it.
Each function returns its configured but unrun
:class:`~repro.core.study.Study` (energy charged by a fresh Equation 1
model); ``.run()`` produces the result.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..apps.images import synthetic_image
from ..core.designspace import DesignSpace, adder_axis, joint_adder_space
from ..core.exploration import (
    sweep_aca_adders,
    sweep_etaiv_adders,
    sweep_rcaapx_adders,
)
from ..core.study import Study, SweepOutcome
from ..operators.base import AdderOperator
from .fft_study import joint_frontier_view


def jpeg_design_space(input_width: int = 16,
                      reduced: bool = False) -> DesignSpace:
    """The Figure 6 design space: sized and approximate adder axes joined.

    The reduced configuration keeps a representative subset (slightly
    thinner than the FFT study's).
    """
    if not reduced:
        return joint_adder_space(input_width)
    approximate = list(sweep_aca_adders(input_width, [8, 14])) \
        + list(sweep_etaiv_adders(input_width, [4, 8])) \
        + list(sweep_rcaapx_adders(input_width, [4, 8], fa_types=(1, 3)))
    return joint_adder_space(input_width, sized_widths=[15, 13, 11, 9],
                             approximate=approximate)


def jpeg_adder_sweep(image: Optional[np.ndarray] = None, quality: int = 90,
                     input_width: int = 16,
                     adders: Optional[Sequence[AdderOperator]] = None,
                     image_size: int = 128, reduced: bool = False) -> Study:
    """The study behind Figure 6 (DCT energy versus JPEG MSSIM, adders swept)."""
    if image is None:
        image = synthetic_image(image_size)
    if adders is None:
        space = jpeg_design_space(input_width, reduced=reduced)
    else:
        space = adder_axis(adders)

    def row(point: SweepOutcome) -> dict:
        macs = max(point.counts.additions, 1)
        return dict(
            adder=point.adder.name,
            multiplier=point.multiplier.name,
            mssim=point.metrics["mssim"],
            dct_energy_pj=point.energy.total_energy_pj,
            energy_per_mac_pj=point.energy.total_energy_pj / macs,
        )

    return (Study()
            .workload("jpeg", quality=quality, image=image,
                      data_width=input_width)
            .design_space(space)
            .energy()
            .experiment(
                "fig6_jpeg",
                description=("JPEG encoding (quality 90): DCT datapath energy "
                             "versus MSSIM with the adders swapped (Figure 6 "
                             "of the paper)"),
                columns=["adder", "multiplier", "mssim", "dct_energy_pj",
                         "energy_per_mac_pj"],
                metadata={"quality": quality, "image_pixels": int(image.size)})
            .rows(row))


def jpeg_joint_frontier(image: Optional[np.ndarray] = None, quality: int = 90,
                        input_width: int = 16, image_size: int = 128,
                        reduced: bool = False) -> Study:
    """The paper's headline comparison on JPEG: a joint Pareto frontier.

    A view (:func:`~repro.experiments.fft_study.joint_frontier_view`) of
    the Figure 6 sweep, mirroring
    :func:`~repro.experiments.fft_study.fft_joint_frontier`: both
    populations (approximate adders, word-length-sized exact datapaths
    with sizing-propagated multiplier energy) compete on one
    MSSIM-versus-energy front under ``fronts["mssim_vs_total_energy_pj"]``.
    """
    if image is None:
        image = synthetic_image(image_size)
    return joint_frontier_view(
        jpeg_adder_sweep(image, quality, input_width, reduced=reduced),
        "jpeg_joint_frontier", "mssim",
        "JPEG joint design space: approximate operators versus "
        "word-length-sized exact datapaths on one MSSIM-versus-energy "
        "frontier (the paper's headline comparison)",
        {"quality": quality, "image_pixels": int(image.size)})
