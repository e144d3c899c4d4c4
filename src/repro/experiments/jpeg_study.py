"""Figure 6: JPEG encoding quality (MSSIM) versus DCT energy.

The 8x8 DCT inside the JPEG encoder runs with each adder configuration; the
quality axis is the MSSIM between the image encoded with the exact
fixed-point DCT and the one encoded with the operator under test, the energy
axis is the per-operation energy of the DCT datapath (Equation 1 applied to
the DCT's additions and multiplications).

The sweep is expressed as a declarative design space over
:mod:`repro.core.designspace` — sized and approximate adder axes — and
:func:`jpeg_joint_frontier` extracts the joint MSSIM-versus-energy Pareto
frontier (the paper's "hidden cost" comparison on the JPEG workload).
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..apps.images import synthetic_image
from ..core.backends import BackendLike
from ..core.datapath import DatapathEnergyModel
from ..core.designspace import DesignSpace, adder_axis, joint_adder_space
from ..core.exploration import (
    sweep_aca_adders,
    sweep_etaiv_adders,
    sweep_rcaapx_adders,
)
from ..core.results import ExperimentResult
from ..core.store import StoreLike
from ..core.study import ShardLike, Study, SweepOutcome
from ..operators.base import AdderOperator


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


def default_jpeg_adder_sweep(input_width: int = 16,
                             reduced: bool = False) -> List[AdderOperator]:
    """Adder configurations of Figure 6 (the design space's adder slots)."""
    return [point.adder for point in jpeg_design_space(input_width, reduced)]


def jpeg_adder_sweep(image: Optional[np.ndarray] = None, quality: int = 90,
                     input_width: int = 16,
                     adders: Optional[Sequence[AdderOperator]] = None,
                     image_size: int = 128, reduced: bool = False,
                     energy_model: Optional[DatapathEnergyModel] = None,
                     workers: int = 1,
                     backend: BackendLike = "direct",
                     store: StoreLike = None,
                     shard: ShardLike = None) -> ExperimentResult:
    """Regenerate Figure 6 (DCT energy versus JPEG MSSIM, adders swept)."""
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
            .backend(backend)
            .energy(energy_model)
            .store(store)
            .experiment(
                "fig6_jpeg",
                description=("JPEG encoding (quality 90): DCT datapath energy "
                             "versus MSSIM with the adders swapped (Figure 6 "
                             "of the paper)"),
                columns=["adder", "multiplier", "mssim", "dct_energy_pj",
                         "energy_per_mac_pj"],
                metadata={"quality": quality, "image_pixels": int(image.size)})
            .rows(row)
            .shard(shard)
            .run(workers=workers))


def jpeg_joint_frontier(image: Optional[np.ndarray] = None, quality: int = 90,
                        input_width: int = 16, image_size: int = 128,
                        reduced: bool = False,
                        energy_model: Optional[DatapathEnergyModel] = None,
                        workers: int = 1,
                        backend: BackendLike = "direct",
                        store: StoreLike = None,
                        shard: ShardLike = None) -> ExperimentResult:
    """The paper's headline comparison on JPEG: a joint Pareto frontier.

    Mirrors :func:`repro.experiments.fft_study.fft_joint_frontier` on the
    JPEG workload — both populations (approximate adders, word-length-sized
    exact datapaths with sizing-propagated multiplier energy) compete on
    one MSSIM-versus-energy front, attached under
    ``fronts["mssim_vs_total_energy_pj"]``.
    """
    if image is None:
        image = synthetic_image(image_size)
    space = jpeg_design_space(input_width, reduced=reduced)

    def row(point: SweepOutcome) -> dict:
        info = point.point.describe()
        return dict(
            design=info["design"],
            axis=info["axis"],
            word_length=info["word_length"],
            adder=point.adder.name,
            multiplier=point.multiplier.name,
            mssim=point.metrics["mssim"],
            adder_energy_pj=point.energy.adder_energy_pj,
            multiplier_energy_pj=point.energy.multiplier_energy_pj,
            total_energy_pj=point.energy.total_energy_pj,
        )

    return (Study()
            .workload("jpeg", quality=quality, image=image,
                      data_width=input_width)
            .design_space(space)
            .backend(backend)
            .energy(energy_model)
            .store(store)
            .pareto(quality="mssim", cost="total_energy_pj")
            .experiment(
                "jpeg_joint_frontier",
                description=("JPEG joint design space: approximate operators "
                             "versus word-length-sized exact datapaths on one "
                             "MSSIM-versus-energy frontier (the paper's "
                             "headline comparison)"),
                columns=["design", "axis", "word_length", "adder",
                         "multiplier", "mssim", "adder_energy_pj",
                         "multiplier_energy_pj", "total_energy_pj"],
                metadata={"quality": quality, "image_pixels": int(image.size),
                          "design_points": len(space)})
            .rows(row)
            .shard(shard)
            .run(workers=workers))
