#!/usr/bin/env python3
"""Scenario: choose the cheapest FFT datapath for a PSNR target.

A designer has a 32-point, 16-bit FFT in a low-power front-end and needs at
least 40 dB of output PSNR.  The script sweeps data-sized and approximate
adders (pairing each with the smallest exact multiplier its data width
allows, Equation 1 of the paper), then prints the configurations that meet
the target sorted by total datapath energy — reproducing the reasoning behind
Figure 5.

Run with::

    python examples/fft_energy_exploration.py
"""
from repro.core import ApproxContext, DatapathEnergyModel, minimal_multiplier_for
from repro.core.exploration import (
    sweep_aca_adders,
    sweep_etaiv_adders,
    sweep_rcaapx_adders,
    sweep_truncated_adders,
)
from repro.workloads.fft import fft_output_psnr
from repro.apps.fft import FixedPointFFT, random_q15_signal

PSNR_TARGET_DB = 40.0


def main() -> None:
    adders = []
    adders += sweep_truncated_adders(16, [14, 12, 10, 9, 8, 7])
    adders += sweep_aca_adders(16, [6, 10, 14])
    adders += sweep_etaiv_adders(16, [2, 4, 8])
    adders += sweep_rcaapx_adders(16, [4, 8], fa_types=(1, 3))

    signals = [random_q15_signal(32, seed=seed) for seed in range(6)]
    energy_model = DatapathEnergyModel(hardware_samples=600)

    rows = []
    for adder in adders:
        fft = FixedPointFFT(32, 16, context=ApproxContext(adder=adder))
        psnr = fft_output_psnr(fft, signals)
        multiplier = minimal_multiplier_for(adder)
        energy = energy_model.application_energy_pj(fft.operation_counts(),
                                                    adder, multiplier)
        rows.append((adder.name, multiplier.name, psnr, energy.total_energy_pj))

    meeting = sorted((r for r in rows if r[2] >= PSNR_TARGET_DB), key=lambda r: r[3])
    print(f"FFT-32 configurations reaching {PSNR_TARGET_DB:.0f} dB PSNR, "
          f"cheapest first:")
    print(f"{'adder':16s} {'multiplier':12s} {'PSNR dB':>8s} {'energy pJ':>10s}")
    for adder_name, mult_name, psnr, energy in meeting:
        print(f"{adder_name:16s} {mult_name:12s} {psnr:8.1f} {energy:10.1f}")

    if meeting:
        best = meeting[0]
        print()
        print(f"Cheapest compliant datapath: {best[0]} + {best[1]} "
              f"({best[3]:.1f} pJ per transform)")


if __name__ == "__main__":
    main()
