#!/usr/bin/env python3
"""Scenario: approximate DCT inside a JPEG encoder (Figure 6 in miniature).

The script encodes a synthetic photograph with the exact fixed-point DCT and
with several data-sized / approximate adder configurations, reporting the
MSSIM against the exact pipeline and the DCT datapath energy for each, plus
the estimated compressed size (the approximations also disturb the entropy of
the quantised coefficients).

Run with::

    python examples/jpeg_approximate_encoder.py
"""
from repro.apps.images import synthetic_image
from repro.apps.jpeg import JpegEncoder
from repro.core import (
    ApproxContext,
    DatapathEnergyModel,
    minimal_multiplier_for,
    parse_operator,
)
from repro.metrics import mssim

ADDER_SPECS = [
    "ADDt(16,14)",
    "ADDt(16,12)",
    "ADDt(16,10)",
    "ADDr(16,12)",
    "RCAApx(16,6,1)",
    "RCAApx(16,8,3)",
    "ETAIV(16,8)",
    "ACA(16,14)",
]


def main() -> None:
    image = synthetic_image(128, seed=7)
    reference = JpegEncoder(quality=90).encode_decode(image)
    energy_model = DatapathEnergyModel(hardware_samples=600)

    print(f"{'adder':16s} {'MSSIM':>7s} {'DCT energy pJ':>14s} {'~size bytes':>12s}")
    for spec in ADDER_SPECS:
        adder = parse_operator(spec)
        encoder = JpegEncoder(quality=90, context=ApproxContext(adder=adder))
        outcome = encoder.encode_decode(image)
        score = mssim(reference.reconstructed, outcome.reconstructed)
        energy = energy_model.application_energy_pj(
            outcome.counts, adder, minimal_multiplier_for(adder))
        print(f"{spec:16s} {score:7.4f} {energy.total_energy_pj:14.1f} "
              f"{outcome.estimated_bytes:12d}")

    print()
    print("The truncated fixed-point encoders reach visually lossless MSSIM at a")
    print("fraction of the energy of the approximate-adder versions, because the")
    print("narrow data also shrinks the multipliers of the DCT datapath.")


if __name__ == "__main__":
    main()
