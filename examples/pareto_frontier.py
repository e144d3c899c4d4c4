#!/usr/bin/env python3
"""Reproduce the paper's headline comparison as a joint Pareto frontier.

The design-space engine sweeps *both* of the paper's exploration axes over
the FFT workload in one run —

* functionally approximate adders (ACA, ETAIV, RCAApx), which emit
  full-width data and therefore pay for a full-width multiplier, and
* word-length-sized exact datapaths (truncated / rounded adders built from
  fixed-point word lengths), whose multiplier shrinks with the emitted data
  width (the sizing-propagation coupling of ``minimal_multiplier_for``) —

and extracts the PSNR-versus-energy Pareto front from the swept rows.
The front rows carry an ``axis`` column, so the "hidden
cost" question — does functional approximation ever beat careful sizing? —
is answered by simply looking at which population holds the front.

Run with::

    PYTHONPATH=src python examples/pareto_frontier.py [--store .repro_store]

The optional ``--store`` directory persists hardware characterisations and
sweep records: a second run (even in a new process) serves every record from
disk and finishes in a fraction of the time.  The front is written to
``fft_joint_frontier.json`` next to the results.
"""
import argparse
import time

from repro import Study, joint_adder_space
from repro.core import DatapathEnergyModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default=None,
                        help="directory of the persistent result store "
                             "(default: no persistence)")
    parser.add_argument("--size", type=int, default=32,
                        help="FFT size (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool workers (default: serial)")
    parser.add_argument("--output", default="fft_joint_frontier.json",
                        help="path of the emitted front JSON")
    args = parser.parse_args()

    study = (Study()
             .workload("fft", size=args.size, frames=4)
             .design_space(joint_adder_space(16, reduced=True))
             .energy(DatapathEnergyModel())
             .seed(7)
             .pareto(quality="psnr_db", cost="total_energy_pj"))
    if args.store:
        study.store(args.store)

    start = time.perf_counter()
    result = study.run(workers=args.workers)
    elapsed = time.perf_counter() - start

    front = result.fronts["psnr_db_vs_total_energy_pj"]
    print(f"swept {len(result.rows)} design points in {elapsed:.2f}s "
          f"(store hits: {result.metadata.get('store_hits', 'n/a')})")
    print(f"front: {len(front)} non-dominated points\n")
    header = f"{'design':28s} {'axis':12s} {'bits':>4s} {'PSNR dB':>9s} {'energy pJ':>11s}"
    print(header)
    print("-" * len(header))
    for row in front.rows:
        print(f"{row['design']:28s} {row['axis']:12s} "
              f"{row['word_length']:4d} {row['psnr_db']:9.2f} "
              f"{float(row['total_energy_pj']):11.1f}")

    sized = sum(1 for row in front.rows if row["axis"] == "sized")
    print(f"\nfront composition: {sized} sized / {len(front) - sized} "
          f"approximate — the paper's 'hidden cost' in one line")

    front.save_json(args.output)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
