#!/usr/bin/env python3
"""Quickstart: characterise operators, then sweep an application with Study.

Run with::

    python examples/quickstart.py

Part 1 characterises a few operators the way APXPERF does (error metrics
next to hardware metrics).  Part 2 shows the fluent ``Study`` pipeline — the
single entry point for every experiment: pick a workload, sweep operators,
attach the datapath energy model of Equation 1, and run (``run(workers=N)``
cuts the sweep into N contiguous chunks on a process pool; the rows are
identical to ``workers=1``).
"""
from repro import Study
from repro.core import DatapathEnergyModel

OPERATORS = [
    "ADDt(16,10)",    # careful data sizing: 16-bit adder truncated to 10 bits
    "ADDr(16,10)",    # same with rounding
    "ACA(16,8)",      # almost-correct adder, 8-bit carry speculation
    "ETAIV(16,4)",    # error-tolerant adder, 4-bit blocks
    "RCAApx(16,6,3)",  # approximate ripple-carry, 6 approximate LSBs, cell type 3
    "MULt(16,16)",    # fixed-width truncated multiplier
    "AAM(16)",        # approximate array multiplier
    "ABM(16)",        # approximate Booth multiplier
]

#: Adders for the application-level sweep of part 2.
SWEEP_ADDERS = ["ADDt(16,12)", "ADDt(16,10)", "ACA(16,10)", "ETAIV(16,4)"]


def main() -> None:
    # ------------------------------------------------------------------ #
    # Part 1 — operator-level characterisation (Figures 3-4 / Table I).
    # The "characterization" workload wraps the APXPERF harness, so the
    # same Study pipeline drives operator-level and application-level runs.
    # ------------------------------------------------------------------ #
    table = (Study()
             .workload("characterization(error_samples=50000, hardware_samples=800)")
             .operators(OPERATORS)
             .experiment("quickstart_operators",
                         description="error + hardware characterisation",
                         columns=["operator", "mse_db", "ber", "power_mw",
                                  "delay_ns", "pdp_pj", "area_um2"])
             .rows(lambda point: dict(
                 operator=point.swept.name,
                 mse_db=point.metrics["mse_db"],
                 ber=point.metrics["ber"],
                 power_mw=point.metrics["power_mw"],
                 delay_ns=point.metrics["delay_ns"],
                 pdp_pj=point.metrics["pdp_pj"],
                 area_um2=point.metrics["area_um2"]))
             .run())
    print(table.to_text())
    print()

    # ------------------------------------------------------------------ #
    # Part 2 — application-level sweep (the paper's Figure 5 flow): each
    # adder runs the FFT workload and is charged with Equation 1 through
    # one shared hardware-characterisation cache.
    # ------------------------------------------------------------------ #
    sweep = (Study()
             .workload("fft(32, frames=4)")
             .adders(SWEEP_ADDERS)
             .energy(DatapathEnergyModel(hardware_samples=800))
             .seed(7)
             .run())
    print(sweep.to_text())

    print()
    print("Reading the tables: for a comparable error level the data-sized")
    print("operators (ADDt/ADDr, MULt) spend less energy per operation than the")
    print("functionally approximate ones — the paper's headline observation.")


if __name__ == "__main__":
    main()
