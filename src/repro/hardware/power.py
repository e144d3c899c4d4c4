"""Activity-based power estimation on gate-level netlists.

:class:`MonteCarloPowerEstimator` simulates the netlist on a stream of
random vectors, counts output toggles per gate and converts the switching
activity into dynamic power.  This is the equivalent of the paper's
gate-level simulation (ModelSim activity file) feeding PrimeTime.  The
simulation is the netlist's bit-parallel pass: each gate output is one packed
int over all samples, and its toggles are the popcount of ``x ^ (x >> 1)``
restricted to the ``samples - 1`` consecutive sample pairs.

The estimate includes a glitch term driven by the *arrival-time skew* of each
gate's inputs: a gate whose inputs settle at very different times produces
spurious transitions before reaching its final value.  Ripple/array
structures (long unbalanced carry chains, e.g. the array multiplier AAM is
built from) therefore draw substantially more switching energy than balanced
tree structures of similar cell count — which is one of the reasons the
paper's AAM burns more energy than the synthesised truncated multiplier
despite having fewer cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .netlist import Netlist, unpack_samples
from .technology import PSEUDO_KINDS, GateKind


#: Fraction of the flip-flop switching energy drawn every cycle by the clock
#: pin regardless of data activity.
_DFF_CLOCK_FRACTION = 0.6
#: Average data-induced activity assumed on registered bits.
_DFF_DATA_ACTIVITY = 0.5


@dataclass(frozen=True)
class PowerBreakdown:
    """Dynamic / leakage decomposition of an estimated power figure."""

    dynamic_mw: float
    leakage_mw: float
    register_mw: float

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw + self.register_mw


class MonteCarloPowerEstimator:
    """Toggle-counting power estimation from random-vector simulation."""

    def __init__(self, frequency_hz: float = 100e6, glitch_factor: float = 0.25,
                 samples: int = 2000, seed: int = 2017) -> None:
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if samples < 2:
            raise ValueError("at least two samples are needed to observe toggles")
        self.frequency_hz = frequency_hz
        self.glitch_factor = glitch_factor
        self.samples = samples
        self.seed = seed

    def _random_stimulus(self, netlist: Netlist) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        stimulus = {}
        for port, wires in netlist.input_ports.items():
            width = len(wires)
            stimulus[port] = rng.integers(0, 1 << width, size=self.samples,
                                          dtype=np.int64)
        return stimulus

    def estimate(self, netlist: Netlist,
                 stimulus: Optional[Dict[str, np.ndarray]] = None) -> PowerBreakdown:
        """Estimate the average power of the netlist in milliwatts."""
        if stimulus is None:
            stimulus = self._random_stimulus(netlist)
        values, samples = netlist.simulate(stimulus)
        gates = [g for g in netlist.gates if g.kind not in PSEUDO_KINDS]
        # Bit i of x ^ (x >> 1) flags a toggle between samples i and i + 1.
        pairs = (1 << max(samples - 1, 0)) - 1
        changes = [(x ^ (x >> 1)) & pairs for x in (values[g.output] for g in gates)]
        toggles = unpack_samples(changes, samples).sum(axis=1).tolist()
        cycles = max(samples - 1, 1)

        _, skews = netlist.timing()
        cells = netlist.technology.cell_table()
        dynamic_fj_per_cycle = 0.0
        for gate, count in zip(gates, toggles):
            glitch = 1.0 + self.glitch_factor * skews[gate.output]
            dynamic_fj_per_cycle += (count / cycles * glitch
                                     * cells[gate.kind].switch_energy_fj)

        register_fj_per_cycle = netlist.register_bits \
            * cells[GateKind.DFF].switch_energy_fj \
            * (_DFF_CLOCK_FRACTION + _DFF_DATA_ACTIVITY * 0.5)

        dynamic_mw = dynamic_fj_per_cycle * 1e-15 * self.frequency_hz * 1e3
        register_mw = register_fj_per_cycle * 1e-15 * self.frequency_hz * 1e3
        leakage_mw = netlist.leakage_nw() * 1e-6
        return PowerBreakdown(dynamic_mw=dynamic_mw, leakage_mw=leakage_mw,
                              register_mw=register_mw)
